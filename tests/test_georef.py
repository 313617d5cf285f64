import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifcaudit.census import census
from ifcaudit.errors import BadLength, MixedSign
from ifcaudit.georef import (
    LoGeoRefLevel,
    compound_angle_to_degrees,
    detect_georef,
    report_as_dict,
)
from tests_helpers import (
    georef_fixture_l10,
    georef_fixture_l20,
    georef_fixture_l30,
    georef_fixture_l40,
    georef_fixture_l50,
    record_lines,
    with_record_lines,
)


def test_compound_angle_basics():
    assert compound_angle_to_degrees((0, 0, 0)) == 0.0
    assert compound_angle_to_degrees((-52, -30, 0)) == -52.5
    assert compound_angle_to_degrees((52, 30, 0, 0)) == 52.5


def test_compound_angle_oracle():
    # independent arithmetic: 52 + 0/60 + 30/3600 + 500000/3.6e9
    assert compound_angle_to_degrees((52, 0, 30, 500000)) == pytest.approx(
        52 + 30 / 3600 + 500000 / 3.6e9, abs=1e-15
    )


def test_compound_angle_errors():
    with pytest.raises(MixedSign):
        compound_angle_to_degrees((52, -1, 0))
    with pytest.raises(BadLength):
        compound_angle_to_degrees((52, 0))
    with pytest.raises(BadLength):
        compound_angle_to_degrees((52, 0, 0, 0, 0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 59), min_size=3, max_size=4),
    st.sampled_from([1, -1]),
)
def test_compound_angle_odd(parts, sign):
    value = [sign * p for p in parts]
    negated = [-c for c in value]
    assert compound_angle_to_degrees(negated) == -compound_angle_to_degrees(value)


def test_l10_detection():
    report = detect_georef(georef_fixture_l10())
    assert report.levels == [10]
    payload = report.detected[LoGeoRefLevel.L10].payload
    assert payload["host"] == "site"
    assert payload["town"] == "Delft"
    assert payload["country"] == "NL"


def test_l20_detection():
    report = detect_georef(georef_fixture_l20())
    assert report.levels == [20]
    payload = report.detected[LoGeoRefLevel.L20].payload
    assert payload["latitude"] == 52.0
    assert payload["longitude"] == 4.5
    assert payload["elevation_m"] == 2.5


def test_l30_detection():
    report = detect_georef(georef_fixture_l30())
    assert report.levels == [30]
    payload = report.detected[LoGeoRefLevel.L30].payload
    assert payload["reference_point"] == [85321.25, 446714.5, 1.75]
    assert payload["unit"] == "metre"


def test_l40_detection():
    report = detect_georef(georef_fixture_l40())
    assert report.levels == [40]
    payload = report.detected[LoGeoRefLevel.L40].payload
    assert payload["origin"] == [85321.25, 446714.5, 0.0]
    assert payload["true_north"] == [0.1, 0.9949874371066199]


def test_l50_detection():
    report = detect_georef(georef_fixture_l50())
    assert report.levels == [50]
    payload = report.detected[LoGeoRefLevel.L50].payload
    assert payload["eastings"] == 333780.622
    assert payload["northings"] == 6246775.891
    assert payload["orthogonal_height"] == 19.7
    assert payload["rotation"] == (1.0, 0.0)
    assert payload["crs_name"] == "EPSG:28355"


def test_l50_never_reported_for_ifc2x3():
    graph = georef_fixture_l50(schema="IFC2X3")
    report = detect_georef(graph)
    assert 50 not in report.levels
    assert any("IFC4" in d for d in report.diagnostics)


def test_local_origin_model_detects_nothing(suite_2x3):
    graph, _ = suite_2x3
    report = detect_georef(graph)
    assert report.levels == []


def test_detection_is_read_only():
    graph = georef_fixture_l20()
    before = census(graph).counts
    detect_georef(graph)
    assert census(graph).counts == before


def test_monotone_evidence():
    # adding L20 attributes to an L10 fixture adds L20, keeps L10
    graph = georef_fixture_l10()
    base_levels = detect_georef(graph).levels
    site = graph.by_type("IFCSITE")[0]
    from ifcaudit.spf.build import value_of

    attrs = list(site.attributes)
    attrs[9] = value_of([52, 0, 0, 0])
    attrs[10] = value_of([4, 30, 0, 0])
    site._attrs = tuple(attrs)
    levels = detect_georef(graph).levels
    assert set(base_levels) <= set(levels)
    assert 20 in levels


def test_no_site_diagnostic():
    from tests_helpers import minimal_building

    report = detect_georef(minimal_building())
    assert any("IfcSite" in d for d in report.diagnostics)


def test_report_as_dict_shape():
    d = report_as_dict(detect_georef(georef_fixture_l20()))
    assert set(d) == {"levels", "params", "diagnostics"}
    assert d["levels"] == [20]
    assert "20" in d["params"]


_NO_CRS = "IfcMapConversion without IfcProjectedCRS target"

#: Each reference a detector follows: the fixture that sets it, the type and
#: attribute index of the first instance in the file that holds it, and the
#: report's (levels, diagnostics) when it is intact, unset, dangling (#97) or
#: names an IFCSIUNIT (#98), a type that no detector reads.
REFERENCE_EDGES = {
    "site-address": (georef_fixture_l10, "IFCSITE", 13, {
        "intact": ([10], []),
        "unset": ([], []),
        "dangling": ([], ["site address reference #97 dangling"]),
        "wrong-type": ([], ["site address reference #98 is IFCSIUNIT"]),
    }),
    "building-address": (lambda: georef_fixture_l10(host="building"), "IFCBUILDING", 11, {
        "intact": ([10], []),
        "unset": ([], []),
        "dangling": ([], ["building address reference #97 dangling"]),
        "wrong-type": ([], ["building address reference #98 is IFCSIUNIT"]),
    }),
    "site-placement": (georef_fixture_l30, "IFCSITE", 5, {
        "intact": ([30], []),
        "unset": ([], []),
        "dangling": ([], ["site placement #97 dangling"]),
        "wrong-type": ([], ["site placement #98 is IFCSIUNIT"]),
    }),
    "relative-placement": (georef_fixture_l30, "IFCLOCALPLACEMENT", 1, {
        "intact": ([30], []),
        "unset": ([], []),
        "dangling": ([], ["site relative placement #97 dangling"]),
        "wrong-type": ([], ["site relative placement #98 is IFCSIUNIT"]),
    }),
    "site-location": (georef_fixture_l30, "IFCAXIS2PLACEMENT3D", 0, {
        "intact": ([30], []),
        "unset": ([], []),
        "dangling": ([], ["site placement location #97 dangling"]),
        "wrong-type": ([], ["site placement location #98 is IFCSIUNIT"]),
    }),
    # at the origin, so the direction alone makes the site placement level 30
    "site-axis": (
        lambda: georef_fixture_l30(location=(0, 0, 0), axis=(0, 0, 1)), "IFCAXIS2PLACEMENT3D", 1, {
            "intact": ([30], []),
            "unset": ([], []),
            "dangling": ([], ["site placement axis #97 dangling"]),
            "wrong-type": ([], ["site placement axis #98 is IFCSIUNIT"]),
        },
    ),
    "site-ref-direction": (
        lambda: georef_fixture_l30(location=(0, 0, 0), ref_direction=(1, 0, 0)),
        "IFCAXIS2PLACEMENT3D", 2, {
            "intact": ([30], []),
            "unset": ([], []),
            "dangling": ([], ["site placement ref direction #97 dangling"]),
            "wrong-type": ([], ["site placement ref direction #98 is IFCSIUNIT"]),
        },
    ),
    # TrueNorth is set, so the context is level 40 whatever its WCS
    "context-wcs": (georef_fixture_l40, "IFCGEOMETRICREPRESENTATIONCONTEXT", 4, {
        "intact": ([40], []),
        "unset": ([40], []),
        "dangling": ([40], ["representation context world coordinate system #97 dangling"]),
        "wrong-type": ([40], ["representation context world coordinate system #98 is IFCSIUNIT"]),
    }),
    # without TrueNorth, the WCS origin alone makes the context level 40
    "context-origin": (lambda: georef_fixture_l40(true_north=None), "IFCAXIS2PLACEMENT3D", 0, {
        "intact": ([40], []),
        "unset": ([], []),
        "dangling": ([], ["representation context origin #97 dangling"]),
        "wrong-type": ([], ["representation context origin #98 is IFCSIUNIT"]),
    }),
    "context-true-north": (
        lambda: georef_fixture_l40(origin=(0, 0, 0)), "IFCGEOMETRICREPRESENTATIONCONTEXT", 5, {
            "intact": ([40], []),
            "unset": ([], []),
            "dangling": ([], ["representation context true north #97 dangling"]),
            "wrong-type": ([], ["representation context true north #98 is IFCSIUNIT"]),
        },
    ),
    "map-conversion-crs": (georef_fixture_l50, "IFCMAPCONVERSION", 1, {
        "intact": ([50], []),
        "unset": ([], [_NO_CRS]),
        "dangling": ([], ["map conversion target CRS #97 dangling", _NO_CRS]),
        "wrong-type": ([], ["map conversion target CRS #98 is IFCSIUNIT", _NO_CRS]),
    }),
}


@pytest.mark.parametrize(
    "edge, case",
    [(edge, case) for edge, (*_, cases) in REFERENCE_EDGES.items() for case in cases],
)
def test_reference_edges(edge, case):
    from ifcaudit.spf import UNSET, Reference, format_value

    fixture, type_name, index, cases = REFERENCE_EDGES[edge]
    graph = fixture()
    assert 97 not in graph and 98 not in graph
    holder = graph.by_type(type_name)[0]
    attrs = list(holder.attributes)
    assert isinstance(attrs[index], Reference)
    replacement = {"unset": UNSET, "dangling": Reference(97), "wrong-type": Reference(98)}
    attrs[index] = replacement.get(case, attrs[index])
    edited = f"#{holder.id}={type_name}({','.join(map(format_value, attrs))});"
    lines = [edited if line.startswith(f"#{holder.id}=") else line for line in record_lines(graph)]
    graph = with_record_lines(graph, lines + ["#98=IFCSIUNIT(*,.PLANEANGLEUNIT.,$,.RADIAN.);"])
    report = detect_georef(graph)
    assert (report.levels, report.diagnostics) == cases[case]


def test_dangling_building_address_behind_a_site_address():
    # the site's address is the payload, and the building's is still checked
    graph = georef_fixture_l10()
    assert 97 not in graph
    building = "#99=IFCBUILDING(" + "$," * 11 + "#97);"
    graph = with_record_lines(graph, record_lines(graph) + [building])
    report = detect_georef(graph)
    assert report.levels == [10]
    assert report.detected[LoGeoRefLevel.L10].payload["host"] == "site"
    assert report.diagnostics == ["building address reference #97 dangling"]
