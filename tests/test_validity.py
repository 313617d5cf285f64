import pytest

from ifcaudit.errors import UnsupportedShape
from ifcaudit.geomcheck import check_validity, item_fragment
from ifcaudit.geomgen import InvalidReason
from ifcaudit.schema import SchemaVersion
from ifcaudit.spf.build import GraphBuilder


def test_expected_verdicts_full_suite(suite_2x3, proxies_by_slot):
    graph, manifest = suite_2x3
    for item in manifest.items:
        fragment = item_fragment(graph, proxies_by_slot[item.slot])
        verdict = check_validity(graph, fragment, manifest.precision)
        assert verdict.valid == item.expected_validity.valid, item.slot
        assert verdict.reasons == item.expected_validity.reasons, item.slot


def test_invalid_sets_exact(suite_2x3, proxies_by_slot):
    graph, manifest = suite_2x3
    by_reason = {reason: set() for reason in InvalidReason}
    for item in manifest.items:
        fragment = item_fragment(graph, proxies_by_slot[item.slot])
        verdict = check_validity(graph, fragment, manifest.precision)
        for reason in verdict.reasons:
            by_reason[reason].add(item.slot)
    assert by_reason[InvalidReason.POSITIVE_LENGTH] == {"B3", "B4"}
    assert by_reason[InvalidReason.VALID_EXTRUSION_DIRECTION] == {"C1", "C5", "D4", "E3"}
    assert by_reason[InvalidReason.PARAM_RANGE] == {"F5"}


def test_ifc4_suite_verdicts(suite_ifc4):
    from ifcaudit.geomcheck import suite_proxies

    graph, manifest = suite_ifc4
    slots = {}
    for proxy in suite_proxies(graph):
        fragment = item_fragment(graph, proxy)
        verdict = check_validity(graph, fragment, manifest.precision)
        if not verdict.valid:
            slots[proxy.attr(3).value] = verdict.reasons
    assert set(slots) == {"B3", "B4", "C1", "C5", "D4"}


def test_below_precision_warning():
    from ifcaudit.geomgen import BELOW_PRECISION_ITEM, generate_geometry_suite
    from ifcaudit.geomcheck import suite_proxies

    graph, manifest = generate_geometry_suite(
        SchemaVersion.IFC2X3,
        timestamp="2020-01-01T00:00:00",
        include_below_precision_item=True,
    )
    proxy = next(
        p for p in suite_proxies(graph) if p.attr(3).value == BELOW_PRECISION_ITEM.slot
    )
    verdict = check_validity(graph, item_fragment(graph, proxy), manifest.precision)
    assert verdict.valid
    assert InvalidReason.BELOW_PRECISION in verdict.warnings


def test_unsupported_shape():
    b = GraphBuilder("IFC2X3")
    b.add("IFCSPHERE", 1.0, None)
    graph = b.graph()
    with pytest.raises(UnsupportedShape):
        check_validity(graph, list(graph), 1e-5)


def test_direction_dot_tolerance_boundary():
    # a z component just above the tolerance is treated as non-parallel
    from ifcaudit.spf.build import enum, typed

    def extrusion_with_dz(dz: float):
        b = GraphBuilder("IFC2X3")
        origin2 = b.add("IFCCARTESIANPOINT", (0.0, 0.0))
        a2d = b.add("IFCAXIS2PLACEMENT2D", origin2, None)
        profile = b.add(
            "IFCRECTANGLEPROFILEDEF", enum("AREA"), None, a2d,
            typed("IFCPOSITIVELENGTHMEASURE", 1.0),
            typed("IFCPOSITIVELENGTHMEASURE", 1.0),
        )
        origin3 = b.add("IFCCARTESIANPOINT", (0.0, 0.0, 0.0))
        pos = b.add("IFCAXIS2PLACEMENT3D", origin3, None, None)
        direction = b.add("IFCDIRECTION", (1.0, 0.0, dz))
        b.add(
            "IFCEXTRUDEDAREASOLID", profile, pos, direction,
            typed("IFCPOSITIVELENGTHMEASURE", 2.0),
        )
        return b.graph()

    graph = extrusion_with_dz(0.0)
    verdict = check_validity(graph, list(graph), 1e-5)
    assert InvalidReason.VALID_EXTRUSION_DIRECTION in verdict.reasons

    graph = extrusion_with_dz(1e-11)
    verdict = check_validity(graph, list(graph), 1e-5)
    assert InvalidReason.VALID_EXTRUSION_DIRECTION not in verdict.reasons

    graph = extrusion_with_dz(1e-13)
    verdict = check_validity(graph, list(graph), 1e-5)
    assert InvalidReason.VALID_EXTRUSION_DIRECTION in verdict.reasons


def extrusion(b: GraphBuilder, direction) -> tuple:
    """Add a solid extruded along ``direction``; the built graph and its
    instances."""
    from ifcaudit.spf.build import typed

    b.add(
        "IFCEXTRUDEDAREASOLID", None, None, direction,
        typed("IFCPOSITIVELENGTHMEASURE", 1.0),
    )
    graph = b.graph()
    return graph, list(graph)


def test_typed_direction_ratios_are_read():
    from ifcaudit.spf.build import typed

    b = GraphBuilder("IFC2X3")
    direction = b.add("IFCDIRECTION", [typed("IFCREAL", r) for r in (1.0, 0.0, 0.0)])
    verdict = check_validity(*extrusion(b, direction), 1e-5)
    assert verdict.reasons == {InvalidReason.VALID_EXTRUSION_DIRECTION}


def test_typed_sweep_parameters_are_read():
    from ifcaudit.spf.build import typed

    b = GraphBuilder("IFC2X3")
    p0 = b.add("IFCCARTESIANPOINT", (0.0, 0.0, 0.0))
    p1 = b.add("IFCCARTESIANPOINT", (0.0, 0.0, 1.0))
    line = b.add("IFCPOLYLINE", [p0, p1])
    b.add(
        "IFCSWEPTDISKSOLID", line, typed("IFCPOSITIVELENGTHMEASURE", 0.1), None,
        typed("IFCPARAMETERVALUE", 0.0), typed("IFCPARAMETERVALUE", 2.0),
    )
    graph = b.graph()
    verdict = check_validity(graph, list(graph), 1e-5)
    assert verdict.reasons == {InvalidReason.PARAM_RANGE}


def test_dangling_extrusion_direction_is_unreadable():
    from ifcaudit.spf.model import Reference

    b = GraphBuilder("IFC2X3")
    verdict = check_validity(*extrusion(b, Reference(999)), 1e-5)
    assert verdict.valid
    assert verdict.details == ["#1: extrusion direction unreadable"]
