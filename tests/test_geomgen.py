import re

import pytest

from ifcaudit.census import census
from ifcaudit.errors import UnavailableItem
from ifcaudit.geomgen import (
    BELOW_PRECISION_ITEM,
    IFC4_EXCLUDED_SLOTS,
    SUITE_ITEMS,
    InvalidReason,
    generate_geometry_suite,
    generate_item,
    item_by_slot,
    items_for,
)
from ifcaudit.schema import SchemaVersion
from ifcaudit.spf import parse_spf, write_spf

EXPECTED_INVALID = {
    "B3": {InvalidReason.POSITIVE_LENGTH},
    "B4": {InvalidReason.POSITIVE_LENGTH},
    "C1": {InvalidReason.VALID_EXTRUSION_DIRECTION},
    "C5": {InvalidReason.VALID_EXTRUSION_DIRECTION},
    "D4": {InvalidReason.VALID_EXTRUSION_DIRECTION},
    "E3": {InvalidReason.VALID_EXTRUSION_DIRECTION},
    "F5": {InvalidReason.PARAM_RANGE},
}


def test_grid_covers_all_slots():
    slots = {i.slot for i in SUITE_ITEMS}
    assert slots == {f"{row}{col}" for row in "ABCDEF" for col in range(1, 6)}
    assert len(SUITE_ITEMS) == 30


def test_ifc4_exclusions():
    assert IFC4_EXCLUDED_SLOTS == {"E1", "E2", "E3", "E4", "F3", "F4", "F5"}
    ifc4_names = {i.definition_name for i in items_for(SchemaVersion.IFC4)}
    ifc2x3_names = {i.definition_name for i in items_for(SchemaVersion.IFC2X3)}
    assert ifc4_names < ifc2x3_names
    assert len(ifc4_names) == 23


def test_expected_validity_table():
    for item in SUITE_ITEMS:
        expected = EXPECTED_INVALID.get(item.slot)
        if expected is None:
            assert item.expected_validity.valid, item.slot
        else:
            assert not item.expected_validity.valid
            assert set(item.expected_validity.reasons) == expected


def test_generation_deterministic():
    a, _ = generate_geometry_suite(SchemaVersion.IFC2X3, timestamp="2020-01-01T00:00:00")
    b, _ = generate_geometry_suite(SchemaVersion.IFC2X3, timestamp="2020-01-01T00:00:00")
    assert write_spf(a) == write_spf(b)


def test_timestamp_env_injection(monkeypatch):
    monkeypatch.setenv("IFCAUDIT_TIMESTAMP", "1999-12-31T23:59:59")
    graph, _ = generate_geometry_suite(SchemaVersion.IFC2X3)
    assert graph.header.file_name.timestamp == "1999-12-31T23:59:59"


def test_generated_file_parses_clean(suite_2x3):
    graph, _ = suite_2x3
    reparsed = parse_spf(write_spf(graph))
    assert reparsed.diagnostics == []


def test_proxy_count_text_scan(suite_2x3):
    # independent line-scanning oracle over the emitted text
    graph, _ = suite_2x3
    text = write_spf(graph).decode("latin-1")
    proxy_lines = re.findall(r"#\d+=IFCBUILDINGELEMENTPROXY\(", text)
    assert len(proxy_lines) == 30


def test_extrusion_count_via_manifest_walk(suite_2x3):
    # extrusion rows B2..E4 plus the clipping operand, counted from the manifest
    graph, manifest = suite_2x3
    from ifcaudit.geomgen import ShapeKind

    expected = sum(
        1 for i in manifest.items if i.kind is ShapeKind.EXTRUDED_AREA_SOLID
    )
    expected += sum(
        1 for i in manifest.items if i.kind is ShapeKind.BOOLEAN_CLIPPING_RESULT
    )
    assert expected == 19
    assert census(graph).count("IFCEXTRUDEDAREASOLID") == expected


def test_no_crane_rail_in_ifc4(suite_ifc4):
    graph, _ = suite_ifc4
    assert census(graph).count("IFCCRANERAILASHAPEPROFILEDEF") == 0


def test_b3_depth_serialized_negative(suite_2x3):
    graph, _ = suite_2x3
    text = write_spf(graph).decode("latin-1")
    b3_lines = [
        line
        for line in text.splitlines()
        if "IFCEXTRUDEDAREASOLID" in line
        and "IFCPOSITIVELENGTHMEASURE(-2.)" in line
    ]
    assert len(b3_lines) == 1


def test_root_geometry_once_per_item(suite_2x3, proxies_by_slot):
    from ifcaudit.geomcheck import item_fragment

    graph, manifest = suite_2x3
    for item in manifest.items:
        fragment = item_fragment(graph, proxies_by_slot[item.slot])
        roots = [i for i in fragment if i.type_name == item.kind.root_type]
        assert len(roots) == 1, item.slot


def test_manifest_json_shape(suite_2x3):
    _, manifest = suite_2x3
    d = manifest.to_dict()
    assert d["schema"] == "IFC2X3"
    assert len(d["items"]) == 30
    b3 = next(i for i in d["items"] if i["slot"] == "B3")
    assert b3["expected_validity"] == {"valid": False, "reasons": ["PositiveLength"]}


def test_ifc4_manifest_notes_f4_discrepancy(suite_ifc4):
    _, manifest = suite_ifc4
    assert any("IfcSweptDiskSolid" in note for note in manifest.notes)


def test_generate_item_fragment():
    item = item_by_slot("A1")
    fragment = generate_item(item, SchemaVersion.IFC2X3)
    types = [i.type_name for i in fragment]
    assert types.count("IFCBOOLEANRESULT") == 1
    ids = [i.id for i in fragment]
    assert ids == sorted(ids) and ids[0] == 1


def test_generate_item_b1_cube_topology():
    fragment = generate_item(item_by_slot("B1"), SchemaVersion.IFC2X3)
    faces = [i for i in fragment if i.type_name == "IFCFACE"]
    points = [i for i in fragment if i.type_name == "IFCCARTESIANPOINT"]
    assert len(faces) == 6
    coords = {tuple(v.value for v in p.attributes[0].items) for p in points}
    assert len(coords) == 8


def test_generate_item_unavailable():
    with pytest.raises(UnavailableItem):
        generate_item(item_by_slot("E1"), SchemaVersion.IFC4)


def test_a1_uses_difference_operator():
    fragment = generate_item(item_by_slot("A1"), SchemaVersion.IFC2X3)
    root = next(i for i in fragment if i.type_name == "IFCBOOLEANRESULT")
    assert root.attributes[0].name == "DIFFERENCE"


def test_f5_params_exceed_directrix():
    fragment = generate_item(item_by_slot("F5"), SchemaVersion.IFC2X3)
    root = next(i for i in fragment if i.type_name == "IFCSWEPTDISKSOLID")
    start = root.attributes[3].value
    end = root.attributes[4].value
    assert start == 0.0 and end == 2.0  # directrix range is [0, 1]


def test_below_precision_extra_item():
    graph, manifest = generate_geometry_suite(
        SchemaVersion.IFC2X3,
        timestamp="2020-01-01T00:00:00",
        include_below_precision_item=True,
    )
    assert len(manifest.items) == 31
    assert manifest.items[-1] is BELOW_PRECISION_ITEM
    assert census(graph).count("IFCBUILDINGELEMENTPROXY") == 31


def test_unavailable_item_not_forced_into_ifc4():
    _, manifest = generate_geometry_suite(
        SchemaVersion.IFC4, timestamp="2020-01-01T00:00:00"
    )
    assert all(SchemaVersion.IFC4 in i.available_in for i in manifest.items)


def test_spacing_controls_positions(proxies_by_slot, suite_2x3):
    graph, manifest = suite_2x3
    from ifcaudit.geomcheck import placement_matrix

    for slot, col, row_idx in [("A1", 1, 0), ("C4", 4, 2), ("F5", 5, 5)]:
        proxy = proxies_by_slot[slot]
        m = placement_matrix(graph, proxy.attr(5))
        assert m[0, 3] == (col - 1) * manifest.grid_spacing
        assert m[1, 3] == row_idx * manifest.grid_spacing


#: SHA-256 of the suites and of every item's fragment at a pinned timestamp:
#: a change to the generator that moves one byte of its output fails here.
PINNED_SUITE_DIGESTS = {
    ("IFC2X3", False): "af2da86147a0eea7d1e2cd874fa5b53bc834791e67ad6605d078712c2461a25e",
    ("IFC2X3", True): "f2815d59f8828fce67145734e52ce14bd657323cc6b76af83eb80e2ecdf96080",
    ("IFC4", False): "6f99b781a07605016d34c8feeff9d9e641cabf8d326d0eb648ac87023c3a1367",
    ("IFC4", True): "0e47759dc740fd1063e4ef76d57f8f165224dc91572b133920d1bb767506b504",
}
PINNED_FRAGMENT_DIGEST = "1b8d88f621e63ddf75dcd8ac40394a607c28db65a3f51da51a4af505d57672b7"


def _digest(chunks) -> str:
    import hashlib

    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@pytest.mark.parametrize("schema", list(SchemaVersion))
@pytest.mark.parametrize("below_precision", [False, True])
def test_generated_suite_bytes_are_pinned(schema, below_precision):
    graph, _ = generate_geometry_suite(
        schema, timestamp="2020-01-01T00:00:00",
        include_below_precision_item=below_precision,
    )
    digest = _digest([write_spf(graph)])
    assert digest == PINNED_SUITE_DIGESTS[schema.value, below_precision]
    # ``generate`` writes the bytes the graph was parsed from
    assert graph.source.data == write_spf(graph)


def test_clipping_plane_is_written_at_clip_plane_z(monkeypatch):
    from ifcaudit.geomgen import ShapeKind, generate
    from ifcaudit.spf.values import numbers

    monkeypatch.setattr(generate, "CLIP_PLANE_Z", 0.25)
    (item,) = (i for i in SUITE_ITEMS if i.kind is ShapeKind.BOOLEAN_CLIPPING_RESULT)
    fragment = {inst.id: inst for inst in generate_item(item, SchemaVersion.IFC2X3)}
    (plane,) = (inst for inst in fragment.values() if inst.type_name == "IFCPLANE")
    location = fragment[fragment[plane.attr(0).id].attr(0).id]
    assert numbers(location.attr(0)) == [0.0, 0.0, 0.25]


def test_generated_item_fragments_are_pinned():
    from ifcaudit.spf import format_instance

    def lines():
        for schema in SchemaVersion:
            for item in items_for(schema) + (BELOW_PRECISION_ITEM,):
                yield f"{schema.value} {item.slot}\n".encode()
                for inst in generate_item(item, schema):
                    yield (format_instance(inst) + "\n").encode("latin-1")

    assert _digest(lines()) == PINNED_FRAGMENT_DIGEST
