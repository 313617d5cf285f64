import itertools

import pytest

from ifcaudit.geomgen import BELOW_PRECISION_ITEM, SUITE_ITEMS
from ifcaudit.geomgen.generate import generate_geometry_suite, generate_item
from ifcaudit.schema import (
    ReportGroup,
    SchemaVersion,
    TypeRegistry,
    arity,
    default_registry,
    layout,
)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def test_group_examples(registry):
    assert registry.group_of("IFCUNITASSIGNMENT") is ReportGroup.UNITS
    assert registry.group_of("IFCCARTESIANPOINT") is ReportGroup.GEOMETRY
    assert registry.group_of("IFCRELCONNECTSPATHELEMENTS") is ReportGroup.RELATIONSHIPS
    assert registry.group_of("IFCMYSTERYTYPE") is ReportGroup.OTHER


def test_group_total_and_pure(registry):
    assert registry.group_of("ifcwall") is registry.group_of("IFCWALL")


def test_crane_rail_availability(registry):
    assert registry.available_in("IFCCRANERAILASHAPEPROFILEDEF", SchemaVersion.IFC2X3)
    assert not registry.available_in("IFCCRANERAILASHAPEPROFILEDEF", SchemaVersion.IFC4)


def test_registry_format_has_three_or_four_fields():
    registry = TypeRegistry.from_text(
        "# comment\nIfcWall;BuildingElements;BOTH\nIfcShape;Geometry;BOTH; A, B |C\n"
    )
    assert registry.group_of("IFCWALL") is ReportGroup.BUILDING_ELEMENTS
    assert registry.entries["IFCWALL"].attributes == ()
    shape = registry.entries["IFCSHAPE"]
    assert (shape.attributes, shape.ifc4_attributes) == (("A", "B"), ("C",))
    with pytest.raises(ValueError, match="registry line 1: expected 3 or 4 fields"):
        TypeRegistry.from_text("IFCWALL;IFCBUILDINGELEMENT;BUILDINGELEMENTS;BOTH;Name\n")


@pytest.mark.parametrize(
    "line, error",
    [
        ("IFCX;Geometry;BOTH;A;B", "expected 3 or 4 fields"),  # a fifth field
        ("IFCX;Geometry;BOTH;A,B,A", "bad or repeated attribute names"),
        ("IFCX;Geometry;BOTH;A|A", "bad or repeated attribute names"),
        ("IFCX;Geometry;BOTH;", "bad or repeated attribute names"),
        ("IFCX;Geometry;BOTH;A,,B", "bad or repeated attribute names"),
        ("IFCX;Geometry;BOTH;A|B|C", "bad or repeated attribute names"),
        ("IFCX;Geometry;BOTH;A|", "bad or repeated attribute names"),
        ("IFCX;Geometry;BOTH;A-B", "bad or repeated attribute names"),
        ("IFCX;Geometry;IFC2X3;A|B", "IFC4 attributes on a type IFC4 lacks"),
    ],
)
def test_registry_rejects_malformed_attribute_lists(line, error):
    with pytest.raises(ValueError, match=f"registry line 2: {error}"):
        TypeRegistry.from_text(f"# comment\n{line}\n")


def test_layout_and_arity(registry):
    assert layout("IFCSITE").RefLatitude == 9
    ishape = layout("IFCISHAPEPROFILEDEF")
    assert (ishape.FilletRadius, ishape.FlangeEdgeRadius, ishape.FlangeSlope) == (7, 8, 9)
    assert arity("IFCISHAPEPROFILEDEF", SchemaVersion.IFC2X3) == 8
    assert arity("IFCISHAPEPROFILEDEF", SchemaVersion.IFC4) == 10
    assert arity("IFCCRANERAILASHAPEPROFILEDEF", SchemaVersion.IFC2X3) == 15
    # IFC4 names a position IFC2X3 names differently
    assert layout("IFCBUILDINGELEMENTPROXY").PredefinedType == 8
    with pytest.raises(KeyError):
        arity("IFCCRANERAILASHAPEPROFILEDEF", SchemaVersion.IFC4)  # not in IFC4
    with pytest.raises(KeyError):
        arity("IFCWALL", SchemaVersion.IFC4)  # registered without a layout
    with pytest.raises(AttributeError):
        layout("IFCWALL").Name
    ishape_entry = registry.entries["IFCISHAPEPROFILEDEF"]
    assert ishape_entry.ifc4_attributes == ("FlangeEdgeRadius", "FlangeSlope")


@pytest.mark.parametrize("version", list(SchemaVersion))
@pytest.mark.parametrize("extra", [False, True], ids=["suite", "extra-below-precision"])
def test_written_records_have_the_arity_of_their_layout(version, extra):
    """Every record the generator writes, in a suite or an item's fragment,
    is of a type with a layout and has that layout's attribute count."""
    graph, _ = generate_geometry_suite(version, include_below_precision_item=extra)
    items = [i for i in SUITE_ITEMS + (BELOW_PRECISION_ITEM,) if version in i.available_in]
    for inst in itertools.chain(graph, *(generate_item(i, version) for i in items)):
        assert len(inst.attributes) == arity(inst.type_name, version), inst.type_name


def test_generator_types_are_registered(registry, suite_2x3, suite_ifc4):
    for fixture, version in ((suite_2x3, SchemaVersion.IFC2X3), (suite_ifc4, SchemaVersion.IFC4)):
        graph, _ = fixture
        for inst in graph:
            assert registry.available_in(inst.type_name, version), inst.type_name


def test_cross_module_types_registered(registry):
    # every type the other modules rely on has a registry entry
    from ifcaudit.census import FAMILIES

    needed = set().union(*FAMILIES.values())
    needed |= {
        "IFCSITE", "IFCBUILDING", "IFCPOSTALADDRESS", "IFCLOCALPLACEMENT",
        "IFCAXIS2PLACEMENT3D", "IFCCARTESIANPOINT", "IFCDIRECTION",
        "IFCGEOMETRICREPRESENTATIONCONTEXT", "IFCMAPCONVERSION",
        "IFCPROJECTEDCRS", "IFCSIUNIT", "IFCUNITASSIGNMENT",
        "IFCDERIVEDUNIT", "IFCDERIVEDUNITELEMENT",
    }
    from ifcaudit.geomcheck.evaluate import SHAPES

    needed |= SHAPES.keys()
    for name in sorted(needed):
        assert name in registry, name


def test_schema_version_from_name():
    assert SchemaVersion.from_name("IFC2X3") is SchemaVersion.IFC2X3
    assert SchemaVersion.from_name("IFC2X3_TC1") is SchemaVersion.IFC2X3
    assert SchemaVersion.from_name("IFC4") is SchemaVersion.IFC4
    assert SchemaVersion.from_name("IFC4X1") is SchemaVersion.IFC4
    assert SchemaVersion.from_name("CITYGML") is None
    assert SchemaVersion.from_name(None) is None
