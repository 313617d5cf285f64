import pytest

from ifcaudit.schema import (
    ReportGroup,
    SchemaVersion,
    TypeRegistry,
    default_registry,
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


def test_registry_format_has_three_fields():
    registry = TypeRegistry.from_text("# comment\nIfcWall;BuildingElements;BOTH\n")
    assert registry.group_of("IFCWALL") is ReportGroup.BUILDING_ELEMENTS
    with pytest.raises(ValueError, match="registry line 1: expected 3 fields"):
        TypeRegistry.from_text("IFCWALL;IFCBUILDINGELEMENT;BUILDINGELEMENTS;BOTH\n")


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
