"""Data-driven registry of IFC type names, report groups and availability.

Not an EXPRESS compiler: the registry covers the entity subset exercised by
the audit tasks (census grouping, suite generation, georeferencing) and maps
everything else to the Other group.
"""

from __future__ import annotations

import enum
from importlib import resources
from types import SimpleNamespace

from ._record import FrozenRecord, set_field


class SchemaVersion(enum.Enum):
    IFC2X3 = "IFC2X3"
    IFC4 = "IFC4"

    @classmethod
    def from_name(cls, name: str | None) -> "SchemaVersion | None":
        """Map a FILE_SCHEMA identifier to a version; IFC4X* counts as IFC4."""
        if not name:
            return None
        upper = name.upper()
        if upper.startswith("IFC2X3"):
            return cls.IFC2X3
        if upper.startswith("IFC4"):
            return cls.IFC4
        return None


class ReportGroup(enum.Enum):
    METADATA = "Metadata"
    SPATIAL_STRUCTURE = "SpatialStructure"
    UNITS = "Units"
    QUANTITIES = "Quantities"
    BUILDING_ELEMENTS = "BuildingElements"
    GEOMETRY = "Geometry"
    RELATIONSHIPS = "Relationships"
    PROPERTIES_AND_MATERIALS = "PropertiesAndMaterials"
    OTHER = "Other"


class TypeEntry(FrozenRecord):
    _fields = ("name", "group", "versions", "attributes", "ifc4_attributes")

    def __init__(self, name: str, group: ReportGroup, versions: frozenset[SchemaVersion],
                 attributes: tuple[str, ...] = (), ifc4_attributes: tuple[str, ...] = ()):
        set_field(self, "name", name)
        set_field(self, "group", group)
        set_field(self, "versions", versions)
        set_field(self, "attributes", attributes)
        set_field(self, "ifc4_attributes", ifc4_attributes)


_BOTH = frozenset({SchemaVersion.IFC2X3, SchemaVersion.IFC4})
_AVAILABILITY = {
    "BOTH": _BOTH,
    "IFC2X3": frozenset({SchemaVersion.IFC2X3}),
    "IFC4": frozenset({SchemaVersion.IFC4}),
}


class TypeRegistry:
    def __init__(self, entries: dict[str, TypeEntry]):
        self.entries = entries

    @classmethod
    def from_text(cls, text: str) -> "TypeRegistry":
        """Parse the line-oriented registry format
        ``TYPE;GROUP;IFC2X3|IFC4|BOTH[;NAME,...[|IFC4 NAME,...]]``: the
        attribute names in ISO 16739 order, those only IFC4 appends last."""
        entries: dict[str, TypeEntry] = {}
        groups = {g.value.upper(): g for g in ReportGroup}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(";")
            if len(parts) not in (3, 4):
                raise ValueError(f"registry line {lineno}: expected 3 or 4 fields, got {line!r}")
            name, group, avail = (p.strip().upper() for p in parts[:3])
            if group not in groups:
                raise ValueError(f"registry line {lineno}: unknown group {group!r}")
            if avail not in _AVAILABILITY:
                raise ValueError(f"registry line {lineno}: bad availability {avail!r}")
            versions = _AVAILABILITY[avail]
            shared, bar, appended = parts[3].partition("|") if len(parts) == 4 else ("",) * 3
            attributes = tuple(n.strip() for n in shared.split(",")) if len(parts) == 4 else ()
            ifc4_attributes = tuple(n.strip() for n in appended.split(",")) if bar else ()
            every = attributes + ifc4_attributes
            if every and (not all(map(str.isidentifier, every)) or len(set(every)) < len(every)):
                raise ValueError(f"registry line {lineno}: bad or repeated attribute names")
            if ifc4_attributes and SchemaVersion.IFC4 not in versions:
                raise ValueError(f"registry line {lineno}: IFC4 attributes on a type IFC4 lacks")
            entries[name] = TypeEntry(name, groups[group], versions, attributes, ifc4_attributes)
        return cls(entries)

    def __contains__(self, name: str) -> bool:
        return name.upper() in self.entries

    def available_in(self, name: str, version: SchemaVersion) -> bool:
        entry = self.entries.get(name.upper())
        return entry is not None and version in entry.versions

    def group_of(self, name: str) -> ReportGroup:
        """Report group for a type; unknown names fall back to Other."""
        entry = self.entries.get(name.upper())
        return entry.group if entry is not None else ReportGroup.OTHER


_default: TypeRegistry | None = None


def default_registry() -> TypeRegistry:
    """The registry shipped with the toolkit (loaded once)."""
    global _default
    if _default is None:
        text = (
            resources.files("ifcaudit.schema_data")
            .joinpath("ifc_types.txt")
            .read_text("utf-8")
        )
        _default = TypeRegistry.from_text(text)
    return _default


def layout(type_name: str) -> SimpleNamespace:
    """Each attribute's position in a registered entity, by name, the same
    in both schemas: ``layout("IFCSITE").RefLatitude`` is 9."""
    entry = default_registry().entries[type_name]
    names = entry.attributes + entry.ifc4_attributes
    return SimpleNamespace(**{name: index for index, name in enumerate(names)})


def arity(type_name: str, version: SchemaVersion) -> int:
    """How many attributes a registered entity has in ``version``."""
    entry = default_registry().entries[type_name]
    if not entry.attributes or version not in entry.versions:
        raise KeyError(f"no {version.value} attribute layout for {type_name}")
    appended = entry.ifc4_attributes if version is SchemaVersion.IFC4 else ()
    return len(entry.attributes) + len(appended)
