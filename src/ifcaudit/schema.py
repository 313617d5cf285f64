"""Data-driven registry of IFC type names, report groups and availability.

Not an EXPRESS compiler: the registry covers the entity subset exercised by
the audit tasks (census grouping, suite generation, georeferencing) and maps
everything else to the Other group.
"""

from __future__ import annotations

import enum
from importlib import resources

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
    _fields = ("name", "group", "versions")

    def __init__(self, name: str, group: ReportGroup, versions: frozenset[SchemaVersion]):
        set_field(self, "name", name)
        set_field(self, "group", group)
        set_field(self, "versions", versions)


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
        ``TYPE;GROUP;IFC2X3|IFC4|BOTH``."""
        entries: dict[str, TypeEntry] = {}
        groups = {g.value.upper(): g for g in ReportGroup}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(";")
            if len(parts) != 3:
                raise ValueError(f"registry line {lineno}: expected 3 fields, got {line!r}")
            name, group, avail = (p.strip().upper() for p in parts)
            if group not in groups:
                raise ValueError(f"registry line {lineno}: unknown group {group!r}")
            if avail not in _AVAILABILITY:
                raise ValueError(f"registry line {lineno}: bad availability {avail!r}")
            entries[name] = TypeEntry(
                name=name,
                group=groups[group],
                versions=_AVAILABILITY[avail],
            )
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
