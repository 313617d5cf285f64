"""The synthetic geometry conformance suite: 30 slots on a 6x5 grid.

Rows A-F and columns 1-5 each hold one test shape; seven shapes are invalid
on purpose (wrong extrusion depth sign, extrusion direction in the profile
plane, sweep parameters outside the directrix range) and seven use a profile
entity that no longer exists in IFC4, so the IFC4 variant of the suite has 23
items.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..schema import SchemaVersion

GRID_ROWS = "ABCDEF"
GRID_COLUMNS = (1, 2, 3, 4, 5)

# Shape dimensions are toolkit conventions (meters); all expected values in
# the test suite derive from these.
CUBE_EDGE = 1.0
CUBE_OVERLAP = 0.5
RECT_X = 1.0
RECT_Y = 1.0
ELLIPSE_SEMI_1 = 1.0
ELLIPSE_SEMI_2 = 0.5
EXTRUSION_DEPTH = 2.0
REVOLVE_AXIS_OFFSET = 2.0
DISK_RADIUS = 0.25
DIRECTRIX_LENGTH = 3.0
ISHAPE_WIDTH = 0.5
ISHAPE_DEPTH = 1.0
ISHAPE_WEB = 0.1
ISHAPE_FLANGE = 0.15
ISHAPE_FILLET = 0.05
CLIP_PLANE_Z = 0.5
SLANT_COMPONENT = 0.7071067811865476  # unit diagonal in the XZ plane

# Crane rail (A-shape) cross-section parameters.
CRANE_HEIGHT = 0.15
CRANE_BASE_WIDTH = 0.15
CRANE_HEAD_WIDTH = 0.07
CRANE_HEAD_DEPTH_2 = 0.02
CRANE_HEAD_DEPTH_3 = 0.04
CRANE_WEB_THICKNESS = 0.03
CRANE_BASE_WIDTH_4 = 0.10
CRANE_BASE_DEPTH_1 = 0.015
CRANE_BASE_DEPTH_2 = 0.03
CRANE_BASE_DEPTH_3 = 0.06

DEFAULT_SPACING = 5.0
DEFAULT_PRECISION = 1e-5


class ShapeKind(enum.Enum):
    BOOLEAN_RESULT = "BooleanResult"
    BOOLEAN_CLIPPING_RESULT = "BooleanClippingResult"
    SHELL_BASED_SURFACE_MODEL = "ShellBasedSurfaceModel"
    FACETED_BREP = "FacetedBrep"
    EXTRUDED_AREA_SOLID = "ExtrudedAreaSolid"
    REVOLVED_AREA_SOLID = "RevolvedAreaSolid"
    SWEPT_DISK_SOLID = "SweptDiskSolid"

    @property
    def root_type(self) -> str:
        return "IFC" + self.value.upper()


class Profile(enum.Enum):
    RECTANGLE = "Rectangle"
    ELLIPSE = "Ellipse"
    I_SHAPE = "IShape"
    CRANE_RAIL_A_SHAPE = "CraneRailAShape"
    DISK = "Disk"
    NONE = "None"


class Variant(enum.Enum):
    NOMINAL = "Nominal"
    NEGATIVE_DEPTH = "NegativeDepth"
    ZERO_DEPTH = "ZeroDepth"
    NON_NORMALIZED_DIRECTION = "NonNormalizedDirection"
    DIRECTION_PARALLEL_TO_PROFILE = "DirectionParallelToProfile"
    SLANTED = "Slanted"
    PARAM_RANGE_OUTSIDE_CURVE = "ParamRangeOutsideCurve"
    SUBTRACTION = "Subtraction"
    INTERSECTION = "Intersection"
    UNION = "Union"
    HALFSPACE_CLIP = "HalfspaceClip"
    BELOW_PRECISION_DEPTH = "BelowPrecisionDepth"


class InvalidReason(enum.Enum):
    POSITIVE_LENGTH = "PositiveLength"
    VALID_EXTRUSION_DIRECTION = "ValidExtrusionDirection"
    PARAM_RANGE = "ParamRange"
    BELOW_PRECISION = "BelowPrecision"


@dataclass(frozen=True)
class ExpectedValidity:
    valid: bool
    reasons: frozenset[InvalidReason] = frozenset()


_VALID = ExpectedValidity(True)


def _invalid(reason: InvalidReason) -> ExpectedValidity:
    return ExpectedValidity(False, frozenset({reason}))


_BOTH = frozenset({SchemaVersion.IFC2X3, SchemaVersion.IFC4})
_IFC2X3_ONLY = frozenset({SchemaVersion.IFC2X3})


@dataclass(frozen=True)
class GeometryTestItem:
    slot: str  # e.g. "A1"
    definition_name: str
    kind: ShapeKind
    profile: Profile
    variant: Variant
    available_in: frozenset[SchemaVersion]
    expected_validity: ExpectedValidity
    extra: bool = False  # not part of the canonical 30

    @property
    def row(self) -> str:
        return self.slot[0]

    @property
    def column(self) -> int:
        return int(self.slot[1:])

    def position(self, spacing: float) -> tuple[float, float]:
        row_index = "ABCDEFG".index(self.row)
        return (self.column - 1) * spacing, row_index * spacing


def _item(slot, name, kind, profile, variant, avail=_BOTH, validity=_VALID, extra=False):
    return GeometryTestItem(slot, name, kind, profile, variant, avail, validity, extra)


SUITE_ITEMS: tuple[GeometryTestItem, ...] = (
    _item("A1", "IfcBooleanResult_1", ShapeKind.BOOLEAN_RESULT, Profile.NONE,
          Variant.SUBTRACTION),
    _item("A2", "IfcBooleanResult_2", ShapeKind.BOOLEAN_RESULT, Profile.NONE,
          Variant.INTERSECTION),
    _item("A3", "IfcBooleanResult_3", ShapeKind.BOOLEAN_RESULT, Profile.NONE,
          Variant.UNION),
    _item("A4", "IfcBooleanClippingResult_1", ShapeKind.BOOLEAN_CLIPPING_RESULT,
          Profile.NONE, Variant.HALFSPACE_CLIP),
    _item("A5", "IfcShellBasedSurfaceModel_1", ShapeKind.SHELL_BASED_SURFACE_MODEL,
          Profile.NONE, Variant.NOMINAL),
    _item("B1", "IfcFacetedBrep_1", ShapeKind.FACETED_BREP, Profile.NONE,
          Variant.NOMINAL),
    _item("B2", "IfcExtrudedAreaSolid_1", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.RECTANGLE, Variant.NOMINAL),
    _item("B3", "IfcExtrudedAreaSolid_2", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.RECTANGLE, Variant.NEGATIVE_DEPTH,
          validity=_invalid(InvalidReason.POSITIVE_LENGTH)),
    _item("B4", "IfcExtrudedAreaSolid_3", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.RECTANGLE, Variant.ZERO_DEPTH,
          validity=_invalid(InvalidReason.POSITIVE_LENGTH)),
    _item("B5", "IfcExtrudedAreaSolid_4", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.RECTANGLE, Variant.NON_NORMALIZED_DIRECTION),
    _item("C1", "IfcExtrudedAreaSolid_7", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.RECTANGLE, Variant.DIRECTION_PARALLEL_TO_PROFILE,
          validity=_invalid(InvalidReason.VALID_EXTRUSION_DIRECTION)),
    _item("C2", "IfcExtrudedAreaSolid_10", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.RECTANGLE, Variant.SLANTED),
    _item("C3", "IfcExtrudedAreaSolid_13", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.ELLIPSE, Variant.NOMINAL),
    _item("C4", "IfcExtrudedAreaSolid_16", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.ELLIPSE, Variant.NON_NORMALIZED_DIRECTION),
    _item("C5", "IfcExtrudedAreaSolid_19", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.ELLIPSE, Variant.DIRECTION_PARALLEL_TO_PROFILE,
          validity=_invalid(InvalidReason.VALID_EXTRUSION_DIRECTION)),
    _item("D1", "IfcExtrudedAreaSolid_22", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.ELLIPSE, Variant.SLANTED),
    _item("D2", "IfcExtrudedAreaSolid_25", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.I_SHAPE, Variant.NOMINAL),
    _item("D3", "IfcExtrudedAreaSolid_28", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.I_SHAPE, Variant.NON_NORMALIZED_DIRECTION),
    _item("D4", "IfcExtrudedAreaSolid_31", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.I_SHAPE, Variant.DIRECTION_PARALLEL_TO_PROFILE,
          validity=_invalid(InvalidReason.VALID_EXTRUSION_DIRECTION)),
    _item("D5", "IfcExtrudedAreaSolid_34", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.I_SHAPE, Variant.SLANTED),
    _item("E1", "IfcExtrudedAreaSolid_37", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.CRANE_RAIL_A_SHAPE, Variant.NOMINAL, avail=_IFC2X3_ONLY),
    _item("E2", "IfcExtrudedAreaSolid_40", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.CRANE_RAIL_A_SHAPE, Variant.NON_NORMALIZED_DIRECTION,
          avail=_IFC2X3_ONLY),
    _item("E3", "IfcExtrudedAreaSolid_43", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.CRANE_RAIL_A_SHAPE, Variant.DIRECTION_PARALLEL_TO_PROFILE,
          avail=_IFC2X3_ONLY,
          validity=_invalid(InvalidReason.VALID_EXTRUSION_DIRECTION)),
    _item("E4", "IfcExtrudedAreaSolid_46", ShapeKind.EXTRUDED_AREA_SOLID,
          Profile.CRANE_RAIL_A_SHAPE, Variant.SLANTED, avail=_IFC2X3_ONLY),
    _item("E5", "IfcRevolvedAreaSolid_1", ShapeKind.REVOLVED_AREA_SOLID,
          Profile.RECTANGLE, Variant.NOMINAL),
    _item("F1", "IfcRevolvedAreaSolid_2", ShapeKind.REVOLVED_AREA_SOLID,
          Profile.ELLIPSE, Variant.NOMINAL),
    _item("F2", "IfcRevolvedAreaSolid_3", ShapeKind.REVOLVED_AREA_SOLID,
          Profile.I_SHAPE, Variant.NOMINAL),
    _item("F3", "IfcRevolvedAreaSolid_4", ShapeKind.REVOLVED_AREA_SOLID,
          Profile.CRANE_RAIL_A_SHAPE, Variant.NOMINAL, avail=_IFC2X3_ONLY),
    _item("F4", "IfcSweptDiskSolid_1", ShapeKind.SWEPT_DISK_SOLID, Profile.DISK,
          Variant.NOMINAL, avail=_IFC2X3_ONLY),
    _item("F5", "IfcSweptDiskSolid_2", ShapeKind.SWEPT_DISK_SOLID, Profile.DISK,
          Variant.PARAM_RANGE_OUTSIDE_CURVE, avail=_IFC2X3_ONLY,
          validity=_invalid(InvalidReason.PARAM_RANGE)),
)

#: Optional extra shape behind a flag: extrusion depth above zero but below
#: the context precision.
BELOW_PRECISION_ITEM = _item(
    "G1",
    "IfcExtrudedAreaSolid_49",
    ShapeKind.EXTRUDED_AREA_SOLID,
    Profile.RECTANGLE,
    Variant.BELOW_PRECISION_DEPTH,
    extra=True,
)

#: Slots absent from the IFC4 suite. IfcSweptDiskSolid itself still exists in
#: IFC4; F4/F5 are nevertheless excluded here to keep the published item list
#: authoritative, and the manifest notes record the discrepancy.
IFC4_EXCLUDED_SLOTS = frozenset(
    i.slot for i in SUITE_ITEMS if SchemaVersion.IFC4 not in i.available_in
)


def items_for(schema: SchemaVersion) -> tuple[GeometryTestItem, ...]:
    return tuple(i for i in SUITE_ITEMS if schema in i.available_in)


def item_by_slot(slot: str) -> GeometryTestItem:
    for item in SUITE_ITEMS + (BELOW_PRECISION_ITEM,):
        if item.slot == slot.upper():
            return item
    raise KeyError(slot)


@dataclass
class SuiteManifest:
    schema: SchemaVersion
    items: list[GeometryTestItem]
    grid_spacing: float
    precision: float
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": self.schema.value,
            "grid_spacing": self.grid_spacing,
            "precision": self.precision,
            "notes": list(self.notes),
            "items": [
                {
                    "slot": i.slot,
                    "row": i.row,
                    "column": i.column,
                    "definition_name": i.definition_name,
                    "kind": i.kind.value,
                    "profile": i.profile.value,
                    "variant": i.variant.value,
                    "available_in": sorted(v.value for v in i.available_in),
                    "expected_validity": {
                        "valid": i.expected_validity.valid,
                        "reasons": sorted(
                            r.value for r in i.expected_validity.reasons
                        ),
                    },
                    "extra": i.extra,
                }
                for i in self.items
            ],
        }
