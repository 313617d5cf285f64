"""Synthetic geometry conformance suite generation.

The submodules load on first use (see ``ifcaudit._lazy``).
"""

from .._lazy import lazy_exports

#: public name -> the submodule that defines it
_EXPORTS = {
    "BELOW_PRECISION_ITEM": "suite",
    "DEFAULT_PRECISION": "suite",
    "DEFAULT_SPACING": "suite",
    "ExpectedValidity": "suite",
    "FULL_SWEEP_RADIANS": "generate",
    "GeometryTestItem": "suite",
    "IFC4_EXCLUDED_SLOTS": "suite",
    "InvalidReason": "suite",
    "Profile": "suite",
    "ShapeKind": "suite",
    "SLANT_COMPONENT": "suite",
    "SUITE_ITEMS": "suite",
    "SuiteManifest": "suite",
    "TIMESTAMP_ENV": "generate",
    "Variant": "suite",
    "deterministic_guid": "generate",
    "generate_geometry_suite": "generate",
    "generate_item": "generate",
    "item_by_slot": "suite",
    "items_for": "suite",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, ("generate", "suite"), _EXPORTS)
