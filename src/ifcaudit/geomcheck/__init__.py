"""Geometric validity rules, shape evaluation and validation properties.

The submodules load on first use (see ``ifcaudit._lazy``).
"""

from .._lazy import lazy_exports

#: public name -> the submodule that defines it
_EXPORTS = {
    "DEFAULT_SEGMENTS": "evaluate",
    "DIRECTION_DOT_TOLERANCE": "evaluate",
    "EvaluationOutcome": "evaluate",
    "Observation": "evaluate",
    "TriMesh": "mesh",
    "TupleClassification": "evaluate",
    "TupleFlag": "evaluate",
    "ValidityVerdict": "validity",
    "ZRelation": "evaluate",
    "check_validity": "validity",
    "classify_tuple": "evaluate",
    "classify_z": "evaluate",
    "context_precision": "evaluate",
    "evaluate_item": "evaluate",
    "item_fragment": "evaluate",
    "placement_matrix": "evaluate",
    "shape_roots": "evaluate",
    "suite_proxies": "evaluate",
}
__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, ("evaluate", "mesh", "tessellate", "validity"), _EXPORTS)
