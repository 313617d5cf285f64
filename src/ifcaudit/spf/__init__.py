"""STEP Physical File (ISO 10303-21) reading and writing.

The writer loads on first use (see ``ifcaudit._lazy``): read commands never
run it.
"""

from .._lazy import lazy_exports
from .model import (
    DERIVED,
    FALSE,
    TRUE,
    UNSET,
    AttributeValue,
    Binary,
    Diagnostic,
    EntityInstance,
    EnumToken,
    FileName,
    InstanceGraph,
    Integer,
    ListValue,
    Real,
    Reference,
    SpfHeader,
    Text,
    TypedValue,
    real_lexeme,
)
from .parser import load, materialize, parse_spf

__all__ = [
    "AttributeValue",
    "Binary",
    "DERIVED",
    "Diagnostic",
    "EntityInstance",
    "EnumToken",
    "FALSE",
    "FileName",
    "InstanceGraph",
    "Integer",
    "ListValue",
    "Real",
    "Reference",
    "SpfHeader",
    "Text",
    "TRUE",
    "TypedValue",
    "UNSET",
    "format_instance",
    "format_value",
    "load",
    "materialize",
    "parse_spf",
    "real_lexeme",
    "write_spf",
]
__getattr__ = lazy_exports(
    __name__,
    ("writer",),
    dict.fromkeys(("format_instance", "format_value", "write_spf"), "writer"),
)
