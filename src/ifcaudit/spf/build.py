"""Construction of SPF files from Python values.

The builder writes each record as text, the way :func:`write_spf` would
print it, and :meth:`GraphBuilder.graph` parses that text: a built graph is
read through the same parser as any other file."""

from __future__ import annotations

from typing import get_args

from .model import (
    UNSET,
    AttributeValue,
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
)
from . import parser
from .writer import format_value, spf_file


#: the classes of the ``AttributeValue`` union, which ``isinstance`` checks
#: far faster than the union itself
_VALUE_CLASSES = get_args(AttributeValue)


def value_of(v) -> AttributeValue:
    """Wrap a plain Python value as an attribute value."""
    if v is None:
        return UNSET
    if isinstance(v, _VALUE_CLASSES):
        return v
    if isinstance(v, bool):
        return EnumToken("T" if v else "F")
    if isinstance(v, int):
        return Integer(v)
    if isinstance(v, float):
        return Real.of(v)
    if isinstance(v, str):
        return Text.of(v)
    if isinstance(v, (tuple, list)):
        return ListValue(tuple(value_of(item) for item in v))
    raise TypeError(f"cannot express {v!r} as an attribute value")


def typed(name: str, v) -> TypedValue:
    return TypedValue(name.upper(), value_of(v))


def enum(name: str) -> EnumToken:
    return EnumToken(name.upper())


class GraphBuilder:
    """Assigns ids sequentially and writes each record once, as a line of
    SPF text."""

    def __init__(
        self,
        schema: str,
        model_name: str = "model",
        timestamp: str = "1970-01-01T00:00:00",
    ):
        self._header = SpfHeader(
            description=["ViewDefinition [CoordinationView]"],
            implementation_level="2;1",
            file_name=FileName(
                name=model_name,
                timestamp=timestamp,
                authors=[""],
                organizations=[""],
                preprocessor_version="ifcaudit",
                originating_system="ifcaudit",
                authorization="",
            ),
            file_schema=[schema.upper()],
        )
        self._records: list[str] = []

    def add(self, type_name: str, *attrs) -> Reference:
        id = len(self._records) + 1
        params = ",".join(format_value(value_of(a)) for a in attrs)
        self._records.append(f"#{id}={type_name.upper()}({params});")
        return Reference(id)

    def graph(self) -> InstanceGraph:
        """A new graph, parsed from the header and the records added so far.
        ``parse_spf`` is looked up on its module at each call, so a wrapper
        set there (a tracer's span) sees this parse too."""
        return parser.parse_spf(spf_file(self._header, self._records))
