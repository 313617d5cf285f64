"""Serialization of instance graphs back to ISO 10303-21 text.

Printing is deterministic: a graph always serializes to the same bytes, and
re-parsing the output yields a structurally identical graph. Reals re-emit
their stored lexeme, so numbers pass through untouched. ``spf.build`` writes
the files it builds through :func:`spf_file` too.
"""

from __future__ import annotations

from typing import Iterable

from .model import (
    DERIVED,
    UNSET,
    AttributeValue,
    Binary,
    EntityInstance,
    EnumToken,
    InstanceGraph,
    Integer,
    ListValue,
    Real,
    Reference,
    SpfHeader,
    Text,
    TypedValue,
)


def format_value(value: AttributeValue) -> str:
    if value is UNSET:
        return "$"
    if value is DERIVED:
        return "*"
    if isinstance(value, Real):
        return value.lexeme
    if isinstance(value, Integer):
        return str(value.value)
    if isinstance(value, Text):
        return f"'{value.raw}'"
    if isinstance(value, EnumToken):
        return f".{value.name}."
    if isinstance(value, Reference):
        return f"#{value.id}"
    if isinstance(value, ListValue):
        return "(" + ",".join(format_value(v) for v in value.items) + ")"
    if isinstance(value, TypedValue):
        return f"{value.name}({format_value(value.value)})"
    if isinstance(value, Binary):
        return f'"{value.text}"'
    raise TypeError(f"not an attribute value: {value!r}")


def format_instance(inst: EntityInstance) -> str:
    params = ",".join(format_value(v) for v in inst.attributes)
    return f"#{inst.id}={inst.type_name}({params});"


def _quote(text: str | None) -> str:
    if text is None:
        return "$"
    return format_value(Text.of(text))


def _quote_list(items: list[str]) -> str:
    return "(" + ",".join(_quote(v) for v in items) + ")"


def spf_file(header: SpfHeader, records: Iterable[str]) -> bytes:
    """A whole file: ``header``, then the ``records`` (each one
    ``#id=TYPE(params);`` line) as its DATA section."""
    fn = header.file_name
    lines = [
        "ISO-10303-21;",
        "HEADER;",
        f"FILE_DESCRIPTION({_quote_list(header.description)},"
        f"{_quote(header.implementation_level)});",
        "FILE_NAME({},{},{},{},{},{},{});".format(
            _quote(fn.name),
            _quote(fn.timestamp),
            _quote_list(fn.authors),
            _quote_list(fn.organizations),
            _quote(fn.preprocessor_version),
            _quote(fn.originating_system),
            _quote(fn.authorization),
        ),
        f"FILE_SCHEMA({_quote_list(header.file_schema)});",
        "ENDSEC;",
        "DATA;",
        *records,
        "ENDSEC;",
        "END-ISO-10303-21;",
        "",
    ]
    return "\n".join(lines).encode("latin-1")


def write_spf(graph: InstanceGraph) -> bytes:
    """Serialize the graph."""
    return spf_file(graph.header, map(format_instance, graph))
