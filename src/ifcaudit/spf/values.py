"""Readers for attribute values: numbers, texts and references.

Every analysis reads attribute trees through these helpers, so a typed
wrapper such as ``IFCLENGTHMEASURE(2.)`` or a wrong-kind value is handled the
same way everywhere: readers return ``None`` (or an empty list for text
lists) instead of raising; :func:`follow` raises why a reference is not
followed, and each reader decides which reasons it reports.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import WrongType
from .model import (
    AttributeValue,
    EntityInstance,
    InstanceGraph,
    Integer,
    ListValue,
    Real,
    Text,
    TypedValue,
)


def number(value: AttributeValue) -> float | None:
    """Numeric value of a real or integer, unwrapping typed values."""
    if isinstance(value, (Real, Integer)):
        return float(value.value)
    if isinstance(value, TypedValue):
        return number(value.value)
    return None


def numbers(value: AttributeValue) -> list[float] | None:
    """Numbers of a list whose every item is numeric, else ``None``."""
    if not isinstance(value, ListValue):
        return None
    out = []
    for item in value.items:
        n = number(item)
        if n is None:
            return None
        out.append(n)
    return out


def integers(value: AttributeValue) -> list[int] | None:
    """Items of a list of plain integers, else ``None``."""
    if not isinstance(value, ListValue):
        return None
    if not all(isinstance(item, Integer) for item in value.items):
        return None
    return [item.value for item in value.items]


def text(value: AttributeValue) -> str | None:
    """Decoded string of a text value, else ``None``."""
    return value.value if isinstance(value, Text) else None


def texts(value: AttributeValue) -> list[str]:
    """Decoded strings among a list's items; empty for a non-list."""
    if not isinstance(value, ListValue):
        return []
    return [item.value for item in value.items if isinstance(item, Text)]


def walk(value: AttributeValue) -> Iterator[AttributeValue]:
    """The value itself, then every value nested in lists and typed values."""
    yield value
    if isinstance(value, ListValue):
        for item in value.items:
            yield from walk(item)
    elif isinstance(value, TypedValue):
        yield from walk(value.value)


def follow(graph: InstanceGraph, value: AttributeValue, *types: str) -> EntityInstance:
    """The instance that ``value`` references, when its type is one of
    ``types``. Else it raises the reason: :class:`NotAReference` for any
    other value (unset among them), :class:`NotFound` for a dangling
    reference and :class:`WrongType` for a target of another type."""
    inst = graph.deref(value)
    if inst.type_name not in types:
        raise WrongType(inst.type_name)
    return inst
