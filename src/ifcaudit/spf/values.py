"""Readers for attribute values: numbers, texts and point-like ratios.

Every analysis reads attribute trees through these helpers, so a typed
wrapper such as ``IFCLENGTHMEASURE(2.)`` or a wrong-kind value is handled the
same way everywhere: readers return ``None`` (or an empty list for text
lists) instead of raising.
"""

from __future__ import annotations

from typing import Iterator

from .model import (
    AttributeValue,
    InstanceGraph,
    Integer,
    ListValue,
    Real,
    Reference,
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


def ratios(
    graph: InstanceGraph, value: AttributeValue, type_name: str
) -> list[float] | None:
    """Numbers in the first attribute of the ``type_name`` instance that
    ``value`` references, e.g. a point's coordinates or a direction's
    ratios. ``None`` for a non-reference, a dangling reference or another
    type."""
    if not isinstance(value, Reference) or value.id not in graph:
        return None
    inst = graph.resolve(value.id)
    if inst.type_name != type_name:
        return None
    return numbers(inst.attr(0))
