"""Convenience layer for constructing instance graphs programmatically."""

from __future__ import annotations

from .model import (
    UNSET,
    AttributeValue,
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
    _Sentinel,
)


def value_of(v) -> AttributeValue:
    """Wrap a plain Python value as an attribute value."""
    if v is None:
        return UNSET
    if isinstance(
        v,
        (
            _Sentinel,
            Integer,
            Real,
            Text,
            EnumToken,
            Reference,
            TypedValue,
            ListValue,
        ),
    ):
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
    """Assigns ids sequentially and wraps attribute values on the fly."""

    def __init__(
        self,
        schema: str,
        model_name: str = "model",
        timestamp: str = "1970-01-01T00:00:00",
    ):
        header = SpfHeader(
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
        self.graph = InstanceGraph(header=header)
        self._next = 1

    def add(self, type_name: str, *attrs) -> Reference:
        inst = EntityInstance(
            self._next,
            type_name.upper(),
            attributes=tuple(value_of(a) for a in attrs),
        )
        self.graph.add(inst)
        self._next += 1
        return Reference(inst.id)
