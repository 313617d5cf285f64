"""Data model for STEP physical file content.

Attribute values form a small tagged union mirroring the ISO 10303-21
parameter grammar. Reals keep their source lexeme so a parsed file can be
re-emitted without changing any printed number; strings keep the raw
(escaped) form next to the decoded text for the same reason.
"""

from __future__ import annotations

import math
from typing import Iterator, Union

from .._record import FrozenRecord, Record, set_field
from ..errors import MalformedFile, NotAReference, NotFound
from .strings import encode_step_string


class _Sentinel:
    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


#: Unset attribute value, printed as ``$``.
UNSET = _Sentinel("UNSET")
#: Derived attribute value, printed as ``*``.
DERIVED = _Sentinel("DERIVED")


class Integer(FrozenRecord):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        set_field(self, "value", value)

    def __repr__(self) -> str:
        return f"Integer({self.value})"


class Real(FrozenRecord):
    """A real number together with the lexeme it was read from or will be
    written as."""

    __slots__ = _fields = ("value", "lexeme")

    def __init__(self, value: float, lexeme: str):
        set_field(self, "value", value)
        set_field(self, "lexeme", lexeme)

    @classmethod
    def of(cls, value: float) -> "Real":
        return cls(value, real_lexeme(value))

    def __repr__(self) -> str:
        return f"Real({self.lexeme})"


class Text(FrozenRecord):
    __slots__ = _fields = ("value", "raw")

    def __init__(self, value: str, raw: str):
        set_field(self, "value", value)
        set_field(self, "raw", raw)  # source form between the quotes, escapes intact

    @classmethod
    def of(cls, value: str) -> "Text":
        return cls(value, encode_step_string(value))

    def __repr__(self) -> str:
        return f"Text({self.value!r})"


class EnumToken(FrozenRecord):
    """Enumeration value; ``name`` excludes the surrounding dots."""

    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)

    def __repr__(self) -> str:
        return f".{self.name}."


TRUE = EnumToken("T")
FALSE = EnumToken("F")


class Reference(FrozenRecord):
    __slots__ = _fields = ("id",)

    def __init__(self, id: int):
        set_field(self, "id", id)

    def __repr__(self) -> str:
        return f"#{self.id}"


class TypedValue(FrozenRecord):
    """Explicitly typed value, e.g. IFCPOSITIVELENGTHMEASURE(2.)."""

    __slots__ = _fields = ("name", "value")

    def __init__(self, name: str, value: "AttributeValue"):
        set_field(self, "name", name)
        set_field(self, "value", value)

    def __repr__(self) -> str:
        return f"{self.name}({self.value!r})"


class ListValue(FrozenRecord):
    __slots__ = _fields = ("items",)

    def __init__(self, items: tuple["AttributeValue", ...]):
        set_field(self, "items", items)

    def __repr__(self) -> str:
        return "(" + ",".join(repr(i) for i in self.items) + ")"

    def __iter__(self) -> Iterator["AttributeValue"]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


class Binary(FrozenRecord):
    __slots__ = _fields = ("text",)

    def __init__(self, text: str):
        set_field(self, "text", text)  # hex payload between the double quotes


AttributeValue = Union[
    _Sentinel, Integer, Real, Text, EnumToken, Reference, TypedValue, ListValue, Binary
]


def real_lexeme(value: float) -> str:
    """Canonical STEP lexeme for a float (always contains a decimal point)."""
    if math.isinf(value) or math.isnan(value):
        raise ValueError(f"non-finite real cannot be serialized: {value}")
    if value == int(value) and abs(value) < 1e16:
        return f"{int(value)}."
    s = repr(value)
    if "e" in s or "E" in s:
        mantissa, _, exponent = s.lower().partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        exponent = exponent.lstrip("+")
        if exponent.startswith("-"):
            exponent = "-" + exponent[1:].lstrip("0")
        else:
            exponent = exponent.lstrip("0")
        return f"{mantissa}E{exponent or '0'}"
    return s


class Diagnostic(FrozenRecord):
    """Recoverable anomaly noticed while reading or analysing a file."""

    __slots__ = _fields = ("code", "message")

    def __init__(self, code: str, message: str):
        set_field(self, "code", code)
        set_field(self, "message", message)

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


class Source(FrozenRecord):
    """Bytes of a parsed file, shared by the instances read from it: each
    record's span is tokenized from them when it is first read, so the file
    is held once. A syntax error met then names ``path``, when it is set."""

    __slots__ = _fields = ("data", "path")

    def __init__(self, data: bytes, path: str | None = None):
        set_field(self, "data", data)
        set_field(self, "path", path)


class FileName(Record):
    """Payload of a FILE_NAME header record; the lists default to new empty
    ones."""

    _fields = ("name", "timestamp", "authors", "organizations", "preprocessor_version",
               "originating_system", "authorization")

    def __init__(
        self,
        name: str = "",
        timestamp: str = "",
        authors: list[str] | None = None,
        organizations: list[str] | None = None,
        preprocessor_version: str = "",
        originating_system: str = "",
        authorization: str = "",
    ):
        self.name = name
        self.timestamp = timestamp
        self.authors = [] if authors is None else authors
        self.organizations = [] if organizations is None else organizations
        self.preprocessor_version = preprocessor_version
        self.originating_system = originating_system
        self.authorization = authorization


class SpfHeader(Record):
    _fields = ("description", "implementation_level", "file_name", "file_schema")

    def __init__(
        self,
        description: list[str] | None = None,
        implementation_level: str = "2;1",
        file_name: FileName | None = None,
        file_schema: list[str] | None = None,
    ):
        self.description = [] if description is None else description
        self.implementation_level = implementation_level
        self.file_name = FileName() if file_name is None else file_name
        self.file_schema = [] if file_schema is None else file_schema


class EntityInstance:
    """One ``#id=TYPE(...)`` record.

    Attribute trees are built lazily: instances created by the parser keep a
    span into the source bytes and only materialize attribute values when
    accessed. Instances built programmatically carry their attributes
    directly. The memoization is idempotent, so concurrent readers may race
    on it harmlessly.
    """

    __slots__ = ("id", "type_name", "_attrs", "_src", "_pstart", "_pend")

    def __init__(
        self,
        id: int,
        type_name: str,
        attributes: tuple[AttributeValue, ...] | None = None,
        _src: Source | None = None,
        _pstart: int = 0,
        _pend: int = 0,
    ):
        self.id = id
        self.type_name = type_name
        self._attrs = attributes
        self._src = _src
        self._pstart = _pstart
        self._pend = _pend

    @property
    def attributes(self) -> tuple[AttributeValue, ...]:
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = self._parse()[0]
            self._src = None  # source span no longer needed
        return attrs

    def _parse(self) -> tuple[tuple[AttributeValue, ...], list[str]]:
        """Parse the source span without keeping the values; returns them
        and the unknown string escapes met. A syntax error names the file,
        this record and its byte offset in the file."""
        from .attrparse import parse_attributes  # deferred, avoids cycle

        src = self._src
        if src is None:
            return (), []
        try:
            return parse_attributes(src.data[self._pstart : self._pend])
        except MalformedFile as exc:
            offset = None if exc.offset is None else self._pstart + exc.offset
            where = f"{src.path}: " if src.path else ""
            raise MalformedFile(f"{where}#{self.id}: {exc.reason}", offset) from None

    def attr(self, index: int) -> AttributeValue:
        """Attribute at ``index``, UNSET when the record is shorter."""
        attrs = self.attributes
        return attrs[index] if index < len(attrs) else UNSET

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EntityInstance):
            return NotImplemented
        return (
            self.id == other.id
            and self.type_name == other.type_name
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.id, self.type_name))

    def __repr__(self) -> str:
        return f"#{self.id}={self.type_name}(...)"


class InstanceGraph:
    """Parsed or constructed SPF content: a header and its instances by id.

    The graph is read through ``len``, iteration (in first-definition
    order), ``in`` (by id), :meth:`resolve`, :meth:`deref` and
    :meth:`by_type`, and grows through :meth:`add`.
    """

    def __init__(
        self,
        header: SpfHeader | None = None,
        instances: dict[int, EntityInstance] | None = None,
        diagnostics: list[Diagnostic] | None = None,
        byte_size: int = 0,
    ):
        self.header = header or SpfHeader()
        self._by_id: dict[int, EntityInstance] = {} if instances is None else instances
        self.diagnostics: list[Diagnostic] = diagnostics or []
        self.byte_size = byte_size
        self._type_index: dict[str, list[EntityInstance]] | None = None

    def add(self, instance: EntityInstance) -> None:
        if instance.id in self._by_id:
            raise ValueError(f"duplicate instance id #{instance.id}")
        self._by_id[instance.id] = instance
        self._type_index = None

    def resolve(self, id: int) -> EntityInstance:
        try:
            return self._by_id[id]
        except KeyError:
            raise NotFound(f"no instance #{id}") from None

    def deref(self, value: AttributeValue) -> EntityInstance:
        if not isinstance(value, Reference):
            raise NotAReference(f"not a reference: {value!r}")
        return self.resolve(value.id)

    def by_type(self, type_name: str) -> list[EntityInstance]:
        """All instances with exactly this type name (no subtype roll-up)."""
        if self._type_index is None:
            index: dict[str, list[EntityInstance]] = {}
            for inst in self._by_id.values():
                index.setdefault(inst.type_name, []).append(inst)
            self._type_index = index
        return self._type_index.get(type_name.upper(), [])

    def schema_name(self) -> str | None:
        return self.header.file_schema[0] if self.header.file_schema else None

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[EntityInstance]:
        return iter(self._by_id.values())

    def __contains__(self, id: int) -> bool:
        return id in self._by_id

    def structurally_equal(self, other: "InstanceGraph") -> bool:
        """Field-by-field equality of header and all instances, ignoring
        diagnostics and byte size."""
        if self.header != other.header or len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))
