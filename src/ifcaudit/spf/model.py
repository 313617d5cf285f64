"""Data model for STEP physical file content.

Attribute values form a small tagged union mirroring the ISO 10303-21
parameter grammar. Reals keep their source lexeme so a parsed file can be
re-emitted without changing any printed number; strings keep the raw
(escaped) form next to the decoded text for the same reason.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from itertools import filterfalse
from operator import attrgetter
from typing import Iterable, Iterator, Union

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

    def parse(self, id: int, start: int, end: int) -> tuple[tuple[AttributeValue, ...], list[str]]:
        """The attribute values of record ``#id``, whose parameters span
        ``data[start:end]``, and the unknown string escapes met. A syntax
        error names the file, the record and its byte offset in the file."""
        from .attrparse import parse_attributes  # deferred, avoids cycle

        try:
            return parse_attributes(self.data[start:end])
        except MalformedFile as exc:
            offset = None if exc.offset is None else start + exc.offset
            where = f"{self.path}: " if self.path else ""
            raise MalformedFile(f"{where}#{id}: {exc.reason}", offset) from None


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


class RecordTable:
    """The records of a DATA section as columns, one row per record in file
    order: the ``ids`` (a list of ints), the ``codes`` of their type names
    (``array('I')`` of indices into ``names``, which holds each upper-cased
    name once) and the ``starts`` and ``ends`` of their parameters
    (``array('q')`` of offsets into the file's bytes). Iterating gives each
    row as ``(id, type_name, start, end)``."""

    __slots__ = ("ids", "codes", "names", "starts", "ends")

    def __init__(self, ids: list[int], codes: array, names: list[str], starts: array, ends: array):
        self.ids = ids
        self.codes = codes
        self.names = names
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[int, str, int, int]]:
        return zip(self.ids, map(self.names.__getitem__, self.codes), self.starts, self.ends)


class EntityInstance:
    """One ``#id=TYPE(...)`` record.

    Attribute trees are built lazily: instances created by the parser keep a
    span into the source bytes and only materialize attribute values when
    accessed. Instances built programmatically carry their attributes
    directly. The memoization is idempotent, so concurrent readers may race
    on it harmlessly. ``type_name`` is fixed when the instance is built: the
    graph counts and lists instances by the type its record table holds.
    """

    __slots__ = ("id", "_type_name", "_attrs", "_src", "_pstart", "_pend")

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
        self._type_name = type_name
        self._attrs = attributes
        self._src = _src
        self._pstart = _pstart
        self._pend = _pend

    type_name = property(attrgetter("_type_name"), doc="The type name the instance was built with.")

    @property
    def attributes(self) -> tuple[AttributeValue, ...]:
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = self._parse()[0]
            self._src = None  # source span no longer needed
        return attrs

    def _parse(self) -> tuple[tuple[AttributeValue, ...], list[str]]:
        """Parse the source span without keeping the values; returns them
        and the unknown string escapes met."""
        src = self._src
        if src is None:
            return (), []
        return src.parse(self.id, self._pstart, self._pend)

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
    order), ``in`` (by id), :meth:`resolve`, :meth:`deref`, :meth:`by_type`,
    :meth:`type_counts`, :meth:`dangling` and :meth:`unread_escapes`, and
    grows through :meth:`add`.

    It keeps one store: a :class:`RecordTable` with one row per instance,
    ``rows`` (id -> row) and the instances built so far. An id defined twice
    in ``records`` keeps its first position and its last definition. A
    parsed record becomes an :class:`EntityInstance` when it is
    first resolved, listed by type or iterated over, and stays one, so an
    instance keeps its identity and its read attributes; ``type_counts``
    reads the type codes and builds none. ``add`` appends a row and keeps
    the instance it is given.
    """

    def __init__(
        self,
        header: SpfHeader | None = None,
        instances: dict[int, EntityInstance] | None = None,
        diagnostics: list[Diagnostic] | None = None,
        byte_size: int = 0,
        *,
        source: Source | None = None,
        records: RecordTable | None = None,
    ):
        self.header = header or SpfHeader()
        self.diagnostics: list[Diagnostic] = [] if diagnostics is None else diagnostics
        self.byte_size = byte_size
        if records is None:
            records = RecordTable([], array("I"), [], array("q"), array("q"))
        # each id at its first position, mapped to the row of its last definition
        rows = dict(zip(records.ids, range(len(records))))
        if len(rows) < len(records):  # an id defined twice: one row per id
            last = rows.values()
            records = RecordTable(
                list(rows),
                array(records.codes.typecode, map(records.codes.__getitem__, last)),
                records.names,
                array("q", map(records.starts.__getitem__, last)),
                array("q", map(records.ends.__getitem__, last)),
            )
            rows = dict(zip(records.ids, range(len(records))))
        self._source = source
        self._records = records
        self._rows = rows
        self._codes = dict(zip(records.names, range(len(records.names))))  # name -> code
        self._views: dict[int, EntityInstance] = {}
        for instance in (instances or {}).values():
            self.add(instance)

    def _view(self, id: int, row: int) -> EntityInstance:
        """A new instance for ``row``, kept as the instance of ``id``."""
        t = self._records
        inst = self._views[id] = EntityInstance(
            id, t.names[t.codes[row]], None, self._source, t.starts[row], t.ends[row]
        )
        return inst

    def add(self, instance: EntityInstance) -> None:
        id, name, rows, t = instance.id, instance.type_name, self._rows, self._records
        if id in rows:
            raise ValueError(f"duplicate instance id #{id}")
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(t.names)
            t.names.append(name)
        rows[id] = len(t.ids)
        t.ids.append(id)
        t.codes.append(code)
        t.starts.append(0)
        t.ends.append(0)
        self._views[id] = instance

    def resolve(self, id: int) -> EntityInstance:
        inst = self._views.get(id)
        if inst is None:
            row = self._rows.get(id)
            if row is None:
                raise NotFound(f"no instance #{id}")
            inst = self._view(id, row)
        return inst

    def deref(self, value: AttributeValue) -> EntityInstance:
        if not isinstance(value, Reference):
            raise NotAReference(f"not a reference: {value!r}")
        return self.resolve(value.id)

    def by_type(self, type_name: str) -> list[EntityInstance]:
        """All instances with exactly this type name (no subtype roll-up)."""
        code = self._codes.get(type_name.upper())
        if code is None:
            return []
        codes, views = self._records.codes, self._views
        return [
            views.get(id) or self._view(id, row)
            for id, row in self._rows.items()
            if codes[row] == code
        ]

    def type_counts(self) -> dict[str, int]:
        """Instances per exact type name, in order of first appearance,
        counted from the type codes: no instance is built."""
        t = self._records
        return {t.names[code]: n for code, n in Counter(t.codes).items()}

    def dangling(self, references: Iterable[int]) -> list[int]:
        """The ids among ``references`` that name no instance, sorted, each
        once."""
        return sorted(set(filterfalse(self._rows.__contains__, references)))

    def unread_escapes(self) -> list[str]:
        """Check the syntax of every record whose attributes are not read
        yet, without keeping its values or building an instance, and return
        the unknown string escapes met, in order. A syntax error raises
        :class:`MalformedFile`."""
        unknown: list[str] = []
        t, views, source = self._records, self._views, self._source
        for id, row in self._rows.items():
            inst = views.get(id)
            if inst is None:
                unknown += source.parse(id, t.starts[row], t.ends[row])[1]
            elif inst._attrs is None:
                unknown += inst._parse()[1]
        return unknown

    def schema_name(self) -> str | None:
        return self.header.file_schema[0] if self.header.file_schema else None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[EntityInstance]:
        views = self._views
        return (views.get(id) or self._view(id, row) for id, row in self._rows.items())

    def __contains__(self, id: int) -> bool:
        return id in self._rows

    def structurally_equal(self, other: "InstanceGraph") -> bool:
        """Field-by-field equality of header and all instances, ignoring
        diagnostics and byte size."""
        if self.header != other.header or len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))
