"""Parser for the parameter list of one record.

One token pattern is read left to right over the file's bytes: optional
blanks and comments, then one lexeme. The lists and typed values still open
sit on an explicit stack, so nesting depth is a count, checked against
``MAX_NESTING``, and never recursion. Strings, binaries, comments and
keywords are the record scanner's own patterns (``lexemes``), so both read
each lexeme alike. Only a value's text and an error's snippet are decoded,
as latin-1, the exchange structure's code page.
"""

from __future__ import annotations

import math
import re

from ..errors import MalformedFile
from .lexemes import BINARY, KEYWORD, STRING, TRIVIA
from .model import (
    DERIVED,
    UNSET,
    AttributeValue,
    Binary,
    EnumToken,
    Integer,
    ListValue,
    Real,
    Reference,
    Text,
    TypedValue,
)
from .strings import decode_step_string

#: Deepest list or typed-value nesting accepted. Real IFC nests three
#: levels at most; deeper input is malformed.
MAX_NESTING = 64

# group numbers of the token pattern's alternatives
_COMMA, _REF, _CLOSE, _OPEN, _UNSET, _INT, _NUMBER, _STR, _ENUM, _TYPED, _DERIVED, _BIN, _NONE = (
    range(1, 14)
)
_TOKEN = re.compile(
    TRIVIA.pattern
    + rb"(?:(,)"
    + rb"|#([0-9]+)"
    + rb"|(\))|(\()|(\$)"
    + rb"|([+-]?[0-9]+)(?![.eE0-9])"
    # a real, or a lexeme that is not a number at all: '+', '1E', '+.'
    + rb"|([+\-0-9][0-9]*(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?)"
    + rb"|(" + STRING + rb")"
    + rb"|\.([^.]*)\."
    + rb"|(" + KEYWORD + rb")" + TRIVIA.pattern + rb"\("
    + rb"|(\*)"
    + rb"|(" + BINARY + rb")"
    + rb"|())"  # nothing readable here, or the end of the text
)


def parse_attributes(params: bytes) -> tuple[tuple[AttributeValue, ...], list[str]]:
    """Parse the bytes between a record's outer parentheses.

    Returns the values and the unknown string escapes met, in order.
    """
    values, _, unknown = _read(params, 0, [])
    return tuple(values), unknown


def parse_parameter_list(
    data: bytes, pos: int
) -> tuple[tuple[AttributeValue, ...], int, list[str]]:
    """Parse the parenthesised parameter list that opens at ``data[pos]``.

    Returns the values, the position just past the closing ``')'`` and the
    unknown string escapes met, in order.
    """
    if not data.startswith(b"(", pos):
        raise _expected(data, pos, "'('")
    values, end, unknown = _read(data, pos, None)
    return tuple(values), end, unknown


def _read(text: bytes, pos: int, items: list | None) -> tuple[list, int, list[str]]:
    """Read values from ``text[pos:]``; returns them, the end position and
    the unknown string escapes met.

    ``items`` is ``[]`` to read a record's comma-separated parameters up to
    the end of ``text``, or ``None`` to read the one list that opens at
    ``pos`` and stop past its ``')'``.
    """
    unknown: list[str] = []
    stack: list[tuple[str | None, list | None]] = []  # the frames enclosing this one
    name = None  # type name of the open typed value; None in a list
    due = True  # a value comes next (or the close of an empty list)
    append = items.append if items is not None else None
    for m in _TOKEN.finditer(text, pos):
        kind = m.lastindex
        if kind == _COMMA:
            if due or name is not None:
                break
            due = True
            continue
        if kind == _CLOSE:
            if not stack or (due and (items or name is not None)):
                break
            value = ListValue(tuple(items)) if name is None else TypedValue(name, items[0])
            name, items = stack.pop()
            if items is None:  # the list parse_parameter_list opened
                return value.items, m.end(), unknown
            append = items.append
        elif not due:
            break
        elif kind == _REF:
            value = Reference(_integer(m.group(_REF), m.start(_REF)))
        elif kind == _NUMBER:
            lexeme = m.group(_NUMBER)
            if lexeme == b"+" or lexeme == b"-":
                raise _expected(text, m.end(), "number")
            lexeme = lexeme.decode("latin-1")
            value = Real(_real(lexeme, m.start(_NUMBER)), lexeme)
        elif kind == _UNSET:
            value = UNSET
        elif kind == _OPEN or kind == _TYPED:
            if len(stack) == MAX_NESTING:
                at = m.start(_OPEN) if kind == _OPEN else m.end(_TYPED)
                raise MalformedFile(f"parameters nested deeper than {MAX_NESTING}", at)
            stack.append((name, items))
            name = None if kind == _OPEN else m.group(_TYPED).upper().decode("ascii")
            items = []
            append = items.append
            continue
        elif kind == _STR:
            raw = m.group(_STR)[1:-1].decode("latin-1")
            decoded, bad = decode_step_string(raw)
            unknown += bad
            value = Text(decoded, raw)
        elif kind == _ENUM:
            value = EnumToken(m.group(_ENUM).upper().decode("latin-1"))
        elif kind == _INT:
            value = Integer(_integer(m.group(_INT), m.start(_INT)))
        elif kind == _DERIVED:
            value = DERIVED
        elif kind == _BIN:
            value = Binary(m.group(_BIN)[1:-1].decode("latin-1"))
        else:  # _NONE: the empty alternative always matches, so the loop ends here
            break
        append(value)
        due = False
    if kind == _NONE and m.end() == len(text) and not stack and not (due and items):
        return items, m.end(), unknown
    raise _failure(text, m.start(), due, name, len(stack))


def _failure(text: bytes, pos: int, due: bool, name: str | None, depth: int) -> MalformedFile:
    """The error for the token at ``pos``, which cannot come next."""
    pos = TRIVIA.match(text, pos).end()
    if text.startswith(b"/*", pos):
        return MalformedFile("unterminated comment in parameters", pos)
    if not due:
        if depth == 0:
            return _expected(text, pos, "end of parameters")
        return _expected(text, pos, "')'" if name is None else f"')' closing {name}")
    c = text[pos : pos + 1]
    if c == b"'":
        return MalformedFile("unterminated string", pos)
    if c == b'"':
        return MalformedFile("unterminated binary token", pos)
    if c == b"#":
        return _expected(text, pos, "instance id after '#'")
    if c == b".":
        return _expected(text, pos, "closing '.' of enumeration token")
    keyword = re.compile(KEYWORD).match(text, pos)
    if keyword is None:
        return _expected(text, pos, "attribute value")
    if depth == MAX_NESTING:
        return MalformedFile(f"parameters nested deeper than {MAX_NESTING}", keyword.end())
    pos = TRIVIA.match(text, keyword.end()).end()
    if text.startswith(b"/*", pos):
        return MalformedFile("unterminated comment in parameters", pos)
    return _expected(text, pos, f"'(' after type name {keyword[0].upper().decode('ascii')}")


def _expected(text: bytes, pos: int, what: str) -> MalformedFile:
    snippet = text[pos : pos + 20].decode("latin-1")
    return MalformedFile(f"expected {what} near {snippet!r}", pos)


def _real(lexeme: str, pos: int) -> float:
    try:
        value = float(lexeme)
    except ValueError:  # a mantissa or an exponent without digits, e.g. '1E'
        raise MalformedFile(f"malformed real {lexeme[:20]!r}", pos) from None
    if not math.isfinite(value):  # JSON output has no infinity
        raise MalformedFile("real out of range", pos)
    return value


def _integer(lexeme: bytes, pos: int) -> int:
    try:
        return int(lexeme)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise MalformedFile("integer too long to read", pos) from None
