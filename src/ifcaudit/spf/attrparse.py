"""Recursive-descent parser for the parameter list of one record."""

from __future__ import annotations

import math

from ..errors import MalformedFile
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
#: levels at most; the bound keeps hostile input from exhausting the stack.
MAX_NESTING = 64

_WS = " \t\r\n"
_DIGITS = "0123456789"
_KEYWORD_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_KEYWORD_BODY = _KEYWORD_START | set(_DIGITS)


class _Cursor:
    __slots__ = ("text", "pos", "depth", "unknown_escapes")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.unknown_escapes: list[str] = []

    def skip_trivia(self) -> None:
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n:
            c = text[i]
            if c in _WS:
                i += 1
            elif c == "/" and text[i : i + 2] == "/*":
                end = text.find("*/", i + 2)
                if end < 0:
                    raise MalformedFile("unterminated comment in parameters", i)
                i = end + 2
            else:
                break
        self.pos = i

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise MalformedFile(f"parameters nested deeper than {MAX_NESTING}", self.pos)

    def fail(self, what: str) -> MalformedFile:
        ctx = self.text[self.pos : self.pos + 20]
        return MalformedFile(f"expected {what} near {ctx!r}", self.pos)


def parse_attributes(
    params: str, unknown_escape_sink: list[str] | None = None
) -> tuple[AttributeValue, ...]:
    """Parse the text between a record's outer parentheses."""
    cur = _Cursor(params)
    cur.skip_trivia()
    if cur.pos >= len(params):
        return ()
    items = _parse_items(cur)
    cur.skip_trivia()
    if cur.pos != len(params):
        raise cur.fail("end of parameters")
    if unknown_escape_sink is not None:
        unknown_escape_sink.extend(cur.unknown_escapes)
    return tuple(items)


def parse_parameter_list(text: str, pos: int) -> tuple[tuple[AttributeValue, ...], int]:
    """Parse the parenthesised parameter list that opens at ``text[pos]``.

    Returns the values and the position just past the closing ``')'``.
    """
    cur = _Cursor(text)
    cur.pos = pos
    if cur.peek() != "(":
        raise cur.fail("'('")
    return _parse_list(cur).items, cur.pos


def _parse_items(cur: _Cursor) -> list[AttributeValue]:
    items = [_parse_value(cur)]
    while True:
        cur.skip_trivia()
        c = cur.peek()
        if c == ",":
            cur.pos += 1
            cur.skip_trivia()
            items.append(_parse_value(cur))
        else:
            return items


def _parse_value(cur: _Cursor) -> AttributeValue:
    c = cur.peek()
    if c == "$":
        cur.pos += 1
        return UNSET
    if c == "*":
        cur.pos += 1
        return DERIVED
    if c == "#":
        return _parse_reference(cur)
    if c == "'":
        return _parse_string(cur)
    if c == ".":
        return _parse_enum(cur)
    if c == "(":
        return _parse_list(cur)
    if c == '"':
        return _parse_binary(cur)
    if c in "+-" or c in _DIGITS:
        return _parse_number(cur)
    if c in _KEYWORD_START:
        return _parse_typed(cur)
    raise cur.fail("attribute value")


def _parse_reference(cur: _Cursor) -> Reference:
    text = cur.text
    i = cur.pos + 1
    start = i
    while i < len(text) and text[i] in _DIGITS:
        i += 1
    if i == start:
        raise cur.fail("instance id after '#'")
    cur.pos = i
    return Reference(_integer(text[start:i], start))


def _parse_string(cur: _Cursor) -> Text:
    text = cur.text
    i = cur.pos + 1
    start = i
    while True:
        j = text.find("'", i)
        if j < 0:
            raise MalformedFile("unterminated string", cur.pos)
        if text[j + 1 : j + 2] == "'":
            i = j + 2
            continue
        raw = text[start:j]
        cur.pos = j + 1
        value, unknown = decode_step_string(raw)
        cur.unknown_escapes.extend(unknown)
        return Text(value, raw)


def _parse_enum(cur: _Cursor) -> EnumToken:
    text = cur.text
    end = text.find(".", cur.pos + 1)
    if end < 0:
        raise cur.fail("closing '.' of enumeration token")
    name = text[cur.pos + 1 : end]
    cur.pos = end + 1
    return EnumToken(name.upper())


def _parse_list(cur: _Cursor) -> ListValue:
    cur.enter()
    cur.pos += 1  # consume '('
    cur.skip_trivia()
    if cur.peek() == ")":
        items = []
    else:
        items = _parse_items(cur)
        cur.skip_trivia()
        if cur.peek() != ")":
            raise cur.fail("')'")
    cur.pos += 1
    cur.depth -= 1
    return ListValue(tuple(items))


def _parse_binary(cur: _Cursor) -> Binary:
    text = cur.text
    end = text.find('"', cur.pos + 1)
    if end < 0:
        raise MalformedFile("unterminated binary token", cur.pos)
    payload = text[cur.pos + 1 : end]
    cur.pos = end + 1
    return Binary(payload)


def _parse_number(cur: _Cursor) -> Integer | Real:
    text = cur.text
    n = len(text)
    i = cur.pos
    start = i
    if text[i] in "+-":
        i += 1
    is_real = False
    while i < n and text[i] in _DIGITS:
        i += 1
    if i < n and text[i] == ".":
        is_real = True
        i += 1
        while i < n and text[i] in _DIGITS:
            i += 1
    if i < n and text[i] in "eE":
        is_real = True
        i += 1
        if i < n and text[i] in "+-":
            i += 1
        while i < n and text[i] in _DIGITS:
            i += 1
    lexeme = text[start:i]
    cur.pos = i
    if not lexeme.strip("+-"):
        raise cur.fail("number")
    if is_real:
        return Real(_real(lexeme, start), lexeme)
    return Integer(_integer(lexeme, start))


def _real(lexeme: str, pos: int) -> float:
    try:
        value = float(lexeme)
    except ValueError:  # a mantissa or an exponent without digits, e.g. '1E'
        raise MalformedFile(f"malformed real {lexeme[:20]!r}", pos) from None
    if not math.isfinite(value):  # JSON output has no infinity
        raise MalformedFile("real out of range", pos)
    return value


def _integer(lexeme: str, pos: int) -> int:
    try:
        return int(lexeme)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise MalformedFile("integer too long to read", pos) from None


def _parse_typed(cur: _Cursor) -> TypedValue:
    text = cur.text
    i = cur.pos
    while i < len(text) and text[i] in _KEYWORD_BODY:
        i += 1
    name = text[cur.pos : i].upper()
    cur.pos = i
    cur.enter()
    cur.skip_trivia()
    if cur.peek() != "(":
        raise cur.fail(f"'(' after type name {name}")
    cur.pos += 1
    cur.skip_trivia()
    inner = _parse_value(cur)
    cur.skip_trivia()
    if cur.peek() != ")":
        raise cur.fail(f"')' closing {name}")
    cur.pos += 1
    cur.depth -= 1
    return TypedValue(name, inner)
