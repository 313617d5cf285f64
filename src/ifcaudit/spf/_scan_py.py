"""Pure-Python record scanner for the DATA section.

Twin of the compiled scanner in ``_scan.c``; both expose
``scan_records(data, start)`` and accept one grammar, so either can back the
parser. A record's parameters end at the first ``)`` that closes the record's
own ``(``: parentheses are counted, and strings (with ``''`` doubling),
binaries and comments are skipped whole.

Runs of ordinary records are read by one ``finditer`` over ``_RUN``, which
matches at every offset: trivia, then a whole record if one starts there.
Each match starts where the one before ended, so the first match without a
record is where the run ends. There the slow path reads one item: a record
nested deeper than ``_RUN`` reaches (``_HEAD`` and the token walk in
``_close_parameters``), a complex instance, ``ENDSEC`` or an error; then a
new run starts.

No pattern can backtrack: every pattern's alternatives are disjoint (a string
ends at a quote not followed by another, a comment at its first ``*/``, a
lone slash is not followed by ``*``; digits and ``#`` are ordinary
characters), and every run and loop is possessive, so it never gives back
what it took. A failed match therefore costs time linear in what it read.

``backend`` imports this module only when the compiled scanner is missing or
a caller asks for both backends, so its patterns are compiled only then.
"""

from __future__ import annotations

import re
from array import array

from ..errors import MalformedFile
from .lexemes import BINARY, BLANKS, COMMENT, KEYWORD, STRING, TRIVIA
from .model import RecordTable

# strings, binaries and comments: a ';', '(', ')' or '#' inside means nothing
_OPAQUE = STRING + rb"|" + BINARY + rb"|" + COMMENT
_ATOMS = rb"[^;'\"/()]++|/(?!\*)|" + _OPAQUE

#: Parenthesised groups nest this deep inside parameters that ``_RUN``
#: matches; deeper records take the token walk in ``_close_parameters``.
_NESTING = 4

_PARAMS = rb"(?:" + _ATOMS + rb")*+"
for _ in range(_NESTING):
    _PARAMS = rb"(?:" + _ATOMS + rb"|\(" + _PARAMS + rb"\))*+"

_HEAD = re.compile(
    rb"#([0-9]++)" + BLANKS + rb"=" + BLANKS + rb"(" + KEYWORD + rb")" + BLANKS + rb"\("
)
# groups: 1 id, 2 type name, 3 parameters; all unset when no record follows
_RUN = re.compile(
    TRIVIA.pattern + rb"(?:" + _HEAD.pattern + rb"(" + _PARAMS + rb")\)" + BLANKS + rb";)?+"
)
# a complex instance runs to the first ';' outside strings and comments
_COMPLEX = re.compile(
    rb"#([0-9]++)" + BLANKS + rb"=" + BLANKS
    + rb"\((?:[^;'/]++|/(?!\*)|" + STRING + rb"|" + COMMENT + rb")*+;"
)
_ENDSEC = re.compile(rb"ENDSEC" + TRIVIA.pattern + rb";")
_TOKEN = re.compile(rb"[^;'\"/()]++|/(?!\*)|[()]|" + _OPAQUE)
_TERMINATOR = re.compile(BLANKS + rb";")
_REFERENCES = re.compile(_OPAQUE + rb"|#([0-9]++)")


def _close_parameters(data: bytes, pos: int) -> tuple[int, int]:
    """Walk the parameter tokens from ``pos``, just past a record's ``(``;
    returns the offset of the closing ``)`` and the offset past ``;``."""
    depth = 1
    while (m := _TOKEN.match(data, pos)) is not None:
        pos = m.end()
        token = m.group()
        if token == b"(":
            depth += 1
        elif token == b")":
            depth -= 1
            if depth == 0:
                end = _TERMINATOR.match(data, pos)
                if end is None:
                    raise MalformedFile("missing record terminator ';'", pos)
                return pos - 1, end.end()
    raise MalformedFile("unterminated parameter list", pos)


class _TypeCodes(dict):
    """Type name as written -> its code in ``names``, which holds each
    upper-cased name once; a spelling met first is added on lookup."""

    def __init__(self):
        self.names: list[str] = []
        self.codes: dict[str, int] = {}  # upper-cased name -> code

    def __missing__(self, spelling: bytes) -> int:
        name = spelling.upper().decode("ascii")
        code = self[spelling] = self.codes.setdefault(name, len(self.names))
        if code == len(self.names):
            self.names.append(name)
        return code


def scan_records(
    data: bytes, start: int
) -> tuple[RecordTable, array | list[int], list[tuple[str, str]], int]:
    """Scan ``#id=TYPE(...);`` records from ``start`` up to the section's
    ENDSEC keyword.

    Returns ``(records, references, diagnostics, end_pos)``: the records as
    a :class:`RecordTable` with parameter spans into ``data``, every
    reference in them in order, and the offset just past ``ENDSEC;``. The
    references are an ``array('q')``, or a list of ints when one is past
    2**63 - 1.
    """
    try:
        return _scan(data, start, array("q"))
    except OverflowError:  # a reference the array cannot hold: read again into a list
        return _scan(data, start, [])


def _scan(data: bytes, start: int, references: array | list[int]):
    ids: list[int] = []
    codes = array("I")
    starts = array("q")
    ends = array("q")
    diagnostics: list[tuple[str, str]] = []
    type_codes = _TypeCodes()

    add_id, add_code, add_start, add_end = ids.append, codes.append, starts.append, ends.append
    add_references = references.extend
    find = data.find
    pos = start
    while True:
        for m in _RUN.finditer(data, pos):
            spelling = m[2]
            if spelling is None:
                break
            pstart, pend = m.span(3)
            add_id(int(m[1]))
            add_code(type_codes[spelling])
            add_start(pstart)
            add_end(pend)
            if find(b"#", pstart, pend) >= 0:
                add_references(map(int, filter(None, _REFERENCES.findall(data, pstart, pend))))
        pos = m.end()
        if (m := _HEAD.match(data, pos)) is not None:
            pstart = m.end()
            pend, pos = _close_parameters(data, pstart)
            add_id(int(m[1]))
            add_code(type_codes[m[2]])
            add_start(pstart)
            add_end(pend)
            add_references(map(int, filter(None, _REFERENCES.findall(data, pstart, pend))))
        elif (m := _COMPLEX.match(data, pos)) is not None:
            diagnostics.append(
                (
                    "complex-instance",
                    f"unsupported complex entity instance #{int(m[1])} skipped",
                )
            )
            pos = m.end()
        elif (m := _ENDSEC.match(data, pos)) is not None:
            table = RecordTable(ids, codes, type_codes.names, starts, ends)
            return table, references, diagnostics, m.end()
        elif pos >= len(data):
            raise MalformedFile("missing ENDSEC", pos)
        elif data.startswith(b"/*", pos):
            raise MalformedFile("unterminated comment", pos)
        else:
            snippet = data[pos : pos + 30]
            raise MalformedFile(f"unparseable content in DATA section: {snippet!r}", pos)
