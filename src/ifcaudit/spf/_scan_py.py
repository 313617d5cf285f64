"""Pure-Python record scanner for the DATA section.

Twin of the compiled scanner in ``_scan.c``; both expose
``scan_records(data, start)`` and accept one grammar, so either can back the
parser. A record's parameters end at the first ``)`` that closes the record's
own ``(``: parentheses are counted, and strings (with ``''`` doubling),
binaries and comments are skipped whole.

Each step matches one pattern at the cursor. Every pattern's alternatives
are disjoint (a string ends at a quote not followed by another, a comment at
its first ``*/``, a lone slash is not followed by ``*``; digits and ``#`` are
ordinary characters), so each input has one way to match and a failed match
cannot backtrack exponentially.

``backend`` imports this module only when the compiled scanner is missing or
a caller asks for both backends, so its patterns are compiled only then.
"""

from __future__ import annotations

import re

from ..errors import MalformedFile
from .lexemes import BINARY, COMMENT, STRING, TRIVIA

# strings, binaries and comments: a ';', '(', ')' or '#' inside means nothing
_OPAQUE = STRING + rb"|" + BINARY + rb"|" + COMMENT
_ATOM = rb"[^;'\"/()]|/(?!\*)|" + _OPAQUE

#: Parenthesised groups nest this deep inside parameters that ``_RECORD``
#: matches; deeper records take the token walk in ``_close_parameters``.
_NESTING = 4

_PARAMS = rb"(?:" + _ATOM + rb")*"
for _ in range(_NESTING):
    _PARAMS = rb"(?:" + _ATOM + rb"|\(" + _PARAMS + rb"\))*"

_HEAD = re.compile(rb"#(\d+)[ \t\r\n]*=[ \t\r\n]*([A-Za-z_][A-Za-z0-9_]*)[ \t\r\n]*\(")
_RECORD = re.compile(_HEAD.pattern + rb"(" + _PARAMS + rb")\)[ \t\r\n]*;")
# a complex instance runs to the first ';' outside strings and comments
_COMPLEX = re.compile(
    rb"#(\d+)[ \t\r\n]*=[ \t\r\n]*\((?:[^;'/]|/(?!\*)|" + STRING + rb"|" + COMMENT + rb")*;"
)
_ENDSEC = re.compile(rb"ENDSEC" + TRIVIA.pattern + rb";")
_TOKEN = re.compile(rb"[^;'\"/()]+|/(?!\*)|[()]|" + _OPAQUE)
_TERMINATOR = re.compile(rb"[ \t\r\n]*;")
_REFERENCES = re.compile(_OPAQUE + rb"|#(\d+)")


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


def scan_records(
    data: bytes, start: int
) -> tuple[list[tuple[int, str, int, int]], set[int], list[tuple[str, str]], int]:
    """Scan ``#id=TYPE(...);`` records from ``start`` up to the section's
    ENDSEC keyword.

    Returns ``(records, referenced_ids, diagnostics, end_pos)`` where each
    record is ``(id, type_name, param_start, param_end)`` with byte offsets
    into ``data`` and ``end_pos`` sits just past ``ENDSEC;``.
    """
    records: list[tuple[int, str, int, int]] = []
    referenced: set[int] = set()
    diagnostics: list[tuple[str, str]] = []
    pos = start
    while True:
        pos = TRIVIA.match(data, pos).end()
        m = _RECORD.match(data, pos)
        if m is not None:
            pstart, pend = m.span(3)
            pos = m.end()
        elif (m := _HEAD.match(data, pos)) is not None:
            pstart = m.end()
            pend, pos = _close_parameters(data, pstart)
        elif (m := _COMPLEX.match(data, pos)) is not None:
            diagnostics.append(
                (
                    "complex-instance",
                    f"unsupported complex entity instance #{int(m.group(1))} skipped",
                )
            )
            pos = m.end()
            continue
        elif (m := _ENDSEC.match(data, pos)) is not None:
            return records, referenced, diagnostics, m.end()
        elif pos >= len(data):
            raise MalformedFile("missing ENDSEC", pos)
        elif data.startswith(b"/*", pos):
            raise MalformedFile("unterminated comment", pos)
        else:
            snippet = data[pos : pos + 30]
            raise MalformedFile(f"unparseable content in DATA section: {snippet!r}", pos)
        records.append((int(m.group(1)), m.group(2).upper().decode("ascii"), pstart, pend))
        if data.find(b"#", pstart, pend) >= 0:
            referenced.update(map(int, filter(None, _REFERENCES.findall(data, pstart, pend))))
