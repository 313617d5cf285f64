"""Pure-Python record scanner for the DATA section.

Twin of the compiled scanner in ``_scan.pyx``; both expose
``scan_records(data, start)`` with identical semantics so either can back the
parser. This one leans on a single compiled regex to stay usable on
100 MB-class files.
"""

from __future__ import annotations

import re

from ..errors import MalformedFile

# One full record: #id = KEYWORD ( params ) ;
# Params are a run of harmless characters, quoted strings (with '' doubling),
# binary tokens, comments, or lone slashes. ';' is excluded everywhere, so the
# closing "):;" anchor cannot be fooled by string or comment content. The
# alternatives are disjoint (a string ends at a quote not followed by another,
# a comment at its first "*/", a lone slash is not followed by '*'), so each
# input has one way to match and a failed match cannot backtrack
# exponentially.
_RECORD = re.compile(
    rb"#(\d+)[ \t\r\n]*=[ \t\r\n]*([A-Za-z_][A-Za-z0-9_]*)[ \t\r\n]*"
    rb"\(((?:[^;'\"/]|'(?:[^']|'')*'(?!')|\"[^\"]*\"|/\*(?:[^*]|\*(?!/))*\*/|/(?!\*))*)"
    rb"\)[ \t\r\n]*;",
    re.DOTALL,
)

_REF_OR_STRING = re.compile(rb"'(?:[^']|'')*'|#(\d+)")

_COMPLEX_HEAD = re.compile(rb"#(\d+)[ \t\r\n]*=[ \t\r\n]*\(")

_WS = b" \t\r\n"


def _skip_trivia(data: bytes, pos: int, end: int) -> int:
    while pos < end:
        c = data[pos : pos + 1]
        if c in (b" ", b"\t", b"\r", b"\n"):
            pos += 1
        elif c == b"/" and data[pos : pos + 2] == b"/*":
            close = data.find(b"*/", pos + 2, end)
            if close < 0:
                raise MalformedFile("unterminated comment", pos)
            pos = close + 2
        else:
            break
    return pos


def _skip_record_tail(data: bytes, pos: int, end: int) -> int:
    """Advance past the next top-level ';', honouring strings and comments."""
    while pos < end:
        semi = data.find(b";", pos, end)
        quote = data.find(b"'", pos, end)
        comment = data.find(b"/*", pos, end)
        if semi < 0:
            break
        nearest = min(x for x in (semi, quote, comment) if x >= 0)
        if nearest == semi:
            return semi + 1
        if nearest == quote:
            i = quote + 1
            while True:
                j = data.find(b"'", i, end)
                if j < 0:
                    raise MalformedFile("unterminated string", quote)
                if data[j + 1 : j + 2] == b"'":
                    i = j + 2
                else:
                    pos = j + 1
                    break
        else:
            close = data.find(b"*/", comment + 2, end)
            if close < 0:
                raise MalformedFile("unterminated comment", comment)
            pos = close + 2
    raise MalformedFile("missing record terminator ';'", pos)


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
    size = len(data)
    cursor = start

    def handle_gap(gap_start: int, gap_end: int) -> int | None:
        """Digest non-record text; returns post-ENDSEC position when the
        section terminator is found inside the gap."""
        pos = gap_start
        while True:
            pos = _skip_trivia(data, pos, gap_end)
            if pos >= gap_end:
                return None
            if data[pos : pos + 6] == b"ENDSEC":
                after = _skip_trivia(data, pos + 6, size)
                if data[after : after + 1] != b";":
                    raise MalformedFile("ENDSEC without ';'", pos)
                return after + 1
            m = _COMPLEX_HEAD.match(data, pos, gap_end)
            if m is not None:
                diagnostics.append(
                    (
                        "complex-instance",
                        f"unsupported complex entity instance #{int(m.group(1))} skipped",
                    )
                )
                pos = _skip_record_tail(data, m.end(), size)
                continue
            snippet = data[pos : pos + 30]
            raise MalformedFile(f"unparseable content in DATA section: {snippet!r}", pos)

    for m in _RECORD.finditer(data, start):
        if m.start() > cursor:
            done = handle_gap(cursor, m.start())
            if done is not None:
                return records, referenced, diagnostics, done
        inst_id = int(m.group(1))
        name = m.group(2).upper().decode("ascii")
        pstart, pend = m.span(3)
        records.append((inst_id, name, pstart, pend))
        params = m.group(3)
        if b"#" in params:
            for rm in _REF_OR_STRING.finditer(params):
                ref = rm.group(1)
                if ref is not None:
                    referenced.add(int(ref))
        cursor = m.end()

    done = handle_gap(cursor, size)
    if done is None:
        raise MalformedFile("missing ENDSEC", cursor)
    return records, referenced, diagnostics, done
