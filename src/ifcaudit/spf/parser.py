"""Parsing of ISO 10303-21 exchange structures into instance graphs."""

from __future__ import annotations

import os
import re
from pathlib import Path

from ..errors import MalformedFile
from .attrparse import parse_parameter_list
from .backend import active_backend
from .lexemes import BLANKS, KEYWORD, TRIVIA
from .model import (
    UNSET,
    Diagnostic,
    FileName,
    InstanceGraph,
    Source,
    SpfHeader,
)
from .values import text, texts

_SENTINEL = b"ISO-10303-21;"
_END_SENTINEL = b"END-ISO-10303-21;"

# a header record: its keyword, then blanks before its parameter list
_HEADER_HEAD = re.compile(b"(" + KEYWORD + b")" + BLANKS)
_SKIP_BLANKS = re.compile(BLANKS)


def _skip_trivia(data: bytes, pos: int) -> int:
    return TRIVIA.match(data, pos).end()


def parse_spf(data: bytes, path: str | None = None) -> InstanceGraph:
    """Parse SPF text into an :class:`InstanceGraph`.

    Attributes are parsed lazily, on first access, which keeps census-scale
    work linear in the number of records rather than the number of attribute
    tokens; references are found only when :meth:`InstanceGraph.dangling`
    reads them. :func:`materialize` checks every record and records dangling
    references and string-escape anomalies in the graph diagnostics; the
    header's escapes are recorded as it is read. A syntax error met in a
    record when its attributes are first read names ``path``, the file's
    name.

    No instance is built here: the graph holds the scanner's record table
    and builds an instance when one is first asked for. The instances share
    ``data`` itself: a record's parameters are tokenized from its bytes when
    they are first read, as the header's are up front.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("parse_spf expects bytes; use load() for paths")
    data = bytes(data)
    diagnostics: list[Diagnostic] = []

    pos = _skip_trivia(data, 0)
    if data[pos : pos + len(_SENTINEL)] != _SENTINEL:
        raise MalformedFile("missing ISO-10303-21 sentinel", pos)
    pos = _skip_trivia(data, pos + len(_SENTINEL))

    if data[pos : pos + 7] != b"HEADER;":
        raise MalformedFile("missing HEADER section", pos)
    header, pos = _parse_header(data, pos + 7, diagnostics)

    pos = _skip_trivia(data, pos)
    if data[pos : pos + 5] != b"DATA;":
        raise MalformedFile("missing DATA section", pos)

    _, scan = active_backend()
    records, refs, scan_diags, pos = scan(data, pos + 5)
    for code, message in scan_diags:
        diagnostics.append(Diagnostic(code, message))

    pos = _skip_trivia(data, pos)
    if data[pos : pos + len(_END_SENTINEL)] != _END_SENTINEL:
        diagnostics.append(
            Diagnostic("missing-end-sentinel", "file does not end with END-ISO-10303-21;")
        )

    return InstanceGraph(header, diagnostics, Source(data, path), records, refs)


def load(path: str | os.PathLike) -> InstanceGraph:
    """Read and parse a file from disk. Every syntax error, found now or
    when a record's attributes are first read, names the file."""
    name = os.fspath(path)
    try:
        return parse_spf(Path(path).read_bytes(), name)
    except MalformedFile as exc:
        raise MalformedFile(f"{name}: {exc.reason}", exc.offset) from None


def materialize(graph: InstanceGraph) -> None:
    """Check the syntax of every record not read yet, without keeping its
    values, and add to the graph's diagnostics a ``dangling-reference`` for
    each id its references name and no instance has, in id order, then an
    ``unknown-escape`` for each string escape passed through verbatim. A
    syntax error raises :class:`MalformedFile` and adds none. Records stay
    unread and no instance is built, so a second call reads them and adds
    their diagnostics again."""
    dangling, escapes = graph.dangling(), graph.unread_escapes()
    graph.diagnostics += map(_dangling_reference, dangling)
    graph.diagnostics += map(_unknown_escape, escapes)


def _dangling_reference(id: int) -> Diagnostic:
    return Diagnostic("dangling-reference", f"reference to missing instance #{id}")


def _unknown_escape(escape: str) -> Diagnostic:
    return Diagnostic("unknown-escape", f"escape sequence passed through verbatim: {escape!r}")


def _parse_header(
    data: bytes, pos: int, diagnostics: list[Diagnostic]
) -> tuple[SpfHeader, int]:
    """Read ``KEYWORD(params);`` records up to ENDSEC."""
    header = SpfHeader()
    seen: set[str] = set()
    while True:
        pos = _skip_trivia(data, pos)
        if data[pos : pos + 7] == b"ENDSEC;":
            pos += 7
            break
        m = _HEADER_HEAD.match(data, pos)
        if m is None:
            raise MalformedFile("unparseable header record", pos)
        keyword = m[1].upper().decode("ascii")
        attrs, pos, unknown = parse_parameter_list(data, m.end())
        diagnostics += map(_unknown_escape, unknown)
        pos = _SKIP_BLANKS.match(data, pos).end()
        if data[pos : pos + 1] != b";":
            raise MalformedFile(f"header record {keyword} without ';'", pos)
        pos += 1
        attrs += (UNSET,) * (7 - len(attrs))  # FILE_NAME has the most, 7
        if keyword == "FILE_DESCRIPTION":
            header.description = texts(attrs[0])
            header.implementation_level = text(attrs[1]) or ""
        elif keyword == "FILE_NAME":
            header.file_name = FileName(
                name=text(attrs[0]) or "",
                timestamp=text(attrs[1]) or "",
                authors=texts(attrs[2]),
                organizations=texts(attrs[3]),
                preprocessor_version=text(attrs[4]) or "",
                originating_system=text(attrs[5]) or "",
                authorization=text(attrs[6]) or "",
            )
        elif keyword == "FILE_SCHEMA":
            header.file_schema = texts(attrs[0])
        else:
            diagnostics.append(
                Diagnostic("ignored-header-record", f"header record {keyword} ignored")
            )
        if keyword in seen:
            diagnostics.append(
                Diagnostic("duplicate-header-record", f"{keyword} appears twice")
            )
        seen.add(keyword)
    for required in ("FILE_DESCRIPTION", "FILE_NAME", "FILE_SCHEMA"):
        if required not in seen:
            diagnostics.append(
                Diagnostic("missing-header-record", f"{required} not present")
            )
    return header, pos
