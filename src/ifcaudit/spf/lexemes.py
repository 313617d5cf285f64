"""Lexemes that every reader of ISO 10303-21 text matches alike: the pure
record scanner (``_scan_py``), the header parser, the attribute parser and
the references (``model.References``).
All of them read the file's bytes with these patterns; ``_scan.c`` reads the
same shapes byte by byte.

Each lexeme is written with possessive quantifiers (Python 3.11): a run is
taken whole and never given back, so a lexeme that does not close fails at
once instead of retrying shorter runs. Each has only one way to match, so
possessive and backtracking forms accept the same text.
"""

import re

#: Runs to the first ``*/``: a run of stars ends the comment when a slash
#: follows it; any other byte after it starts more text.
COMMENT = rb"/\*[^*]*+\*++(?:[^*/][^*]*+\*++)*+/"
#: A doubled quote is a quote inside; the loop takes every pair, so the
#: closing quote is never followed by another.
STRING = rb"'[^']*+(?:''[^']*+)*+'"
BINARY = rb'"[^"]*+"'
#: An entity, type or header record name; case is folded in ASCII only.
KEYWORD = rb"[A-Za-z_][A-Za-z0-9_]*+"
#: The blanks allowed between a record's parts, where no comment may stand.
BLANKS = rb"[ \t\r\n]*+"

#: Strings, binaries and comments: a ``;``, ``(``, ``)`` or ``#`` inside means nothing.
OPAQUE = STRING + rb"|" + BINARY + rb"|" + COMMENT

#: Blanks and comments between records (and around header records).
TRIVIA = re.compile(rb"(?:[ \t\r\n]++|" + COMMENT + rb")*+")
