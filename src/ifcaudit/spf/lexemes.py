"""Lexemes that every reader of ISO 10303-21 text matches alike: the pure
record scanner (``_scan_py``), the header parser and the attribute parser.
``_scan.c`` reads the same shapes byte by byte.
"""

import re

COMMENT = rb"/\*(?:[^*]|\*(?!/))*\*/"
STRING = rb"'(?:[^']|'')*'(?!')"
BINARY = rb'"[^"]*"'

#: Blanks and comments between records (and around header records).
TRIVIA = re.compile(rb"(?:[ \t\r\n]|" + COMMENT + rb")*")
