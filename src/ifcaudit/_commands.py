"""What the CLI's two command modules, ``ifcaudit.cli`` and
``ifcaudit.cli_suite``, share: exit codes, the usage error, output and
loading. It is its own module so that both see one ``SystemExit_`` also
when ``ifcaudit.cli`` runs as ``__main__``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .spf import load

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load(path: str):
    try:
        return load(path)  # its syntax errors, eager or lazy, name the file
    except FileNotFoundError:
        raise SystemExit_(f"no such file: {path}")


class SystemExit_(Exception):
    """Usage or I/O failure mapped to exit code 2."""
