"""What the CLI's two command modules, ``ifcaudit.cli`` and
``ifcaudit.cli_suite``, share: exit codes, the usage error, output and
loading. It is its own module so that both see one ``SystemExit_`` also
when ``ifcaudit.cli`` runs as ``__main__``."""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from .spf import load

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2
#: Lines a command prints on stderr for the diagnostics of one code; the
#: rest are counted in one more line, so a hostile file cannot flood stderr.
DIAGNOSTIC_LINES = 20


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _report(diagnostics, prefix: str = "") -> None:
    """Print ``diagnostics`` on stderr as ``[code] message``, each line after
    ``prefix``: at most ``DIAGNOSTIC_LINES`` of a code, then how many more."""
    seen: Counter[str] = Counter()
    for d in diagnostics:
        seen[d.code] += 1
        if seen[d.code] <= DIAGNOSTIC_LINES:
            print(f"{prefix}{d}", file=sys.stderr)
    for code, n in seen.items():
        if n > DIAGNOSTIC_LINES:
            print(f"{prefix}[{code}] {n - DIAGNOSTIC_LINES} more not shown", file=sys.stderr)


#: The diagnostics of each file the running command loaded, after the prefix
#: that names the file; ``ifcaudit.cli.main`` takes them when the command
#: ends and prints them only when it did not fail.
_loaded: list[tuple[str, list]] = []


def _load(path: str, *, prefix: str = ""):
    """The graph of the file at ``path``. Its diagnostics list is held, live,
    to be reported after ``prefix`` once the command has succeeded."""
    try:
        graph = load(path)  # its syntax errors, eager or lazy, name the file
    except FileNotFoundError:
        raise SystemExit_(f"no such file: {path}")
    _loaded.append((prefix, graph.diagnostics))
    return graph


def _take_loaded() -> list[tuple[str, list]]:
    """The held diagnostics, which are then forgotten."""
    taken = _loaded[:]
    _loaded.clear()
    return taken


class SystemExit_(Exception):
    """Usage or I/O failure mapped to exit code 2."""
