"""Selection of the record-scanner backend.

The compiled scanner is used whenever its extension module imports, the
pure-Python twin otherwise; :func:`available_backends` reaches either one
directly. The twin is imported on first use, so a process that scans with
the compiled one never compiles its patterns.
"""

from __future__ import annotations

from typing import Callable

try:
    from . import _scan as _scan_ext
except ImportError:  # extension not built; pure fallback stays active
    _scan_ext = None

ScanFunc = Callable[[bytes, int], tuple]


def available_backends() -> dict[str, ScanFunc]:
    from . import _scan_py

    backends: dict[str, ScanFunc] = {"python": _scan_py.scan_records}
    if _scan_ext is not None:
        backends["compiled"] = _scan_ext.scan_records
    return backends


def active_backend() -> tuple[str, ScanFunc]:
    if _scan_ext is not None:
        return "compiled", _scan_ext.scan_records
    from . import _scan_py

    return "python", _scan_py.scan_records
