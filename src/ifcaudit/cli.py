"""Command-line entry point: parse, census, diff, georef, generate, check,
report.

Exit codes: 0 success, 1 for assertion-style findings (a diff that was
expected to be empty, a manifest mismatch), 2 for usage and I/O errors.
Results go to stdout or --out; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, benchkit, geomcheck, geomgen  # noqa: F401
from ._commands import (
    EXIT_ERROR, EXIT_FINDINGS, EXIT_OK, SystemExit_, _emit, _json_dump, _load, _report,
    _take_loaded,
)
from ._lazy import lazy
from .errors import IfcAuditError
from .spf import materialize

# Each command reads its functions off these modules when it runs, so it
# loads only the modules it calls (see ``ifcaudit._lazy``); a module-level
# ``from .census import census`` would load the module at import. Only
# ``ifcaudit.cli_suite`` uses geomcheck, geomgen and schema; they are
# registered here too, so that tools that look modules up by name find them
# all after ``import ifcaudit.cli``.
census = lazy("ifcaudit.census")
georef = lazy("ifcaudit.georef")
schema = lazy("ifcaudit.schema")
suite = lazy("ifcaudit.cli_suite")  # generate, check and report answers


def cmd_parse(args) -> int:
    graph = _load(args.file)
    materialize(graph)  # the summary, and stderr, list every escape diagnostic
    summary = {
        "schema": graph.schema_name(),
        "instances": len(graph),
        "byte_size": graph.byte_size,
        "diagnostics": [str(d) for d in graph.diagnostics],
        "header": {
            "description": graph.header.description,
            "file_name": graph.header.file_name.name,
            "timestamp": graph.header.file_name.timestamp,
        },
    }
    _emit(_json_dump(summary), args.out)
    return EXIT_OK


def cmd_census(args) -> int:
    graph = _load(args.file)
    c = census.census(graph)
    if args.format == "csv":
        lines = ["type,count"]
        lines += [f"{t},{n}" for t, n in sorted(c.counts.items())]
        _emit("\n".join(lines) + "\n", args.out)
    elif args.format == "markdown":
        lines = ["| Type | Count |", "| --- | ---: |"]
        lines += [f"| {t} | {n} |" for t, n in sorted(c.counts.items())]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(
            _json_dump(
                {
                    "schema": c.schema.value if c.schema else None,
                    "total": c.total,
                    "byte_size": c.byte_size,
                    "counts": dict(sorted(c.counts.items())),
                }
            ),
            args.out,
        )
    return EXIT_OK


def cmd_diff(args) -> int:
    ref = census.census(_load(args.reference, prefix=f"{args.reference}: "))
    exp = census.census(_load(args.exported, prefix=f"{args.exported}: "))
    d = census.diff(ref, exp)
    for message in d.diagnostics:
        print(message, file=sys.stderr)
    if args.format == "csv":
        _emit(census.diff_csv(ref, exp, d), args.out)
    elif args.format == "markdown":
        _emit(census.diff_markdown(ref, exp, d), args.out)
    else:
        payload = census.diff_as_dict(d)
        payload["size_delta_bytes"] = d.size_delta_bytes
        _emit(_json_dump(payload), args.out)
    if args.expect_unchanged and not d.empty:
        print("census differs but --expect-unchanged was given", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_georef(args) -> int:
    graph = _load(args.file)
    report = georef.detect_georef(graph)
    _emit(_json_dump(georef.report_as_dict(report)), args.out)
    return EXIT_OK


def _summary(path: str):
    graph = _load(path, prefix=f"{path}: ")  # freed on return, before the next file loads
    return census.census(graph), georef.detect_georef(graph)


def cmd_report_roundtrip(args) -> int:
    report = benchkit.roundtrip_report(_summary(args.reference), _summary(args.exported))
    if args.format == "markdown":
        ref_census = report.reference_census
        exp_census = report.export_census
        lines = [
            "# Round-trip report",
            "",
            f"- unchanged: **{report.unchanged}**",
            f"- size ratio: {report.size_ratio:.4f}",
            f"- family balances: {report.family_balances}",
            "",
            census.diff_markdown(ref_census, exp_census, report.diff),
        ]
        _emit("\n".join(lines), args.out)
    else:
        _emit(_json_dump(benchkit.report_as_json(report)), args.out)
    if args.expect_unchanged and not report.unchanged:
        print("model changed across the round trip", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


def _suite_command(name: str):
    """The command ``name`` of ``ifcaudit.cli_suite``, loaded when it runs."""
    return lambda args: getattr(suite, name)(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ifcaudit",
        description="IFC/SPF interoperability audit toolkit",
    )
    parser.add_argument("--version", action="version", version=f"ifcaudit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a file and print a summary")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("census", help="count entities per type")
    p.add_argument("file")
    p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("diff", help="census diff between two files")
    p.add_argument("reference")
    p.add_argument("exported")
    p.add_argument("--format", choices=["json", "csv", "markdown"], default="json")
    p.add_argument("--expect-unchanged", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("georef", help="detect georeferencing levels")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_georef)

    p = sub.add_parser("generate", help="generate the geometry conformance suite")
    p.add_argument("--schema", choices=["ifc2x3", "ifc4"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--precision", type=float, default=None)
    p.add_argument("--manifest")
    p.add_argument(
        "--extra-below-precision",
        action="store_true",
        help="append the optional below-precision-depth item",
    )
    p.set_defaults(func=_suite_command("cmd_generate"))

    p = sub.add_parser("check", help="validity and geometry evaluation per item")
    p.add_argument("file")
    p.add_argument("--manifest")
    p.add_argument("--segments", type=int, default=64)
    p.add_argument("--precision", type=float, default=None)
    p.add_argument("--expect-match", action="store_true",
                   help="exit 1 when verdicts disagree with the manifest")
    p.add_argument("--mesh-dump", help="directory for ASCII triangle dumps")
    p.add_argument("--out")
    p.set_defaults(func=_suite_command("cmd_check"))

    p = sub.add_parser("report", help="aggregated reports")
    report_sub = p.add_subparsers(dest="report_command", required=True)

    rr = report_sub.add_parser("roundtrip", help="round-trip interoperability report")
    rr.add_argument("reference")
    rr.add_argument("exported")
    rr.add_argument("--format", choices=["json", "markdown"], default="json")
    rr.add_argument("--expect-unchanged", action="store_true")
    rr.add_argument("--out")
    rr.set_defaults(func=cmd_report_roundtrip)

    ra = report_sub.add_parser("answers", help="aggregate benchmark answers")
    ra.add_argument("records", help="CSV or JSON-lines answer records")
    ra.add_argument("--out", required=True, help="output directory")
    ra.set_defaults(func=_suite_command("cmd_report_answers"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the diagnostics of the files loaded follow the command's own stderr
    # lines, and only when it succeeded: a failure prints one ``error:`` line
    try:
        code = args.func(args)
    except (SystemExit_, IfcAuditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        loaded = _take_loaded()
    for prefix, diagnostics in loaded:
        _report(diagnostics, prefix)
    return code


if __name__ == "__main__":
    sys.exit(main())
