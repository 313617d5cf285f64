"""Command-line entry point: parse, census, diff, georef, generate, check,
report.

Exit codes: 0 success, 1 for assertion-style findings (a diff that was
expected to be empty, a manifest mismatch), 2 for usage and I/O errors.
Results go to stdout or --out; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, benchkit, geomcheck, geomgen, spf
from ._lazy import lazy
from .errors import IfcAuditError, NoAnswers, TooFewRespondents
from .spf import load, materialize
from .spf.values import text

# Each command reads its functions off these modules when it runs, so it
# loads only the modules it calls (see ``ifcaudit._lazy``); a module-level
# ``from .census import census`` would load the module at import.
census = lazy("ifcaudit.census")
georef = lazy("ifcaudit.georef")
schema = lazy("ifcaudit.schema")

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


def cmd_parse(args) -> int:
    graph = _load(args.file)
    materialize(graph)  # the summary lists every escape diagnostic
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
    for d in graph.diagnostics:
        print(str(d), file=sys.stderr)
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
    ref = census.census(_load(args.reference))
    exp = census.census(_load(args.exported))
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


def _require_positive(option: str, value: float | None) -> None:
    """A usage error unless ``value`` is unset, finite and above 0."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise SystemExit_(f"{option} must be a finite number above 0, not {value}")


def cmd_generate(args) -> int:
    _require_positive("--spacing", args.spacing)
    _require_positive("--precision", args.precision)
    versions = schema.SchemaVersion
    version = versions.IFC2X3 if args.schema == "ifc2x3" else versions.IFC4
    spacing = geomgen.DEFAULT_SPACING if args.spacing is None else args.spacing
    precision = geomgen.DEFAULT_PRECISION if args.precision is None else args.precision
    try:
        graph, manifest = geomgen.generate_geometry_suite(
            version,
            spacing=spacing,
            precision=precision,
            include_below_precision_item=args.extra_below_precision,
        )
    except ValueError as exc:  # both numbers are checked above; the grid's extent is not
        raise SystemExit_(f"--{exc}") from None
    spf.save(graph, args.out)
    if args.manifest:
        Path(args.manifest).write_text(
            _json_dump(manifest.to_dict()), encoding="utf-8"
        )
    print(
        f"wrote {args.out}: {len(manifest.items)} items, {len(graph)} instances",
        file=sys.stderr,
    )
    return EXIT_OK


def _read_manifest(path: str) -> tuple[float, dict[str, tuple[bool, set[str]]]]:
    """The precision of a ``generate --manifest`` file and each slot's
    expected verdict, ``(valid, reasons)``; any other file is a usage error."""
    try:
        manifest = json.loads(Path(path).read_text(encoding="utf-8"))
        expected = {
            entry["slot"]: (
                entry["expected_validity"]["valid"],
                set(entry["expected_validity"]["reasons"]),
            )
            for entry in manifest["items"]
        }
        precision = float(manifest["precision"])
        if not (math.isfinite(precision) and precision > 0):
            raise ValueError(f"precision {precision} is not a finite number above 0")
        return precision, expected
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or not shaped as a manifest
        raise SystemExit_(f"{path}: not a suite manifest ({type(exc).__name__}: {exc})") from None


def _dump_name(slot: str, proxy_id: int) -> str:
    """``slot`` when it is a plain file name, else ``#ID`` of the proxy: the
    slot is text from the file, and a dump stays in its directory."""
    if slot in ("", ".", "..") or not slot.isprintable() or "/" in slot or "\\" in slot:
        return f"#{proxy_id}"
    if len(slot.encode()) > 250:  # with ".tris", past the usual 255-byte name limit
        return f"#{proxy_id}"
    return slot


def cmd_check(args) -> int:
    if args.segments < 3:
        raise SystemExit_(f"--segments must be at least 3, not {args.segments}")
    _require_positive("--precision", args.precision)
    graph = _load(args.file)
    precision, expected = args.precision, {}
    if args.manifest:
        manifest_precision, expected = _read_manifest(args.manifest)
        if precision is None:
            precision = manifest_precision
    if precision is None:
        precision = geomcheck.context_precision(graph) or geomgen.DEFAULT_PRECISION

    results = []
    mismatches = 0
    for proxy in geomcheck.suite_proxies(graph):
        slot = name = verdict = outcome = None
        try:
            slot, name = text(proxy.attr(3)) or "", text(proxy.attr(2)) or ""
            fragment = geomcheck.item_fragment(graph, proxy)
            verdict = geomcheck.check_validity(graph, fragment, precision)
            outcome = geomcheck.evaluate_item(
                graph, proxy, segments=args.segments, precision=precision
            )
        except IfcAuditError as exc:
            # one broken item is reported on its own; the others still count
            error = exc
        unread = slot is None  # the proxy record itself is broken
        if unread:
            slot, name = f"#{proxy.id}", ""
        entry = {"slot": slot, "definition": name}
        if verdict is not None:  # a verdict does not depend on the mesh
            entry["validity"] = verdict.status
            entry["reasons"] = sorted(r.value for r in verdict.reasons)
            entry["validity_warnings"] = sorted(w.value for w in verdict.warnings)
        if outcome is None:
            print(f"{slot or name}: error: {error}", file=sys.stderr)
            entry["error"] = str(error)
        else:
            entry |= {
                "displayed": outcome.displayed,
                "z_relation": outcome.z_relation.value if outcome.z_relation else None,
                "shape_class": outcome.shape_class,
                "smooth_curves": outcome.smooth_curves,
                "volume": outcome.mesh.volume if outcome.mesh else None,
                "area": outcome.mesh.surface_area if outcome.mesh else None,
                "centroid": list(map(float, outcome.mesh.centroid)) if outcome.mesh else None,
                "warnings": outcome.warnings,
            }
        if slot in expected or (unread and args.manifest):
            agrees = verdict is not None and expected[slot] == (
                verdict.valid, {r.value for r in verdict.reasons}
            )
            entry["matches_manifest"] = agrees
            if not agrees:
                mismatches += 1
        results.append(entry)
        if args.mesh_dump and outcome is not None and outcome.mesh is not None:
            dump_dir = Path(args.mesh_dump)
            dump_dir.mkdir(parents=True, exist_ok=True)
            dump_path = dump_dir / f"{_dump_name(slot, proxy.id)}.tris"
            dump_path.write_text(outcome.mesh.dump_ascii(), encoding="utf-8")

    _emit(_json_dump({"items": results}), args.out)
    if args.expect_match and mismatches:
        print(f"{mismatches} item(s) disagree with the manifest", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_OK


def _summary(path: str):
    graph = _load(path)  # freed on return, before the next file loads
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


def cmd_report_answers(args) -> int:
    path = Path(args.records)
    if not path.exists():
        raise SystemExit_(f"no such file: {args.records}")
    read = benchkit.read_answers_csv
    if path.suffix.lower() in (".jsonl", ".ndjson"):
        read = benchkit.read_answers_jsonl
    try:
        records = read(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not shaped as answer records
        raise SystemExit_(f"{args.records}: {exc}") from None

    matrix = benchkit.synthesis_matrix(records)
    geometry = benchkit.Category.GEOMETRY_ITEM
    slots = sorted({r.item_slot for r in records if r.category is geometry and r.item_slot})
    visibility = {}
    consistency_scores = {}
    for slot in slots:
        try:
            visibility[slot] = benchkit.visibility_ratio(records, slot)
        except NoAnswers:
            pass
        try:
            consistency_scores[slot] = benchkit.consistency(records, slot)
        except (TooFewRespondents, NoAnswers):
            pass

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "synthesis.md").write_text(benchkit.synthesis_markdown(matrix), encoding="utf-8")
    (out_dir / "scores.csv").write_text(benchkit.synthesis_csv(matrix), encoding="utf-8")
    (out_dir / "metrics.json").write_text(
        _json_dump(
            {
                "visibility_ratio": visibility,
                "consistency": consistency_scores,
                "consistency_note": (
                    "low values can stem from the nature of the questions; no "
                    "normalization for the answer-space size is applied"
                ),
                "timing_distribution": {
                    dataset: {b.value: n for b, n in buckets.items()}
                    for dataset, buckets in matrix.timing_distribution.items()
                },
                "success_rates": matrix.success_rates,
                "diagnostics": matrix.diagnostics,
            }
        ),
        encoding="utf-8",
    )
    print(f"wrote synthesis to {out_dir}", file=sys.stderr)
    return EXIT_OK


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
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="validity and geometry evaluation per item")
    p.add_argument("file")
    p.add_argument("--manifest")
    p.add_argument("--segments", type=int, default=64)
    p.add_argument("--precision", type=float, default=None)
    p.add_argument("--expect-match", action="store_true",
                   help="exit 1 when verdicts disagree with the manifest")
    p.add_argument("--mesh-dump", help="directory for ASCII triangle dumps")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

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
    ra.set_defaults(func=cmd_report_answers)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SystemExit_, IfcAuditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
