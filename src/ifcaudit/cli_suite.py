"""The commands of the geometry conformance benchmark: ``generate``,
``check`` and ``report answers``.

``ifcaudit.cli`` loads this module when one of them runs, so the commands
that read and count files never compile it.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from . import benchkit, geomcheck, geomgen
from ._commands import EXIT_FINDINGS, EXIT_OK, SystemExit_, _emit, _json_dump, _load
from ._lazy import lazy
from .errors import IfcAuditError, NoAnswers, TooFewRespondents
from .spf.values import text

schema = lazy("ifcaudit.schema")


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
    Path(args.out).write_bytes(graph.source.data)  # the bytes it was parsed from
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
        if not geomcheck.usable_precision(precision):
            bound = geomcheck.MAX_PRECISION
            raise ValueError(f"precision {precision} is not above 0 and at most {bound:g}")
        return precision, expected
    except (ValueError, KeyError, TypeError) as exc:  # not JSON, or not shaped as a manifest
        raise SystemExit_(f"{path}: not a suite manifest ({type(exc).__name__}: {exc})") from None


def _dump_name(slot: str, proxy_id: int) -> str:
    """``slot`` when it is a plain file name, else ``#ID`` of the proxy: the
    slot is text from the file, and a dump stays in its directory. Names
    that start with ``#`` are left to that fallback."""
    if slot in ("", ".", "..") or not slot.isprintable() or "/" in slot or "\\" in slot:
        return f"#{proxy_id}"
    if slot.startswith("#"):
        return f"#{proxy_id}"
    if len(slot.encode()) > 250:  # with ".tris", past the usual 255-byte name limit
        return f"#{proxy_id}"
    return slot


def cmd_check(args) -> int:
    if args.segments < 3:
        raise SystemExit_(f"--segments must be at least 3, not {args.segments}")
    if args.precision is not None and not geomcheck.usable_precision(args.precision):
        raise SystemExit_(
            f"--precision must be above 0 and at most {geomcheck.MAX_PRECISION:g}, "
            f"not {args.precision}"
        )
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
    dumped: set[str] = set()  # the names of this run's mesh dumps
    at = schema.layout("IFCBUILDINGELEMENTPROXY")
    for proxy in geomcheck.suite_proxies(graph):
        slot = name = verdict = outcome = None
        try:
            slot, name = text(proxy.attr(at.Description)) or "", text(proxy.attr(at.Name)) or ""
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
            dump_name = _dump_name(slot, proxy.id)
            if dump_name in dumped:  # a second item in one slot
                dump_name = f"#{proxy.id}"
            dumped.add(dump_name)
            dump_path = dump_dir / f"{dump_name}.tris"
            with dump_path.open("w", encoding="utf-8") as dump:
                outcome.mesh.dump_ascii(dump)

    _emit(_json_dump({"items": results}), args.out)
    if args.expect_match and mismatches:
        print(f"{mismatches} item(s) disagree with the manifest", file=sys.stderr)
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
