"""Output oracle: judges one op's exit code, stderr and output against the
ledger the input generator wrote.

Exit codes follow the README contract: 0 success, 1 only for an
``--expect-*`` finding, 2 for malformed input. An op fails on a wrong
output, an unexpected exit code, a traceback or a timeout. Wrong answers
(``WRONG``) are told apart from crashes, so a run can say both how many ops
failed and whether any answer it got was wrong.

Expected geometry comes from the dimensions declared in
``ifcaudit.geomgen.suite`` and closed-form volumes; expected georeferencing,
census and diff figures come from what the generator wrote.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from ifcaudit.geomgen import suite as S

#: census families, as ``ifcaudit.census.FAMILIES`` rolls them up
FAMILIES = {
    "wall": ("IFCWALL", "IFCWALLSTANDARDCASE", "IFCWALLTYPE"),
    "stair": ("IFCSTAIR", "IFCSTAIRFLIGHT", "IFCSTAIRFLIGHTTYPE"),
    "member": ("IFCMEMBER", "IFCMEMBERTYPE"),
    "proxy": ("IFCBUILDINGELEMENTPROXY", "IFCBUILDINGELEMENTPROXYTYPE"),
}
#: re-export size ratio a round trip still calls unchanged
SIZE_RATIO_BAND = (0.98, 1.02)

WRONG = "wrong-output"
EXIT = "exit-code"
TRACEBACK = "traceback"
TIMEOUT = "timeout"
SIGNAL = "signal"
#: failure kinds that mean the program gave a wrong answer rather than none
WRONG_ANSWERS = (WRONG, EXIT)


class Mismatch(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(got, want, rel: float = 1e-12, where: str = "value") -> None:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(want, float) or isinstance(got, float):
        expect(isinstance(got, (int, float)) and isinstance(want, (int, float))
               and math.isclose(got, want, rel_tol=rel, abs_tol=1e-12),
               f"{where}: {got!r} != {want!r}")
    elif isinstance(want, dict):
        expect(isinstance(got, dict) and set(got) == set(want),
               f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} "
               f"!= {sorted(want)}")
        for key in want:
            close(got[key], want[key], rel, f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        expect(isinstance(got, (list, tuple)) and len(got) == len(want),
               f"{where}: {got!r} != {want!r}")
        for k, (g, w) in enumerate(zip(got, want)):
            close(g, w, rel, f"{where}[{k}]")
    else:
        expect(got == want, f"{where}: {got!r} != {want!r}")


# --- per-kind checks -------------------------------------------------------------


def _table_rows(text: str, header: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if line.strip()]
    expect(bool(lines) and lines[0] == header, f"table header {lines[:1]!r}")
    if header.startswith("|"):
        return [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]
    return [line.split(",") for line in lines[1:]]


def _census(op, ledger, out, work):
    entry = ledger["files"][op["expect"]["file"]]
    fmt = op["expect"]["format"]
    if fmt == "json":
        got = json.loads(out)
        close(got["counts"], entry["counts"], where="counts")
        close(got["total"], entry["total"], where="total")
        close(got["byte_size"], entry["bytes"], where="byte_size")
        close(got["schema"], entry["schema"], where="schema")
        return
    header = "type,count" if fmt == "csv" else "| Type | Count |"
    rows = _table_rows(out, header)
    counts = {t: int(n) for t, n in rows}
    close(counts, entry["counts"], where="counts")


def expected_diff(ledger, a: str, b: str) -> dict:
    ref, exp = ledger["files"][a], ledger["files"][b]
    rc, ec = ref["counts"], exp["counts"]
    deltas = {t: ec.get(t, 0) - rc.get(t, 0) for t in set(rc) | set(ec)}
    return {
        "deltas": {t: d for t, d in sorted(deltas.items()) if d},
        "lost_types": sorted(t for t in rc if t not in ec),
        "gained_types": sorted(t for t in ec if t not in rc),
        "size_delta_bytes": exp["bytes"] - ref["bytes"],
        "reference": rc,
        "exported": ec,
    }


def _diff_rows(rows, want) -> None:
    got = {}
    for t, r, e, d, _group in rows:
        if t == "(no differences)":
            continue
        got[t] = int(d)
        close(int(r), want["reference"].get(t, 0), where=f"{t} reference")
        close(int(e), want["exported"].get(t, 0), where=f"{t} exported")
    close(got, want["deltas"], where="deltas")


def _diff(op, ledger, out, work):
    e = op["expect"]
    want = expected_diff(ledger, e["reference"], e["exported"])
    if e["format"] == "json":
        got = json.loads(out)
        for key in ("deltas", "lost_types", "gained_types", "size_delta_bytes"):
            close(got[key], want[key], where=key)
        close(sum(got["grouped_deltas"].values()), sum(want["deltas"].values()),
              where="grouped deltas total")
    elif e["format"] == "csv":
        _diff_rows(_table_rows(out, "type,reference,exported,delta,group"), want)
    else:
        _diff_rows(_table_rows(out, "| Type | Reference | Exported | Delta | Group |"), want)


def _georef_report(got: dict, want: dict, where: str) -> None:
    close(got["levels"], want["levels"], where=f"{where}.levels")
    close(got["params"], want["params"], where=f"{where}.params")
    expect(len(got["diagnostics"]) == len(want["diagnostics"])
           and all(any(w in g for g in got["diagnostics"]) for w in want["diagnostics"]),
           f"{where}.diagnostics {got['diagnostics']!r} != {want['diagnostics']!r}")


def _georef(op, ledger, out, work):
    entry = ledger["files"][op["expect"]["file"]]
    _georef_report(json.loads(out), entry["georef"], "georef")


def _parse(op, ledger, out, work):
    entry = ledger["files"][op["expect"]["file"]]
    got = json.loads(out)
    close(got["schema"], entry["schema"], where="schema")
    close(got["instances"], entry["total"], where="instances")
    close(got["byte_size"], entry["bytes"], where="byte_size")
    close(got["header"]["file_name"], entry["header"]["file_name"], where="file_name")
    close(got["header"]["timestamp"], entry["header"]["timestamp"], where="timestamp")
    codes: dict[str, int] = {}
    for line in got["diagnostics"]:
        m = re.match(r"\[([a-z-]+)\]", line)
        expect(m is not None, f"diagnostic without code: {line!r}")
        codes[m.group(1)] = codes.get(m.group(1), 0) + 1
    close(codes, entry["diagnostics"], where="diagnostics")


def expected_roundtrip(ledger, a: str, b: str) -> dict:
    ref, exp = ledger["files"][a], ledger["files"][b]
    d = expected_diff(ledger, a, b)
    ratio = exp["bytes"] / ref["bytes"]
    before, after = ref["georef"], exp["georef"]
    diagnostics = []
    if set(before["levels"]) != set(after["levels"]):
        diagnostics.append(
            f"georeferencing changed: levels {before['levels']} -> {after['levels']}")
    return {
        "unchanged": not d["deltas"]
        and SIZE_RATIO_BAND[0] <= ratio <= SIZE_RATIO_BAND[1],
        "size_ratio": ratio,
        "total_reference": ref["total"],
        "total_exported": exp["total"],
        "family_balances": {name: sum(d["deltas"].get(t, 0) for t in family)
                            for name, family in FAMILIES.items()},
        "diagnostics": diagnostics,
        "diff": d,
    }


def _roundtrip(op, ledger, out, work):
    e = op["expect"]
    want = expected_roundtrip(ledger, e["reference"], e["exported"])
    if e["format"] == "json":
        got = json.loads(out)
        for key in ("unchanged", "size_ratio", "total_reference", "total_exported",
                    "family_balances", "diagnostics"):
            close(got[key], want[key], where=key)
        for key in ("deltas", "lost_types", "gained_types"):
            close(got[key], want["diff"][key], where=key)
        _georef_report(got["georef_before"], ledger["files"][e["reference"]]["georef"],
                       "georef_before")
        _georef_report(got["georef_after"], ledger["files"][e["exported"]]["georef"],
                       "georef_after")
        return
    lines = out.splitlines()
    expect(lines[:1] == ["# Round-trip report"], "markdown title")
    close(lines[2], f"- unchanged: **{want['unchanged']}**", where="unchanged line")
    close(lines[3], f"- size ratio: {want['size_ratio']:.4f}", where="size ratio line")
    close(lines[4], f"- family balances: {want['family_balances']}", where="balances line")
    _diff_rows(_table_rows("\n".join(lines[6:]),
                           "| Type | Reference | Exported | Delta | Group |"), want["diff"])


# --- geometry ------------------------------------------------------------------------

INVALID = {
    "B3": ["PositiveLength"], "B4": ["PositiveLength"],
    "C1": ["ValidExtrusionDirection"], "C5": ["ValidExtrusionDirection"],
    "D4": ["ValidExtrusionDirection"], "E3": ["ValidExtrusionDirection"],
    "F5": ["ParamRange"],
}
IFC4_EXCLUDED = {"E1", "E2", "E3", "E4", "F3", "F4", "F5"}
#: zero depth or a direction in the profile plane: no solid, no mesh
NO_MESH = {"B4", "C1", "C5", "D4", "E3"}


def _shoelace(points) -> float:
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                   in zip(points, points[1:] + points[:1]))) / 2.0


def analytic_volumes() -> dict[str, tuple[float, bool]]:
    """slot -> (closed-form volume, whether tessellating curves approximates it)."""
    rect = S.RECT_X * S.RECT_Y
    ellipse = math.pi * S.ELLIPSE_SEMI_1 * S.ELLIPSE_SEMI_2
    ishape = (2.0 * S.ISHAPE_WIDTH * S.ISHAPE_FLANGE
              + (S.ISHAPE_DEPTH - 2.0 * S.ISHAPE_FLANGE) * S.ISHAPE_WEB
              + 4.0 * S.ISHAPE_FILLET ** 2 * (1.0 - math.pi / 4.0))
    right = [(S.CRANE_BASE_WIDTH / 2, 0.0), (S.CRANE_BASE_WIDTH / 2, S.CRANE_BASE_DEPTH_1),
             (S.CRANE_BASE_WIDTH_4 / 2, S.CRANE_BASE_DEPTH_2),
             (S.CRANE_WEB_THICKNESS / 2, S.CRANE_BASE_DEPTH_3),
             (S.CRANE_WEB_THICKNESS / 2, S.CRANE_HEIGHT - S.CRANE_HEAD_DEPTH_3),
             (S.CRANE_HEAD_WIDTH / 2, S.CRANE_HEIGHT - S.CRANE_HEAD_DEPTH_2),
             (S.CRANE_HEAD_WIDTH / 2, S.CRANE_HEIGHT)]
    crane = _shoelace(right + [(-x, y) for x, y in reversed(right)])
    depth, slant = S.EXTRUSION_DEPTH, S.SLANT_COMPONENT
    edge, overlap = S.CUBE_EDGE, S.CUBE_OVERLAP
    ring = 2.0 * math.pi * S.REVOLVE_AXIS_OFFSET  # Pappus: profiles centred on the offset
    tube = math.pi * S.DISK_RADIUS ** 2 * S.DIRECTRIX_LENGTH
    return {
        "A1": (edge * edge * overlap, False), "A2": (edge * edge * (edge - overlap), False),
        "A3": (edge * edge * (edge + overlap), False),
        "A4": (edge * edge * (edge - S.CLIP_PLANE_Z), False),
        "A5": (edge ** 3, False), "B1": (edge ** 3, False),
        "B2": (rect * depth, False), "B3": (rect * depth, False), "B5": (rect * depth, False),
        "C2": (rect * depth * slant, False),
        "C3": (ellipse * depth, True), "C4": (ellipse * depth, True),
        "D1": (ellipse * depth * slant, True),
        "D2": (ishape * depth, True), "D3": (ishape * depth, True),
        "D5": (ishape * depth * slant, True),
        "E1": (crane * depth, False), "E2": (crane * depth, False),
        "E4": (crane * depth * slant, False),
        "E5": (ring * rect, True), "F1": (ring * ellipse, True), "F2": (ring * ishape, True),
        "F3": (ring * crane, True), "F4": (tube, True), "F5": (tube, True),
    }


VOLUMES = analytic_volumes()


def suite_slots(schema: str, extra: bool) -> list[str]:
    slots = [i.slot for i in S.SUITE_ITEMS
             if schema == "ifc2x3" or i.slot not in IFC4_EXCLUDED]
    return slots + (["G1"] if extra else [])


def _generated(ledger, name: str) -> dict:
    return next(op["expect"] for op in ledger["ops"]
                if op["kind"] == "generate" and op["expect"]["name"] == name)


def _generate(op, ledger, out, work: Path):
    e = op["expect"]
    slots = suite_slots(e["schema"], e["extra"])
    manifest = json.loads((work / f"{e['name']}.json").read_text(encoding="utf-8"))
    close(manifest["schema"], e["schema"].upper(), where="manifest schema")
    close(manifest["grid_spacing"], e["spacing"], where="grid_spacing")
    close(manifest["precision"], e["precision"], where="precision")
    close([i["slot"] for i in manifest["items"]], slots, where="manifest slots")
    for item in manifest["items"]:
        want = {"valid": item["slot"] not in INVALID, "reasons": INVALID.get(item["slot"], [])}
        close(item["expected_validity"], want, where=f"{item['slot']} expected_validity")
    spf = (work / f"{e['name']}.ifc").read_text(encoding="latin-1")
    close(spf.count("=IFCBUILDINGELEMENTPROXY("), len(slots), where="proxies written")
    expect(f"FILE_SCHEMA(('{e['schema'].upper()}'));" in spf, "FILE_SCHEMA record")


def _check(op, ledger, out, work: Path):
    e = op["expect"]
    suite = _generated(ledger, e["suite"])
    n = e["segments"]
    curved_tol = 0.5 * (2.0 * math.pi / n) ** 2  # inscribed polygons, revolved rings
    items = json.loads(out)["items"]
    close([i["slot"] for i in items], suite_slots(suite["schema"], suite["extra"]),
          where="slots")
    with_mesh = 0
    for item in items:
        slot = item["slot"]
        close(item["validity"], "Invalid" if slot in INVALID else "Valid", where=f"{slot} validity")
        close(item["reasons"], INVALID.get(slot, []), where=f"{slot} reasons")
        close(item["matches_manifest"], True, where=f"{slot} matches_manifest")
        if slot in NO_MESH:
            close(item["displayed"], False, where=f"{slot} displayed")
            close(item["volume"], None, where=f"{slot} volume")
            continue
        with_mesh += 1
        if slot == "G1":  # depth half the precision: a mesh, but nothing shown
            close(item["displayed"], False, where=f"{slot} displayed")
            expect(item["volume"] <= suite["precision"], f"{slot} volume {item['volume']}")
            continue
        close(item["displayed"], True, where=f"{slot} displayed")
        volume, curved = VOLUMES[slot]
        close(item["volume"], volume, rel=curved_tol if curved else 1e-9, where=f"{slot} volume")
    if e["mesh_dump"]:
        dumps = sorted((work / e["mesh_dump"]).glob("*.tris"))
        close(len(dumps), with_mesh, where="mesh dumps")
        expect(all(p.stat().st_size > 0 for p in dumps), "empty mesh dump")


def _answers(op, ledger, out, work: Path):
    e = op["expect"]
    folder = work / e["out"]
    metrics = json.loads((folder / "metrics.json").read_text(encoding="utf-8"))
    for key in ("visibility_ratio", "consistency", "success_rates", "timing_distribution"):
        close(metrics[key], e[key], where=key)
    for name in ("synthesis.md", "scores.csv"):
        expect((folder / name).stat().st_size > 0, f"empty {name}")


CHECKS = {
    "census": _census, "diff": _diff, "georef": _georef, "parse": _parse,
    "roundtrip": _roundtrip, "generate": _generate, "check": _check, "answers": _answers,
}


def expected_exit(op, ledger) -> int:
    e = op["expect"]
    if op["kind"] == "diff" and e["expect_unchanged"]:
        return 1 if expected_diff(ledger, e["reference"], e["exported"])["deltas"] else 0
    if op["kind"] == "roundtrip" and e["expect_unchanged"]:
        return 0 if expected_roundtrip(ledger, e["reference"], e["exported"])["unchanged"] else 1
    return 0


def judge(op, ledger, code: int | None, out: str, err: str, work: Path) -> tuple[str | None, str]:
    """(failure kind or None, detail) for one finished op; ``code`` is None
    when the op was killed at its time limit."""
    if code is None:
        return TIMEOUT, "killed at the per-op time limit"
    if code < 0:
        return SIGNAL, f"killed by signal {-code}"
    if "Traceback (most recent call last)" in err:
        return TRACEBACK, err.strip().splitlines()[-1][:200]
    if op["expect"].get("may_reject") and code == 2:
        # rejecting the input as malformed is an allowed answer, if it says so
        rejected = any(line.startswith("error:") for line in err.splitlines())
        return (None, "rejected") if rejected else (WRONG, "exit 2 without an error line")
    want = expected_exit(op, ledger)
    if code != want:
        return EXIT, f"exit {code}, expected {want}: {err.strip()[:200]}"
    try:
        if "out" in op["expect"] and op["kind"] in ("georef", "parse"):
            out = (work / op["expect"]["out"]).read_text(encoding="utf-8")
        CHECKS[op["kind"]](op, ledger, out, work)
    except Mismatch as exc:
        return WRONG, str(exc)[:300]
    except (ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        return WRONG, f"unreadable output: {type(exc).__name__}: {exc}"[:300]
    return None, "ok"


# --- self-check --------------------------------------------------------------------


def _bump_first_count(out: str) -> str:
    got = json.loads(out)
    first = sorted(got["counts"])[0]
    got["counts"][first] += 1
    return json.dumps(got)


def _shift_delta(out: str) -> str:
    got = json.loads(out)
    first = sorted(got["deltas"])[0] if got["deltas"] else "IFCWALL"
    got["deltas"][first] = got["deltas"].get(first, 0) + 1
    return json.dumps(got)


def _wrong_level(out: str) -> str:
    got = json.loads(out)
    got["levels"] = [lvl + 10 for lvl in got["levels"]] or [10]
    return json.dumps(got)


def _flip_verdict(out: str) -> str:
    got = json.loads(out)
    item = got["items"][0]
    item["validity"] = "Invalid" if item["validity"] == "Valid" else "Valid"
    return json.dumps(got)


def _flip_unchanged(out: str) -> str:
    got = json.loads(out)
    got["unchanged"] = not got["unchanged"]
    return json.dumps(got)


def _one_more_instance(out: str) -> str:
    got = json.loads(out)
    got["instances"] += 1
    return json.dumps(got)


TAMPER = {
    ("census", "json"): _bump_first_count,
    ("diff", "json"): _shift_delta,
    ("georef", None): _wrong_level,
    ("check", None): _flip_verdict,
    ("roundtrip", "json"): _flip_unchanged,
    ("parse", None): _one_more_instance,
}


def selfcheck(passed: list[tuple[dict, int, str, str]], ledger,
              work: Path) -> tuple[int, list[str]]:
    """Tamper with outputs that passed and make sure each now fails: one
    output edit per op kind and format that has one, and one exit-code flip.
    Returns how many tampered outputs were judged and the ones that went
    unnoticed (none when the oracle is sound)."""
    missed, done = [], set()
    for op, code, out, err in passed:
        if "out" in op["expect"] or code == 2:  # output in files, or a rejected input
            continue
        key = (op["kind"], op["expect"].get("format"))
        tamper = TAMPER.get(key) or TAMPER.get((op["kind"], None))
        if tamper is not None and key not in done:
            done.add(key)
            if judge(op, ledger, code, tamper(out), err, work)[0] is None:
                missed.append(f"op {op['id']} {op['kind']}: {tamper.__name__}")
        if "exit" not in done:
            done.add("exit")
            if judge(op, ledger, 1 - code if code in (0, 1) else 0, out, err, work)[0] is None:
                missed.append(f"op {op['id']} {op['kind']}: exit code flip")
    return len(done), missed
