"""End-to-end benchmark of the ``ifcaudit`` command line.

    python3 perfbench/run.py --workload census-diff --seed 1 --seconds 20 --trace 0

One closed-loop client runs a seeded list of CLI ops, one ``ifcaudit`` child
process at a time, in passes over the list until ``--seconds`` are used (at
least one pass). Every op's exit code and output are judged against the
ledger the input generator wrote. With ``--trace 0`` the last stdout line
holds the end-to-end metrics; with ``--trace 1`` the same ops also run once
more under ``tracecli.py`` and the last line holds the per-layer metrics.
The line before it labels the run (scanner backend, Python, nproc).

The package is imported from ``src/`` of this checkout, never from an
installed copy, and the scanner backend is whichever one it selects.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
TRACECLI = Path(__file__).resolve().parent / "tracecli.py"

SETUP_REPEATS = 3
OP_LIMIT_S = 60.0
RUN_DEADLINE_S = 170.0
MB = 1e6

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "audited_mb_s": "MB/s",
    "op_p50_s": "s",
    "op_p75_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "spf.scan.mb_s": "MB/s",
    "spf.scan.records": "count",
    "spf.scan.python.mb_s": "MB/s",
    "spf.parse.self_s": "s",
    "spf.parse.instances": "count",
    "spf.parse.diagnostics": "count",
    "spf.materialize.s": "s",
    "spf.attrparse.calls": "count",
    "spf.attrparse.parsed_fraction": "ratio",
    "spf.write.s": "s",
    "spf.write.mb_s": "MB/s",
    "schema.registry.load_s": "s",
    "census.census.s": "s",
    "census.census.instances_per_s": "1/s",
    "census.diff.s": "s",
    "georef.detect.self_s": "s",
    "georef.detect.calls": "count",
    "georef.levels_found": "count",
    "geomgen.generate.s": "s",
    "geomgen.items": "count",
    "geomcheck.validity.s": "s",
    "geomcheck.evaluate.s": "s",
    "geomcheck.evaluate.extrusion.s": "s",
    "geomcheck.evaluate.revolution.s": "s",
    "geomcheck.evaluate.swept_disk.s": "s",
    "geomcheck.evaluate.faces.s": "s",
    "geomcheck.evaluate.boolean.s": "s",
    "geomcheck.ear_clip.calls": "count",
    "geomcheck.ear_clip.s": "s",
    "geomcheck.triangles": "count",
    "geomcheck.item_errors": "count",
    "benchkit.roundtrip.self_s": "s",
    "benchkit.answers.s": "s",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_op_ratio": "ratio",
    "ops.per_pass": "count",
}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


class Client:
    """Runs ops as child processes, one at a time, and records each."""

    def __init__(self, work: Path, env: dict, deadline: float):
        self.work = work
        self.env = env
        self.deadline = deadline

    def spawn(self, op: dict, trace_file: Path | None) -> dict:
        rec = {"id": op["id"], "kind": op["kind"], "code": None, "wall": None, "rss_mb": None}
        limit = min(OP_LIMIT_S, self.deadline - time.perf_counter())
        if limit <= 0:
            return rec  # out of run time: counts as a timed-out op
        if trace_file is None:
            cmd = [sys.executable, "-m", "ifcaudit.cli", *op["argv"]]
        else:
            cmd = [sys.executable, str(TRACECLI), str(trace_file), *op["argv"]]
        out = self.work / f"op{op['id']}.out"
        err = self.work / f"op{op['id']}.err"
        # stdout and stderr go to files: a pipe left unread deadlocks on a
        # long traceback
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(limit, kill)
        timer.start()
        # wait without reaping first, so the pid stays ours until the timer
        # can no longer fire
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - t0
        with lock:
            state["reaped"] = True
        timer.cancel()
        # per-child peak RSS: wait4 reports this child alone, unlike
        # RUSAGE_CHILDREN, which keeps the maximum over all children
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rec.update(t_spawn=t0, wall=wall, rss_mb=usage.ru_maxrss / 1024.0,
                   code=None if state["killed"] else proc.returncode)
        return rec


def clean_outputs(work: Path, op: dict) -> None:
    e = op["expect"]
    for name in (e.get("out"), e.get("mesh_dump")):
        if name:
            path = work / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


def run_pass(client: Client, ledger: dict, traced: bool) -> dict:
    ops = ledger["ops"]
    for op in ops:
        clean_outputs(client.work, op)
    traces = [client.work / f"trace{op['id']}.json" if traced else None for op in ops]
    for path in traces:
        if path is not None and path.exists():
            path.unlink()
    t0 = time.perf_counter()
    records = [client.spawn(op, trace) for op, trace in zip(ops, traces)]
    wall = time.perf_counter() - t0
    for op, rec, trace in zip(ops, records, traces):
        rec["bytes_in"] = sum((client.work / f"{n}.ifc").stat().st_size for n in op["inputs"])
        rec["trace"] = json.loads(trace.read_text()) if trace and trace.exists() else None
    return {"wall": wall, "spf_bytes": sum(r["bytes_in"] for r in records), "records": records}


def judge_pass(result: dict, ledger: dict, work: Path) -> list:
    """Attach a verdict to every record; return (op, code, stdout, stderr)
    of the ops that passed, for the oracle self-check."""
    import oracle

    passed = []
    for op, rec in zip(ledger["ops"], result["records"]):
        if rec["wall"] is None:  # never started: the run was out of time
            rec["failure"], rec["detail"] = oracle.TIMEOUT, "not started before the run deadline"
            continue
        out = (work / f"op{op['id']}.out").read_text(encoding="utf-8", errors="replace")
        err = (work / f"op{op['id']}.err").read_text(encoding="utf-8", errors="replace")
        rec["failure"], rec["detail"] = oracle.judge(op, ledger, rec["code"], out, err, work)
        if rec["failure"] is None:
            passed.append((op, rec["code"], out, err))
    return passed


def measure(client: Client, ledger: dict, budget: float, traced: bool) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        result = run_pass(client, ledger, traced)
        result["passed"] = judge_pass(result, ledger, client.work)
        passes.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > budget:
            return passes


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def end_to_end(passes: list[dict], setup_s: float) -> dict:
    walls = [p["wall"] for p in passes]
    ops = [r["wall"] for p in passes for r in p["records"] if r["wall"] is not None]
    _, p50, p75 = quartiles(ops)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "audited_mb_s": statistics.median(p["spf_bytes"] / MB / p["wall"] for p in passes),
        "op_p50_s": p50,
        "op_p75_s": p75,
        "peak_rss_mb": max(r["rss_mb"] for p in passes for r in p["records"]
                           if r["rss_mb"] is not None),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layers(result: dict) -> dict:
    """Per-layer figures of one traced pass, from its spans and counters."""
    acc: dict[str, float] = defaultdict(float)
    startups = []
    for rec in result["records"]:
        tr = rec["trace"]
        if tr is None:
            continue
        startups.append(tr["t_imported"] - rec["t_spawn"])
        top = tr["top_child_s"]
        for name, t0, t1, parent, child_s, info in tr["spans"]:
            acc[f"{name}.s"] += t1 - t0
            acc[f"{name}.self_s"] += t1 - t0 - child_s
            acc[f"{name}.calls"] += 1
            for key, value in info.items():
                if key == "kind":
                    acc[f"{name}.{value}.s"] += t1 - t0
                else:
                    acc[f"{name}.{key}"] += value
            if parent == -1:
                top += t1 - t0
        for name, (calls, seconds, chars) in tr["counted"].items():
            acc[f"{name}.calls"] += calls
            acc[f"{name}.s"] += seconds
            acc[f"{name}.chars"] += chars
        acc["cli.self_s"] += tr["t_main1"] - tr["t_main0"] - top
    a = acc
    return {
        "spf.scan.mb_s": ratio(a["spf.scan.bytes"] / MB, a["spf.scan.s"]),
        "spf.scan.records": a["spf.scan.records"],
        "spf.parse.self_s": a["spf.parse.self_s"],
        "spf.parse.instances": a["spf.parse.instances"],
        "spf.parse.diagnostics": a["spf.parse.diagnostics"],
        "spf.materialize.s": a["spf.materialize.s"],
        "spf.attrparse.calls": a["spf.attrparse.calls"],
        "spf.attrparse.parsed_fraction": ratio(a["spf.attrparse.chars"], a["spf.scan.param_chars"]),
        "spf.write.s": a["spf.write.s"],
        "spf.write.mb_s": ratio(a["spf.write.bytes"] / MB, a["spf.write.s"]),
        "schema.registry.load_s": a["schema.registry.s"],
        "census.census.s": a["census.census.s"],
        "census.census.instances_per_s": ratio(a["census.census.instances"], a["census.census.s"]),
        "census.diff.s": a["census.diff.s"],
        "georef.detect.self_s": a["georef.detect.self_s"],
        "georef.detect.calls": a["georef.detect.calls"],
        "georef.levels_found": a["georef.detect.levels"],
        "geomgen.generate.s": a["geomgen.generate.s"],
        "geomgen.items": a["geomgen.generate.items"],
        "geomcheck.validity.s": a["geomcheck.validity.s"],
        "geomcheck.evaluate.s": a["geomcheck.evaluate.s"],
        **{f"geomcheck.evaluate.{k}.s": a[f"geomcheck.evaluate.{k}.s"]
           for k in ("extrusion", "revolution", "swept_disk", "faces", "boolean")},
        "geomcheck.ear_clip.calls": a["geomcheck.ear_clip.calls"],
        "geomcheck.ear_clip.s": a["geomcheck.ear_clip.s"],
        "geomcheck.triangles": a["geomcheck.evaluate.triangles"],
        "geomcheck.item_errors": a["geomcheck.evaluate.error"] + a["geomcheck.validity.error"],
        "benchkit.roundtrip.self_s": a["benchkit.roundtrip.self_s"],
        "benchkit.answers.s": a["benchkit.answers.s"],
        "cli.startup_s": statistics.median(startups) if startups else 0.0,
        "cli.self_s": a["cli.self_s"],
    }


def direct_scan_rates(work: Path) -> dict[str, float]:
    """MB/s of each importable scanner, called directly on the largest input."""
    from ifcaudit.spf.backend import available_backends

    data = max(work.glob("*.ifc"), key=lambda p: p.stat().st_size).read_bytes()
    start = data.find(b"DATA;") + 5
    rates = {}
    for name, scan in available_backends().items():
        times: list[float] = []
        until = time.perf_counter() + 1.0
        while not times or (len(times) < 3 and time.perf_counter() < until):
            t0 = time.perf_counter()
            end = scan(data, start)[3]
            times.append(time.perf_counter() - t0)
        rates[name] = (end - start) / MB / statistics.median(times)
    return rates


def setup(build, workload: str, seed: int, env: dict) -> tuple[dict, float]:
    """Inputs, ledger and one warm-up CLI start; returns (ledger, seconds)."""
    import inputs

    work = WORK / workload
    if work.exists():
        shutil.rmtree(work)
    inputs.suite_body.cache_clear()
    t0 = time.perf_counter()
    work.mkdir(parents=True)
    ledger = build(work, seed)
    warm = subprocess.run([sys.executable, "-m", "ifcaudit.cli", "--version"], cwd=work,
                          env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=60)
    seconds = time.perf_counter() - t0
    if warm.returncode != 0 or not warm.stdout.startswith(b"ifcaudit"):
        fail(f"ifcaudit does not start: {warm.stderr.decode(errors='replace')[-500:]}")
    return ledger, seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (SRC / "ifcaudit" / "cli.py").is_file():
        fail(f"no ifcaudit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import inputs
    import oracle
    from ifcaudit.spf.backend import active_backend, available_backends

    build = inputs.BUILDERS.get(args.workload)
    if build is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(inputs.BUILDERS)}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["IFCAUDIT_TIMESTAMP"] = inputs.TIMESTAMP

    setups = [setup(build, args.workload, args.seed, env) for _ in range(SETUP_REPEATS)]
    ledger = setups[-1][0]
    setup_s = statistics.median(s for _, s in setups)
    work = WORK / args.workload
    client = Client(work, env, started + RUN_DEADLINE_S)

    budget = args.seconds / 2 if args.trace else args.seconds
    plain = measure(client, ledger, budget, traced=False)
    tampered, missed = oracle.selfcheck(plain[0]["passed"], ledger, work)
    if missed:
        fail("oracle self-check accepted tampered output: " + "; ".join(missed), 3)
    traced = measure(client, ledger, budget, traced=True) if args.trace else []

    records = [r for p in plain + traced for r in p["records"]]
    failures = [r for r in records if r["failure"] is not None]
    for r in failures:
        print(f"perfbench: op {r['id']} ({r['kind']}) {r['failure']}: {r['detail']}",
              file=sys.stderr)
    labels = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": active_backend()[0],
        "backends": sorted(available_backends()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ops_per_pass": len(ledger["ops"]),
        "passes": len(plain),
        "traced_passes": len(traced),
        "oracle_selfcheck": f"{tampered} tampered outputs, all judged failed",
    }
    if args.trace:
        per_pass = [layers(p) for p in traced]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        rates = direct_scan_rates(work)
        metrics["spf.scan.python.mb_s"] = rates["python"]
        if "compiled" in rates:
            labels["spf.scan.compiled.mb_s"] = rates["compiled"]
        metrics["trace.overhead_ratio"] = (statistics.median(p["wall"] for p in traced)
                                           / statistics.median(p["wall"] for p in plain))
        metrics["failed_op_ratio"] = len(failures) / len(records)
        metrics["ops.per_pass"] = len(ledger["ops"])
        units = PER_LAYER
    else:
        metrics = end_to_end(plain, setup_s)
        labels["failed_op_ratio"] = len(failures) / len(records)
        units = END_TO_END
    if set(metrics) != set(units):
        fail(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}", 3)
    report = {"labels": labels, "metrics": metrics,
              "ops": [{k: v for k, v in r.items() if k != "trace"} for r in records]}
    (work / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"labels": labels}, sort_keys=True))
    print(json.dumps({
        "correct": not any(r["failure"] in oracle.WRONG_ANSWERS for r in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
