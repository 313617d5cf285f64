"""Run one ``ifcaudit`` command with every layer boundary timed.

Usage: python3 tracecli.py TRACE_OUT.json <ifcaudit arguments...>

Wrappers replace public module-level functions of the package, at every
module that bound them, before ``ifcaudit.cli.main(argv)`` runs; nothing in
``src/`` is edited. Spans (name, start, end, parent, time in children, info)
stay in memory and are written to TRACE_OUT.json when the command ends,
also when it raises. Boundaries crossed once per instance or polygon
(``parse_attributes``, ``ear_clip``) keep a count and a summed time instead
of one span per call.
"""

import functools
import json
import sys
import time

#: evaluate_item's shape class prefix -> per-kind evaluation metric
KIND = {
    "ExtrudedAreaSolid": "extrusion",
    "RevolvedAreaSolid": "revolution",
    "SweptDiskSolid": "swept_disk",
    "FacetedBrep": "faces",
    "ShellBasedSurfaceModel": "faces",
    "BooleanResult": "boolean",
    "BooleanClippingResult": "boolean",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # name, t0, t1, parent, child_s, info
        self.stack: list[int] = []
        self.counted: dict[str, list[float]] = {}  # name -> [calls, seconds, chars]
        self.top_child_s = 0.0  # counted calls and info bookkeeping outside any span

    def _charge_parent(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][4] += seconds
        else:
            self.top_child_s += seconds

    def span(self, name, info=None):
        """Wrap a function so each call is one span; ``info`` maps the
        result to counters. Its own cost is charged as child time, so it
        never lands in anybody's self time."""

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0.0, {}]
                self.spans.append(record)
                self.stack.append(len(self.spans) - 1)
                record[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    record[5]["error"] = 1
                    raise
                finally:
                    record[2] = time.perf_counter()
                    self.stack.pop()
                    if self.stack:  # top-level spans are summed from the list
                        self.spans[self.stack[-1]][4] += record[2] - record[1]
                if info is not None:
                    t0 = time.perf_counter()
                    record[5].update(info(args, result))
                    self._charge_parent(time.perf_counter() - t0)
                return result

            return traced

        return wrap

    def count(self, name, chars=None):
        """Wrap a function called once per instance or polygon: a call
        count, summed seconds and (optionally) summed input characters."""
        slot = self.counted.setdefault(name, [0, 0.0, 0])

        def wrap(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    slot[0] += 1
                    slot[1] += dt
                    if chars is not None:
                        slot[2] += chars(args)
                    self._charge_parent(dt)

            return counted

        return wrap

    def backend_wrapper(self, fn):
        """``active_backend`` hands parse_spf the scanner; hand back a timed one."""
        scan_span = self.span("spf.scan", info=_scan_info)

        @functools.wraps(fn)
        def active_backend():
            name, scan = fn()
            return name, scan_span(scan)

        return active_backend


def _scan_info(args, result):
    records = result[0]
    return {
        "bytes": result[3] - args[1],
        "records": len(records),
        "param_chars": sum(r[3] - r[2] for r in records),
    }


def _evaluate_info(args, outcome):
    kind = KIND.get(outcome.shape_class.split("/")[0], "other")
    triangles = len(outcome.mesh.triangles) if outcome.mesh is not None else 0
    return {"kind": kind, "triangles": triangles}


def patch(module_name: str, attr: str, wrap) -> None:
    """Replace ``module.attr`` and every other ifcaudit binding of the same
    function object (``from x import f`` copies, package re-exports)."""
    original = getattr(sys.modules[module_name], attr)
    wrapped = wrap(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ifcaudit" or name.startswith("ifcaudit.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def install(tracer: Tracer) -> None:
    t = tracer
    patch("ifcaudit.spf.parser", "parse_spf", t.span(
        "spf.parse", info=lambda a, g: {"instances": len(g), "diagnostics": len(g.diagnostics)}))
    patch("ifcaudit.spf.parser", "active_backend", t.backend_wrapper)
    patch("ifcaudit.spf.parser", "materialize", t.span("spf.materialize"))
    patch("ifcaudit.spf.attrparse", "parse_attributes",
          t.count("spf.attrparse", chars=lambda a: len(a[0])))
    patch("ifcaudit.spf.writer", "write_spf", t.span(
        "spf.write", info=lambda a, data: {"bytes": len(data)}))
    patch("ifcaudit.schema", "default_registry", t.span("schema.registry"))
    patch("ifcaudit.census", "census", t.span(
        "census.census", info=lambda a, c: {"instances": c.total}))
    patch("ifcaudit.census", "diff", t.span("census.diff"))
    patch("ifcaudit.georef", "detect_georef", t.span(
        "georef.detect", info=lambda a, r: {"levels": len(r.levels)}))
    patch("ifcaudit.geomgen.generate", "generate_geometry_suite", t.span(
        "geomgen.generate", info=lambda a, r: {"items": len(r[1].items)}))
    patch("ifcaudit.geomcheck.validity", "check_validity", t.span("geomcheck.validity"))
    patch("ifcaudit.geomcheck.evaluate", "evaluate_item", t.span(
        "geomcheck.evaluate", info=_evaluate_info))
    patch("ifcaudit.geomcheck.tessellate", "ear_clip", t.count("geomcheck.ear_clip"))
    patch("ifcaudit.benchkit.roundtrip", "roundtrip_report", t.span("benchkit.roundtrip"))
    for module, name in (
        ("ifcaudit.benchkit.answers", "read_answers_csv"),
        ("ifcaudit.benchkit.answers", "read_answers_jsonl"),
        ("ifcaudit.benchkit.metrics", "synthesis_matrix"),
        ("ifcaudit.benchkit.metrics", "visibility_ratio"),
        ("ifcaudit.benchkit.metrics", "consistency"),
        ("ifcaudit.benchkit.metrics", "synthesis_markdown"),
        ("ifcaudit.benchkit.metrics", "synthesis_csv"),
    ):
        patch(module, name, t.span("benchkit.answers"))


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import ifcaudit.cli

    t_imported = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    t_main0 = time.perf_counter()
    code = None
    try:
        code = ifcaudit.cli.main(argv)
    finally:
        t_main1 = time.perf_counter()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "t_imported": t_imported,
                "t_main0": t_main0,
                "t_main1": t_main1,
                "spans": tracer.spans,
                "counted": tracer.counted,
                "top_child_s": tracer.top_child_s,
            }, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
