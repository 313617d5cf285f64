"""Seeded inputs for the three workloads, and the ledger of what each op
must print.

Every SPF file is written here as text, record by record: a georeferencing
spine first, then copies of the geometry suite with shifted ids (the way
``benchmarks/bench_scan.build_repeated_file`` repeats it), then vendor
mutations or anomalies. Expected census counts, diff deltas, LoGeoRef levels
and payloads, parse diagnostics and exit codes are derived from what was
written, never by parsing the files back with the package under test.

The op lists have a fixed shape per workload; the seed chooses payloads,
mutations, formats and op order, so two seeds cost about the same to run.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from functools import lru_cache
from pathlib import Path

from ifcaudit.geomgen import generate_geometry_suite
from ifcaudit.geomgen import suite as S
from ifcaudit.schema import SchemaVersion
from ifcaudit.spf import write_spf

TIMESTAMP = "2020-01-01T00:00:00"
_LINE = re.compile(r"#(\d+)=([A-Z0-9_]+)\(")
_REF = re.compile(r"#(\d+)")

PROXY = "IFCBUILDINGELEMENTPROXY"
WALL_TYPES = ("IFCWALL", "IFCWALLSTANDARDCASE")
#: Types a "drop" re-export removes entirely, so the diff reports a lost type.
DROPPABLE_TYPES = ("IFCSWEPTDISKSOLID", "IFCCRANERAILASHAPEPROFILEDEF", "IFCREVOLVEDAREASOLID")
DEEP_NESTING = 5000


# --- SPF text ------------------------------------------------------------------


def real(value: float) -> str:
    lexeme = repr(float(value))
    if "e" in lexeme:
        raise ValueError(f"keep benchmark reals in plain notation: {lexeme}")
    return lexeme[:-1] if lexeme.endswith(".0") else lexeme  # 5.0 -> "5."


def text(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def ref(i: int | None) -> str:
    return "$" if i is None else f"#{i}"


class Model:
    """An SPF file under construction: header, records and their census."""

    def __init__(self, schema: SchemaVersion, name: str):
        self.schema = schema
        self.name = name
        self.lines: list[str] = []
        self.counts: Counter[str] = Counter()
        self.next_id = 1
        self.extra_header: list[str] = []

    def add(self, type_name: str, *params: str) -> int:
        i = self.next_id
        self.next_id += 1
        self.lines.append(f"#{i}={type_name}({','.join(params)});")
        self.counts[type_name] += 1
        return i

    def add_suite_copies(self, copies: int) -> None:
        body, per_copy, span = suite_body(self.schema)
        for k in range(copies):
            offset = self.next_id - 1 + k * span
            self.lines.extend(_REF.sub(lambda m: f"#{int(m.group(1)) + offset}", body).split("\n"))
        for type_name, n in per_copy.items():
            self.counts[type_name] += n * copies
        self.next_id += copies * span

    def render(self, crlf: bool = False, comment_every: int = 0) -> bytes:
        records = self.lines
        if comment_every:
            spaced = []
            for k, line in enumerate(records):
                if k and k % comment_every == 0:
                    spaced.append(f"/* vendor block {k // comment_every} */")
                spaced.append(line)
            records = spaced
        schema = self.schema.value
        head = [
            "ISO-10303-21;",
            "HEADER;",
            "FILE_DESCRIPTION(('ViewDefinition [CoordinationView]'),'2;1');",
            f"FILE_NAME({text(self.name)},{text(TIMESTAMP)},(''),(''),'perfbench','perfbench','');",
            f"FILE_SCHEMA(('{schema}'));",
            *self.extra_header,
            "ENDSEC;",
            "DATA;",
        ]
        tail = ["ENDSEC;", "END-ISO-10303-21;", ""]
        return ("\r\n" if crlf else "\n").join(head + records + tail).encode("latin-1")

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def copy(self, name: str) -> "Model":
        other = Model(self.schema, name)
        other.lines = list(self.lines)
        other.counts = Counter(self.counts)
        other.next_id = self.next_id
        other.extra_header = list(self.extra_header)
        return other


@lru_cache(maxsize=None)
def suite_body(schema: SchemaVersion) -> tuple[str, Counter, int]:
    """DATA records of the generated suite, one per line, their census and
    the id span one copy occupies."""
    graph, _ = generate_geometry_suite(schema, timestamp=TIMESTAMP)
    body = write_spf(graph).decode("latin-1").split("DATA;\n", 1)[1].rsplit("ENDSEC;", 1)[0]
    body = body.strip("\n")
    counts = Counter(m.group(2) for m in _LINE.finditer(body))
    return body, counts, max(int(m) for m in _REF.findall(body)) + 1


def _record_type(line: str) -> str | None:
    m = _LINE.match(line)
    return m.group(2) if m else None


# --- georeferencing spine ---------------------------------------------------------


def georef_spec(rng: random.Random, levels: set[int], millimetre: bool) -> dict:
    """Seeded payloads for the requested LoGeoRef levels."""
    def compound(limit: int) -> list[int]:
        sign = rng.choice((1, -1))
        return [sign * rng.randint(1, limit), sign * rng.randint(0, 59),
                sign * rng.randint(0, 59), sign * rng.randint(0, 999999)]

    angle = rng.uniform(0.05, 0.5)
    return {
        "levels": sorted(levels),
        "millimetre": millimetre,
        "address": {
            "address_lines": [f"Street {rng.randint(1, 400)}", f"Block {rng.choice('ABCDEF')}"],
            "town": rng.choice(["Delft", "Aalborg", "Graz", "Lyon"]),
            "region": rng.choice(["ZH", "NJ", "ST", "AR"]),
            "postal_code": str(rng.randint(1000, 9999)),
            "country": rng.choice(["NL", "DK", "AT", "FR"]),
        },
        "latitude": compound(80),
        "longitude": compound(170),
        "elevation": round(rng.uniform(1.0, 900.0), 2),
        "site_location": [round(rng.uniform(1e4, 9e5), 3), round(rng.uniform(1e4, 9e5), 3),
                          round(rng.uniform(0.5, 50.0), 3)],
        "wcs_origin": [round(rng.uniform(1e4, 9e5), 3), round(rng.uniform(1e4, 9e5), 3), 0.0],
        "true_north": [round(rng.choice((1, -1)) * rng.uniform(0.05, 0.5), 6),
                       round(rng.uniform(0.8, 1.0), 6)] if rng.random() < 0.5 else None,
        "map": {
            "eastings": round(rng.uniform(1e5, 9e5), 3),
            "northings": round(rng.uniform(1e6, 7e6), 3),
            "height": round(rng.uniform(0.5, 90.0), 2),
            "rotation": [round(math.cos(angle), 6), round(math.sin(angle), 6)],
            "crs": f"EPSG:{rng.randint(2000, 32767)}",
        },
    }


def add_spine(model: Model, spec: dict) -> None:
    """Georeferencing records ahead of everything else, so the site, unit and
    context they define are the ones the detector meets first."""
    levels = set(spec["levels"])
    prefix = ".MILLI." if spec["millimetre"] else "$"
    unit = model.add("IFCSIUNIT", "*", ".LENGTHUNIT.", prefix, ".METRE.")
    units = model.add("IFCUNITASSIGNMENT", f"({ref(unit)})")
    origin = spec["wcs_origin"] if 40 in levels else [0.0, 0.0, 0.0]
    wcs_point = model.add("IFCCARTESIANPOINT", "(" + ",".join(real(c) for c in origin) + ")")
    wcs = model.add("IFCAXIS2PLACEMENT3D", ref(wcs_point), "$", "$")
    north = None
    if 40 in levels and spec["true_north"]:
        north = model.add("IFCDIRECTION", "(" + ",".join(real(c) for c in spec["true_north"]) + ")")
    context = model.add("IFCGEOMETRICREPRESENTATIONCONTEXT", "$", "'Model'", "3", "1.E-05",
                        ref(wcs), ref(north))
    model.add("IFCPROJECT", "'0spine0project0000000'", "$", "'Georef model'", "$", "$", "$",
              "$", f"({ref(context)})", ref(units))
    location = spec["site_location"] if 30 in levels else [0.0, 0.0, 0.0]
    site_point = model.add("IFCCARTESIANPOINT", "(" + ",".join(real(c) for c in location) + ")")
    site_axis = model.add("IFCAXIS2PLACEMENT3D", ref(site_point), "$", "$")
    placement = model.add("IFCLOCALPLACEMENT", "$", ref(site_axis))
    address = None
    if 10 in levels:
        a = spec["address"]
        address = model.add(
            "IFCPOSTALADDRESS", "$", "$", "$", "$",
            "(" + ",".join(text(line) for line in a["address_lines"]) + ")", "$",
            text(a["town"]), text(a["region"]), text(a["postal_code"]), text(a["country"]),
        )
    if 20 in levels:
        lat = "(" + ",".join(str(c) for c in spec["latitude"]) + ")"
        lon = "(" + ",".join(str(c) for c in spec["longitude"]) + ")"
        elevation = real(spec["elevation"])
    else:
        lat = lon = elevation = "$"
    model.add("IFCSITE", "'0spine0site000000000'", "$", "'Site'", "$", "$", ref(placement),
              "$", "$", ".ELEMENT.", lat, lon, elevation, "$", ref(address))
    if 50 in levels:
        m = spec["map"]
        crs = model.add("IFCPROJECTEDCRS", text(m["crs"]), "$", "$", "$", "$", "$", "$")
        rotation = m["rotation"]
        model.add("IFCMAPCONVERSION", ref(context), ref(crs), real(m["eastings"]),
                  real(m["northings"]), real(m["height"]), real(rotation[0]),
                  real(rotation[1]), "$")


def compound_degrees(parts: list[int]) -> float:
    sign = -1 if any(p < 0 for p in parts) else 1
    a = [abs(p) for p in parts] + [0] * (4 - len(parts))
    return sign * (a[0] + a[1] / 60.0 + a[2] / 3600.0 + a[3] / 3.6e9)


def expected_georef(spec: dict, schema: SchemaVersion) -> dict:
    """Levels, payloads and the diagnostic the detector must report."""
    levels = set(spec["levels"])
    unit = "millimetre" if spec["millimetre"] else "metre"
    scale = 1e-3 if spec["millimetre"] else 1.0
    params: dict[str, dict] = {}
    diagnostics: list[str] = []
    if 10 in levels:
        params["10"] = {"host": "site", **spec["address"]}
    if 20 in levels:
        params["20"] = {
            "latitude": compound_degrees(spec["latitude"]),
            "longitude": compound_degrees(spec["longitude"]),
            "elevation_m": spec["elevation"] * scale,
            "elevation_unit": unit,
        }
    if 30 in levels:
        params["30"] = {"reference_point": spec["site_location"], "unit": unit}
    if 40 in levels:
        params["40"] = {"origin": spec["wcs_origin"], "unit": unit}
        if spec["true_north"]:
            params["40"]["true_north"] = spec["true_north"]
    if 50 in levels:
        if schema is SchemaVersion.IFC4:
            m = spec["map"]
            params["50"] = {
                "eastings": m["eastings"], "northings": m["northings"],
                "orthogonal_height": m["height"], "rotation": m["rotation"],
                "crs_name": m["crs"],
            }
        else:
            diagnostics.append("IfcMapConversion present but file schema is not IFC4")
    return {"levels": sorted(int(k) for k in params), "params": params, "diagnostics": diagnostics}


# --- vendor mutations --------------------------------------------------------------


def reclassify(model: Model, rng: random.Random, share: float) -> None:
    """Proxies re-exported as walls or wall standard cases."""
    proxies = [k for k, line in enumerate(model.lines) if f"={PROXY}(" in line]
    for k in rng.sample(proxies, max(1, int(len(proxies) * share))):
        new = rng.choice(WALL_TYPES)
        model.lines[k] = model.lines[k].replace(f"={PROXY}(", f"={new}(", 1)
        model.counts[PROXY] -= 1
        model.counts[new] += 1


def drop(model: Model, rng: random.Random, lost_type: str, extra: int) -> None:
    """All records of one type plus ``extra`` random records go missing."""
    keep = []
    candidates = []
    for line in model.lines:
        if f"={lost_type}(" in line:
            model.counts[lost_type] -= 1
        else:
            candidates.append(len(keep))
            keep.append(line)
    for k in sorted(rng.sample(candidates, extra), reverse=True):
        model.counts[_record_type(keep[k])] -= 1
        del keep[k]
    model.lines = keep
    model.counts = +model.counts


def renumber(model: Model, rng: random.Random) -> None:
    """Every id moves: scaled and offset, as an exporter that numbers anew."""
    stride, offset = rng.choice((2, 3, 5)), rng.randint(1000, 90000)
    model.lines = [_REF.sub(lambda m: f"#{int(m.group(1)) * stride + offset}", line)
                   for line in model.lines]


# --- workloads --------------------------------------------------------------------


class Workload:
    """Inputs written to ``work`` and the op list with its ledger."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = random.Random(seed)
        self.files: dict[str, dict] = {}  # name -> census entry
        self.ops: list[dict] = []

    def write(self, model: Model, **render) -> dict:
        """Write the model's file; its ledger entry holds size and census."""
        data = model.render(**render)
        (self.work / f"{model.name}.ifc").write_bytes(data)
        entry = {
            "bytes": len(data),
            "schema": model.schema.value,
            "counts": dict(sorted(model.counts.items())),
            "total": model.total,
        }
        self.files[model.name] = entry
        return entry

    def op(self, kind: str, argv: list[str], inputs: list[str] = (), **expect) -> None:
        self.ops.append({"kind": kind, "argv": argv, "inputs": list(inputs), "expect": expect})

    def finish(self, fixed_prefix: int = 0) -> dict:
        head, tail = self.ops[:fixed_prefix], self.ops[fixed_prefix:]
        self.rng.shuffle(tail)
        self.ops = head + tail
        for k, op in enumerate(self.ops):
            op["id"] = k
        ledger = {"files": self.files, "ops": self.ops}
        (self.work / "ledger.json").write_text(json.dumps(ledger, indent=1, sort_keys=True))
        return ledger


def _spined(schema: SchemaVersion, name: str, spec: dict, copies: int) -> Model:
    model = Model(schema, name)
    add_spine(model, spec)
    model.add_suite_copies(copies)
    return model


def build_census_diff(work: Path, seed: int) -> dict:
    """Lazy read path: one reference, vendor re-exports, a size ladder."""
    w = Workload(work, seed)
    rng = w.rng
    v2 = SchemaVersion.IFC2X3

    def spec():
        return georef_spec(rng, set(rng.sample([10, 20, 30, 40], 2)), rng.random() < 0.5)

    ref_model = _spined(v2, "ref", spec(), copies=6)
    w.write(ref_model)
    variants = {}
    m = ref_model.copy("v_reclass")
    reclassify(m, rng, rng.uniform(0.3, 0.7))
    variants[m.name] = (m, {})
    m = ref_model.copy("v_drop")
    drop(m, rng, rng.choice(DROPPABLE_TYPES), rng.randint(20, 60))
    variants[m.name] = (m, {})
    m = ref_model.copy("v_renum")
    renumber(m, rng)
    variants[m.name] = (m, {})
    m = ref_model.copy("v_crlf")
    variants[m.name] = (m, {"crlf": True, "comment_every": rng.randint(20, 40)})
    m = ref_model.copy("v_mixed")
    reclassify(m, rng, rng.uniform(0.3, 0.7))
    drop(m, rng, rng.choice(DROPPABLE_TYPES), rng.randint(20, 60))
    renumber(m, rng)
    variants[m.name] = (m, {"crlf": True, "comment_every": rng.randint(20, 40)})
    for model, render in variants.values():
        w.write(model, **render)

    # size ladder: ~35 kB, ~1 MB and the large file (~9 MB), each with a re-export
    for name, copies in (("tiny", 1), ("mid", 34), ("large", 270)):
        base = _spined(v2, name, spec(), copies)
        w.write(base)
        other = base.copy(f"{name}_v")
        reclassify(other, rng, rng.uniform(0.2, 0.5))
        drop(other, rng, rng.choice(DROPPABLE_TYPES), rng.randint(10, 40))
        w.write(other, crlf=True, comment_every=rng.randint(50, 200))

    fmts = ("json", "csv", "markdown")

    def census(name, fmt):
        w.op("census", ["census", f"{name}.ifc", "--format", fmt], [name], file=name, format=fmt)

    def diff(a, b, fmt, expect_unchanged=False):
        argv = ["diff", f"{a}.ifc", f"{b}.ifc", "--format", fmt]
        if expect_unchanged:
            argv.append("--expect-unchanged")
        w.op("diff", argv, [a, b], reference=a, exported=b, format=fmt,
             expect_unchanged=expect_unchanged)

    for fmt in fmts:
        census("ref", fmt)
    for name in variants:
        for fmt in rng.sample(fmts, 2):
            census(name, fmt)
    for name in ("tiny", "tiny_v", "mid", "large_v"):
        census(name, rng.choice(fmts))
    census("large", "json")
    for name in variants:
        for fmt in rng.sample(fmts, 2):
            diff("ref", name, fmt)
    for a, b in (("ref", "ref"), ("ref", "v_renum"), ("ref", "v_crlf"), ("v_renum", "v_crlf"),
                 ("tiny", "tiny"), ("ref", "v_reclass"), ("ref", "v_drop"), ("ref", "v_mixed"),
                 ("v_reclass", "v_mixed")):
        diff(a, b, rng.choice(fmts), expect_unchanged=True)
    for a, b in (("tiny", "tiny_v"), ("mid", "mid_v"), ("large", "large_v")):
        diff(a, b, rng.choice(fmts))
    return w.finish()


def _broken(model: Model, rng: random.Random) -> dict:
    """The four recoverable anomalies, one each, away from the spine."""
    model.extra_header.append("FILE_POPULATION('IFC2X3','perfbench',$);")
    suite_lines = [k for k, line in enumerate(model.lines) if "=IFCCARTESIANPOINT(" in line]
    model.lines.append(model.lines[rng.choice(suite_lines[len(suite_lines) // 2:])])
    missing = model.next_id + 10_000_000
    model.add("IFCRELCONTAINEDINSPATIALSTRUCTURE", "'0vendor0dangling00000'", "$", "$", "$",
              "()", f"#{missing}")
    model.add("IFCPROPERTYSINGLEVALUE", "'Note'", "$", "IFCLABEL('vendor \\Q note')", "$")
    return {"ignored-header-record": 1, "duplicate-id": 1, "dangling-reference": 1,
            "unknown-escape": 1}


def build_georef_roundtrip(work: Path, seed: int) -> dict:
    """Eager attribute path: georef-rich models, re-exports, a broken slice."""
    w = Workload(work, seed)
    rng = w.rng
    v2, v4 = SchemaVersion.IFC2X3, SchemaVersion.IFC4
    plans = [  # name, schema, levels, suite copies
        ("g1", v2, set(rng.sample([10, 20, 30, 40], 3)), 2),
        ("g2", v2, {50} | set(rng.sample([10, 20, 30, 40], 2)), 3),
        ("g3", v4, {50} | set(rng.sample([10, 20, 30, 40], 2)), 2),
        ("g4", v4, {10, 20, 30, 40, 50}, 45),
    ]
    models: dict[str, tuple[Model, dict]] = {}
    for name, schema, levels, copies in plans:
        spec = georef_spec(rng, levels, rng.random() < 0.5)
        model = _spined(schema, name, spec, copies)
        models[name] = (model, spec)
        w.write(model)

        # re-export: g1 and g3 drop levels, g2 and g4 alter payloads
        again = dict(spec, levels=list(spec["levels"]))
        if name in ("g1", "g3"):
            gone = set(rng.sample(sorted(levels), 2 if name == "g1" else 1))
            if name == "g3":
                gone |= {50}
            again["levels"] = sorted(levels - gone)
        else:
            again["site_location"] = [c + 1.0 for c in spec["site_location"]]
            again["map"] = dict(spec["map"], eastings=spec["map"]["eastings"] + 10.0)
            again["elevation"] = spec["elevation"] + 1.0
        export = _spined(schema, f"{name}_x", again, copies)
        if name in ("g2", "g4"):
            reclassify(export, rng, rng.uniform(0.1, 0.3))
        models[export.name] = (export, again)
        w.write(export)

    spec = georef_spec(rng, {10, 20, 40}, False)
    broken = _spined(v2, "b_anomalies", spec, 2)
    diagnostics = _broken(broken, rng)
    models[broken.name] = (broken, spec)
    w.write(broken)["diagnostics"] = diagnostics

    spec = georef_spec(rng, {20, 30}, True)
    deep = _spined(v2, "b_deep", spec, 1)
    deep.add("IFCPROPERTYLISTVALUE", "'Deep'", "$",
             "(" * DEEP_NESTING + "IFCINTEGER(1)" + ")" * DEEP_NESTING, "$")
    models[deep.name] = (deep, spec)
    w.write(deep)

    for name, (model, spec) in models.items():
        w.files[name]["georef"] = expected_georef(spec, model.schema)
        w.files[name].setdefault("diagnostics", {})
        w.files[name]["header"] = {"file_name": name, "timestamp": TIMESTAMP}

    def roundtrip(a, b, fmt, expect_unchanged):
        argv = ["report", "roundtrip", f"{a}.ifc", f"{b}.ifc", "--format", fmt]
        if expect_unchanged:
            argv.append("--expect-unchanged")
        w.op("roundtrip", argv, [a, b], reference=a, exported=b, format=fmt,
             expect_unchanged=expect_unchanged)

    # g4 is the large model (~1.5 MB): its four ops are the slowest of the
    # pass, few enough that p75 stays among the ops on small models
    for name in models:
        if name.startswith("g4"):
            continue
        # the deep list is legal SPF: parsing it, or rejecting it with exit 2
        # and an error line, are both acceptable; a traceback is not
        deep = {"may_reject": True} if name == "b_deep" else {}
        w.op("georef", ["georef", f"{name}.ifc"], [name], file=name, **deep)
        w.op("parse", ["parse", f"{name}.ifc"], [name], file=name, **deep)
    for name in ("g1", "g3_x", "b_anomalies"):
        w.op("georef", ["georef", f"{name}.ifc", "--out", f"{name}.georef.json"], [name],
             file=name, out=f"{name}.georef.json")
    for name in ("g2", "g3", "g1_x"):
        w.op("parse", ["parse", f"{name}.ifc", "--out", f"{name}.parse.json"], [name],
             file=name, out=f"{name}.parse.json")
    for name in ("g1", "g2", "g3"):
        roundtrip(name, f"{name}_x", "json", False)
        roundtrip(name, f"{name}_x", "markdown", False)
        roundtrip(name, f"{name}_x", rng.choice(("json", "markdown")), True)
    for a, b in (("g1", "g1"), ("g2", "g2"), ("g3", "g3"), ("b_anomalies", "b_anomalies"),
                 ("g1_x", "g1")):
        roundtrip(a, b, "json", True)
    w.op("georef", ["georef", "g4.ifc"], ["g4"], file="g4")
    w.op("parse", ["parse", "g4_x.ifc"], ["g4_x"], file="g4_x")
    roundtrip("g4", "g4_x", "json", False)
    roundtrip("g4", "g4_x", rng.choice(("json", "markdown")), True)
    return w.finish()


# --- conformance-check ----------------------------------------------------------------

#: Check ops per pass by segment count, with the suite each reads and
#: whether it dumps meshes: fixed, so every seed costs the same. The 512
#: op sets peak RSS; p50 and p75 both fall well inside the 64-segment block,
#: and the mesh dumps ride on the 128-segment checks, above p75.
CHECK_SEGMENTS = [32] * 6 + [64] * 22 + [128] * 2 + [256] + [512]
MESH_DUMP_SEGMENTS = 128

ANSWER_CATEGORIES = ("Georeferencing", "Semantics", "Geometry", "Visualization", "Editing",
                     "Query", "AnalysisType1", "AnalysisType2", "Export")
TIMING_VALUES = ("immediate", "under_minute", "1_to_5_min", "5_to_20_min", "20_min_to_1_hour",
                 "over_1_hour", "crashed", "not_possible", "no_result")
SCORES = ("1", "0.5", "0", "n/a")


def synthetic_answers(rng: random.Random) -> list[dict]:
    rows = []
    respondents = [(f"App{c}", rng.choice(("1.0", "2.1", "3.4")), rng.randint(1, 4))
                   for c in "ABCDEFGH"]
    slots = [i.slot for i in S.SUITE_ITEMS]
    for software, version, expertise in respondents:
        base = {"software": software, "version": version, "expertise": expertise}
        for slot in slots:
            shown = rng.random() < 0.8
            rows.append(dict(base, dataset="geometry", category="GeometryItem",
                             question="displayed", value="yes" if shown else "no", slot=slot))
            if shown:
                for question, values in (("position", ("correct", "offset")),
                                         ("shading", ("smooth", "faceted", "none")),
                                         ("shape", ("correct", "distorted"))):
                    rows.append(dict(base, dataset="geometry", category="GeometryItem",
                                     question=question, value=rng.choice(values), slot=slot))
        for category in ANSWER_CATEGORIES:
            for question in ("q1", "q2"):
                rows.append(dict(base, dataset="georef", category=category,
                                 question=f"{category}-{question}", value=rng.choice(SCORES),
                                 slot=""))
        for dataset in ("geometry", "georef", "semantics"):
            rows.append(dict(base, dataset=dataset, category="Timing", question="load",
                             value=rng.choice(TIMING_VALUES), slot=""))
    return rows


def write_answers(path: Path, rows: list[dict]) -> None:
    columns = ["software", "version", "expertise", "dataset", "category", "question", "value",
               "slot"]
    if path.suffix == ".jsonl":
        lines = [json.dumps({"answers_schema": 1})] + [json.dumps(r) for r in rows]
    else:
        lines = ["#answers-schema: 1", ",".join(columns)]
        lines += [",".join(str(r[c]) for c in columns) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def answer_metrics(rows: list[dict]) -> dict:
    """Visibility, consistency and timing figures, counted from the rows."""
    per_slot: dict[str, dict[tuple, dict[str, str]]] = {}
    totals: Counter[str] = Counter()
    successes: Counter[str] = Counter()
    buckets: dict[str, Counter] = {}
    for r in rows:
        if r["category"] == "GeometryItem":
            who = (r["software"], r["version"], r["expertise"])
            per_slot.setdefault(r["slot"], {}).setdefault(who, {})[r["question"]] = r["value"]
        elif r["category"] == "Timing":
            totals[r["dataset"]] += 1
            if r["value"] not in ("crashed", "not_possible", "no_result"):
                successes[r["dataset"]] += 1
                buckets.setdefault(r["dataset"], Counter())[r["value"]] += 1
    visibility, consistency = {}, {}
    for slot, answers in per_slot.items():
        votes = [a["displayed"] == "yes" for a in answers.values() if "displayed" in a]
        if votes:
            visibility[slot] = sum(votes) / len(votes)
        eligible = [a for a in answers.values() if a.get("displayed") == "yes"]
        if len(eligible) >= 2:
            scores = []
            for question in ("position", "shading", "shape"):
                pairs = [(x.get(question), y.get(question))
                         for i, x in enumerate(eligible) for y in eligible[i + 1:]]
                scores.append(sum(p == q for p, q in pairs) / len(pairs))
            consistency[slot] = sum(scores) / len(scores)
    return {
        "visibility_ratio": visibility,
        "consistency": consistency,
        "success_rates": {d: successes[d] / n for d, n in totals.items()},
        "timing_distribution": {d: {b: c.get(b, 0) for b in TIMING_VALUES[:6]}
                                for d, c in buckets.items()},
    }


def build_conformance_check(work: Path, seed: int) -> dict:
    """Write-then-read geometry: generate, check, and answer aggregation."""
    w = Workload(work, seed)
    rng = w.rng
    suites = []
    for k, (schema, extra) in enumerate((("ifc2x3", False), ("ifc2x3", True),
                                         ("ifc4", False), ("ifc4", True))):
        spacing = rng.choice((3.0, 5.0, 7.5, 10.0))
        precision = rng.choice((1e-6, 1e-5, 1e-4))
        name = f"suite{k}_{schema}"
        argv = ["generate", "--schema", schema, "--out", f"{name}.ifc", "--manifest",
                f"{name}.json", "--spacing", str(spacing), "--precision", str(precision)]
        if extra:
            argv.append("--extra-below-precision")
        w.op("generate", argv, [], name=name, schema=schema, spacing=spacing,
             precision=precision, extra=extra)
        suites.append(name)
    fixed = len(w.ops)

    for k, n in enumerate(CHECK_SEGMENTS):
        name = suites[k % len(suites)]
        argv = ["check", f"{name}.ifc", "--manifest", f"{name}.json", "--segments", str(n),
                "--expect-match"]
        dump = f"mesh_{k}" if n == MESH_DUMP_SEGMENTS else None
        if dump:
            argv += ["--mesh-dump", dump]
        w.op("check", argv, [name], suite=name, segments=n, mesh_dump=dump)

    for k in range(4):
        rows = synthetic_answers(rng)
        path = work / f"answers{k}.{'csv' if k % 2 == 0 else 'jsonl'}"
        write_answers(path, rows)
        w.op("answers", ["report", "answers", path.name, "--out", f"report{k}"], [],
             out=f"report{k}", **answer_metrics(rows))
    return w.finish(fixed_prefix=fixed)


BUILDERS = {
    "census-diff": build_census_diff,
    "georef-roundtrip": build_georef_roundtrip,
    "conformance-check": build_conformance_check,
}
