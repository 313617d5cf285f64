"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are fixed here, not configurable.
"""

import gc
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ifcaudit.census import (
    Census,
    WALL_FAMILY,
    census,
    diff,
    family_balance,
)
from ifcaudit.geomcheck import (
    TupleFlag,
    check_validity,
    classify_tuple,
    evaluate_item,
    item_fragment,
    suite_proxies,
)
from ifcaudit.geomgen import InvalidReason, generate_geometry_suite
from ifcaudit.georef import (
    LoGeoRefLevel,
    compound_angle_to_degrees,
    detect_georef,
)
from ifcaudit.benchkit import pairwise_equality
from ifcaudit.schema import SchemaVersion
from ifcaudit.spf import parse_spf, write_spf
from oracles import brute_force_pair_equality
from tests_helpers import (
    PEAK_RSS,
    georef_fixture_l10,
    georef_fixture_l20,
    georef_fixture_l30,
    georef_fixture_l40,
    georef_fixture_l50,
)

TIMESTAMP = "2020-01-01T00:00:00"


def report(number: int, message: str) -> None:
    print(f"[PASS] criterion {number}: {message}")


def fresh_suites():
    return (
        generate_geometry_suite(SchemaVersion.IFC2X3, timestamp=TIMESTAMP),
        generate_geometry_suite(SchemaVersion.IFC4, timestamp=TIMESTAMP),
    )


def test_criterion_1_suite_cardinality():
    t0 = time.perf_counter()
    (g3, m3), (g4, m4) = fresh_suites()
    elapsed = time.perf_counter() - t0
    assert len(m3.items) == 30
    assert len(m4.items) == 23
    assert census(g3).count("IFCBUILDINGELEMENTPROXY") == 30
    assert census(g4).count("IFCBUILDINGELEMENTPROXY") == 23
    excluded = {i.slot for i in m3.items} - {i.slot for i in m4.items}
    assert excluded == {"E1", "E2", "E3", "E4", "F3", "F4", "F5"}
    assert elapsed < 1.0, f"generation took {elapsed:.3f}s"
    report(1, f"30 IFC2X3 / 23 IFC4 items, exclusions {sorted(excluded)}, "
              f"{elapsed * 1000:.0f} ms")


def test_criterion_2_validity_classification():
    (graph, manifest), _ = fresh_suites()
    t0 = time.perf_counter()
    flagged: dict[InvalidReason, set[str]] = {r: set() for r in InvalidReason}
    for proxy in suite_proxies(graph):
        slot = proxy.attr(3).value
        verdict = check_validity(graph, item_fragment(graph, proxy), manifest.precision)
        for reason in verdict.reasons:
            flagged[reason].add(slot)
    elapsed = time.perf_counter() - t0
    assert flagged[InvalidReason.POSITIVE_LENGTH] == {"B3", "B4"}
    assert flagged[InvalidReason.VALID_EXTRUSION_DIRECTION] == {"C1", "C5", "D4", "E3"}
    assert flagged[InvalidReason.PARAM_RANGE] == {"F5"}
    assert flagged[InvalidReason.BELOW_PRECISION] == set()
    assert elapsed < 1.0, f"validity pass took {elapsed:.3f}s"
    report(2, f"PositiveLength={{B3,B4}}, ValidExtrusionDirection={{C1,C5,D4,E3}}, "
              f"ParamRange={{F5}}, {elapsed * 1000:.0f} ms")


def test_criterion_3_geometry_oracles():
    (graph, manifest), _ = fresh_suites()
    proxies = {p.attr(3).value: p for p in suite_proxies(graph)}
    t0 = time.perf_counter()

    def volume(slot, segments=64):
        outcome = evaluate_item(
            graph, proxies[slot], segments=segments, precision=manifest.precision
        )
        return outcome.mesh.volume

    exact = {
        "B2": 2.0, "A1": 0.5, "A2": 0.5, "A3": 1.5, "A4": 0.5,
    }
    for slot, expected in exact.items():
        assert abs(volume(slot) - expected) <= 1e-9, slot

    tube = math.pi * 0.25**2 * 3.0
    pappus = 2.0 * math.pi * 2.0 * 1.0
    for slot, expected in (("F4", tube), ("E5", pappus)):
        errors = [abs(volume(slot, segments=n) - expected) for n in (64, 128, 256)]
        assert errors[0] <= 0.02 * expected, (slot, errors)
        assert errors[0] >= errors[1] >= errors[2], (slot, errors)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"geometry oracles took {elapsed:.3f}s"
    report(3, f"prism/booleans exact to 1e-9; tube and revolution within 2% at 64 "
              f"segments with monotone refinement, {elapsed:.2f} s")


def test_criterion_4_roundtrip_identity():
    t0 = time.perf_counter()
    fixtures = [
        generate_geometry_suite(SchemaVersion.IFC2X3, timestamp=TIMESTAMP)[0],
        generate_geometry_suite(SchemaVersion.IFC4, timestamp=TIMESTAMP)[0],
        generate_geometry_suite(
            SchemaVersion.IFC2X3, timestamp=TIMESTAMP, include_below_precision_item=True
        )[0],
        georef_fixture_l10(),
        georef_fixture_l20(),
        georef_fixture_l30(),
        georef_fixture_l40(),
        georef_fixture_l50(),
    ]
    for graph in fixtures:
        first = write_spf(graph)
        reparsed = parse_spf(first)
        assert graph.structurally_equal(reparsed)
        second = write_spf(reparsed)
        assert first == second
        assert write_spf(parse_spf(second)) == second
        assert census(graph).counts == census(reparsed).counts
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"round trips took {elapsed:.3f}s"
    report(4, f"{len(fixtures)} fixtures: parse-write-parse identical, byte-idempotent, "
              f"census stable, {elapsed:.2f} s")


def test_criterion_5_census_diff_algebra():
    rng = random.Random(20200101)
    pool = [
        "IFCWALL", "IFCWALLSTANDARDCASE", "IFCWALLTYPE", "IFCSTAIR",
        "IFCCARTESIANPOINT", "IFCUNITASSIGNMENT", "IFCRELAGGREGATES",
        "IFCDOOR", "IFCMEMBERTYPE", "IFCOTHERTHING",
    ]

    def random_census():
        counts = {
            t: rng.randint(1, 40) for t in pool if rng.random() < 0.6
        }
        return Census(counts, sum(counts.values()), rng.randint(100, 10_000),
                      SchemaVersion.IFC2X3)

    cases = 1000
    for _ in range(cases):
        a, b = random_census(), random_census()
        identity = diff(a, a)
        assert not identity.deltas and not identity.lost_types
        forward, backward = diff(a, b), diff(b, a)
        assert {t: -d for t, d in forward.deltas.items()} == backward.deltas
        assert sum(forward.grouped_deltas.values()) == sum(forward.deltas.values())

    reference = Census({"IFCWALL": 10}, 10, 1000, SchemaVersion.IFC2X3)
    exported = Census(
        {"IFCWALL": 4, "IFCWALLSTANDARDCASE": 6}, 10, 1000, SchemaVersion.IFC2X3
    )
    retyped = diff(reference, exported)
    assert retyped.deltas == {"IFCWALL": -6, "IFCWALLSTANDARDCASE": 6}
    assert family_balance(retyped, WALL_FAMILY) == 0
    report(5, f"{cases} random cases: identity, antisymmetry, grouped conservation; "
              f"retyping balances to 0 with non-zero per-type deltas")


def test_criterion_6_logeoref_detection():
    fixtures = {
        10: georef_fixture_l10(),
        20: georef_fixture_l20(),
        30: georef_fixture_l30(),
        40: georef_fixture_l40(),
        50: georef_fixture_l50(),
    }
    for level, graph in fixtures.items():
        detected = detect_georef(graph)
        assert detected.levels == [level], (level, detected.levels)

    l20 = detect_georef(fixtures[20]).detected[LoGeoRefLevel.L20].payload
    assert l20["latitude"] == 52.0 and l20["longitude"] == 4.5
    l50 = detect_georef(fixtures[50]).detected[LoGeoRefLevel.L50].payload
    assert l50["eastings"] == 333780.622
    assert l50["northings"] == 6246775.891
    assert l50["orthogonal_height"] == 19.7
    assert l50["crs_name"] == "EPSG:28355"

    # compound angle against the arithmetic oracle, to 1e-12
    rng = random.Random(7)
    for _ in range(500):
        sign = rng.choice((1, -1))
        parts = [sign * rng.randint(0, 89), sign * rng.randint(0, 59),
                 sign * rng.randint(0, 59), sign * rng.randint(0, 999999)]
        expected = sign * (
            abs(parts[0]) + abs(parts[1]) / 60 + abs(parts[2]) / 3600
            + abs(parts[3]) / 3.6e9
        )
        assert abs(compound_angle_to_degrees(parts) - expected) <= 1e-12

    # L50 evidence in an IFC2X3 file must not be reported
    report_2x3 = detect_georef(georef_fixture_l50(schema="IFC2X3"))
    assert 50 not in report_2x3.levels
    report(6, "five fixtures each detect exactly their level with exact parameter "
              "echo; compound angles match arithmetic to 1e-12; no L50 under IFC2X3")


def test_criterion_7_consistency_metric():
    checked = 0
    for n in range(2, 7):
        for values in itertools.product("abc", repeat=n):
            assert pairwise_equality(values) == pytest.approx(
                brute_force_pair_equality(values), abs=1e-12
            )
            checked += 1
    assert pairwise_equality(["x"] * 6) == 1.0
    assert pairwise_equality(["a", "b", "c"]) == 0.0
    report(7, f"pairwise equality equals brute force on all {checked} multisets "
              f"(size <= 6, 3 symbols); endpoints exact")


def test_criterion_8_tuple_classification():
    seen_flags = set()
    for exported, imported, valid in itertools.product([True, False], repeat=3):
        t = classify_tuple(valid=valid, displayed=imported, exported=exported)
        assert (TupleFlag.NEVER_EXPORTED in t.flags) == (not exported)
        assert (TupleFlag.LOOSEN_CANDIDATE in t.flags) == (
            exported and imported and not valid
        )
        assert (TupleFlag.PRACTITIONER_PROBLEM in t.flags) == (
            exported and not imported
        )
        seen_flags |= t.flags
    assert seen_flags == {
        TupleFlag.NEVER_EXPORTED,
        TupleFlag.LOOSEN_CANDIDATE,
        TupleFlag.PRACTITIONER_PROBLEM,
    }
    report(8, "all 8 exported/imported/valid tuples classified; all three flag "
              "states produced")


def _build_big_file(target_bytes: int) -> tuple[bytes, int, int]:
    """Repeat the suite's DATA section with shifted ids until ~target size."""
    graph, _ = generate_geometry_suite(SchemaVersion.IFC2X3, timestamp=TIMESTAMP)
    text = write_spf(graph).decode("latin-1")
    head, rest = text.split("DATA;\n", 1)
    body, tail = rest.rsplit("ENDSEC;", 1)
    per_copy_instances = len(graph)
    id_span = per_copy_instances + 1
    # shifted ids are longer than the originals; 0.84 lands near the target
    copies = max(1, int(target_bytes * 0.84) // len(body))

    chunks = [head, "DATA;\n"]
    for k in range(copies):
        offset = k * id_span
        if k == 0:
            chunks.append(body)
        else:
            chunks.append(
                re.sub(r"#(\d+)", lambda m: f"#{int(m.group(1)) + offset}", body)
            )
    chunks.append("ENDSEC;")
    chunks.append(tail)
    return "".join(chunks).encode("latin-1"), copies, per_copy_instances


def test_criterion_9_scale_behavior(tmp_path):
    data, copies, per_copy = _build_big_file(100 * 1024 * 1024)
    size = len(data)
    assert size >= 90 * 1024 * 1024

    gc.collect()
    t0 = time.perf_counter()
    graph = parse_spf(data)
    counts = census(graph)
    elapsed = time.perf_counter() - t0
    assert counts.total == copies * per_copy
    assert counts.count("IFCBUILDINGELEMENTPROXY") == copies * 30
    assert elapsed < 60.0, f"parse+census took {elapsed:.1f}s"
    assert graph.dangling() == []

    del graph, counts
    gc.collect()

    # the same bytes through a `census` child, whose peak RSS counts the input
    path, out = tmp_path / "big.ifc", tmp_path / "census.json"
    path.write_bytes(data)
    del data
    command = [sys.executable, "-m", "ifcaudit.cli", "census", str(path), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    spawner = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *command], env=env, capture_output=True, text=True,
        check=True,
    )
    child_elapsed = time.perf_counter() - t0
    code, peak_kb = map(int, spawner.stdout.split())
    assert code == 0, spawner.stderr
    assert json.loads(out.read_text())["total"] == copies * per_copy
    budget = 10 * size
    used = peak_kb * 1024
    assert used < budget, f"peak {used / 1e6:.0f} MB over budget {budget / 1e6:.0f} MB"
    assert child_elapsed < 60.0, f"census child took {child_elapsed:.1f}s"
    report(9, f"{size / 1e6:.0f} MB / {copies * per_copy} instances parsed and "
              f"censused in {elapsed:.1f} s; census child {child_elapsed:.1f} s, "
              f"peak RSS {used / 1e6:.0f} MB < {budget / 1e6:.0f} MB")
