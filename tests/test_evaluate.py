import itertools
import math

import numpy as np
import pytest

from ifcaudit.geomcheck import (
    Observation,
    TupleFlag,
    ZRelation,
    classify_tuple,
    classify_z,
    evaluate_item,
    suite_proxies,
)
from ifcaudit.geomcheck.evaluate import _face_mesh
from ifcaudit.geomgen import SLANT_COMPONENT
from ifcaudit.spf.values import text
from oracles import (
    column_volume,
    crane_rail_outline,
    ishape_area,
    pappus_volume,
    prism_volume,
    shoelace_area,
    tube_volume,
)
from tests_helpers import face_model, holed_face_items

ELLIPSE_AREA = math.pi * 1.0 * 0.5
ISHAPE_AREA = ishape_area(0.5, 1.0, 0.1, 0.15, 0.05)
CRANE_AREA = shoelace_area(
    crane_rail_outline(0.15, 0.15, 0.07, 0.02, 0.04, 0.03, 0.10, 0.015, 0.03, 0.06)
)


def evaluate(proxies_by_slot, suite, slot, segments=64):
    graph, manifest = suite
    return evaluate_item(
        graph, proxies_by_slot[slot], segments=segments, precision=manifest.precision
    )


# --- closed-form volume oracles -----------------------------------------------

POLYHEDRAL_CASES = {
    "B2": prism_volume(1.0, 2.0),
    "A1": 0.5,
    "A2": 0.5,
    "A3": 1.5,
    "A4": 0.5,
    "B1": 1.0,
    "B5": prism_volume(1.0, 2.0),
    "C2": prism_volume(1.0, 2.0 * SLANT_COMPONENT),
}

CURVED_CASES = {
    "C3": ELLIPSE_AREA * 2.0,
    "C4": ELLIPSE_AREA * 2.0,
    "D1": ELLIPSE_AREA * 2.0 * SLANT_COMPONENT,
    "E5": pappus_volume(1.0, 2.0),
    "F1": pappus_volume(ELLIPSE_AREA, 2.0),
    "F4": tube_volume(0.25, 3.0),
}

NEAR_POLYHEDRAL_CASES = {
    # fillets and piecewise-linear rails converge much faster than 2%
    "D2": ISHAPE_AREA * 2.0,
    "D3": ISHAPE_AREA * 2.0,
    "D5": ISHAPE_AREA * 2.0 * SLANT_COMPONENT,
    "E1": CRANE_AREA * 2.0,
    "E2": CRANE_AREA * 2.0,
    "E4": CRANE_AREA * 2.0 * SLANT_COMPONENT,
    "F2": pappus_volume(ISHAPE_AREA, 2.0),
    "F3": pappus_volume(CRANE_AREA, 2.0),
}


@pytest.mark.parametrize("slot", sorted(POLYHEDRAL_CASES))
def test_polyhedral_volumes_exact(slot, suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, slot)
    assert outcome.mesh is not None
    assert outcome.mesh.volume == pytest.approx(POLYHEDRAL_CASES[slot], abs=1e-9)


@pytest.mark.parametrize("slot", sorted(CURVED_CASES))
def test_curved_volumes_within_2_percent(slot, suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, slot, segments=64)
    assert outcome.mesh is not None
    assert outcome.mesh.volume == pytest.approx(CURVED_CASES[slot], rel=0.02)


@pytest.mark.parametrize("slot", sorted(NEAR_POLYHEDRAL_CASES))
def test_profile_volumes(slot, suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, slot, segments=64)
    assert outcome.mesh is not None
    assert outcome.mesh.volume == pytest.approx(NEAR_POLYHEDRAL_CASES[slot], rel=0.02)


@pytest.mark.parametrize("slot", ["C3", "E5", "F1", "F4"])
def test_refinement_monotone(slot, suite_2x3, proxies_by_slot):
    expected = CURVED_CASES[slot]
    errors = []
    for segments in (64, 128, 256):
        outcome = evaluate(proxies_by_slot, suite_2x3, slot, segments=segments)
        errors.append(abs(outcome.mesh.volume - expected))
    assert errors[0] >= errors[1] >= errors[2]


@pytest.mark.parametrize("slot", ["A1", "E5", "F4"])
def test_divergence_volume_matches_column_oracle(slot, suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, slot, segments=32)
    mesh = outcome.mesh
    oracle = column_volume(mesh.vertices, mesh.triangles, n=100)
    assert mesh.volume == pytest.approx(oracle, rel=0.05)


# --- template follow-up answers -------------------------------------------------


def test_z_relations(suite_2x3, proxies_by_slot):
    expectations = {
        "B2": ZRelation.ABOVE,
        "B3": ZRelation.BELOW,  # negative depth evaluated downwards
        "A1": ZRelation.ABOVE,
        "E5": ZRelation.STRADDLES,
        "F4": ZRelation.STRADDLES,
    }
    for slot, expected in expectations.items():
        outcome = evaluate(proxies_by_slot, suite_2x3, slot)
        assert outcome.z_relation is expected, slot


def test_classify_z_band():
    assert classify_z(0.0, 2.0, 1e-5) is ZRelation.ABOVE
    assert classify_z(-2.0, 0.0, 1e-5) is ZRelation.BELOW
    assert classify_z(-1.0, 1.0, 1e-5) is ZRelation.STRADDLES
    assert classify_z(-1e-6, 1e-6, 1e-5) is ZRelation.ON


def test_zero_depth_not_displayed(suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, "B4")
    assert not outcome.displayed
    assert outcome.mesh is None


def test_parallel_direction_not_displayed(suite_2x3, proxies_by_slot):
    for slot in ("C1", "C5", "D4", "E3"):
        outcome = evaluate(proxies_by_slot, suite_2x3, slot)
        assert not outcome.displayed, slot
        assert outcome.mesh is None


def test_negative_depth_still_evaluated(suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, "B3")
    assert outcome.displayed
    assert outcome.mesh.volume == pytest.approx(2.0, abs=1e-9)
    assert any("reversed" in w for w in outcome.warnings)


def test_non_normalized_equals_normalized_twin(suite_2x3, proxies_by_slot):
    from ifcaudit.geomgen import item_by_slot

    _, manifest = suite_2x3
    pairs = [("B5", "B2"), ("C4", "C3"), ("D3", "D2"), ("E2", "E1")]
    for odd, nominal in pairs:
        a = evaluate(proxies_by_slot, suite_2x3, odd)
        b = evaluate(proxies_by_slot, suite_2x3, nominal)
        assert any("NonNormalizedDirection" in w for w in a.warnings), odd
        assert not any("NonNormalizedDirection" in w for w in b.warnings)
        # vertexwise identical after removing the grid offset between slots
        ax, ay = item_by_slot(odd).position(manifest.grid_spacing)
        bx, by = item_by_slot(nominal).position(manifest.grid_spacing)
        shift = np.array([ax - bx, ay - by, 0.0])
        assert a.mesh.vertices.shape == b.mesh.vertices.shape
        assert np.max(np.abs(a.mesh.vertices - shift - b.mesh.vertices)) < 1e-9
        assert np.array_equal(a.mesh.triangles, b.mesh.triangles)


def test_f5_clamped_tube(suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, "F5")
    assert outcome.displayed
    assert any("clamped" in w for w in outcome.warnings)
    assert outcome.mesh.volume == pytest.approx(tube_volume(0.25, 3.0), rel=0.02)


def test_surface_model_displayed_by_area(suite_2x3, proxies_by_slot):
    outcome = evaluate(proxies_by_slot, suite_2x3, "A5")
    assert outcome.is_surface_model
    assert outcome.displayed
    assert outcome.mesh.surface_area == pytest.approx(6.0, abs=1e-9)


def test_smooth_curves_flag(suite_2x3, proxies_by_slot):
    assert evaluate(proxies_by_slot, suite_2x3, "C3").smooth_curves
    assert evaluate(proxies_by_slot, suite_2x3, "F4").smooth_curves
    assert not evaluate(proxies_by_slot, suite_2x3, "B2").smooth_curves
    assert not evaluate(proxies_by_slot, suite_2x3, "C3", segments=16).smooth_curves


def test_shape_class_labels(suite_2x3, proxies_by_slot):
    assert evaluate(proxies_by_slot, suite_2x3, "B2").shape_class == (
        "ExtrudedAreaSolid/Rectangle"
    )
    assert evaluate(proxies_by_slot, suite_2x3, "F1").shape_class == (
        "RevolvedAreaSolid/Ellipse"
    )
    assert evaluate(proxies_by_slot, suite_2x3, "A5").shape_class == (
        "ShellBasedSurfaceModel"
    )


def test_centroid_positions(suite_2x3, proxies_by_slot):
    graph, manifest = suite_2x3
    outcome = evaluate(proxies_by_slot, suite_2x3, "B2")
    # slot B2: column 2, row B -> grid offset (5, 5); prism centroid z = 1
    assert np.allclose(outcome.mesh.centroid, [5.0, 5.0, 1.0], atol=1e-9)


@pytest.mark.parametrize("segments", [3, 8, 64])
def test_triangle_budget_counts_the_mesh(monkeypatch, suite_2x3, suite_ifc4, segments):
    """Each sweep checks its triangle count against the budget before it
    builds the mesh; the count is that of the mesh it then builds."""
    from ifcaudit.geomcheck import evaluate as ev
    from ifcaudit.geomgen import ShapeKind

    sweeps = {
        k.root_type
        for k in (ShapeKind.EXTRUDED_AREA_SOLID, ShapeKind.REVOLVED_AREA_SOLID,
                  ShapeKind.SWEPT_DISK_SOLID)
    }
    budgeted = []
    monkeypatch.setattr(ev, "_within_budget", budgeted.append)
    meshes = 0
    for graph, _ in (suite_2x3, suite_ifc4):
        for proxy in suite_proxies(graph):
            (root,) = ev.shape_roots(graph, proxy)
            if root.type_name not in sweeps:
                continue
            budgeted.clear()
            mesh = ev._evaluate_root(graph, root, segments).mesh
            expected = [] if mesh is None else [len(mesh.triangles)]
            assert budgeted == expected, text(proxy.attr(3))
            meshes += mesh is not None
    assert meshes == 32  # 19 + 13 sweeps; the other 9 are not displayed


# --- faces: concave outlines and inner bounds -----------------------------------


@pytest.fixture(scope="module")
def holed_items():
    graph = face_model(holed_face_items())
    return {text(p.attr(3)): evaluate_item(graph, p) for p in suite_proxies(graph)}


def test_concave_prism_faces(holed_items):
    mesh = holed_items["U"].mesh
    assert mesh.surface_area == pytest.approx(30.0, rel=1e-9)
    assert mesh.volume == pytest.approx(7.0, rel=1e-9)


def test_holed_prism_faces(holed_items):
    mesh = holed_items["H"].mesh
    assert mesh.surface_area == pytest.approx(32.0, rel=1e-9)
    assert mesh.volume == pytest.approx(8.0, rel=1e-9)


def test_wall_face_with_windows(holed_items):
    outcome = holed_items["W"]
    assert outcome.is_surface_model
    assert outcome.mesh.surface_area == pytest.approx(14.0, rel=1e-9)
    assert outcome.mesh.centroid == pytest.approx([39.75 / 14, 0.0, 1.5], rel=1e-9)
    assert len(outcome.mesh.triangles) == 14  # n + 2h - 2: 12 vertices, 2 holes


@pytest.mark.parametrize("suite", ["suite_2x3", "suite_ifc4"])
def test_convex_suite_faces_keep_the_fan(request, suite):
    graph, _ = request.getfixturevalue(suite)
    faces = 0
    for shell in graph.by_type("IFCCLOSEDSHELL") + graph.by_type("IFCOPENSHELL"):
        base, fans = 0, []
        for face_ref in shell.attr(0).items:
            (bound_ref,) = graph.deref(face_ref).attr(0).items
            n = len(graph.deref(graph.deref(bound_ref).attr(0)).attr(0).items)
            fans += [[base, base + i, base + i + 1] for i in range(1, n - 1)]
            base += n
            faces += 1
        assert _face_mesh(graph, shell).triangles.tolist() == fans
    assert faces == len(graph.by_type("IFCFACE")) > 0


# --- the exported/imported/valid tuple -----------------------------------------


def test_tuple_classification_examples():
    ok = classify_tuple(valid=True, displayed=True, exported=True)
    assert ok.as_tuple() == ("Y", "Y", "Y") and not ok.flags

    loosen = classify_tuple(valid=False, displayed=True, exported=True)
    assert loosen.as_tuple() == ("Y", "Y", "N")
    assert loosen.flags == {TupleFlag.LOOSEN_CANDIDATE}

    problem = classify_tuple(valid=True, displayed=False, exported=True)
    assert problem.as_tuple() == ("Y", "N", "Y")
    assert problem.flags == {TupleFlag.PRACTITIONER_PROBLEM}


def test_tuple_classification_exhaustive():
    for exported, displayed, valid in itertools.product([True, False], repeat=3):
        t = classify_tuple(valid=valid, displayed=displayed, exported=exported)
        assert (TupleFlag.NEVER_EXPORTED in t.flags) == (not exported)
        assert (TupleFlag.LOOSEN_CANDIDATE in t.flags) == (
            exported and displayed and not valid
        )
        assert (TupleFlag.PRACTITIONER_PROBLEM in t.flags) == (
            exported and not displayed
        )


def test_tuple_unknown_export():
    t = classify_tuple(valid=True, displayed=True, exported=None)
    assert t.exported is Observation.UNKNOWN
    assert not t.flags
