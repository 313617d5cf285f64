import io
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifcaudit.errors import UnsupportedShape
from ifcaudit.geomcheck.evaluate import _boxes_to_outcome, _evaluate_root
from ifcaudit.geomcheck.mesh import _BLOCK_ROWS, TriMesh
from ifcaudit.geomcheck.tessellate import (
    bridge_holes,
    crane_rail_polygon,
    ear_clip,
    ellipse_polygon,
    extrude_polygon,
    ishape_polygon,
    polygon_area,
    rectangle_polygon,
    revolve_polygon,
    strip_triangles,
    triangulate_face,
)
from ifcaudit.spf.build import GraphBuilder
import reference_geometry
from oracles import column_volume, ishape_area, shoelace_area, tube_volume
from tests_helpers import wall_face


def box_mesh(lo, hi) -> TriMesh:
    """The mesh ``check`` makes of a boolean result's box from ``lo`` to ``hi``."""
    return _boxes_to_outcome([(np.array(lo, float), np.array(hi, float))], "box").mesh


def disk_mesh(start, end, radius: float, segments: int) -> TriMesh:
    """The mesh ``check`` makes of a swept disk along the straight
    directrix from ``start`` to ``end``, before its product's placement."""
    b = GraphBuilder("IFC2X3")
    points = [b.add("IFCCARTESIANPOINT", tuple(map(float, p))) for p in (start, end)]
    root = b.add("IFCSWEPTDISKSOLID", b.add("IFCPOLYLINE", points), radius, None, None, None)
    graph = b.graph()
    return _evaluate_root(graph, graph.resolve(root.id), segments).mesh


def test_box_properties():
    mesh = box_mesh((0, 0, 0), (2, 3, 4))
    assert mesh.volume == pytest.approx(24.0, abs=1e-12)
    assert mesh.surface_area == pytest.approx(2 * (6 + 8 + 12), abs=1e-12)
    assert np.allclose(mesh.centroid, [1.0, 1.5, 2.0])
    lo, hi = mesh.bbox
    assert np.allclose(lo, [0, 0, 0]) and np.allclose(hi, [2, 3, 4])
    assert mesh.signed_volume > 0  # outward orientation
    # the corners are the bounds themselves: -0.1 + (0.3 - -0.1) is not 0.3
    lo, hi = box_mesh((-1.5, 0.5, -0.1), (2.5, 1.5, 0.3)).bbox
    assert lo.tolist() == [-1.5, 0.5, -0.1] and hi.tolist() == [2.5, 1.5, 0.3]


def test_volume_against_column_oracle_box():
    mesh = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    oracle = column_volume(mesh.vertices, mesh.triangles, n=64)
    assert mesh.volume == pytest.approx(oracle, rel=0.05)


def test_flip_negates_signed_volume():
    mesh = box_mesh((0, 0, 0), (1, 1, 1))
    a, b, c = reference_geometry.corners(mesh.vertices, mesh.triangles)
    volume = mesh.signed_volume
    mesh.flip()
    flipped = reference_geometry.corners(mesh.vertices, mesh.triangles)
    assert [x.tolist() for x in flipped] == [c.tolist(), b.tolist(), a.tolist()]
    assert mesh.signed_volume == pytest.approx(-volume)


def test_weld_merges_duplicate_vertices():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)]
    tris = [(0, 1, 2), (3, 1, 2)]
    mesh = TriMesh(verts, tris)
    mesh.weld(1e-6)
    assert len(mesh.vertices) == 3


def test_weld_drops_collapsed_triangles():
    verts = [(0, 0, 0), (1e-9, 0, 0), (0, 1, 0)]
    mesh = TriMesh(verts, [(0, 1, 2)])
    mesh.weld(1e-6)
    assert len(mesh.triangles) == 0


def test_weld_far_from_the_origin():
    # grid keys of 1e20 at 1e15 / 1e-5: past the range of a 64-bit integer
    box = box_mesh((0, 0, 0), (1, 1, 1))
    n = len(box.vertices)
    doubled = TriMesh(np.vstack([box.vertices] * 2), np.vstack([box.triangles, box.triangles + n]))
    shift = np.array([1e15, 0.0, 0.0])
    far = TriMesh(doubled.vertices + shift, doubled.triangles.copy())
    near = doubled
    for mesh in (near, far):
        mesh.weld(1e-5)
    assert len(near.vertices) == n
    assert far.vertices.tolist() == (near.vertices + shift).tolist()
    assert far.triangles.tolist() == near.triangles.tolist()


@pytest.mark.parametrize("scale, tol", [(1.0, 1e-320), (1e304, 1e-5), (-1e304, 1e-5)])
def test_weld_refuses_overflowing_grid_keys(scale, tol):
    # an infinite grid key would merge every vertex that reaches it
    box = box_mesh((0, 0, 0), (1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the division overflows
        with pytest.raises(UnsupportedShape, match="weld grid overflows"):
            TriMesh(box.vertices * scale, box.triangles.copy()).weld(tol)
        # with keys up to 1e300, nothing overflows and nothing merges
        near = TriMesh(box.vertices * math.copysign(1e300 * tol, scale), box.triangles.copy())
        near.weld(tol)
        assert len(near.vertices) == 8


def test_centroid_far_from_the_origin():
    # georeferenced placements: tetrahedra against the origin cancel digits away
    x = 1.2345678901e9
    box = box_mesh((x, 0.0, 0.0), (x + 1.0, 1.0, 1.0))
    assert box.centroid == pytest.approx([x + 0.5, 0.5, 0.5], rel=0, abs=1e-6)
    assert box.volume == pytest.approx(1.0, rel=1e-9)
    ellipse = ellipse_polygon(3.0, 1.5, 64) + np.array([5e6, 5e6])
    prism = extrude_polygon(ellipse, np.array([0.0, 0.0, 2.5]))
    assert prism.centroid == pytest.approx([5e6, 5e6, 1.25], rel=0, abs=1e-6)


def test_index_range_validation():
    with pytest.raises(ValueError):
        TriMesh([(0, 0, 0)], [(0, 1, 2)])


def test_index_past_int32_is_refused_not_wrapped():
    # narrowed unchecked, 2**32 would wrap to vertex 0
    triangles = np.array([(0, 1, 2**32)], dtype=np.int64)
    with pytest.raises(ValueError, match="out of range"):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], triangles)
    with pytest.raises(ValueError, match="negative"):
        TriMesh([(0, 0, 0), (1, 0, 0), (0, 1, 0)], triangles - 2**32 - 1)


def test_vertex_limit_is_checked_by_constructor_and_concat(monkeypatch):
    import ifcaudit.geomcheck.mesh

    monkeypatch.setattr(ifcaudit.geomcheck.mesh, "MAX_VERTICES", 8)
    box = box_mesh((0, 0, 0), (1, 1, 1))  # 8 vertices: at the limit
    with pytest.raises(ValueError, match="^9 vertices exceed the index limit$"):
        TriMesh(np.vstack([box.vertices, box.vertices[:1]]), box.triangles)
    with pytest.raises(ValueError, match="^16 vertices exceed the index limit$"):
        TriMesh.concat([box, box])


def test_every_builder_and_transform_gives_int32_triangles():
    box = box_mesh((0, 0, 0), (1, 1, 1))
    flipped, transformed = box_mesh((0, 0, 0), (1, 1, 1)), box_mesh((0, 0, 0), (1, 1, 1))
    flipped.flip()
    transformed.transform(np.eye(4))
    ellipse = ellipse_polygon(1.0, 0.5, 16)
    meshes = {
        "extrude_polygon": extrude_polygon(ellipse, np.array([0.0, 0.0, -1.0])),
        "revolve_polygon": revolve_polygon(
            ellipse + (3.0, 0.0), np.zeros(3), np.array([0.0, 1.0, 0.0]), 8
        ),
        "swept disk": disk_mesh((0, 0, 0), (1, 0, 0), 0.25, 8),
        "boolean box": box,
        "concat": TriMesh.concat([box, box]),
        "concat of none": TriMesh.concat([]),
        "flipped": flipped,
        "transformed": transformed,
        "welded": TriMesh.concat([box, box]),
        "int64 indices": TriMesh(box.vertices.copy(), box.triangles.astype(np.int64)),
    }
    meshes["welded"].weld(1e-6)
    for name, mesh in meshes.items():
        assert mesh.triangles.dtype == np.int32, name
    assert len(meshes["welded"].vertices) == 8


def test_polygon_area_and_centroid():
    rect = rectangle_polygon(2.0, 1.0)
    assert polygon_area(rect) == pytest.approx(2.0)
    assert polygon_area(rect) == pytest.approx(shoelace_area(rect))


def test_ear_clip_concave():
    # L-shaped polygon, area 3
    poly = np.array([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)], dtype=float)
    tris = ear_clip(poly)
    assert len(tris) == len(poly) - 2
    total = 0.0
    for a, b, c in tris:
        pa, pb, pc = poly[a], poly[b], poly[c]
        total += abs(
            (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
        ) / 2
    assert total == pytest.approx(3.0)


@pytest.mark.parametrize(
    "polygon",
    [rectangle_polygon(2.0, 1.0)] + [ellipse_polygon(2.0, 1.0, n) for n in (3, 4, 64, 512)],
    ids=["rectangle", "ellipse-3", "ellipse-4", "ellipse-64", "ellipse-512"],
)
def test_ear_clip_fans_convex_outlines(polygon):
    i = np.arange(1, len(polygon) - 1)
    assert ear_clip(polygon).tolist() == np.column_stack([0 * i, i, i + 1]).tolist()


@st.composite
def star_polygons(draw, max_size=60):
    # vertices in angle order around the origin, with no gap of half a turn
    # or more, form a simple counter-clockwise polygon the origin sees whole
    vertices = draw(
        st.lists(
            st.tuples(st.integers(0, 719), st.integers(1, 100)),
            min_size=3, max_size=max_size, unique_by=lambda vertex: vertex[0],
        )
    )
    angle, radius = np.array(sorted(vertices), dtype=np.float64).T
    assume(np.diff(angle, append=angle[0] + 720).max() < 360)
    angle *= math.pi / 360.0
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


@settings(max_examples=200, deadline=None)
@given(star_polygons())
def test_ear_clip_star_shaped_polygons(poly):
    tris = ear_clip(poly)
    assert len(tris) == len(poly) - 2
    a, b, c = poly[tris[:, 0]], poly[tris[:, 1]], poly[tris[:, 2]]
    doubled = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    assert (doubled >= 0).all()
    assert doubled.sum() / 2 == pytest.approx(polygon_area(poly), rel=1e-9)


def _inradius(poly: np.ndarray) -> float:
    """Distance from the origin to the nearest edge of a closed polygon."""
    a, b = poly, np.roll(poly, -1, axis=0)
    t = np.clip(-(a * (b - a)).sum(axis=1) / ((b - a) ** 2).sum(axis=1), 0.0, 1.0)
    return float(np.linalg.norm(a + t[:, None] * (b - a), axis=1).min())


@settings(max_examples=200, deadline=None)
@given(
    star_polygons(),
    star_polygons(max_size=20),
    st.floats(0.1, 0.9),
    st.booleans(),
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    st.tuples(*[st.floats(-100.0, 100.0)] * 3),
)
def test_face_with_star_hole(outer, hole, shrink, reverse_hole, matrix, offset):
    # the hole fits in the disc about the origin that the outer polygon holds
    hole = hole * (shrink * _inradius(outer) / np.linalg.norm(hole, axis=1).max())
    if reverse_hole:
        hole = hole[::-1]
    # a random rotation takes the xy-plane to the face's plane
    rotation, _ = np.linalg.qr(np.array(matrix).reshape(3, 3))  # orthogonal even if singular
    rotation *= np.linalg.det(rotation)
    normal = rotation[:, 2]
    loops = [np.column_stack([p, np.zeros(len(p))]) @ rotation.T + offset for p in (outer, hole)]

    tris = triangulate_face(loops, 0)
    n, h = len(outer) + len(hole), 1
    assert len(tris) == n + 2 * h - 2
    corners = np.vstack(loops)[tris]
    doubled = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]) @ normal
    assert (doubled >= -1e-9 * np.abs(outer).max() ** 2).all()  # none clockwise
    expected = polygon_area(outer) - abs(polygon_area(hole))
    assert doubled.sum() / 2 == pytest.approx(expected, rel=1e-9)


def test_second_bridge_to_a_bridged_vertex():
    # both holes see the spike (11, 5) nearest; the second bridge leaves
    # from the copy of it whose corner the bridge enters, so the ring stays
    # weakly simple: spike, lower hole, spike, upper hole, spike
    points = np.array([
        (0, 0), (10, 0), (11, 5), (10, 10), (0, 10),  # outer, 0-4
        (8, 3.2), (9.8, 3), (8, 2),  # lower hole, clockwise, 5-7
        (9, 6.4), (9.7, 6), (9, 5.6),  # upper hole, clockwise, 8-10
    ])
    ring = bridge_holes(points, [0, 1, 2, 3, 4], [[5, 6, 7], [8, 9, 10]])
    assert ring == [0, 1, 2, 6, 7, 5, 6, 2, 9, 10, 8, 9, 2, 3, 4]


def test_face_without_outer_bound_takes_the_largest_loop():
    outer, *windows = (np.array(loop) for loop in wall_face())
    loops = [windows[0], outer, windows[1]]
    tris = triangulate_face(loops, None)
    assert tris.tolist() == triangulate_face(loops, 1).tolist()
    a, b, c = np.vstack(loops)[tris].transpose(1, 0, 2)
    assert len(tris) == 14
    assert np.linalg.norm(np.cross(b - a, c - a), axis=1).sum() / 2 == pytest.approx(14.0, rel=1e-9)


def test_face_with_touching_holes_is_refused():
    # two windows sharing an edge: bridging one to the other makes a ring
    # that overlaps itself along that edge
    square = lambda x, y: np.array([(x, y, 0), (x + 2, y, 0), (x + 2, y + 2, 0), (x, y + 2, 0)])
    loops = [square(0, 0) * 5, square(2, 2), square(4, 2)]
    with pytest.raises(ValueError, match="bounds touch"):
        triangulate_face(loops, 0)
    loops[2] = square(5, 2)
    assert len(triangulate_face(loops, 0)) == 12 + 2 * 2 - 2


@pytest.mark.parametrize("holes", [0, 1])
def test_fine_face_peaks_in_bounded_memory(holes):
    """A 2000-point face, with or without a hole, is checked for crossing
    edges, touching bounds and holes outside in blocks of point pairs: an
    all-pairs array would hold about 160 MB."""
    import tracemalloc

    def loop(semi1, semi2, n):
        return np.column_stack([ellipse_polygon(semi1, semi2, n), np.zeros(n)])

    loops = [loop(2.0, 1.0, 2000 - 1000 * holes)] + [loop(1.0, 0.5, 1000)] * holes
    triangulate_face([loop(2.0, 1.0, 8), loop(1.0, 0.5, 8)], 0)  # warm up outside the trace
    tracemalloc.start()
    try:
        triangles = triangulate_face(loops, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(triangles) == 2000 + 2 * holes - 2
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


def test_ear_clip_fine_ishape_is_fast():
    poly = ishape_polygon(0.2, 0.3, 0.01, 0.015, 0.012, segments=1024)
    start = time.perf_counter()
    tris = ear_clip(poly)
    assert time.perf_counter() - start < 1.0
    assert len(tris) == len(poly) - 2


def test_ishape_polygon_area_matches_closed_form():
    poly = ishape_polygon(0.5, 1.0, 0.1, 0.15, 0.05, segments=512)
    expected = ishape_area(0.5, 1.0, 0.1, 0.15, 0.05)
    assert abs(polygon_area(poly)) == pytest.approx(expected, rel=2e-4)


def test_extrude_prism():
    mesh = extrude_polygon(rectangle_polygon(1, 1), np.array([0.0, 0.0, 2.0]))
    assert mesh.volume == pytest.approx(2.0, abs=1e-12)
    assert mesh.surface_area == pytest.approx(2 + 8, abs=1e-12)


def test_extrude_oblique():
    sweep = np.array([1.0, 0.0, 1.0])
    mesh = extrude_polygon(rectangle_polygon(1, 1), sweep)
    assert mesh.volume == pytest.approx(1.0, abs=1e-12)  # area x |sweep_z|


def test_extrude_concave_profile():
    poly = ishape_polygon(0.5, 1.0, 0.1, 0.15, 0.05, segments=64)
    mesh = extrude_polygon(poly, np.array([0.0, 0.0, 2.0]))
    assert mesh.volume == pytest.approx(abs(polygon_area(poly)) * 2.0, rel=1e-9)
    oracle = column_volume(mesh.vertices, mesh.triangles, n=100)
    assert mesh.volume == pytest.approx(oracle, rel=0.05)


def test_revolve_matches_pappus():
    poly = rectangle_polygon(1, 1) + np.array([2.0, 0.0])
    mesh = revolve_polygon(poly, np.zeros(3), np.array([0.0, 1.0, 0.0]), 64)
    expected = 2 * math.pi * 2.0 * 1.0
    assert mesh.volume == pytest.approx(expected, rel=0.02)


def test_revolve_against_column_oracle():
    poly = rectangle_polygon(1, 1) + np.array([2.0, 0.0])
    mesh = revolve_polygon(poly, np.zeros(3), np.array([0.0, 1.0, 0.0]), 32)
    oracle = column_volume(mesh.vertices, mesh.triangles, n=100)
    assert mesh.volume == pytest.approx(oracle, rel=0.05)


def test_tube_volume_and_oracle():
    mesh = disk_mesh((0, 0, 0), (3, 0, 0), 0.25, 64)
    assert len(mesh.triangles) == 4 * 64 - 4  # an extruded 64-gon
    assert mesh.volume == pytest.approx(tube_volume(0.25, 3.0), rel=0.02)
    oracle = column_volume(mesh.vertices, mesh.triangles, n=100)
    assert mesh.volume == pytest.approx(oracle, rel=0.05)


def test_ellipse_refinement_monotone():
    areas = [abs(polygon_area(ellipse_polygon(1.0, 0.5, n))) for n in (16, 32, 64, 128)]
    target = math.pi * 0.5
    errors = [abs(a - target) for a in areas]
    assert errors == sorted(errors, reverse=True)


def test_dump_ascii_format():
    mesh = box_mesh((0, 0, 0), (1, 1, 1))
    out = io.StringIO()
    mesh.dump_ascii(out)
    lines = out.getvalue().strip().splitlines()
    assert len(lines) == 12
    assert all(len(line.split()) == 9 for line in lines)


PROFILES = {
    "rectangle": rectangle_polygon(1.0, 0.5),
    "ellipse": ellipse_polygon(1.0, 0.5, 32),
    "ishape": ishape_polygon(0.5, 1.0, 0.1, 0.15, 0.05, 32),
    "crane_rail": crane_rail_polygon(0.15, 0.15, 0.07, 0.02, 0.04, 0.03, 0.10, 0.015, 0.03, 0.06),
}
SWEEPS = {"up": (0.0, 0.0, 2.0), "down": (0.0, 0.0, -2.0), "slanted": (0.7, 0.0, 0.7)}


def assert_watertight(mesh):
    """Closed and outward: every directed edge once, its reverse once."""
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    directed = {}
    for a, b in map(tuple, edges):
        directed[(a, b)] = directed.get((a, b), 0) + 1
    assert set(directed.values()) == {1}
    assert all(directed.get((b, a)) == 1 for a, b in directed)
    assert mesh.signed_volume > 0


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_extrusion_is_watertight(profile, sweep):
    assert_watertight(extrude_polygon(PROFILES[profile], np.array(SWEEPS[sweep])))


@pytest.mark.parametrize("segments", [4, 32, 64])
@pytest.mark.parametrize("profile", ["rectangle", "ishape"])
def test_revolution_is_watertight(profile, segments):
    poly = PROFILES[profile] + np.array([2.0, 0.0])
    assert_watertight(revolve_polygon(poly, np.zeros(3), np.array([0.0, 1.0, 0.0]), segments))


@pytest.mark.parametrize("segments", [3, 4, 32, 64])
def test_tube_is_watertight(segments):
    assert_watertight(disk_mesh((0, 0, 0), (3, 1, 0.5), 0.25, segments))


def test_box_is_watertight():
    assert_watertight(box_mesh((0, 0, 0), (2, 3, 4)))


# --- orientation from construction ---------------------------------------------


@pytest.mark.parametrize("winding", [1, -1], ids=["ccw", "cw"])
@pytest.mark.parametrize("sweep", [*SWEEPS.values(), (0.3, -0.7, -0.7)])
def test_extrusions_face_outward(sweep, winding):
    mesh = extrude_polygon(PROFILES["ishape"][::winding], np.array(sweep))
    assert mesh.signed_volume > 0


@pytest.mark.parametrize("winding", [1, -1], ids=["ccw", "cw"])
@pytest.mark.parametrize("side", [1, -1], ids=["left", "right"])
@pytest.mark.parametrize("axis", [(1, 0), (-1, 0), (0, 1), (0, -1)])
def test_revolutions_face_outward(axis, side, winding):
    k = np.array([*axis, 0.0])
    across = np.array([-k[1], k[0]])  # in the plane, perpendicular to the axis
    axis_point = np.array([0.5, -0.25, 0.0])
    poly = PROFILES["ishape"][::winding] + axis_point[:2] + 2.0 * side * across
    assert revolve_polygon(poly, axis_point, k, 16).signed_volume > 0


@pytest.mark.parametrize(
    "axis",
    # along x, the frame's x hint is the axis itself, so it falls back to y
    [(3, 0, 0), (0, 0, 3), (0, 0, -3), (-1, 2, 0.5), (0.1, 0, -2), (-3, 0, 0), (0, 3, 0),
     (0, -3, 0)],
)
def test_tubes_face_outward(axis):
    start = np.array([1.0, -1.0, 0.5])
    mesh = disk_mesh(start, start + axis, 0.25, 16)
    assert mesh.signed_volume > 0
    disk = polygon_area(ellipse_polygon(0.25, 0.25, 16))
    assert mesh.volume == pytest.approx(disk * np.linalg.norm(axis), rel=1e-12)


def test_revolution_without_first_moment_keeps_its_winding():
    # a rectangle centred on the axis sweeps as much volume one way as the
    # other, so no side is outward
    mesh = revolve_polygon(rectangle_polygon(1.0, 0.5), np.zeros(3), np.array([0.0, 1.0, 0.0]), 8)
    index = np.arange(8 * 4).reshape(8, 4)
    built = strip_triangles(index, np.roll(index, -1, axis=0))
    assert mesh.triangles.tolist() == built.reshape(-1, 3).tolist()


# --- differential tests against the array kernel in reference_geometry ------


@settings(max_examples=200, deadline=None)
@given(star_polygons())
def test_ear_clip_matches_reference_on_stars(poly):
    assert ear_clip(poly).tolist() == reference_geometry.ear_clip(poly).tolist()


@settings(max_examples=200, deadline=None)
@given(star_polygons())
def test_ear_clip_matches_reference_on_rounded_stars(poly):
    # radii of 0.05 to 5 on a 0.1 grid: collinear and repeated points
    poly = np.round(poly / 20.0, 1)
    assert ear_clip(poly).tolist() == reference_geometry.ear_clip(poly).tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=40),
        st.lists(st.tuples(*[st.floats(-10.0, 10.0)] * 2), min_size=3, max_size=40),
        # overflow, infinities and NaN, where skipping a run by its box must
        # still agree with testing every point
        st.lists(
            st.tuples(*[st.floats() | st.sampled_from([1e300, -1e300])] * 2),
            min_size=3, max_size=40,
        ),
    )
)
def test_ear_clip_matches_reference_on_self_crossing_rings(ring):
    poly = np.array(ring, dtype=np.float64)
    with np.errstate(all="ignore"):
        expected = reference_geometry.ear_clip(poly)
    assert ear_clip(poly).tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(star_polygons(), star_polygons(max_size=20), st.floats(0.1, 0.9))
def test_ear_clip_matches_reference_on_bridged_rings(outer, hole, shrink):
    hole = hole[::-1] * (shrink * _inradius(outer) / np.linalg.norm(hole, axis=1).max())
    points = np.vstack([outer, hole])
    ring = bridge_holes(points, list(range(len(outer))), [list(range(len(outer), len(points)))])
    poly = points[ring]
    assert ear_clip(poly).tolist() == reference_geometry.ear_clip(poly).tolist()


@pytest.mark.parametrize("segments", [4, 64, 512, 1024])
@pytest.mark.parametrize("outline", ["ellipse", "ishape", "ellipse-and-ishape"])
def test_ear_clip_matches_reference_on_fine_outlines(outline, segments):
    ellipse = ellipse_polygon(2.0, 1.0, segments)
    ishape = ishape_polygon(0.5, 1.0, 0.1, 0.15, 0.05, segments)
    # the last is one ring that runs round the ellipse, then jumps inside it
    # and runs round a smaller I-shape the other way
    rings = {"ellipse": ellipse, "ishape": ishape}
    rings["ellipse-and-ishape"] = np.vstack([ellipse, ishape[::-1] * 0.5])
    poly = rings[outline]
    assert ear_clip(poly).tolist() == reference_geometry.ear_clip(poly).tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=30),
    st.lists(st.tuples(*[st.floats(-0.6, 0.6)] * 3), min_size=30, max_size=30),
    st.lists(st.tuples(*[st.integers(0, 29)] * 3), max_size=40),
)
def test_weld_matches_reference(grid, jitter, triangles):
    # grid points moved by up to 0.6 of the tolerance: near-duplicates that
    # weld on either side of a rounding boundary
    tol = 1e-3
    vertices = (np.array(grid) + np.array(jitter[: len(grid)])) * tol
    triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3) % len(vertices)
    mesh = TriMesh(vertices.copy(), triangles.copy())  # the weld writes into its arrays
    mesh.weld(tol)
    expected_vertices, expected_triangles = reference_geometry.welded(vertices, triangles, tol)
    assert mesh.vertices.tolist() == expected_vertices.tolist()
    assert mesh.triangles.tolist() == expected_triangles.tolist()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-(10**17), 10**17) | st.integers(-3, 3), min_size=3, max_size=12),
    st.lists(st.tuples(*[st.integers(0, 13)] * 3), min_size=1, max_size=40),
    st.lists(st.tuples(*[st.integers(0, 39)] * 3), max_size=40),
)
def test_weld_matches_reference_past_packed_key_values(values, picks, triangles):
    # grid keys from -1e17 to 1e17 on every axis, each drawn from the same
    # few values: a key packed from the values themselves would overflow int64
    tol = 1e-3
    pool = np.array([-(10**17), 10**17, *values], dtype=np.float64)
    vertices = pool[np.array([(0, 0, 0), (1, 1, 1), *picks]) % len(pool)] * tol
    triangles = np.array(triangles, dtype=np.int64).reshape(-1, 3) % len(vertices)
    mesh = TriMesh(vertices.copy(), triangles.copy())  # the weld writes into its arrays
    mesh.weld(tol)
    expected_vertices, expected_triangles = reference_geometry.welded(vertices, triangles, tol)
    assert mesh.vertices.tolist() == expected_vertices.tolist()
    assert mesh.triangles.tolist() == expected_triangles.tolist()


def test_weld_over_many_blocks_matches_reference():
    # sorted keys compared, and triangles remapped, across block boundaries:
    # about 5 in 6 vertices merge, and some triangles collapse
    tol = 1e-3
    rng = np.random.default_rng(5)
    n = 3 * _BLOCK_ROWS + 7
    vertices = (rng.integers(-10, 10, size=(n, 3)) + rng.uniform(-0.4, 0.4, size=(n, 3))) * tol
    triangles = rng.integers(0, n, size=(2 * n, 3))
    mesh = TriMesh(vertices.copy(), triangles.copy())
    mesh.weld(tol)
    expected_vertices, expected_triangles = reference_geometry.welded(vertices, triangles, tol)
    assert len(mesh.triangles) < len(triangles)
    assert mesh.vertices.tolist() == expected_vertices.tolist()
    assert mesh.triangles.tolist() == expected_triangles.tolist()


def _merge_across_blocks(v, tol):
    # equal grid keys on either side of each block boundary
    v[_BLOCK_ROWS] = v[_BLOCK_ROWS - 1] + 0.3 * tol
    v[2 * _BLOCK_ROWS] = v[2 * _BLOCK_ROWS - 1] - 0.3 * tol
    return 2


def _merge_into_an_earlier_block(v, tol):
    # a group kept at its first index, in the first block, whose other
    # (jittered) members are in later blocks
    v[_BLOCK_ROWS + 5] = v[3] + 0.3 * tol
    v[2 * _BLOCK_ROWS + 6] = v[3] - 0.3 * tol
    return 2


def _merge_signed_zeros(v, tol):
    # grid keys of -0.0 and 0.0 are one key: vertex 0 is at the origin
    v[_BLOCK_ROWS + 1] = (-0.0, -0.0, -0.0)
    v[2 * _BLOCK_ROWS + 2] = (-0.4 * tol, 0.0, -0.2 * tol)
    return 2


def _merge_huge_keys(v, tol):
    # grid keys of +-1e17, as in test_weld_matches_reference_past_packed_key_values
    v[7] = v[_BLOCK_ROWS + 7] = np.array([1, -1, 1]) * 1e17 * tol
    v[2 * _BLOCK_ROWS + 7] = np.array([-1, 1, -1]) * 1e17 * tol
    return 1


@pytest.mark.parametrize(
    "merge",
    [_merge_across_blocks, _merge_into_an_earlier_block, _merge_signed_zeros, _merge_huge_keys],
    ids=["across-blocks", "into-an-earlier-block", "signed-zeros", "huge-keys"],
)
def test_weld_ranks_across_blocks_match_reference(merge):
    # distinct grid points over three blocks and a part of one, with a few
    # merged as each case says; some triangles collapse
    tol = 1e-3
    n = 3 * _BLOCK_ROWS + 11
    i = np.arange(n)
    vertices = np.column_stack([i % 97, i // 97 % 89, i // (97 * 89)]) * tol
    merged = merge(vertices, tol)
    triangles = np.random.default_rng(11).integers(0, n, size=(n, 3))
    triangles[:3] = [(_BLOCK_ROWS - 1, _BLOCK_ROWS, 3), (3, _BLOCK_ROWS + 5, 0), (0, 1, 2)]
    mesh = TriMesh(vertices.copy(), triangles.copy())
    mesh.weld(tol)
    expected_vertices, expected_triangles = reference_geometry.welded(vertices, triangles, tol)
    assert len(mesh.vertices) == n - merged
    assert mesh.vertices.tolist() == expected_vertices.tolist()
    assert mesh.triangles.tolist() == expected_triangles.tolist()


def _box_with_a_speck(tol):
    """A unit box and, at its far corner, a box of ``0.4 * tol`` that welding
    collapses onto that corner: the weld moves its bbox, volume and centroid."""
    speck = box_mesh((1, 1, 1), (1 + 0.4 * tol,) * 3)
    return TriMesh.concat([box_mesh((0, 0, 0), (1, 1, 1)), speck])


def _properties(mesh):
    bbox = map(np.ndarray.tolist, mesh.bbox)
    return [*bbox, mesh.signed_volume, mesh.surface_area, mesh.centroid.tolist()]


def test_weld_recomputes_bbox_and_measures():
    mesh = _box_with_a_speck(1e-3)
    before = _properties(mesh)  # cached before the weld
    mesh.weld(1e-3)
    assert (len(mesh.vertices), len(mesh.triangles)) == (8, 12)
    after = _properties(mesh)
    assert after == _properties(TriMesh(mesh.vertices, mesh.triangles))
    assert after[1] == [1.0, 1.0, 1.0]
    assert all(a != b for a, b in zip(after[1:], before[1:]))  # hi, volume, area, centroid


@pytest.mark.parametrize("operation", ["transform", "flip"])
def test_in_place_operations_drop_cached_properties(operation):
    mesh = _box_with_a_speck(1e-3)
    before = _properties(mesh)  # cached before the operation
    if operation == "transform":
        mesh.transform(_placement(range(9), (1.0, -2.0, 3.0)))
    else:
        mesh.flip()
    after = _properties(mesh)
    assert after == _properties(TriMesh(mesh.vertices.copy(), mesh.triangles.copy()))
    assert after != before


def _placement(matrix, offset):
    rotation, _ = np.linalg.qr(np.array(matrix).reshape(3, 3))  # orthogonal even if singular
    m = np.eye(4)
    m[:3, :3], m[:3, 3] = rotation, offset
    return m


def _assert_properties_match_reference(mesh):
    v, t = mesh.vertices, mesh.triangles
    assert mesh.signed_volume == pytest.approx(reference_geometry.signed_volume(v, t), rel=1e-12)
    assert mesh.surface_area == pytest.approx(reference_geometry.surface_area(v, t), rel=1e-12)
    expected = reference_geometry.centroid(v, t)
    assert np.abs(mesh.centroid - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("shape", [(4, 7), (3, 1), (5,), (1,)])
def test_strips_match_reference(shape):
    lower = np.arange(np.prod(shape)).reshape(shape) * 3
    upper = lower + 1
    expected = reference_geometry.strip_triangles(lower, upper)
    assert strip_triangles(lower, upper).tolist() == expected.tolist()


@pytest.mark.parametrize("surface", [False, True], ids=["solid", "surface"])
def test_properties_over_many_blocks_match_reference(surface):
    if surface:
        # a fan in the plane z = 0 has no volume: its centroid is the area centroid
        n = 3 * _BLOCK_ROWS + 1001
        i = np.arange(1, n - 1)
        outline = ellipse_polygon(2.0, 1.0, n) + np.array([5.0, -3.0])
        mesh = TriMesh(np.column_stack([outline, np.zeros(n)]), np.column_stack([0 * i, i, i + 1]))
        assert mesh.signed_volume == 0.0
    else:
        poly = ellipse_polygon(1.0, 0.5, 97) + np.array([3.0, 1.0])
        segments = 3 * _BLOCK_ROWS // (2 * 97) + 1
        mesh = revolve_polygon(poly, np.zeros(3), np.array([0.0, 1.0, 0.0]), segments)
    # several whole blocks and a part of one
    assert len(mesh.triangles) > 3 * _BLOCK_ROWS and len(mesh.triangles) % _BLOCK_ROWS
    _assert_properties_match_reference(mesh)


def test_transform_matches_reference_exactly():
    # small integers and dyadic factors: every product and sum is exact, so
    # the block-wise einsum and the reference's ``@`` give the same bits
    rng = np.random.default_rng(3)
    vertices = rng.integers(-1000, 1000, size=(2 * _BLOCK_ROWS + 5, 3)).astype(np.float64)
    matrix = np.eye(4)
    matrix[:3] = rng.choice([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0], size=(3, 4))
    expected = reference_geometry.transformed(vertices, matrix)
    mesh = TriMesh(vertices, np.zeros((0, 3), dtype=np.int32))
    mesh.transform(matrix)
    assert mesh.vertices.tolist() == expected.tolist()


@settings(max_examples=200, deadline=None)
@given(
    star_polygons(),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.5, 10.0)),
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    st.tuples(*[st.floats(-100.0, 100.0)] * 3),
)
def test_solid_properties_match_reference(poly, sweep, matrix, offset):
    mesh = extrude_polygon(poly, np.array(sweep))
    matrix = _placement(matrix, offset)
    expected = reference_geometry.transformed(mesh.vertices, matrix)
    mesh.transform(matrix)
    assert np.abs(mesh.vertices - expected).max() <= 1e-12 * np.abs(expected).max()
    _assert_properties_match_reference(mesh)


def _exact_volume_and_centroid(vertices, triangles):
    """Signed volume and volume centroid of the float mesh as exact
    fractions: tetrahedra against the origin, with no rounding."""
    six_volume, moment = Fraction(0), [Fraction(0)] * 3
    for corners in vertices[triangles].tolist():
        a, b, c = ([Fraction(x) for x in corner] for corner in corners)
        tet = (
            a[0] * (b[1] * c[2] - b[2] * c[1])
            + a[1] * (b[2] * c[0] - b[0] * c[2])
            + a[2] * (b[0] * c[1] - b[1] * c[0])
        )
        six_volume += tet
        moment = [m + (p + q + r) * tet for m, p, q, r in zip(moment, a, b, c)]
    return six_volume / 6, [m / (4 * six_volume) for m in moment]


def test_solid_far_from_the_origin_matches_an_exact_sum():
    # a small prism 80 units from the origin: tetrahedra against the origin
    # lose about 6e-12 of its volume to cancellation, beyond the 1e-12 that
    # the reference comparison allows
    mesh = extrude_polygon(np.array([[2.6, 2.8], [-2.9, 2.2], [2.9, 2.7]]), np.array([0, 0, 0.5]))
    mesh.transform(_placement(np.eye(3), (0.0, 40.0, 70.0)))
    v, t = mesh.vertices, mesh.triangles
    volume, centroid = _exact_volume_and_centroid(v, t)
    reach = max(map(abs, centroid))
    for got_volume, got_centroid in [
        (reference_geometry.signed_volume(v, t), reference_geometry.centroid(v, t)),
        (mesh.signed_volume, mesh.centroid),
    ]:
        assert abs(Fraction(got_volume) - volume) <= Fraction(1e-13) * abs(volume)
        for got, want in zip(got_centroid.tolist(), centroid):
            assert abs(Fraction(got) - want) <= Fraction(1e-13) * reach


@settings(max_examples=200, deadline=None)
@given(star_polygons(), st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
def test_surface_properties_match_reference(poly, offset):
    # a face in the plane z = 0 has no volume against the origin, exactly:
    # its centroid is the area centroid
    vertices = np.column_stack([poly + offset, np.zeros(len(poly))])
    mesh = TriMesh(vertices, ear_clip(poly))
    assert mesh.signed_volume == 0.0
    _assert_properties_match_reference(mesh)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([0.0, -0.0, 1e-300, -5e-324, 1e300, 123456789.0, 0.1]),
        max_size=90,
    ),
    st.integers(0, 5000),
)
def test_dump_matches_savetxt(coordinates, repeat):
    # repeated rows cross the block boundary of dump_ascii
    vertices = np.array(coordinates[: len(coordinates) // 3 * 3]).reshape(-1, 3)
    triangles = np.arange(len(vertices) // 3 * 3).reshape(-1, 3)
    if len(triangles) and repeat:
        triangles = np.tile(triangles, (repeat // len(triangles) + 1, 1))
    expected, out = io.StringIO(), io.StringIO()
    np.savetxt(expected, np.hstack(reference_geometry.corners(vertices, triangles)), fmt="%.9g")
    TriMesh(vertices, triangles).dump_ascii(out)
    assert out.getvalue() == (expected.getvalue() or "\n")
