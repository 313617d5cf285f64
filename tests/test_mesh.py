import io
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifcaudit.geomcheck.mesh import TriMesh
from ifcaudit.geomcheck.tessellate import (
    box_mesh,
    bridge_holes,
    crane_rail_polygon,
    ear_clip,
    ellipse_polygon,
    extrude_polygon,
    ishape_polygon,
    polygon_area,
    rectangle_polygon,
    revolve_polygon,
    triangulate_face,
    tube_mesh,
)
import reference_geometry
from oracles import column_volume, ishape_area, shoelace_area
from tests_helpers import wall_face


def test_box_properties():
    mesh = box_mesh((0, 0, 0), (2, 3, 4))
    assert mesh.volume == pytest.approx(24.0, abs=1e-12)
    assert mesh.surface_area == pytest.approx(2 * (6 + 8 + 12), abs=1e-12)
    assert np.allclose(mesh.centroid, [1.0, 1.5, 2.0])
    lo, hi = mesh.bbox
    assert np.allclose(lo, [0, 0, 0]) and np.allclose(hi, [2, 3, 4])
    assert mesh.signed_volume > 0  # outward orientation


def test_volume_against_column_oracle_box():
    mesh = box_mesh((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    oracle = column_volume(mesh.vertices, mesh.triangles, n=64)
    assert mesh.volume == pytest.approx(oracle, rel=0.05)


def test_flip_negates_signed_volume():
    mesh = box_mesh((0, 0, 0), (1, 1, 1))
    assert mesh.flipped().signed_volume == pytest.approx(-mesh.signed_volume)


def test_weld_merges_duplicate_vertices():
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)]
    tris = [(0, 1, 2), (3, 1, 2)]
    mesh = TriMesh(verts, tris).welded(1e-6)
    assert len(mesh.vertices) == 3


def test_weld_drops_collapsed_triangles():
    verts = [(0, 0, 0), (1e-9, 0, 0), (0, 1, 0)]
    mesh = TriMesh(verts, [(0, 1, 2)]).welded(1e-6)
    assert len(mesh.triangles) == 0


def test_index_range_validation():
    with pytest.raises(ValueError):
        TriMesh([(0, 0, 0)], [(0, 1, 2)])


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
    mesh = tube_mesh(np.zeros(3), np.array([3.0, 0.0, 0.0]), 0.25, 64)
    assert mesh.volume == pytest.approx(math.pi * 0.25**2 * 3, rel=0.02)
    oracle = column_volume(mesh.vertices, mesh.triangles, n=100)
    assert mesh.volume == pytest.approx(oracle, rel=0.05)


def test_ellipse_refinement_monotone():
    areas = [abs(polygon_area(ellipse_polygon(1.0, 0.5, n))) for n in (16, 32, 64, 128)]
    target = math.pi * 0.5
    errors = [abs(a - target) for a in areas]
    assert errors == sorted(errors, reverse=True)


def test_dump_ascii_format():
    mesh = box_mesh((0, 0, 0), (1, 1, 1))
    text = mesh.dump_ascii()
    lines = text.strip().splitlines()
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


@pytest.mark.parametrize("segments", [4, 32, 64])
def test_tube_is_watertight(segments):
    assert_watertight(tube_mesh(np.zeros(3), np.array([3.0, 1.0, 0.5]), 0.25, segments))


def test_box_is_watertight():
    assert_watertight(box_mesh((0, 0, 0), (2, 3, 4)))


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
    mesh = TriMesh(vertices, triangles).welded(tol)
    expected_vertices, expected_triangles = reference_geometry.welded(vertices, triangles, tol)
    assert mesh.vertices.tolist() == expected_vertices.tolist()
    assert mesh.triangles.tolist() == expected_triangles.tolist()


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


@settings(max_examples=200, deadline=None)
@given(
    star_polygons(),
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(0.5, 10.0)),
    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
    st.tuples(*[st.floats(-100.0, 100.0)] * 3),
)
def test_solid_properties_match_reference(poly, sweep, matrix, offset):
    local = extrude_polygon(poly, np.array(sweep))
    matrix = _placement(matrix, offset)
    mesh = local.transformed(matrix)
    expected = reference_geometry.transformed(local.vertices, matrix)
    assert np.abs(mesh.vertices - expected).max() <= 1e-12 * np.abs(expected).max()
    _assert_properties_match_reference(mesh)


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
    mesh = TriMesh(vertices, triangles)
    out = io.StringIO()
    np.savetxt(out, np.hstack(reference_geometry.corners(vertices, triangles)), fmt="%.9g")
    assert mesh.dump_ascii() == (out.getvalue() or "\n")
