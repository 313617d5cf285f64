"""Polygon construction and sweep tessellation for the suite's shapes."""

from __future__ import annotations

import math
from bisect import bisect_left

from .._lazy import lazy
from .mesh import TriMesh, cross3

np = lazy("numpy")  # only evaluating geometry loads numpy

_FACE_CELLS = 1 << 16  # point pairs per block of a face's all-pairs tests


def polygon_area(points: np.ndarray) -> float:
    """Signed shoelace area of a closed 2D polygon (CCW positive)."""
    x, y = points[:, 0], points[:, 1]
    return float(
        (x * np.roll(y, -1) - np.roll(x, -1) * y).sum() / 2.0
    )


def ensure_ccw(points: np.ndarray) -> np.ndarray:
    return points if polygon_area(points) >= 0 else points[::-1].copy()


def ear_clip(points: np.ndarray) -> np.ndarray:
    """Triangulate a simple CCW polygon by ear clipping.

    Each pass clips the first convex corner, counted from vertex 1, whose
    triangle holds no other remaining vertex, so a convex outline comes out
    as the fan ``(0, i, i+1)``. A vertex at one of the triangle's corners
    does not count, so the two ends of a hole's bridge (see
    ``bridge_holes``), each in the ring twice, do not block ears.

    The ring is walked as Python lists, so a small ring pays no array
    overhead. A corner found reflex, or blocked by a point, stays rejected
    until a neighbour of it or that point is clipped, and each pass resumes
    at the first corner that may have changed. The points are held in runs
    of about ``sqrt(n)`` consecutive vertices, so that ``_blocker`` can rule
    out a whole run by its bounding box.
    """
    n = len(points)
    if n < 3:
        raise ValueError("polygon needs at least 3 points")
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    xy = list(zip(xs, ys))
    size = math.isqrt(n)
    runs = [
        _Run(xs[i : i + size], ys[i : i + size], range(i, min(i + size, n)), xy[i : i + size])
        for i in range(0, n, size)
    ]
    live = runs[:]  # the runs that still hold points
    prev, next_ = [n - 1, *range(n - 1)], [*range(1, n), 0]
    first, left = 0, n  # the lowest remaining vertex, whose corner comes last
    rejected = [False] * n  # reflex, or blocked by a point still in the ring
    blocked: dict[tuple[float, float], list[int]] = {}  # point -> corners it blocked
    triangles: list[tuple[int, int, int]] = []
    corner = 1  # where the scan starts: corners go 1, 2, ..., n - 1, then 0
    while left > 3:
        ear = next_[first]  # only collinear candidates remain: clip the first
        while True:
            if not rejected[corner]:
                pa, pb, pc = xy[prev[corner]], xy[corner], xy[next_[corner]]
                (ax, ay), (bx, by), (cx, cy) = pa, pb, pc
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 1e-15:
                    p = _blocker(live, pa, pb, pc)
                    if p is None:
                        ear = corner
                        break
                    blocked.setdefault(p, []).append(corner)
                rejected[corner] = True
            if corner == first:
                break
            corner = next_[corner]
        a, c = prev[ear], next_[ear]
        triangles.append((a, ear, c))
        next_[a], prev[c], next_[ear] = c, a, -1
        left -= 1
        if runs[ear // size].remove(ear):
            live = [run for run in live if run.vertices]
        if ear == first:
            first = c
        # the clipped corner's neighbours and the live corners its point
        # blocked may now be ears; every corner before them stays rejected
        changed = [a, c, *(k for k in blocked.pop(xy[ear], ()) if next_[k] >= 0)]
        for k in changed:
            rejected[k] = False
        corner = min(changed, key=lambda k: n if k == first else k)
    triangles.append((first, next_[first], next_[next_[first]]))
    return np.array(triangles, dtype=np.int32)


class _Run:
    """Consecutive ring vertices still in the ring, their points, and the
    bounding box of the points they started with."""

    __slots__ = ("box", "vertices", "points")

    def __init__(self, xs, ys, vertices, points):
        # min and max skip a NaN unless it comes first; then the box is
        # NaN, and a NaN box never rules its points out
        self.box = (min(xs), max(xs), min(ys), max(ys))
        self.vertices = list(vertices)
        self.points = points

    def remove(self, vertex: int) -> bool:
        """Drop a vertex; True when the run is then empty."""
        at = bisect_left(self.vertices, vertex)
        del self.vertices[at], self.points[at]
        return not self.vertices


def _blocker(runs: list[_Run], pa, pb, pc) -> tuple[float, float] | None:
    """A point of the runs in the closed CCW triangle ``pa``-``pb``-``pc``
    and not at one of its corners, or None.

    Side ``s``-``t`` holds ``p`` when ``(tx - sx) * (py - sy) - (ty - sy) *
    (px - sx) >= 0``. Rounding is monotonic, so that value, computed as
    written, is largest over a box at one corner of it; a run whose box
    fails a side there has no point that passes it.
    """
    (ax, ay), (bx, by), (cx, cy) = pa, pb, pc
    # sides c-a (the chord, which rules out most points), a-b and b-c
    ux, uy, vx, vy, wx, wy = ax - cx, ay - cy, bx - ax, by - ay, cx - bx, cy - by
    # box = (xmin, xmax, ymin, ymax): each side's best corner
    ux_, uy_ = (0 if uy >= 0 else 1), (3 if ux >= 0 else 2)
    vx_, vy_ = (0 if vy >= 0 else 1), (3 if vx >= 0 else 2)
    wx_, wy_ = (0 if wy >= 0 else 1), (3 if wx >= 0 else 2)
    for run in runs:
        box = run.box
        if (
            ux * (box[uy_] - cy) - uy * (box[ux_] - cx) < 0
            or vx * (box[vy_] - ay) - vy * (box[vx_] - ax) < 0
            or wx * (box[wy_] - by) - wy * (box[wx_] - bx) < 0
        ):
            continue
        for p in run.points:
            px, py = p
            if (
                ux * (py - cy) - uy * (px - cx) >= 0
                and vx * (py - ay) - vy * (px - ax) >= 0
                and wx * (py - by) - wy * (px - bx) >= 0
                and p != pa
                and p != pb
                and p != pc
            ):
                return p
    return None


def _cross2(o, p, q):
    """z of ``(p - o) x (q - o)`` for 2D points; arrays broadcast."""
    po, qo = p - o, q - o
    return po[..., 0] * qo[..., 1] - po[..., 1] * qo[..., 0]


def _crossing(p, q, a, b):
    """Whether segment ``p-q`` crosses segment ``a-b`` at a point inside
    both; arrays broadcast."""
    return (_cross2(p, q, a) * _cross2(p, q, b) < 0) & (
        _cross2(a, b, p) * _cross2(a, b, q) < 0
    )


def _blocks(rows: int, columns: int):
    """Slices of ``range(rows)`` whose blocks hold about ``_FACE_CELLS``
    cells of a rows x columns test, so its memory does not grow with the
    square of a face's points."""
    step = max(1, _FACE_CELLS // max(1, columns))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _inside(points: np.ndarray, ring: np.ndarray) -> bool:
    """Whether every 2D point lies inside a closed 2D ring (crossing count)."""
    a, b = ring[None, :, :], np.roll(ring, -1, axis=0)[None, :, :]
    for rows in _blocks(len(points), len(ring)):
        p = points[rows, None, :]
        spans = (a[..., 1] > p[..., 1]) != (b[..., 1] > p[..., 1])
        # a spanning edge crosses the ray to +x when p is left of it going up
        crosses = spans & ((_cross2(a, b, p) > 0) == (b[..., 1] > a[..., 1]))
        if not (crosses.sum(axis=1) % 2 == 1).all():
            return False
    return True


def _touching(points: np.ndarray, following: np.ndarray, loop_of: np.ndarray) -> bool:
    """Whether a 2D point lies on an edge ``points[i]``-``following[i]`` of
    another loop, to within 1e-9 of the longest edge."""
    edge = following - points
    length = np.sqrt((edge**2).sum(axis=1))[:, None]
    slack = 1e-9 * length.max() * length
    for rows in _blocks(len(points), len(points)):  # a block of edges
        span, tol = length[rows], slack[rows]
        off = abs(_cross2(points[rows, None], following[rows, None], points))  # length x distance
        along = ((points - points[rows, None]) * edge[rows, None]).sum(axis=2)  # length x position
        on_edge = (off <= tol) & (-tol <= along) & (along <= span**2 + tol)
        if (on_edge & (span > 0) & (loop_of[rows, None] != loop_of)).any():
            return True
    return False


def bridge_holes(points: np.ndarray, ring: list[int], holes: list[list[int]]) -> list[int]:
    """One ring of indices into the 2D ``points`` that runs along the CCW
    outer ``ring`` and, over a bridge walked both ways, around each CW hole.

    Holes are joined rightmost first, each from its rightmost vertex to the
    nearest ring vertex it sees (Eberly, "Triangulation by Ear Clipping",
    2002): the bridge leaves that vertex into the polygon and meets no edge
    and no other vertex. The bridge's two ends appear twice in the result.
    """
    holes = sorted(holes, key=lambda hole: -points[hole, 0].max())
    for h, hole in enumerate(holes):
        start = int(np.argmax(points[hole, 0]))
        hole = hole[start:] + hole[:start]
        m = points[hole[0]]
        loops = [ring, *holes[h:]]
        edge_a = points[np.concatenate(loops)]
        edge_b = points[np.concatenate([loop[1:] + loop[:1] for loop in loops])]
        order = np.argsort(((points[ring] - m) ** 2).sum(axis=1), kind="stable")
        for j in order:
            v = points[ring[j]]
            prev, nxt = points[ring[j - 1]], points[ring[(j + 1) % len(ring)]]
            # the bridge must leave v into the polygon: left of the edges at v
            left_in, left_out = _cross2(prev, v, m) > 0, _cross2(v, nxt, m) > 0
            convex = _cross2(prev, v, nxt) > 0
            if not (left_in and left_out if convex else left_in or left_out):
                continue
            between = ((edge_a - m) * (edge_a - v)).sum(axis=1) < 0
            on_bridge = (_cross2(m, v, edge_a) == 0) & between
            if not (_crossing(m, v, edge_a, edge_b).any() or on_bridge.any()):
                ring = ring[: j + 1] + hole + hole[:1] + ring[j:]
                break
        else:
            raise ValueError("inner bound has no bridge to the outer bound")
    return ring


def _newell(loop: np.ndarray) -> tuple[np.ndarray, float]:
    """Newell normal of a 3D loop (twice its vector area) and the largest
    coordinate step along its edges, the loop's scale."""
    following = np.concatenate([loop[1:], loop[:1]])
    step, total = loop - following, loop + following
    return (step[:, [1, 2, 0]] * total[:, [2, 0, 1]]).sum(axis=0), abs(step).max()


def triangulate_face(loops: list[np.ndarray], outer: int | None) -> np.ndarray:
    """Triangles of a planar face, as indices into its loops' vertices taken
    in order, each loop an ``(n, 3)`` array in its own winding.

    The outer loop is ``loops[outer]``, or the one with the longest Newell
    normal when ``outer`` is None; its winding gives the face's normal. The
    face is projected onto the plane of that normal, each inner loop is
    wound opposite to the outer one and bridged into it, and ``ear_clip``
    triangulates the merged ring, so no vertex is added and a convex face
    without holes comes out as the fan ``(0, i, i+1)``. Raises ValueError
    for a loop of fewer than 3 points, a loop without area, edges that
    cross, loops that touch, and an inner loop outside the outer one.
    """
    if not loops:
        raise ValueError("face has no bounds")
    normals, rings, start = [], [], 0
    for loop in loops:
        if len(loop) < 3:
            raise ValueError(f"bound has {len(loop)} point(s), fewer than 3")
        normal, scale = _newell(loop)
        if normal @ normal <= (1e-12 * scale * scale) ** 2:
            raise ValueError("bound has zero projected area")
        normals.append(normal)
        rings.append(list(range(start, start + len(loop))))
        start += len(loop)
    if outer is None:
        outer = max(range(len(loops)), key=lambda i: normals[i] @ normals[i])
    w = normals[outer] / np.linalg.norm(normals[outer])
    u = cross3(w, np.eye(3)[np.argmin(abs(w))])
    u /= np.linalg.norm(u)
    # (u, v, w) right-handed; einsum, as for every point transform, not BLAS
    points = np.einsum("ij,kj->ik", np.vstack(loops), [u, cross3(w, u)])

    holes = [
        ring if normals[i] @ normals[outer] < 0 else ring[::-1]
        for i, ring in enumerate(rings)
        if i != outer
    ]
    # every edge against every other: edges that share a vertex do not cross
    following = points[sum((ring[1:] + ring[:1] for ring in rings), [])]
    if any(
        _crossing(points[rows, None], following[rows, None], points, following).any()
        for rows in _blocks(len(points), len(points))
    ):
        raise ValueError("bound edges cross")
    if holes:
        # touching bounds, such as windows sharing an edge, would make the
        # bridged ring overlap itself
        loop_of = np.repeat(np.arange(len(rings)), [len(ring) for ring in rings])
        if _touching(points, following, loop_of):
            raise ValueError("bounds touch")
        if not _inside(points[sum(holes, [])], points[rings[outer]]):
            raise ValueError("inner bound lies outside the outer bound")
    merged = np.array(bridge_holes(points, rings[outer], holes), dtype=np.int32)
    return merged[ear_clip(points[merged])]


def rectangle_polygon(x_dim: float, y_dim: float) -> np.ndarray:
    hx, hy = x_dim / 2.0, y_dim / 2.0
    return np.array([(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)])


def ellipse_polygon(semi1: float, semi2: float, segments: int) -> np.ndarray:
    cos, sin = _cos_sin(np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False))
    return np.column_stack([semi1 * cos, semi2 * sin])


def _cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosines and sines from ``math``, one angle at a time, so that vertices
    do not depend on numpy's vectorised trigonometry."""
    return (
        np.fromiter(map(math.cos, angles), np.float64, len(angles)),
        np.fromiter(map(math.sin, angles), np.float64, len(angles)),
    )


def _fillet_arc(
    center: np.ndarray, radius: float, start_angle: float, end_angle: float, steps: int
) -> np.ndarray:
    cos, sin = _cos_sin(np.linspace(start_angle, end_angle, steps + 1))
    return np.column_stack([center[0] + radius * cos, center[1] + radius * sin])


def ishape_polygon(
    width: float,
    depth: float,
    web: float,
    flange: float,
    fillet: float,
    segments: int,
) -> np.ndarray:
    """I-profile outline (CCW) with the four web-flange fillets tessellated
    at the same angular density as full circles."""
    hw, hd, hweb = width / 2.0, depth / 2.0, web / 2.0
    inner_y = hd - flange  # |y| of the flange inner face
    steps = max(1, segments // 4)

    def arc(cx, cy, a0, a1):
        return _fillet_arc(np.array([cx, cy]), fillet, a0, a1, steps)

    return np.vstack([
        # CCW from bottom-left outer corner
        [(-hw, -hd), (hw, -hd), (hw, -inner_y)],
        # bottom-right fillet: concave corner at (hweb, -inner_y)
        arc(hweb + fillet, -inner_y + fillet, 1.5 * math.pi, math.pi),
        # top-right fillet: concave corner at (hweb, inner_y)
        arc(hweb + fillet, inner_y - fillet, math.pi, 0.5 * math.pi),
        [(hw, inner_y), (hw, hd), (-hw, hd), (-hw, inner_y)],
        # top-left fillet
        arc(-hweb - fillet, inner_y - fillet, 0.5 * math.pi, 0.0),
        # bottom-left fillet
        arc(-hweb - fillet, -inner_y + fillet, 0.0, -0.5 * math.pi),
        [(-hw, -inner_y)],
    ])


def crane_rail_polygon(
    overall_height: float,
    base_width: float,
    head_width: float,
    head_depth_2: float,
    head_depth_3: float,
    web_thickness: float,
    base_width_4: float,
    base_depth_1: float,
    base_depth_2: float,
    base_depth_3: float,
) -> np.ndarray:
    """Piecewise-linear A-shape rail outline, symmetric about x=0, base at
    y=0 and head at y=overall_height (rounded head corners are ignored)."""
    h = overall_height
    right = [
        (base_width / 2.0, 0.0),
        (base_width / 2.0, base_depth_1),
        (base_width_4 / 2.0, base_depth_2),
        (web_thickness / 2.0, base_depth_3),
        (web_thickness / 2.0, h - head_depth_3),
        (head_width / 2.0, h - head_depth_2),
        (head_width / 2.0, h),
    ]
    left = [(-x, y) for x, y in reversed(right)]
    return np.array(right + left)


def strip_triangles(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Side walls between rings of vertex indices, shape ``(..., n)`` each.

    The quad between vertices i and j = i+1 (cyclic) of ``lower`` and i', j'
    of ``upper`` becomes ``(i, j, j')`` and ``(i, j', i')``; the result has
    shape ``(..., n, 2, 3)``, quads in ring order.
    """
    tris = np.empty((*lower.shape, 2, 3), dtype=np.int32)
    tris[..., 0] = lower[..., None]  # i, in both triangles
    tris[..., :-1, 0, 1] = lower[..., 1:]  # j
    tris[..., -1, 0, 1] = lower[..., 0]
    tris[..., :-1, 0, 2] = upper[..., 1:]  # j'
    tris[..., -1, 0, 2] = upper[..., 0]
    tris[..., 1, 1] = tris[..., 0, 2]
    tris[..., 1, 2] = upper  # i'
    return tris


def extrude_polygon(polygon: np.ndarray, sweep: np.ndarray) -> TriMesh:
    """Prism swept from a polygon in the z=0 plane along ``sweep``.

    The polygon is made counter-clockwise for the caps, so the mesh faces
    outward when the sweep rises and is flipped when it falls.
    """
    polygon = ensure_ccw(np.asarray(polygon, dtype=np.float64))
    sweep = np.asarray(sweep, dtype=np.float64)
    n = len(polygon)
    base = np.column_stack([polygon, np.zeros(n)])
    top = base + sweep
    caps = ear_clip(polygon)
    ring = np.arange(n)
    tris = np.vstack([
        caps[:, [0, 2, 1]],  # bottom, reversed
        caps + n,  # top
        strip_triangles(ring, ring + n).reshape(-1, 3),
    ])
    mesh = TriMesh(np.vstack([base, top]), tris)
    if sweep[2] < 0:
        mesh.flip()
    return mesh


def revolve_polygon(
    polygon: np.ndarray,
    axis_point: np.ndarray,
    axis_dir: np.ndarray,
    segments: int,
) -> TriMesh:
    """Full-sweep solid of revolution of a polygon in the z=0 plane about an
    axis lying in that plane, through ``axis_point`` along the unit vector
    ``axis_dir``.

    The strips enclose a volume of the sign opposite to the profile's first
    moment about the axis, so the mesh is flipped when that moment is
    positive; a profile without one keeps the winding it is built with."""
    polygon = np.asarray(polygon, dtype=np.float64)
    axis_point = np.asarray(axis_point, dtype=np.float64)
    k = np.asarray(axis_dir, dtype=np.float64)

    # Rodrigues' rotation of every ring at once, one ring per angle
    p = np.column_stack([polygon, np.zeros(len(polygon))]) - axis_point
    cos, sin = _cos_sin(2.0 * math.pi * np.arange(segments) / segments)
    cos, sin = cos[:, None, None], sin[:, None, None]
    # summed in place, in the formula's order: one term's temporary at a time
    rings = p * cos
    rings += cross3(k, p.T).T * sin
    rings += np.outer(np.einsum("ij,j->i", p, k), k) * (1.0 - cos)
    rings += axis_point
    index = np.arange(segments * len(p), dtype=np.int32).reshape(segments, len(p))
    tris = strip_triangles(index, np.roll(index, -1, axis=0))
    mesh = TriMesh(rings.reshape(-1, 3), tris.reshape(-1, 3))
    # six times the sum of (centroid x k)_z times area over the triangles
    # (axis point, p_i, p_i+1)
    x, y = p[:, 0], p[:, 1]
    x2, y2 = np.roll(x, -1), np.roll(y, -1)
    moment = (((x + x2) * k[1] - (y + y2) * k[0]) * (x * y2 - x2 * y)).sum()
    if moment > 0:
        mesh.flip()
    return mesh
