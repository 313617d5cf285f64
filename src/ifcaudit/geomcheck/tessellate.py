"""Polygon construction and sweep tessellation for the suite's shapes."""

from __future__ import annotations

import math

import numpy as np

from .mesh import TriMesh


def polygon_area(points: np.ndarray) -> float:
    """Signed shoelace area of a closed 2D polygon (CCW positive)."""
    x, y = points[:, 0], points[:, 1]
    return float(
        (x * np.roll(y, -1) - np.roll(x, -1) * y).sum() / 2.0
    )


def ensure_ccw(points: np.ndarray) -> np.ndarray:
    return points if polygon_area(points) >= 0 else points[::-1].copy()


def ear_clip(points: np.ndarray) -> np.ndarray:
    """Triangulate a simple CCW polygon by ear clipping."""
    n = len(points)
    if n < 3:
        raise ValueError("polygon needs at least 3 points")
    indices = list(range(n))
    triangles: list[tuple[int, int, int]] = []

    def cross_z(o, a, b) -> float:
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def contains(a, b, c, p) -> bool:
        d1 = cross_z(a, b, p)
        d2 = cross_z(b, c, p)
        d3 = cross_z(c, a, p)
        neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
        pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
        return not (neg and pos)

    guard = 0
    while len(indices) > 3:
        guard += 1
        if guard > n * n + 10:
            raise ValueError("ear clipping failed; polygon not simple?")
        ear_found = False
        m = len(indices)
        for k in range(m):
            i_prev, i_cur, i_next = indices[k - 1], indices[k], indices[(k + 1) % m]
            a, b, c = points[i_prev], points[i_cur], points[i_next]
            if cross_z(a, b, c) <= 1e-15:
                continue
            if any(
                contains(a, b, c, points[j])
                for j in indices
                if j not in (i_prev, i_cur, i_next)
            ):
                continue
            triangles.append((i_prev, i_cur, i_next))
            indices.pop(k)
            ear_found = True
            break
        if not ear_found:
            # only collinear candidates remain; clip them to terminate
            triangles.append((indices[0], indices[1], indices[2]))
            indices.pop(1)
    triangles.append((indices[0], indices[1], indices[2]))
    return np.array(triangles, dtype=np.int64)


def rectangle_polygon(x_dim: float, y_dim: float) -> np.ndarray:
    hx, hy = x_dim / 2.0, y_dim / 2.0
    return np.array([(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)])


def ellipse_polygon(semi1: float, semi2: float, segments: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    return np.column_stack([semi1 * np.cos(theta), semi2 * np.sin(theta)])


def _fillet_arc(
    center: np.ndarray, radius: float, start_angle: float, end_angle: float, steps: int
) -> list[tuple[float, float]]:
    angles = np.linspace(start_angle, end_angle, steps + 1)
    return [
        (center[0] + radius * math.cos(a), center[1] + radius * math.sin(a))
        for a in angles
    ]


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
    pts: list[tuple[float, float]] = []

    def arc(cx, cy, a0, a1):
        pts.extend(_fillet_arc(np.array([cx, cy]), fillet, a0, a1, steps))

    # CCW from bottom-left outer corner
    pts.append((-hw, -hd))
    pts.append((hw, -hd))
    pts.append((hw, -inner_y))
    # bottom-right fillet: concave corner at (hweb, -inner_y)
    arc(hweb + fillet, -inner_y + fillet, 1.5 * math.pi, math.pi)
    # top-right fillet: concave corner at (hweb, inner_y)
    arc(hweb + fillet, inner_y - fillet, math.pi, 0.5 * math.pi)
    pts.append((hw, inner_y))
    pts.append((hw, hd))
    pts.append((-hw, hd))
    pts.append((-hw, inner_y))
    # top-left fillet
    arc(-hweb - fillet, inner_y - fillet, 0.5 * math.pi, 0.0)
    # bottom-left fillet
    arc(-hweb - fillet, -inner_y + fillet, 0.0, -0.5 * math.pi)
    pts.append((-hw, -inner_y))
    return np.array(pts)


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


def cap_triangles(polygon: np.ndarray) -> np.ndarray:
    """Triangulation of a cap; fan for convex outlines, ear clipping else."""
    n = len(polygon)
    nxt = np.roll(polygon, -1, axis=0)
    prv = np.roll(polygon, 1, axis=0)
    cross = (polygon[:, 0] - prv[:, 0]) * (nxt[:, 1] - polygon[:, 1]) - (
        polygon[:, 1] - prv[:, 1]
    ) * (nxt[:, 0] - polygon[:, 0])
    if (cross >= -1e-12).all():
        return np.array([(0, i, i + 1) for i in range(1, n - 1)], dtype=np.int64)
    return ear_clip(polygon)


def extrude_polygon(polygon: np.ndarray, sweep: np.ndarray) -> TriMesh:
    """Prism swept from a CCW polygon in the z=0 plane along ``sweep``.

    The sweep vector must have a positive z component for outward
    orientation; callers flip the polygon for downward sweeps.
    """
    polygon = ensure_ccw(np.asarray(polygon, dtype=np.float64))
    n = len(polygon)
    base = np.column_stack([polygon, np.zeros(n)])
    top = base + np.asarray(sweep, dtype=np.float64)
    vertices = np.vstack([base, top])
    caps = cap_triangles(polygon)
    tris: list[tuple[int, int, int]] = []
    tris.extend((a, c, b) for a, b, c in caps)  # bottom, reversed
    tris.extend((a + n, b + n, c + n) for a, b, c in caps)  # top
    for i in range(n):
        j = (i + 1) % n
        tris.append((i, j, j + n))
        tris.append((i, j + n, i + n))
    return TriMesh(vertices, np.array(tris, dtype=np.int64)).oriented_outward()


def revolve_polygon(
    polygon: np.ndarray,
    axis_point: np.ndarray,
    axis_dir: np.ndarray,
    segments: int,
) -> TriMesh:
    """Full-sweep solid of revolution of a polygon in the z=0 plane about an
    axis lying in that plane."""
    polygon = ensure_ccw(np.asarray(polygon, dtype=np.float64))
    pts3 = np.column_stack([polygon, np.zeros(len(polygon))])
    axis_point = np.asarray(axis_point, dtype=np.float64)
    axis_dir = np.asarray(axis_dir, dtype=np.float64)
    axis_dir = axis_dir / np.linalg.norm(axis_dir)

    n = len(polygon)
    rings = []
    for k in range(segments):
        theta = 2.0 * math.pi * k / segments
        rings.append(_rotate_about_axis(pts3, axis_point, axis_dir, theta))
    vertices = np.vstack(rings)
    tris: list[tuple[int, int, int]] = []
    for k in range(segments):
        k2 = (k + 1) % segments
        for i in range(n):
            j = (i + 1) % n
            a = k * n + i
            b = k * n + j
            c = k2 * n + j
            d = k2 * n + i
            tris.append((a, b, c))
            tris.append((a, c, d))
    return TriMesh(vertices, np.array(tris, dtype=np.int64)).oriented_outward()


def _rotate_about_axis(
    points: np.ndarray, origin: np.ndarray, direction: np.ndarray, theta: float
) -> np.ndarray:
    p = points - origin
    k = direction
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rotated = (
        p * cos_t
        + np.cross(np.broadcast_to(k, p.shape), p) * sin_t
        + np.outer(p @ k, k) * (1.0 - cos_t)
    )
    return rotated + origin


def tube_mesh(
    start: np.ndarray, end: np.ndarray, radius: float, segments: int
) -> TriMesh:
    """Capped straight tube (swept disk along a straight directrix)."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    axis = end - start
    length = np.linalg.norm(axis)
    if length == 0:
        raise ValueError("degenerate directrix")
    axis = axis / length
    # build an orthonormal frame around the axis
    helper = np.array([0.0, 0.0, 1.0])
    if abs(axis @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, helper)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)

    theta = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    circle = radius * (np.outer(np.cos(theta), u) + np.outer(np.sin(theta), v))
    ring_a = start + circle
    ring_b = end + circle
    vertices = np.vstack([ring_a, ring_b, start[None, :], end[None, :]])
    ca, cb = 2 * segments, 2 * segments + 1
    tris: list[tuple[int, int, int]] = []
    for i in range(segments):
        j = (i + 1) % segments
        tris.append((i, j, segments + j))
        tris.append((i, segments + j, segments + i))
        tris.append((ca, j, i))  # start cap
        tris.append((cb, segments + i, segments + j))  # end cap
    return TriMesh(vertices, np.array(tris, dtype=np.int64)).oriented_outward()


def box_mesh(minimum, maximum) -> TriMesh:
    x0, y0, z0 = minimum
    x1, y1, z1 = maximum
    vertices = np.array(
        [
            (x0, y0, z0), (x1, y0, z0), (x1, y1, z0), (x0, y1, z0),
            (x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1),
        ]
    )
    quads = [
        (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ]
    tris = []
    for a, b, c, d in quads:
        tris.append((a, b, c))
        tris.append((a, c, d))
    return TriMesh(vertices, np.array(tris, dtype=np.int64))
