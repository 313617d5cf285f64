"""Polygon construction and sweep tessellation for the suite's shapes."""

from __future__ import annotations

import math

from .._lazy import lazy
from .mesh import TriMesh

np = lazy("numpy")  # only evaluating geometry loads numpy


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
    as the fan ``(0, i, i+1)``.
    """
    n = len(points)
    if n < 3:
        raise ValueError("polygon needs at least 3 points")
    x, y = points[:, 0], points[:, 1]
    remaining = np.arange(n)
    triangles: list[tuple[int, int, int]] = []
    while len(remaining) > 3:
        # corner k is remaining[k + 1], between remaining[k] and remaining[k + 2]
        a, b, c = remaining, np.roll(remaining, -1), np.roll(remaining, -2)
        ax, ay, bx, by, cx, cy = x[a], y[a], x[b], y[b], x[c], y[c]
        turn = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        ear = 0  # only collinear candidates remain: clip the first to terminate
        for k in np.flatnonzero(turn > 1e-15):
            d1 = (bx[k] - ax[k]) * (ay - ay[k]) - (by[k] - ay[k]) * (ax - ax[k])
            d2 = (cx[k] - bx[k]) * (ay - by[k]) - (cy[k] - by[k]) * (ax - bx[k])
            d3 = (ax[k] - cx[k]) * (ay - cy[k]) - (ay[k] - cy[k]) * (ax - cx[k])
            inside = ~(((d1 < 0) | (d2 < 0) | (d3 < 0)) & ((d1 > 0) | (d2 > 0) | (d3 > 0)))
            inside[[k, (k + 1) % len(a), (k + 2) % len(a)]] = False
            if not inside.any():
                ear = k
                break
        triangles.append((a[ear], b[ear], c[ear]))
        remaining = np.delete(remaining, (ear + 1) % len(a))
    triangles.append(tuple(remaining))
    return np.array(triangles, dtype=np.int64)


def rectangle_polygon(x_dim: float, y_dim: float) -> np.ndarray:
    hx, hy = x_dim / 2.0, y_dim / 2.0
    return np.array([(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)])


def ellipse_polygon(semi1: float, semi2: float, segments: int) -> np.ndarray:
    theta = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    return np.column_stack([semi1 * np.cos(theta), semi2 * np.sin(theta)])


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
    i, j = lower, np.roll(lower, -1, axis=-1)
    i2, j2 = upper, np.roll(upper, -1, axis=-1)
    return np.stack([np.stack([i, j, j2], -1), np.stack([i, j2, i2], -1)], -2)


def extrude_polygon(polygon: np.ndarray, sweep: np.ndarray) -> TriMesh:
    """Prism swept from a polygon in the z=0 plane along ``sweep``.

    The polygon is made counter-clockwise for the caps; the finished mesh
    is oriented outward whichever way the sweep points.
    """
    polygon = ensure_ccw(np.asarray(polygon, dtype=np.float64))
    n = len(polygon)
    base = np.column_stack([polygon, np.zeros(n)])
    top = base + np.asarray(sweep, dtype=np.float64)
    caps = ear_clip(polygon)
    ring = np.arange(n)
    tris = np.vstack([
        caps[:, [0, 2, 1]],  # bottom, reversed
        caps + n,  # top
        strip_triangles(ring, ring + n).reshape(-1, 3),
    ])
    return TriMesh(np.vstack([base, top]), tris).oriented_outward()


def revolve_polygon(
    polygon: np.ndarray,
    axis_point: np.ndarray,
    axis_dir: np.ndarray,
    segments: int,
) -> TriMesh:
    """Full-sweep solid of revolution of a polygon in the z=0 plane about an
    axis lying in that plane."""
    polygon = np.asarray(polygon, dtype=np.float64)
    axis_point = np.asarray(axis_point, dtype=np.float64)
    axis_dir = np.asarray(axis_dir, dtype=np.float64)
    k = axis_dir / np.linalg.norm(axis_dir)

    # Rodrigues' rotation of every ring at once, one ring per angle
    p = np.column_stack([polygon, np.zeros(len(polygon))]) - axis_point
    cos, sin = _cos_sin(2.0 * math.pi * np.arange(segments) / segments)
    cos, sin = cos[:, None, None], sin[:, None, None]
    rings = (
        p * cos
        + np.cross(np.broadcast_to(k, p.shape), p) * sin
        + np.outer(p @ k, k) * (1.0 - cos)
    ) + axis_point
    index = np.arange(segments * len(p)).reshape(segments, len(p))
    tris = strip_triangles(index, np.roll(index, -1, axis=0))
    return TriMesh(rings.reshape(-1, 3), tris.reshape(-1, 3)).oriented_outward()


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
    i = np.arange(segments)
    j = np.roll(i, -1)
    start_cap = np.stack([np.full_like(i, 2 * segments), j, i], -1)
    end_cap = np.stack([np.full_like(i, 2 * segments + 1), i + segments, j + segments], -1)
    caps = np.stack([start_cap, end_cap], -2)
    tris = np.concatenate([strip_triangles(i, i + segments), caps], axis=1)
    return TriMesh(vertices, tris.reshape(-1, 3)).oriented_outward()


def box_mesh(minimum, maximum) -> TriMesh:
    x0, y0, z0 = minimum
    x1, y1, z1 = maximum
    vertices = np.array(
        [
            (x0, y0, z0), (x1, y0, z0), (x1, y1, z0), (x0, y1, z0),
            (x0, y0, z1), (x1, y0, z1), (x1, y1, z1), (x0, y1, z1),
        ]
    )
    quads = np.array([
        (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
        (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
    ])
    tris = np.stack([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]], axis=1)
    return TriMesh(vertices, tris.reshape(-1, 3))
