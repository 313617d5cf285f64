"""Reference geometry kernel for differential tests.

Array versions of the mesh kernel: ``ear_clip`` re-slices numpy arrays on
every pass, ``welded`` keys vertices with ``np.unique(axis=0)``, the mesh
properties gather the corners once per property with ``np.cross``, and
``transformed`` multiplies with ``@``. The library's list-walk ear clipping,
lexsort weld, one-pass properties and einsum transform must agree with
them: the same triangles and vertices, and properties within 1e-12.
"""

from __future__ import annotations

import numpy as np


def ear_clip(points: np.ndarray) -> np.ndarray:
    n = len(points)
    if n < 3:
        raise ValueError("polygon needs at least 3 points")
    x, y = points[:, 0], points[:, 1]
    z = x + 1j * y  # one value per point, to find a corner's copies
    remaining = np.arange(n)
    triangles: list[tuple[int, int, int]] = []
    while len(remaining) > 3:
        # corner k is remaining[k + 1], between remaining[k] and remaining[k + 2]
        a = remaining
        b = np.concatenate([a[1:], a[:1]])
        c = np.concatenate([a[2:], a[:2]])
        ax, ay, bx, by, cx, cy, za = x[a], y[a], x[b], y[b], x[c], y[c], z[a]
        turn = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        ear = 0  # only collinear candidates remain: clip the first to terminate
        for k in np.flatnonzero(turn > 1e-15):
            d1 = (bx[k] - ax[k]) * (ay - ay[k]) - (by[k] - ay[k]) * (ax - ax[k])
            d2 = (cx[k] - bx[k]) * (ay - by[k]) - (cy[k] - by[k]) * (ax - bx[k])
            d3 = (ax[k] - cx[k]) * (ay - cy[k]) - (ay[k] - cy[k]) * (ax - cx[k])
            # in the closed (counter-clockwise) triangle, and not at a corner
            inside = (d1 >= 0) & (d2 >= 0) & (d3 >= 0)
            inside &= (za != za[k]) & (za != z[b[k]]) & (za != z[c[k]])
            if not inside.any():
                ear = k
                break
        triangles.append((a[ear], b[ear], c[ear]))
        clipped = (ear + 1) % len(a)
        remaining = np.concatenate([a[:clipped], a[clipped + 1 :]])
    triangles.append(tuple(remaining))
    return np.array(triangles, dtype=np.int64)


def welded(vertices: np.ndarray, triangles: np.ndarray, tol: float):
    """Vertices and triangles after merging vertices closer than ``tol``."""
    keys = np.round(vertices / tol).astype(np.int64)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    tris = inverse.reshape(-1)[triangles]
    ok = (tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2]) & (tris[:, 0] != tris[:, 2])
    return vertices[first], tris[ok]


def corners(vertices, triangles):
    return vertices[triangles[:, 0]], vertices[triangles[:, 1]], vertices[triangles[:, 2]]


def signed_volume(vertices, triangles) -> float:
    a, b, c = corners(vertices, triangles)
    return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)


def surface_area(vertices, triangles) -> float:
    a, b, c = corners(vertices, triangles)
    return float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum() / 2.0)


def centroid(vertices, triangles) -> np.ndarray:
    a, b, c = corners(vertices, triangles)
    tet_vol = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
    total = tet_vol.sum()
    if abs(total) > 1e-12:
        return (((a + b + c) / 4.0) * tet_vol[:, None]).sum(axis=0) / total
    areas = np.linalg.norm(np.cross(b - a, c - a), axis=1) / 2.0
    if areas.sum() == 0.0:
        return vertices.mean(axis=0)
    return ((a + b + c) / 3.0 * areas[:, None]).sum(axis=0) / areas.sum()


def transformed(vertices, matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=np.float64)
    return vertices @ m[:3, :3].T + m[:3, 3]
