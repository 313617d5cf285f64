"""Triangle meshes and their validation properties.

Volume and volume centroid come from the divergence theorem over signed
tetrahedra against the bounding-box centre, so georeferenced coordinates far
from the origin lose no digits to cancellation; surface area is the plain
triangle-area sum.
"""

from __future__ import annotations

import math
from functools import cached_property

from .._lazy import lazy
from ..errors import UnsupportedShape

np = lazy("numpy")  # only evaluating geometry loads numpy

_DUMP_ROWS = 4096  # triangles per block of ``dump_ascii``'s text
_MEASURE_ROWS = 1 << 14  # triangles per block of ``_measures``' corners
#: Most vertices a mesh may have: every triangle index is an int32.
MAX_VERTICES = 2**31 - 1


def cross3(a, b):
    """``a x b`` without ``np.cross``'s per-call cost: of two 3-vectors, or
    row-wise of two ``(3, n)`` arrays of coordinate rows."""
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _dense_ranks(keys) -> tuple[np.ndarray, int]:
    """Each key's int32 rank among the distinct keys, and their count: equal
    keys share a rank, and ranks keep the keys' order."""
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[0] = False  # ranks from 0
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    del keys
    sorted_ranks = np.cumsum(new, dtype=np.int32)
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = sorted_ranks
    return ranks, int(sorted_ranks[-1]) + 1


def _grid_ranks(values, tol: float) -> tuple[np.ndarray, int]:
    """:func:`_dense_ranks` of ``values`` rounded to multiples of ``tol``."""
    keys = np.divide(values, tol)
    np.round(keys, out=keys)
    return _dense_ranks(keys)


class TriMesh:
    """Vertices as float64 rows and triangles as int32 rows of three vertex
    indices. The indices are range-checked in the caller's dtype before
    they are narrowed, so none wraps."""

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        if len(self.vertices) > MAX_VERTICES:
            raise ValueError(f"{len(self.vertices)} vertices exceed the index limit")
        triangles = np.asarray(triangles).reshape(-1, 3)
        if len(triangles) and triangles.max() >= len(self.vertices):
            raise ValueError("triangle index out of range")
        if len(triangles) and triangles.min() < 0:
            raise ValueError("negative triangle index")
        self.triangles = triangles.astype(np.int32, copy=False)

    @cached_property
    def _measures(self) -> tuple[float, float, np.ndarray]:
        """Signed volume, surface area and centroid from one gather of the
        corners, ``_MEASURE_ROWS`` triangles at a time, so that no array the
        size of all the corners is held. A triangle's doubled vector area
        ``n = (b - a) x (c - a)`` gives its area and, as ``a . n = a . (b x
        c)``, six times the signed volume of its tetrahedron against the
        bounding-box centre: the corners are taken relative to it, and it is
        added back to the centroid."""
        t = self.triangles
        if not len(t):
            return 0.0, 0.0, self.vertices.mean(axis=0)
        lo, hi = self.bbox
        centre = (lo + hi) / 2.0
        # x, y and z rows, relative to the centre
        v = np.subtract(self.vertices.T, centre[:, None], order="C")
        six_volume = doubled_area = 0.0
        volume_moment, area_moment = np.zeros(3), np.zeros(3)
        for start in range(0, len(t), _MEASURE_ROWS):
            block = t[start : start + _MEASURE_ROWS]
            a, b, c = (v.take(block[:, k], axis=1) for k in range(3))
            b -= a  # edges, in place: three block-sized arrays at most
            c -= a
            n = cross3(b, c)
            tet = np.einsum("ij,ij->j", a, n)
            doubled = np.sqrt(np.einsum("ij,ij->j", n, n))
            a *= 3.0  # 3a + (b - a) + (c - a): four times a tetrahedron's centroid
            a += b
            a += c
            six_volume += tet.sum()
            doubled_area += doubled.sum()
            volume_moment += np.einsum("ij,j->i", a, tet)
            area_moment += np.einsum("ij,j->i", a, doubled)
        volume, area = float(six_volume / 6.0), float(doubled_area / 2.0)
        if abs(volume) > 1e-12:
            # volume centroid of a closed mesh
            centroid = volume_moment / (4.0 * six_volume) + centre
        elif area:
            # area centroid of an open surface model
            centroid = area_moment / (3.0 * doubled_area) + centre
        else:
            centroid = self.vertices.mean(axis=0)
        return volume, area, centroid

    @property
    def signed_volume(self) -> float:
        return self._measures[0]

    @property
    def volume(self) -> float:
        return abs(self.signed_volume)

    @property
    def surface_area(self) -> float:
        return self._measures[1]

    @property
    def centroid(self) -> np.ndarray:
        """Volume centroid for closed meshes, falling back to the area
        centroid when the signed volume vanishes (open surface models)."""
        return self._measures[2]

    @cached_property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        # one column at a time: a reduction along axis 0 of the (n, 3)
        # array is about ten times slower
        columns = self.vertices.T
        return np.array([c.min() for c in columns]), np.array([c.max() for c in columns])

    def weld(self, tol: float) -> None:
        """Merge vertices closer than ``tol`` (grid snapping), in place. The
        mesh gets new ``vertices`` and ``triangles`` arrays and never writes
        into the old ones, which ``transformed`` and ``flipped`` share with
        other meshes. Raises :class:`UnsupportedShape` when a grid key would
        overflow to infinity, which would merge distinct vertices."""
        if tol <= 0 or not len(self.vertices):
            return
        reach = float(np.abs(self.bbox).max())
        if not math.isfinite(reach / tol):
            raise UnsupportedShape(f"weld grid overflows: coordinate {reach:g}, precision {tol:g}")
        # one int64 key whose order is the (x, y, z) order of the grid keys:
        # the grid keys reach about 1e308, so their dense ranks are packed, and
        # no product reaches n * n <= 2**62
        columns = self.vertices.T
        key, _ = _grid_ranks(columns[0], tol)
        key = key.astype(np.int64)
        y, ny = _grid_ranks(columns[1], tol)
        key *= ny
        key += y
        del y
        key, _ = _dense_ranks(key)
        key = key.astype(np.int64)
        z, nz = _grid_ranks(columns[2], tol)
        key *= nz
        key += z
        del z, columns  # a view would keep the old vertices alive
        # a stable sort keeps equal keys in index order: the order, first
        # indices and inverse of np.unique(keys, axis=0)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.empty(len(order), dtype=bool)
        starts[0] = True
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        del key
        first = order[starts]
        inverse = np.empty(len(order), dtype=np.int32)
        inverse[order] = np.cumsum(starts, dtype=np.int32) - 1
        del order, starts  # freed before the vertices and triangles are gathered
        self.vertices = self.vertices.take(first, axis=0)  # far faster than [first]
        del first
        triangles = inverse[self.triangles]
        del inverse
        ok = (
            (triangles[:, 0] != triangles[:, 1])
            & (triangles[:, 1] != triangles[:, 2])
            & (triangles[:, 0] != triangles[:, 2])
        )
        self.triangles = triangles if ok.all() else triangles[ok]
        for stale in ("bbox", "_measures"):
            self.__dict__.pop(stale, None)

    def flipped(self) -> "TriMesh":
        return TriMesh(self.vertices, self.triangles[:, ::-1])

    def transformed(self, matrix: np.ndarray) -> "TriMesh":
        """Apply a 4x4 homogeneous transform."""
        m = np.asarray(matrix, dtype=np.float64)
        # einsum, not ``@``: OpenBLAS runs a tall n x 3 product on threads,
        # whose start in each process costs about 0.1 s on a 2-core machine
        pts = np.einsum("ij,kj->ik", self.vertices, m[:3, :3])
        pts += m[:3, 3]
        return TriMesh(pts, self.triangles)

    @staticmethod
    def concat(meshes: list["TriMesh"]) -> "TriMesh":
        if not meshes:
            return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int32))
        total = sum(len(mesh.vertices) for mesh in meshes)
        if total > MAX_VERTICES:  # before an offset index could wrap
            raise ValueError(f"{total} vertices exceed the index limit")
        verts = []
        tris = []
        offset = 0
        for mesh in meshes:
            verts.append(mesh.vertices)
            tris.append(mesh.triangles + offset)
            offset += len(mesh.vertices)
        return TriMesh(np.vstack(verts), np.vstack(tris))

    def dump_ascii(self) -> str:
        """One triangle per line: nine floats (three xyz corners), as
        ``np.savetxt(..., fmt="%.9g")`` writes them."""
        # one format call for the vertices: a vertex is the corner of about
        # six triangles, so each is formatted once and its text reused
        v, t = self.vertices, self.triangles
        corners = ("%.9g %.9g %.9g\n" * len(v) % tuple(v.ravel().tolist())).split("\n")
        text = "".join(
            "".join([f"{corners[a]} {corners[b]} {corners[c]}\n" for a, b, c in block.tolist()])
            # blocks of rows bound the Python objects alive at once
            for block in np.split(t, range(_DUMP_ROWS, len(t), _DUMP_ROWS))
        )
        return text or "\n"  # an empty mesh dumps as one blank line

    def __repr__(self) -> str:
        return f"TriMesh({len(self.vertices)} vertices, {len(self.triangles)} triangles)"
