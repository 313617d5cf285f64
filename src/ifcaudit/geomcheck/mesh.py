"""Triangle meshes and their validation properties.

Volume and volume centroid come from the divergence theorem over signed
tetrahedra against the bounding-box centre, so georeferenced coordinates far
from the origin lose no digits to cancellation; surface area is the plain
triangle-area sum.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TextIO

from .._lazy import lazy
from ..errors import UnsupportedShape

np = lazy("numpy")  # only evaluating geometry loads numpy

_DUMP_ROWS = 4096  # triangles per block of ``dump_ascii``'s text
#: Rows per block of the passes that measure a mesh or change it in place
_BLOCK_ROWS = 1 << 14
#: Most vertices a mesh may have: every triangle index is an int32.
MAX_VERTICES = 2**31 - 1


def cross3(a, b):
    """``a x b`` without ``np.cross``'s per-call cost: of two 3-vectors, or
    row-wise of two ``(3, n)`` arrays of coordinate rows."""
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _dense_ranks(n: int, keys, dtype, out=None) -> tuple[np.ndarray, int]:
    """Each of ``n`` keys' int32 rank among the distinct keys, and their
    count: equal keys share a rank, and ranks keep the keys' order.
    ``keys(start, stop)`` gives the ``dtype`` keys of rows ``start:stop``,
    read twice a block at a time: to fill one sorted copy, whose distinct
    values move to its front, and to search there for each block's ranks,
    written into ``out`` if given once the block's keys are read."""
    ordered = np.empty(n, dtype=dtype)
    for start in range(0, n, _BLOCK_ROWS):
        ordered[start : start + _BLOCK_ROWS] = keys(start, start + _BLOCK_ROWS)
    ordered.sort()
    # the write position never passes the read position, and meets it only
    # while every value so far is distinct, where it writes each one back
    kept = 1
    for start in range(1, n, _BLOCK_ROWS):
        pair = ordered[start - 1 : start + _BLOCK_ROWS]
        distinct = pair[1:][pair[1:] != pair[:-1]]
        ordered[kept : kept + len(distinct)] = distinct
        kept += len(distinct)
    distinct = ordered[:kept]
    if out is None:
        out = np.empty(n, dtype=np.int32)
    for start in range(0, n, _BLOCK_ROWS):
        block = keys(start, start + _BLOCK_ROWS)
        out[start : start + _BLOCK_ROWS] = np.searchsorted(distinct, block)
    return out, kept


class TriMesh:
    """Vertices as float64 rows and triangles as int32 rows of three vertex
    indices. The indices are range-checked in the caller's dtype before
    they are narrowed, so none wraps.

    A mesh owns the arrays it is given: it keeps a float64 vertex array and
    an int32 triangle array as they are, and ``transform``, ``flip`` and
    ``weld`` write into them. A caller that still needs an array passes a
    copy."""

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

    def _changed(self) -> None:
        """Drop the properties cached from the old arrays."""
        for stale in ("bbox", "_measures"):
            self.__dict__.pop(stale, None)

    @cached_property
    def _measures(self) -> tuple[float, float, np.ndarray]:
        """Signed volume, surface area and centroid from one gather of the
        corners, ``_BLOCK_ROWS`` triangles at a time, so that no array the
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
        six_volume = doubled_area = 0.0
        volume_moment, area_moment = np.zeros(3), np.zeros(3)
        for start in range(0, len(t), _BLOCK_ROWS):
            block = t[start : start + _BLOCK_ROWS]
            # x, y and z rows of each corner, relative to the centre
            a, b, c = (
                np.subtract(self.vertices.take(block[:, k], axis=0).T, centre[:, None], order="C")
                for k in range(3)
            )
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
        """Merge vertices closer than ``tol`` (grid snapping), in place: the
        kept vertices move to the first rows of the vertex array, in the
        order of ``np.unique`` on the grid keys. Raises
        :class:`UnsupportedShape` when a grid key would overflow to
        infinity, which would merge distinct vertices.

        The grid keys are ranked by :func:`_dense_ranks`, which searches a
        sorted copy: x, y, the packed (x, y) ranks, z, then the packed
        ((x, y), z) ranks, which are the inverse. Its working set is that
        8-byte copy and two int32 rank arrays, about 16 bytes a vertex, and
        no permutation; a group's first index is the least of its rows."""
        if tol <= 0 or not len(self.vertices):
            return
        reach = float(np.abs(self.bbox).max())
        if not math.isfinite(reach / tol):
            raise UnsupportedShape(f"weld grid overflows: coordinate {reach:g}, precision {tol:g}")
        v, t, n = self.vertices, self.triangles, len(self.vertices)

        def grid(column):  # the grid keys of one axis reach about 1e308
            return lambda start, stop: np.round(v[start:stop, column] / tol)

        def packed(high, count, low):  # below n * n <= 2**62
            return lambda start, stop: high[start:stop].astype(np.int64) * count + low[start:stop]

        key, _ = _dense_ranks(n, grid(0), np.float64)
        y, ny = _dense_ranks(n, grid(1), np.float64)
        _dense_ranks(n, packed(key, ny, y), np.int64, out=key)
        del y
        z, nz = _dense_ranks(n, grid(2), np.float64)
        inverse, kept = _dense_ranks(n, packed(key, nz, z), np.int64, out=key)
        del key, z
        # each kept vertex's first index, as np.unique(keys, axis=0) finds it
        first = np.full(kept, n, dtype=np.int32)
        for start in range(0, n, _BLOCK_ROWS):
            rows = np.arange(start, min(start + _BLOCK_ROWS, n), dtype=np.int32)
            np.minimum.at(first, inverse[start : start + _BLOCK_ROWS], rows)
        for column in range(3):  # take would copy the strided column first
            v[:kept, column] = v[first, column]
        del first
        self.vertices = v[:kept]
        ok = np.empty(len(t), dtype=bool)
        for start in range(0, len(t), _BLOCK_ROWS):
            block = t[start : start + _BLOCK_ROWS]
            np.take(inverse, block, out=block)
            a, b, c = block.T
            ok[start : start + _BLOCK_ROWS] = (a != b) & (b != c) & (a != c)
        del inverse
        if not ok.all():
            self.triangles = t[ok]
        self._changed()

    def flip(self) -> None:
        """Reverse every triangle's winding, in place: ``(a, b, c)`` becomes
        ``(c, b, a)``."""
        t = self.triangles
        first = t[:, 0].copy()
        t[:, 0] = t[:, 2]
        t[:, 2] = first
        self._changed()

    def transform(self, matrix: np.ndarray) -> None:
        """Apply a 4x4 homogeneous transform in place, ``_BLOCK_ROWS``
        vertices at a time."""
        m = np.asarray(matrix, dtype=np.float64)
        rotation, offset = m[:3, :3], m[:3, 3]
        v = self.vertices
        for start in range(0, len(v), _BLOCK_ROWS):
            block = v[start : start + _BLOCK_ROWS]
            # einsum, not ``@``: OpenBLAS runs a tall n x 3 product on
            # threads, whose start in each process costs about 0.1 s on a
            # 2-core machine
            np.add(np.einsum("ij,kj->ik", block, rotation), offset, out=block)
        self._changed()

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

    def dump_ascii(self, out: TextIO) -> None:
        """Write one triangle per line to the text file ``out``: nine floats
        (three xyz corners), as ``np.savetxt(..., fmt="%.9g")`` writes them,
        ``_DUMP_ROWS`` triangles at a time, so the whole text is never held."""
        v, t = self.vertices, self.triangles
        if not len(t):
            out.write("\n")  # an empty mesh dumps as one blank line
        for start in range(0, len(t), _DUMP_ROWS):
            # one format call for the vertices the block uses: a vertex is the
            # corner of about six triangles, so each is formatted once per block
            used, corners = np.unique(t[start : start + _DUMP_ROWS], return_inverse=True)
            text = ("%.9g %.9g %.9g\n" * len(used) % tuple(v[used].ravel().tolist())).split("\n")
            rows = corners.reshape(-1, 3).tolist()
            out.write("".join([f"{text[a]} {text[b]} {text[c]}\n" for a, b, c in rows]))

    def __repr__(self) -> str:
        return f"TriMesh({len(self.vertices)} vertices, {len(self.triangles)} triangles)"
