"""Triangle meshes and their validation properties.

Volume and volume centroid come from the divergence theorem over signed
tetrahedra against the origin; surface area is the plain triangle-area sum.
"""

from __future__ import annotations

from functools import cached_property

from .._lazy import lazy

np = lazy("numpy")  # only evaluating geometry loads numpy

_DUMP_ROWS = 4096  # triangles per block of ``dump_ascii``'s text


def cross3(a, b):
    """``a x b`` without ``np.cross``'s per-call cost: of two 3-vectors, or
    row-wise of two ``(3, n)`` arrays of coordinate rows."""
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


class TriMesh:
    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise ValueError("triangle index out of range")
        if len(self.triangles) and self.triangles.min() < 0:
            raise ValueError("negative triangle index")

    @cached_property
    def _measures(self) -> tuple[float, float, np.ndarray]:
        """Signed volume, surface area and centroid from one gather of the
        corners. A triangle's doubled vector area ``n = (b - a) x (c - a)``
        gives its area and, as ``a . n = a . (b x c)``, six times the signed
        volume of its tetrahedron against the origin."""
        t = self.triangles
        if not len(t):
            return 0.0, 0.0, self.vertices.mean(axis=0)
        v = np.ascontiguousarray(self.vertices.T)  # x, y and z rows
        a, b, c = (v.take(t[:, k], axis=1) for k in range(3))
        b -= a  # edges, in place: three corner-sized arrays at most
        c -= a
        n = cross3(b, c)
        tet = np.einsum("ij,ij->j", a, n)
        volume = float(tet.sum() / 6.0)
        doubled = np.sqrt(np.einsum("ij,ij->j", n, n))
        area = float(doubled.sum() / 2.0)
        del n
        a *= 3.0  # 3a + (b - a) + (c - a): four times a tetrahedron's centroid
        a += b
        a += c
        if abs(volume) > 1e-12:
            # volume centroid of a closed mesh
            centroid = np.einsum("ij,j->i", a, tet) / (4.0 * tet.sum())
        elif area:
            # area centroid of an open surface model
            centroid = np.einsum("ij,j->i", a, doubled) / (3.0 * doubled.sum())
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
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def welded(self, tol: float) -> "TriMesh":
        """Merge vertices closer than ``tol`` (grid snapping)."""
        if tol <= 0 or not len(self.vertices):
            return self
        # x, y and z keys, one contiguous row each
        keys = np.round(self.vertices / tol).T.astype(np.int64, order="C")
        # a stable sort, x key first: the order, first indices and inverse
        # of np.unique(keys.T, axis=0), without its structured row copies
        order = np.lexsort(keys[::-1])
        keys = keys[:, order]
        starts = np.empty(len(order), dtype=bool)
        starts[0] = True
        np.any(keys[:, 1:] != keys[:, :-1], axis=0, out=starts[1:])
        first = order[starts]
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(starts) - 1
        vertices = self.vertices[first]
        triangles = inverse[self.triangles]
        ok = (
            (triangles[:, 0] != triangles[:, 1])
            & (triangles[:, 1] != triangles[:, 2])
            & (triangles[:, 0] != triangles[:, 2])
        )
        return TriMesh(vertices, triangles if ok.all() else triangles[ok])

    def flipped(self) -> "TriMesh":
        return TriMesh(self.vertices, self.triangles[:, ::-1])

    def oriented_outward(self) -> "TriMesh":
        return self.flipped() if self.signed_volume < 0 else self

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
            return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
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
