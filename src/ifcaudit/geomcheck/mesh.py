"""Triangle meshes and their validation properties.

Volume and volume centroid come from the divergence theorem over signed
tetrahedra against the origin; surface area is the plain triangle-area sum.
"""

from __future__ import annotations

import io
from functools import cached_property

from .._lazy import lazy

np = lazy("numpy")  # only evaluating geometry loads numpy


class TriMesh:
    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise ValueError("triangle index out of range")
        if len(self.triangles) and self.triangles.min() < 0:
            raise ValueError("negative triangle index")

    def _corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    @cached_property
    def signed_volume(self) -> float:
        if not len(self.triangles):
            return 0.0
        a, b, c = self._corners()
        return float(np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6.0)

    @property
    def volume(self) -> float:
        return abs(self.signed_volume)

    @cached_property
    def surface_area(self) -> float:
        if not len(self.triangles):
            return 0.0
        a, b, c = self._corners()
        return float(np.linalg.norm(np.cross(b - a, c - a), axis=1).sum() / 2.0)

    @cached_property
    def centroid(self) -> np.ndarray:
        """Volume centroid for closed meshes, falling back to the area
        centroid when the signed volume vanishes (open surface models)."""
        a, b, c = self._corners()
        tet_vol = np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0
        total = tet_vol.sum()
        if abs(total) > 1e-12:
            weighted = ((a + b + c) / 4.0) * tet_vol[:, None]
            return weighted.sum(axis=0) / total
        areas = np.linalg.norm(np.cross(b - a, c - a), axis=1) / 2.0
        if areas.sum() == 0.0:
            return self.vertices.mean(axis=0)
        return ((a + b + c) / 3.0 * areas[:, None]).sum(axis=0) / areas.sum()

    @cached_property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def welded(self, tol: float) -> "TriMesh":
        """Merge vertices closer than ``tol`` (grid snapping)."""
        if tol <= 0 or not len(self.vertices):
            return self
        keys = np.round(self.vertices / tol).astype(np.int64)
        _, first, inverse = np.unique(
            keys, axis=0, return_index=True, return_inverse=True
        )
        vertices = self.vertices[first]
        triangles = inverse[self.triangles]
        ok = (
            (triangles[:, 0] != triangles[:, 1])
            & (triangles[:, 1] != triangles[:, 2])
            & (triangles[:, 0] != triangles[:, 2])
        )
        return TriMesh(vertices, triangles[ok])

    def flipped(self) -> "TriMesh":
        return TriMesh(self.vertices, self.triangles[:, ::-1])

    def oriented_outward(self) -> "TriMesh":
        return self.flipped() if self.signed_volume < 0 else self

    def transformed(self, matrix: np.ndarray) -> "TriMesh":
        """Apply a 4x4 homogeneous transform."""
        m = np.asarray(matrix, dtype=np.float64)
        pts = self.vertices @ m[:3, :3].T + m[:3, 3]
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
        """One triangle per line: nine floats (three xyz corners)."""
        out = io.StringIO()
        np.savetxt(out, np.hstack(self._corners()), fmt="%.9g")
        return out.getvalue() or "\n"  # an empty mesh dumps as one blank line

    def __repr__(self) -> str:
        return f"TriMesh({len(self.vertices)} vertices, {len(self.triangles)} triangles)"
