"""Conforming triangulations of the unit square with adaptive bisection.

Triangles are stored as vertex index triples ``(v0, v1, v2)`` with positive
(counterclockwise) orientation.  The edge ``(v0, v1)`` is the triangle's
refinement edge and ``v2`` its peak; newest-vertex bisection inserts the
midpoint of the refinement edge and makes it the peak of both children, so
the refinement edges of children are edges of the parent.  Conformity is
restored by marked-edge closure before splitting, which bisects a triangle
at most twice per refinement call.

Meshes are immutable; refinement returns a new mesh carrying a
parent-triangle map for nested-space checks.  Vertex count doubles as the
degree-of-freedom unit in all cost accounting.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TriMesh",
    "structured_unit_square",
    "level_resolution",
    "uniform_family",
    "aligned_structured_mesh",
    "bisect_refine",
]


class TriMesh:
    """Conforming 2D triangle mesh with edge adjacency.

    Attributes
    ----------
    vertices : (N, 2) float array
    triangles : (M, 3) int array, CCW, refinement edge = first two vertices
    edges : (E, 2) int array of sorted vertex pairs
    tri_edges : (M, 3) edge ids; local edge k is opposite local vertex k
    edge_tris : (E, 2) adjacent triangle ids, -1 marks the boundary side
    boundary_edge, boundary_vertex : boolean masks
    parent_ids : (M,) triangle ids in the coarser mesh this was refined
        from, or None for a root mesh
    """

    def __init__(self, vertices, triangles, parent_ids=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (N, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must be an (M, 3) array")
        self.parent_ids = None if parent_ids is None else np.asarray(parent_ids, np.int64)

        p = self.vertices[self.triangles]
        self._signed_areas = 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
        )
        if np.any(self._signed_areas <= 0):
            raise ValueError("all triangles must be positively oriented with area > 0")
        self._build_edges()
        for arr in (self.vertices, self.triangles, self.edges, self.tri_edges, self.edge_tris):
            arr.setflags(write=False)

    def _build_edges(self):
        t = self.triangles
        n = len(self.vertices)
        # local edge k is opposite vertex k
        pairs = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
        pairs = np.sort(pairs, axis=1)
        keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        self.edges = np.column_stack([unique_keys // n, unique_keys % n])
        self.tri_edges = inverse.reshape(3, -1).T.copy()
        counts = np.bincount(inverse, minlength=len(unique_keys))
        if counts.max() > 2:
            raise ValueError("non-manifold edge: more than two adjacent triangles")
        self.boundary_edge = counts == 1
        order = np.argsort(inverse, kind="stable")
        tri_ids = np.tile(np.arange(len(t), dtype=np.int64), 3)[order]
        first = np.searchsorted(inverse[order], np.arange(len(unique_keys)))
        self.edge_tris = np.full((len(unique_keys), 2), -1, dtype=np.int64)
        self.edge_tris[:, 0] = tri_ids[first]
        interior = counts == 2
        self.edge_tris[interior, 1] = tri_ids[first[interior] + 1]
        self.boundary_vertex = np.zeros(len(self.vertices), dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge].ravel()] = True

    # -- geometry ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def areas(self) -> np.ndarray:
        return self._signed_areas

    @property
    def barycenters(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @property
    def edge_lengths(self) -> np.ndarray:
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return np.hypot(d[:, 0], d[:, 1])

    @property
    def diameters(self) -> np.ndarray:
        """Element diameters h_K (longest edge of each triangle)."""
        return self.edge_lengths[self.tri_edges].max(axis=1)

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles (radians)."""
        p = self.vertices[self.triangles]
        angles = []
        for i in range(3):
            a = p[:, (i + 1) % 3] - p[:, i]
            b = p[:, (i + 2) % 3] - p[:, i]
            cosang = (a * b).sum(axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
        return float(np.min(angles))


def _tensor_triangulation(xs, ys) -> TriMesh:
    """Triangulate the tensor grid xs x ys, two triangles per cell.

    Each cell is split along the (i, j) -> (i+1, j+1) diagonal; the diagonal
    is the longest edge of both triangles and becomes their refinement edge.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    nx, ny = len(xs) - 1, len(ys) - 1
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xg.ravel(), yg.ravel()])

    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    v00 = (j * (nx + 1) + i).ravel()
    v10 = v00 + 1
    v01 = v00 + (nx + 1)
    v11 = v01 + 1
    lower = np.column_stack([v11, v00, v10])  # refinement edge = diagonal
    upper = np.column_stack([v00, v11, v01])
    return TriMesh(vertices, np.concatenate([lower, upper]))


def structured_unit_square(n: int) -> TriMesh:
    """Uniform n x n grid of [0,1]^2, each cell split into two triangles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = np.linspace(0.0, 1.0, n + 1)
    return _tensor_triangulation(grid, grid)


def level_resolution(level: int, base_n: int = 15) -> int:
    """Per-dimension resolution round(base_n * 1.5^level) of a mesh level."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return int(np.floor(base_n * 1.5**level + 0.5))


def uniform_family(level: int, base_n: int = 15) -> TriMesh:
    """Structured mesh at the resolution of ``level_resolution``.

    Vertex counts grow by a factor of about 1.5^2 = 2.25 per level.
    """
    return structured_unit_square(level_resolution(level, base_n))


def aligned_structured_mesh(break_x, break_y, n: int) -> TriMesh:
    """Tensor mesh whose gridlines contain the given break coordinates.

    Each gap between consecutive gridlines is subdivided so the total
    resolution per dimension is at least n; discontinuity lines of a
    box/cross coefficient whose breaks are passed in then lie exactly on
    mesh edges.
    """

    def axis(breaks):
        pts = np.unique(np.concatenate([[0.0, 1.0], np.asarray(breaks, dtype=np.float64)]))
        if pts[0] < 0.0 or pts[-1] > 1.0:
            raise ValueError("break coordinates must lie in (0, 1)")
        out = [pts[0]]
        for a, b in zip(pts[:-1], pts[1:]):
            pieces = max(1, int(np.ceil((b - a) * n - 1e-12)))
            out.extend(np.linspace(a, b, pieces + 1)[1:])
        return np.asarray(out)

    return _tensor_triangulation(axis(break_x), axis(break_y))


def bisect_refine(mesh: TriMesh, marked) -> TriMesh:
    """Newest-vertex bisection of the marked triangles with conformity closure.

    Returns a new conforming mesh; every marked triangle is subdivided and
    closure bisections keep the result free of hanging nodes.  An empty
    marked set returns the input mesh unchanged.
    """
    marked = np.unique(np.fromiter(marked, dtype=np.int64)) \
        if not isinstance(marked, np.ndarray) else np.unique(marked.astype(np.int64))
    if marked.size == 0:
        return mesh
    if marked.min() < 0 or marked.max() >= mesh.num_triangles:
        raise IndexError("marked triangle id out of range")

    tri_edges = mesh.tri_edges
    edge_marked = np.zeros(len(mesh.edges), dtype=bool)
    edge_marked[tri_edges[marked, 2]] = True
    # closure: a triangle with any marked edge must have its refinement edge marked
    while True:
        need = edge_marked[tri_edges].any(axis=1) & ~edge_marked[tri_edges[:, 2]]
        if not need.any():
            break
        edge_marked[tri_edges[need, 2]] = True

    n_old = mesh.num_vertices
    marked_edge_ids = np.nonzero(edge_marked)[0]
    midpoints = mesh.vertices[mesh.edges[marked_edge_ids]].mean(axis=1)
    mid_of_edge = np.full(len(mesh.edges), -1, dtype=np.int64)
    mid_of_edge[marked_edge_ids] = n_old + np.arange(len(marked_edge_ids))
    vertices = np.concatenate([mesh.vertices, midpoints])

    t = mesh.triangles
    v0, v1, v2 = t[:, 0], t[:, 1], t[:, 2]
    m12 = mid_of_edge[tri_edges[:, 0]]  # midpoint of (v1, v2)
    m20 = mid_of_edge[tri_edges[:, 1]]  # midpoint of (v2, v0)
    m01 = mid_of_edge[tri_edges[:, 2]]  # midpoint of the refinement edge
    split = edge_marked[tri_edges[:, 2]]
    split_a = edge_marked[tri_edges[:, 1]]  # child (v2, v0, m01) splits again
    split_b = edge_marked[tri_edges[:, 0]]  # child (v1, v2, m01) splits again

    ids = np.arange(mesh.num_triangles, dtype=np.int64)
    blocks, parents = [], []

    def emit(sel, a, b, c):
        blocks.append(np.column_stack([a[sel], b[sel], c[sel]]))
        parents.append(ids[sel])

    emit(~split, v0, v1, v2)
    emit(split & ~split_a, v2, v0, m01)
    emit(split & split_a, m01, v2, m20)
    emit(split & split_a, v0, m01, m20)
    emit(split & ~split_b, v1, v2, m01)
    emit(split & split_b, m01, v1, m12)
    emit(split & split_b, v2, m01, m12)

    return TriMesh(vertices, np.concatenate(blocks), parent_ids=np.concatenate(parents))
