"""Conforming triangulations of the unit square with adaptive bisection.

Triangles are stored as vertex index triples ``(v0, v1, v2)`` with positive
(counterclockwise) orientation.  The edge ``(v0, v1)`` is the triangle's
refinement edge and ``v2`` its peak; newest-vertex bisection inserts the
midpoint of the refinement edge and makes it the peak of both children, so
the refinement edges of children are edges of the parent.  Conformity is
restored by marked-edge closure before splitting, which bisects a triangle
at most twice per refinement call.

Meshes are immutable; refinement returns a new mesh carrying a
parent-triangle map for nested-space checks.  This module is the one place
that derives connectivity: one sort of the 3M half-edges numbers the edges
and keeps, per edge, the ids of its two sides (half-edge k M + i is local
edge k of triangle i, opposite its vertex k), from which the assembler
takes its sparsity pattern and entry order.  The element geometry (areas,
barycenters, barycentric gradient factors) is computed at construction from
one gather of the corner coordinates, and the edge lengths on first use;
all are kept as read-only arrays, so a mesh that is solved on many
coefficient samples builds them once.  Vertex count doubles as the
degree-of-freedom unit in all cost accounting.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "TriMesh",
    "structured_unit_square",
    "level_resolution",
    "uniform_family",
    "aligned_structured_mesh",
    "bisect_refine",
]

LEVEL_RATIO = 1.5  # per-dimension resolution growth from one mesh level to the next


class TriMesh:
    """Conforming 2D triangle mesh with edge adjacency.

    Attributes
    ----------
    vertices : (N, 2) float array
    triangles : (M, 3) int array, CCW, refinement edge = first two vertices
    edges : (E, 2) int array of sorted vertex pairs
    tri_edges : (M, 3) edge ids; local edge k is opposite local vertex k
    edge_sides : (E, 2) half-edge ids k M + i of the edge's sides, in
        increasing order; -1 marks the boundary side
    edge_tris : (E, 2) adjacent triangle ids, -1 marks the boundary side
    boundary_edge, boundary_vertex : boolean masks
    parent_ids : (M,) triangle ids in the coarser mesh this was refined
        from, or None for a root mesh
    tensor_cells : the cells (nx, ny) of the tensor grid of [0,1]^2 this mesh
        triangulates, or None for any other mesh
    areas, barycenters, gradient_factors : element geometry, computed at
        construction; edge_lengths : computed on first use.  All read-only;
        they refer to no other object, so a mesh is freed as soon as its
        last reference goes
    """

    def __init__(self, vertices, triangles, parent_ids=None, tensor_cells=None):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (N, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3 or not len(self.triangles):
            raise ValueError("triangles must be a nonempty (M, 3) array")
        self.parent_ids = None if parent_ids is None else np.asarray(parent_ids, np.int64)
        self.tensor_cells = tensor_cells

        x, y = self.vertices.T
        (x0, x1, x2), (y0, y1, y2) = self.corner_values(x), self.corner_values(y)
        self.areas = 0.5 * ((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        if np.any(self.areas <= 0):
            raise ValueError("all triangles must be positively oriented with area > 0")
        self._build_edges()
        self.barycenters = np.column_stack([(x0 + x1 + x2) / 3.0, (y0 + y1 + y2) / 3.0])
        # (2, 3, M) barycentric gradient coefficients b, c of every triangle:
        # grad phi_i = (b[i], c[i]) / (2 area)
        self.gradient_factors = np.array([(y1 - y2, y2 - y0, y0 - y1),
                                          (x2 - x1, x0 - x2, x1 - x0)])
        for arr in (self.vertices, self.triangles, self.edges, self.tri_edges, self.edge_sides,
                    self.areas, self.barycenters, self.gradient_factors):
            arr.setflags(write=False)

    def _build_edges(self):
        t = self.triangles
        m, n = len(t), len(self.vertices)
        # half-edge h = k * m + i is local edge k of triangle i, opposite vertex k
        a = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
        b = np.concatenate([t[:, 2], t[:, 0], t[:, 1]])
        lo = np.minimum(a, b)
        hi = np.maximum(a, b, out=b)
        del a
        keys = lo * np.int64(n)
        keys += hi
        # edge ids follow the sorted vertex pairs
        order = np.argsort(keys)
        keys = keys[order]
        starts = np.empty(3 * m, dtype=bool)
        starts[0] = True
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        del keys
        first = np.flatnonzero(starts)  # sorted position of each edge's first half-edge
        counts = np.diff(first, append=3 * m)
        if counts.max() > 2:
            raise ValueError("non-manifold edge: more than two adjacent triangles")
        edge_of_sorted = np.cumsum(starts)
        edge_of_sorted -= 1
        inverse = np.empty(3 * m, dtype=np.int64)
        inverse[order] = edge_of_sorted
        del edge_of_sorted
        self.tri_edges = inverse.reshape(3, -1).T.copy()
        del inverse, starts
        self.boundary_edge = counts == 1
        interior = ~self.boundary_edge
        # the sort is not stable: put each interior edge's two half-edges
        # back in half-edge order
        h0 = order[first]
        h1 = order[first[interior] + 1]
        pair_first = h0[interior]
        h0[interior] = np.minimum(pair_first, h1)
        h1 = np.maximum(pair_first, h1)
        self.edges = np.column_stack([lo[h0], hi[h0]])
        self.edge_sides = np.full((len(first), 2), -1, dtype=np.int64)
        self.edge_sides[:, 0] = h0
        self.edge_sides[interior, 1] = h1
        self.boundary_vertex = np.zeros(n, dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge].ravel()] = True

    def corner_values(self, values):
        """Nodal values at the three corners of every triangle, as (v0, v1, v2)."""
        t0, t1, t2 = self.triangles.T
        return values[t0], values[t1], values[t2]

    @property
    def edge_tris(self) -> np.ndarray:
        return np.where(self.edge_sides >= 0, self.edge_sides % self.num_triangles, -1)

    # -- geometry ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        a, b = self.edges.T
        x, y = self.vertices.T
        lengths = np.hypot(x[a] - x[b], y[a] - y[b])
        lengths.setflags(write=False)
        return lengths

    @property
    def diameters(self) -> np.ndarray:
        """Element diameters h_K (longest edge of each triangle)."""
        lengths = self.edge_lengths
        e0, e1, e2 = self.tri_edges.T
        return np.maximum(np.maximum(lengths[e0], lengths[e1]), lengths[e2])


def _tensor_triangulation(xs, ys) -> TriMesh:
    """Triangulate the tensor grid xs x ys of [0,1]^2, two triangles per cell.

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
    return TriMesh(vertices, np.concatenate([lower, upper]), tensor_cells=(nx, ny))


def structured_unit_square(n: int) -> TriMesh:
    """Uniform n x n grid of [0,1]^2, each cell split into two triangles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    grid = np.linspace(0.0, 1.0, n + 1)
    return _tensor_triangulation(grid, grid)


def level_resolution(level: int, base_n: int = 15) -> int:
    """Per-dimension resolution round(base_n * LEVEL_RATIO^level) of a mesh level."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return int(np.floor(base_n * LEVEL_RATIO**level + 0.5))


def uniform_family(level: int, base_n: int = 15) -> TriMesh:
    """Structured mesh at the resolution of ``level_resolution``.

    Vertex counts grow by a factor of about LEVEL_RATIO^2 = 2.25 per level.
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

    e0, e1, e2 = mesh.tri_edges.T
    edge_marked = np.zeros(len(mesh.edges), dtype=bool)
    edge_marked[e2[marked]] = True
    # closure: a triangle with any marked edge must have its refinement edge
    # marked.  split: the refinement edge (v0, v1) is bisected; split_a: child
    # (v2, v0, m01) splits again; split_b: child (v1, v2, m01) splits again
    while True:
        split_b, split_a, split = edge_marked[e0], edge_marked[e1], edge_marked[e2]
        need = (split_a | split_b) & ~split
        if not need.any():
            break
        edge_marked[e2[need]] = True

    n_old = mesh.num_vertices
    marked_edge_ids = np.flatnonzero(edge_marked)
    a, b = mesh.edges[marked_edge_ids].T
    midpoints = (mesh.vertices[a] + mesh.vertices[b]) / 2.0
    mid_of_edge = np.full(len(mesh.edges), -1, dtype=np.int64)
    mid_of_edge[marked_edge_ids] = np.arange(n_old, n_old + len(marked_edge_ids))
    vertices = np.concatenate([mesh.vertices, midpoints])

    v0, v1, v2 = mesh.triangles.T
    m12 = mid_of_edge[e0]  # midpoint of (v1, v2)
    m20 = mid_of_edge[e1]  # midpoint of (v2, v0)
    m01 = mid_of_edge[e2]  # midpoint of the refinement edge

    whole = np.flatnonzero(~split)
    half_a = np.flatnonzero(split & ~split_a)
    quarter_a = np.flatnonzero(split & split_a)
    half_b = np.flatnonzero(split & ~split_b)
    quarter_b = np.flatnonzero(split & split_b)
    children = (  # (parent triangle ids, child corners)
        (whole, (v0, v1, v2)),
        (half_a, (v2, v0, m01)),
        (quarter_a, (m01, v2, m20)),
        (quarter_a, (v0, m01, m20)),
        (half_b, (v1, v2, m01)),
        (quarter_b, (m01, v1, m12)),
        (quarter_b, (v2, m01, m12)),
    )
    triangles = np.concatenate([np.column_stack([c[ids] for c in corners])
                                for ids, corners in children])
    parents = np.concatenate([ids for ids, _ in children])
    return TriMesh(vertices, triangles, parent_ids=parents)
