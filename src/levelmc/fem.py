"""Piecewise-linear Galerkin solver with homogeneous Dirichlet conditions.

The diffusion coefficient enters elementwise through its barycenter value
a_K, which is exact on meshes aligned with the discontinuities.  Stiffness
integrals are exact for P1; loads are exact for constant sources and use
the three-point edge-midpoint rule (degree 2) otherwise.

The stiffness pattern and values come from the mesh's edge table.  All but
a_K is set up on first assembly and kept with the mesh: the free vertices,
the int32 CSR indices and row pointers, where each entry takes its value,
the triangles and terms g of the two sides of each edge joining free
vertices (an off-diagonal entry is their two-term sum: the same bits in
either order), each element's diagonal terms g_ii (a bincount adds them in
element-major order), the unit load, and the band layout or the transfers.

One rule picks the solver of a mesh, from its geometry alone, when the mesh
is first assembled: the band of its stiffness pattern under a reverse
Cuthill-McKee ordering (Cuthill & McKee 1969; George & Liu 1981).

* A band of at most BAND_MAX is factored with LAPACK's banded Cholesky.
  On a tensor mesh of c cells a side RCM gives the optimal band c - 1, so
  these are the tensor meshes of at most BAND_MAX + 1 cells a side (the
  uniform and aligned levels 0-5) and the bisected meshes of adaptive paths
  up to about 1,000 DOF, whose graded bands are 1-4 times the square root
  of their size.  A factorisation costs about c^4 and holds c^3 doubles; CG
  with the V-cycle costs about c^2 times its 20-30 iterations.  So the
  factorisation wins on small meshes by far (7.8 against 16.8 ms at 76
  cells, 25.7 against 36.5 ms at 114) and the two meet at about 130 cells
  (box coefficient, contrast 300, one BLAS thread).  BAND_MAX = 120 is the
  smallest round value above every level-5 band, uniform (113) or aligned
  with a box or cross coefficient (at most 115), and stays below that
  crossover; a factor, which lives for one solve, holds at most
  (BAND_MAX + 1) BAND_MAX^2 doubles, about 14 MB.
* Wider tensor meshes get preconditioned conjugate gradients with a
  symmetric V-cycle on auxiliary uniform grids (Xu, Computing 1996).  Its
  transfers interpolate the coarse grids' hat functions at the fine free
  vertices, which need not be coarse-grid nodes; they depend on geometry
  alone and are cached with the mesh's assembly data, while the Galerkin
  operators P^T A P are built per solve.  CG then takes 10-40 iterations.
* Wider bisected meshes get Jacobi-preconditioned CG.  They are graded
  towards the coefficient's jumps, which uniform auxiliary grids do not
  resolve, and each is solved only once.

CG stops at a true relative residual of 1e-10 (far below every statistical
error in the estimators) or at 20 * sqrt(DOF) iterations; a factored
solution is held to the same residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .coefficient import CoefficientSample
from .mesh import TriMesh

__all__ = [
    "AssemblyError",
    "SolverError",
    "FESolution",
    "assemble",
    "solve",
    "pcg",
    "h1_norm",
]

CG_RTOL = 1e-10
DEGENERATE_AREA = 1e-14
COARSEST_CELLS = 16       # the V-cycle's coarsest grid has at most this many cells a side
# Systems whose band is at most this wide are factored: a factor then holds at
# most 14 MB, and the factorisation beats the V-cycle (see the module docstring)
BAND_MAX = 120
SMOOTHING_WEIGHT = 0.7    # of the V-cycle's damped Jacobi sweeps


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


def element_coefficients(mesh: TriMesh, coeff) -> np.ndarray:
    """Per-element diffusion values for a sample, a scalar, or None (a = 1)."""
    if coeff is None:
        return np.ones(mesh.num_triangles)
    if isinstance(coeff, CoefficientSample):
        return coeff.element_values(mesh)
    return np.full(mesh.num_triangles, float(coeff))


@dataclass
class SparseSystem:
    """Dirichlet-eliminated SPD stiffness system on the interior vertices."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray          # interior vertex ids in DOF order
    mesh: TriMesh
    transfers: tuple          # the mesh's multigrid transfers (P, P^T), if any
    band: _BandLayout | None  # the mesh's band layout, if it is factored

    @property
    def num_dof(self) -> int:
        return self.matrix.shape[0]


@dataclass
class FESolution:
    """Nodal P1 solution; boundary entries are exactly zero."""

    mesh: TriMesh
    values: np.ndarray
    iterations: int = 0       # of CG; 0 for a factored solve
    residual: float = 0.0
    factored: bool = False    # solved by the banded Cholesky

    @cached_property
    def corner_values(self):
        """(u0, u1, u2) at the corners of every triangle, kept for the norms
        and the error indicators."""
        return self.mesh.corner_values(self.values)

    @cached_property
    def gradient_sums(self):
        """(gx, gy) = sum_i u_i (b_i, c_i) per element, added left to right:
        the gradient on element K is (gx, gy) / (2 area_K)."""
        u0, u1, u2 = self.corner_values
        (b0, b1, b2), (c0, c1, c2) = self.mesh.gradient_factors
        return u0 * b0 + u1 * b1 + u2 * b2, u0 * c0 + u1 * c1 + u2 * c2


def _edge_midpoints(mesh: TriMesh) -> np.ndarray:
    """(M, 3, 2) midpoints of the edges opposite each local vertex."""
    p = mesh.vertices[mesh.triangles]
    return 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])


def _load_vector(mesh: TriMesh, f) -> np.ndarray:
    areas = mesh.areas
    if callable(f):
        fm = np.asarray(f(_edge_midpoints(mesh).reshape(-1, 2))).reshape(-1, 3)
        # phi_i = 1/2 at the two midpoints not opposite vertex i
        contrib = (areas / 6.0)[:, None] * (fm[:, [1, 2, 0]] + fm[:, [2, 0, 1]])
    else:
        contrib = np.repeat(float(f) * areas / 3.0, 3)
    # bincount adds in input order from zero, as np.add.at would
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_vertices)


@dataclass(frozen=True)
class _BandLayout:
    """Where a pattern's entries on and below the diagonal go in LAPACK's
    lower band storage under a reverse Cuthill-McKee ordering: new index i
    is old index perm[i], and the band buffer is (n, width + 1) in C order,
    whose transpose is LAPACK's (width + 1, n) array in Fortran order."""

    perm: np.ndarray
    width: int
    entries: np.ndarray       # positions in the CSR data
    slots: np.ndarray         # their flat positions in the band buffer


def _band_layout(indptr, indices) -> _BandLayout | None:
    """The band layout of a symmetric CSR pattern, or None if its band under
    RCM is wider than BAND_MAX.  Patterns of more than BAND_MAX^2 rows are
    not ordered: the free vertices of a tensor mesh of c cells a side number
    (c - 1)^2 and its band is c - 1, and graded meshes have wider bands than
    tensor meshes of the same size."""
    n = len(indptr) - 1
    if not 0 < n <= BAND_MAX**2:
        return None
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    pattern = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    new = np.empty(n, dtype=np.int64)
    new[perm] = np.arange(n)
    rows = np.repeat(new, np.diff(indptr))
    cols = new[indices]
    below = rows - cols
    width = int(below.max())
    if width > BAND_MAX:
        return None
    entries = np.flatnonzero(below >= 0)
    return _BandLayout(perm, width, entries, cols[entries] * (width + 1) + below[entries])


class _MeshAssembler:
    """Per-mesh assembly cache: the sparsity pattern, the geometric part of
    the element matrices and the solver's layout are fixed, only the
    elementwise coefficient varies between samples.

    The cache lives on its mesh and holds no reference back to it: the pair
    would form a cycle, which only the cyclic garbage collector frees, and
    every mesh of an adaptive path would outlive the path.
    """

    def __init__(self, mesh: TriMesh):
        areas = mesh.areas
        if np.any(areas <= DEGENERATE_AREA):
            raise AssemblyError("degenerate triangle encountered during assembly")
        self.free = np.flatnonzero(~mesh.boundary_vertex)
        n, m = len(self.free), mesh.num_triangles
        dof_of = np.full(mesh.num_vertices, -1, dtype=np.int64)
        dof_of[self.free] = np.arange(n)

        # one sort of the diagonal's keys and those of both entries of each
        # edge gives the CSR order; _source maps it to (diagonal, edges)
        rows, cols = dof_of[mesh.edges].T
        inner = np.flatnonzero((rows >= 0) & (cols >= 0))
        rows, cols = rows[inner], cols[inner]
        keys = np.concatenate([np.arange(n) * (n + 1), rows * n + cols, cols * n + rows])
        order = np.argsort(keys)
        keys = keys[order]
        order[order >= n + len(inner)] -= len(inner)
        self._source = order.astype(np.int32)
        self.indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        keys %= n
        self.indices = keys.astype(np.int32)
        del keys, order, rows, cols
        for arr in (self.indices, self.indptr):
            arr.setflags(write=False)

        # local edge k of an element joins its corners k + 1 and k + 2
        b, c = mesh.gradient_factors
        scale = 4.0 * areas
        side_terms = np.empty((3, m))
        self._diagonal = np.empty((m, 3))
        for k in range(3):
            i, j = (k + 1) % 3, (k + 2) % 3
            side_terms[k] = (b[i] * b[j] + c[i] * c[j]) / scale
            self._diagonal[:, k] = (b[k] * b[k] + c[k] * c[k]) / scale
        sides = mesh.edge_sides[inner].T.copy()
        self._side_terms = side_terms.ravel()[sides]
        sides %= m
        self._side_tris = sides.astype(np.int32)
        del side_terms, sides
        self._corners = mesh.triangles.ravel()
        self._unit_load = _load_vector(mesh, 1.0)[self.free]
        self.band = _band_layout(self.indptr, self.indices)
        self.transfers = () if self.band else _grid_transfers(mesh, self.free)

    def stiffness(self, a_k: np.ndarray) -> sp.csr_matrix:
        n = len(self.free)
        # bincount adds in input order from zero, element-major
        diagonal = np.bincount(self._corners, weights=(a_k[:, None] * self._diagonal).ravel())
        (t0, t1), (g0, g1) = self._side_tris, self._side_terms
        edges = a_k.take(t0) * g0 + a_k.take(t1) * g1
        data = np.concatenate([diagonal[self.free], edges]).take(self._source)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def load(self, mesh: TriMesh, f) -> np.ndarray:
        if callable(f):
            return _load_vector(mesh, f)[self.free]
        return float(f) * self._unit_load


def _assembler(mesh: TriMesh) -> _MeshAssembler:
    cache = getattr(mesh, "_fem_assembler", None)
    if cache is None:
        cache = _MeshAssembler(mesh)
        mesh._fem_assembler = cache
    return cache


def assemble(mesh: TriMesh, coeff=None, f=1.0) -> SparseSystem:
    """Assemble the stiffness system for -div(a grad u) = f, u = 0 on the boundary."""
    asm = _assembler(mesh)
    a_k = element_coefficients(mesh, coeff)
    return SparseSystem(matrix=asm.stiffness(a_k), rhs=asm.load(mesh, f), free=asm.free,
                        mesh=mesh, transfers=asm.transfers, band=asm.band)


def _norm(v) -> float:
    """Euclidean norm; the same bits as np.linalg.norm of a 1-D float array."""
    return math.sqrt(v @ v)


def _grid_transfer(points, cells: int) -> sp.csr_matrix:
    """P1 interpolation at ``points`` in [0,1]^2 of the interior hat functions
    of the uniform ``cells`` x ``cells`` grid split as ``_tensor_triangulation``
    splits it; columns follow the grid's interior vertices, x fastest."""
    scaled = points * cells
    cell = np.minimum(scaled.astype(np.int64), cells - 1)   # floor: points are >= 0
    xi, eta = (scaled - cell).T
    i, j = cell.T
    v00 = j * (cells + 1) + i
    # the (i, j) -> (i+1, j+1) diagonal splits the cell; the third corner is
    # (i+1, j) below it and (i, j+1) above it
    third = np.where(xi >= eta, v00 + 1, v00 + cells + 1)
    corners = np.column_stack([v00, third, v00 + cells + 2])
    weights = np.column_stack([1.0 - np.maximum(xi, eta), np.abs(xi - eta),
                               np.minimum(xi, eta)])
    gi, gj = corners % (cells + 1), corners // (cells + 1)
    keep = (gi > 0) & (gi < cells) & (gj > 0) & (gj < cells) & (weights != 0.0)
    rows = np.repeat(np.arange(len(points)), 3).reshape(-1, 3)
    return sp.csr_matrix(
        (weights[keep], (rows[keep], (gj[keep] - 1) * (cells - 1) + gi[keep] - 1)),
        shape=(len(points), (cells - 1) ** 2))


def _grid_transfers(mesh: TriMesh, free) -> tuple:
    """Transfers (P, P^T) from the free vertices of a tensor mesh down a chain
    of uniform grids, halving the cells per side until at most COARSEST_CELLS;
    empty for any other mesh."""
    cells = mesh.tensor_cells
    if cells is None:
        return ()
    points = mesh.vertices[free]
    transfers = []
    while cells > COARSEST_CELLS:
        cells //= 2
        transfer = _grid_transfer(points, cells)
        transfers.append((transfer, transfer.T.tocsr()))
        axis = np.arange(1, cells) / cells
        points = np.column_stack([np.tile(axis, cells - 1), np.repeat(axis, cells - 1)])
    return tuple(transfers)


def _vcycle(matrix, transfers):
    """Symmetric V-cycle preconditioner ``apply(r, z)``, z = B r.

    The Galerkin operators P^T A P of this matrix are built per call.  Each
    level makes one damped Jacobi sweep before and one after its coarse
    correction, which makes B symmetric; the coarsest level is solved with
    a dense inverse.
    """
    operators = [matrix]
    for transfer, restrict in transfers:
        operators.append(restrict @ (operators[-1] @ transfer))
    coarsest = np.linalg.inv(operators.pop().toarray())
    coarsest = 0.5 * (coarsest + coarsest.T)
    weights = [SMOOTHING_WEIGHT / op.diagonal() for op in operators]

    def apply(r, z):
        # down the levels: smooth from zero, restrict the residual
        smoothed = []
        for op, weight, (_, restrict) in zip(operators, weights, transfers):
            x = weight * r
            smoothed.append((r, x))
            r = restrict @ (r - op @ x)
        x = coarsest @ r
        # and up: prolong the correction, smooth again
        for op, weight, (transfer, _), (r, fine) in zip(
                reversed(operators), reversed(weights), reversed(transfers), reversed(smoothed)):
            fine += transfer @ x
            fine += weight * (r - op @ fine)
            x = fine
        z[:] = x

    return apply


def pcg(matrix, rhs, rtol=CG_RTOL, precondition=None):
    """Preconditioned conjugate gradients, capped at 20 sqrt(n) iterations.

    ``precondition(r, z)`` writes the preconditioned residual into z; it
    must be symmetric positive definite.  The default is Jacobi,
    z = r / diag(A), which allocates nothing per iteration.  ``solve``
    passes the V-cycle for tensor meshes whose band is wider than BAND_MAX
    and keeps Jacobi for bisected meshes, whose graded refinement the
    uniform auxiliary grids do not see.

    Returns (solution, iterations, relative residual); convergence is
    certified on the true residual rhs - A x.  The reduction order is
    fixed, so results are bit-reproducible for identical inputs.
    """
    n = len(rhs)
    rhs_norm = _norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(n), 0, 0.0
    maxiter = int(np.ceil(20.0 * np.sqrt(n)))
    if precondition is None:
        inv_diag = 1.0 / matrix.diagonal()

        def precondition(r, z):
            np.multiply(inv_diag, r, out=z)
    tol = rtol * rhs_norm

    x = np.zeros(n)
    r = rhs.copy()
    z = np.empty(n)
    precondition(r, z)
    p = z.copy()
    step = np.empty(n)
    rz = r @ z
    for it in range(1, maxiter + 1):
        ap = matrix @ p
        alpha = rz / (p @ ap)
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        if _norm(r) <= tol:
            # the recursive residual drifts below the true one; certify
            # convergence against the actual residual
            np.subtract(rhs, matrix @ x, out=r)
            true_res = _norm(r)
            if true_res <= tol:
                return x, it, true_res / rhs_norm
        precondition(r, z)
        rz_new = r @ z
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, maxiter, _norm(rhs - matrix @ x) / rhs_norm


def _band_cholesky(matrix, rhs, band: _BandLayout):
    """Solve with LAPACK's banded Cholesky (dpbsv) in the band's ordering.

    Returns (solution, relative residual); the residual is the true one,
    rhs - A x.  Raises SolverError if the matrix is not positive definite.
    """
    from scipy.linalg.lapack import dpbsv

    n = len(rhs)
    rhs_norm = _norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(n), 0.0
    buffer = np.zeros(n * (band.width + 1))
    buffer[band.slots] = matrix.data[band.entries]
    # the transpose is Fortran-ordered, so LAPACK factors it in place
    _, y, info = dpbsv(buffer.reshape(n, band.width + 1).T, rhs[band.perm, None],
                       lower=1, overwrite_ab=1, overwrite_b=1)
    if info != 0:
        raise SolverError(f"banded Cholesky failed (LAPACK dpbsv info {info}): "
                          "the matrix is not positive definite", iterations=0)
    x = np.empty(n)
    x[band.perm] = y[:, 0]
    return x, _norm(rhs - matrix @ x) / rhs_norm


def solve(system: SparseSystem, rtol=CG_RTOL) -> FESolution:
    """Solve the reduced system to a true relative residual of ``rtol``;
    raises SolverError if the solver does not reach it.

    A system whose band is at most BAND_MAX is factored (``iterations`` is
    0), a wider one on a tensor mesh takes CG with the V-cycle on its
    mesh's grid transfers, and any other takes Jacobi-PCG.
    """
    if system.band is not None:
        x, relres = _band_cholesky(system.matrix, system.rhs, system.band)
        iterations, method = 0, "banded Cholesky"
    else:
        precondition = _vcycle(system.matrix, system.transfers) if system.transfers else None
        x, iterations, relres = pcg(system.matrix, system.rhs, rtol=rtol,
                                    precondition=precondition)
        method = f"CG within {iterations} iterations"
    if not relres <= rtol:
        raise SolverError(
            f"{method} did not reach rtol={rtol:g} (relative residual {relres:.3e})",
            residual=relres,
            iterations=iterations,
        )
    values = np.zeros(system.mesh.num_vertices)
    values[system.free] = x
    return FESolution(mesh=system.mesh, values=values, iterations=iterations, residual=relres,
                      factored=system.band is not None)


def h1_norm(sol: FESolution) -> float:
    """Full H1 norm of the P1 field, integrated exactly elementwise."""
    areas = sol.mesh.areas
    u0, u1, u2 = sol.corner_values
    gx, gy = sol.gradient_sums
    mass = (areas / 12.0) * ((u0 + u1 + u2) ** 2 + (u0 * u0 + u1 * u1 + u2 * u2))
    return float(np.sqrt(mass.sum() + ((gx**2 + gy**2) / (4.0 * areas)).sum()))
