"""Piecewise-linear Galerkin solver for -div(a grad u) = 1, u = 0 on the boundary.

The diffusion coefficient enters as one value a_K per element, which the
caller evaluates (the coefficient model takes it at the barycenter, exact
on meshes aligned with the discontinuities).  Stiffness and load integrals
are exact for P1.

The stiffness pattern and values come from the mesh's edge table.  All but
a_K is set up on first assembly and kept with the mesh: the free vertices,
the int32 CSR indices and row pointers, where each entry takes its value,
the triangles and terms g of the two sides of each edge joining free
vertices (an off-diagonal entry is their two-term sum: the same bits in
either order), each element's diagonal terms g_ii (a bincount adds them in
element-major order), the unit load, and the band layout or the multigrid
coarsenings.

One rule picks the solver of a mesh, from its geometry alone, when the mesh
is first assembled.

* A tensor mesh with at least MULTIGRID_CELLS cells on each side gets
  conjugate gradients preconditioned by a symmetric V(1,1)-cycle of
  black-box multigrid (the multigrid module; Alcouffe, Brandt, Dendy &
  Painter, SISSC 1981; Dendy, J. Comput. Phys. 1982).  Its grids are the mesh's own grid of
  free vertices and, below it, every other row and column of the grid
  above.  The interpolation P takes its weights from the operator it
  coarsens, the coarse operators are the Galerkin products P^T A P, and
  all of them are built per solve; only their patterns are kept with the
  mesh.  The weights must depend on the operator: across a jump of the
  coefficient by a factor of 300 the solution's gradient jumps by as much,
  and geometric interpolation, which averages across it, cannot represent
  the smooth error there: a V-cycle with geometric transfers took 24-39
  iterations on uniform levels 6-7 (five draws each of the box and cross
  coefficients), and 24 with an exact coarse solve.  This cycle takes
  13-15 on tensor meshes of 64-257 cells a side.
* Every other mesh whose stiffness band under a reverse Cuthill-McKee
  ordering (Cuthill & McKee 1969; George & Liu 1981) is at most BAND_MAX
  is factored with LAPACK's banded Cholesky.  On a tensor mesh of c cells
  a side RCM gives the optimal band c - 1.  A factorisation costs about c^4
  and the multigrid about c^2 times its iterations: at 76 cells the band
  takes 3.9 ms against the multigrid's 5.1-5.4 ms, at 114 cells 14.1-14.2
  against 10.4 ms, and the two meet at 90-96 cells (contrast 300, box and
  cross coefficients, least of 9 solves, one BLAS thread).
  MULTIGRID_CELLS = 100, the round value just above, puts the uniform and
  aligned levels 0-4 (at most 78 cells) on the band and levels 5 and up
  (at least 114) on the multigrid.  The bisected meshes of adaptive paths are factored up to
  about 1,000 DOF, where their graded bands, 1-4 times the square root of
  their size, reach BAND_MAX = 120; a factor, which lives for one solve,
  holds at most (BAND_MAX + 1) BAND_MAX^2 doubles, about 14 MB.
* Wider bisected meshes get Jacobi-preconditioned CG.  Their vertices lie
  on no grid, and each is solved only once.

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
# Tensor meshes with at least this many cells on each side take multigrid-PCG,
# which beats their banded factorisation there (see the module docstring)
MULTIGRID_CELLS = 100
# Other systems whose band is at most this wide are factored: a factor then
# holds at most 14 MB
BAND_MAX = 120


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass
class SparseSystem:
    """Dirichlet-eliminated SPD stiffness system on the interior vertices."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray          # interior vertex ids in DOF order
    mesh: TriMesh
    band: _BandLayout | None  # the mesh's band layout, if it is factored
    coarsenings: tuple        # the mesh's multigrid coarsenings, if it has them

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
        # the unit source gives each corner a third of its element's area;
        # bincount adds in input order from zero, as np.add.at would
        self.load = np.bincount(self._corners, weights=np.repeat(areas / 3.0, 3),
                                minlength=mesh.num_vertices)[self.free]
        for arr in (self.indices, self.indptr, self.load):
            arr.setflags(write=False)
        shape = mesh.tensor_cells
        self.coarsenings, self.band = (), None
        if shape and min(shape) >= MULTIGRID_CELLS:
            # imported where a mesh first takes it: compiled at import, the
            # module would add to every start-up
            from .multigrid import coarsenings

            self.coarsenings = coarsenings(shape, self.indptr, self.indices)
        else:
            self.band = _band_layout(self.indptr, self.indices)

    def stiffness(self, a_k: np.ndarray) -> sp.csr_matrix:
        n = len(self.free)
        # bincount adds in input order from zero, element-major
        diagonal = np.bincount(self._corners, weights=(a_k[:, None] * self._diagonal).ravel())
        (t0, t1), (g0, g1) = self._side_tris, self._side_terms
        edges = a_k.take(t0) * g0 + a_k.take(t1) * g1
        data = np.concatenate([diagonal[self.free], edges]).take(self._source)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))


def _assembler(mesh: TriMesh) -> _MeshAssembler:
    cache = getattr(mesh, "_fem_assembler", None)
    if cache is None:
        cache = _MeshAssembler(mesh)
        mesh._fem_assembler = cache
    return cache


def assemble(mesh: TriMesh, a_k: np.ndarray) -> SparseSystem:
    """The system of -div(a grad u) = 1, u = 0 on the boundary, with a = a_k[K]
    on element K; every system of a mesh shares its one read-only load."""
    asm = _assembler(mesh)
    return SparseSystem(matrix=asm.stiffness(a_k), rhs=asm.load, free=asm.free,
                        mesh=mesh, band=asm.band, coarsenings=asm.coarsenings)


def _norm(v) -> float:
    """Euclidean norm; the same bits as np.linalg.norm of a 1-D float array."""
    return math.sqrt(v @ v)


def pcg(matrix, rhs, rtol=CG_RTOL, precondition=None):
    """Preconditioned conjugate gradients, capped at 20 sqrt(n) iterations.

    ``precondition(r, z)`` writes the preconditioned residual into z; it
    must be symmetric positive definite.  The default is Jacobi,
    z = r / diag(A), which allocates nothing per iteration.  ``solve``
    passes the V-cycle for tensor meshes of at least MULTIGRID_CELLS cells
    a side and keeps Jacobi for bisected meshes, which have no grid.

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
    return x, _norm(rhs - matrix @ x) / _norm(rhs)


def solve(system: SparseSystem, rtol=CG_RTOL) -> FESolution:
    """Solve the reduced system to a true relative residual of ``rtol``;
    raises SolverError if the solver does not reach it.

    A system on a tensor mesh of at least MULTIGRID_CELLS cells a side takes
    CG with the V-cycle on its mesh's coarsenings, any other whose band is
    at most BAND_MAX is factored (``iterations`` is 0), and the rest take
    Jacobi-PCG.
    """
    if system.band is not None:
        x, relres = _band_cholesky(system.matrix, system.rhs, system.band)
        iterations, method = 0, "banded Cholesky"
    else:
        precondition = None
        if system.coarsenings:
            from .multigrid import vcycle

            precondition = vcycle(system.matrix, system.coarsenings)
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
