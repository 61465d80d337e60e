"""Piecewise-linear Galerkin solver with homogeneous Dirichlet conditions.

The diffusion coefficient enters elementwise through its barycenter value
a_K, which is exact on meshes aligned with the discontinuities.  Stiffness
integrals are exact for P1; loads are exact for constant sources and use
the three-point edge-midpoint rule (degree 2) otherwise.

Linear systems are solved with preconditioned conjugate gradients to a
true relative residual of 1e-10 (far below every statistical error in the
estimators) with an iteration cap of 20 * sqrt(DOF).  The preconditioner
depends on the mesh:

* Tensor meshes of [0,1]^2 with more than MULTIGRID_CELLS cells a side
  (the uniform family and the aligned meshes from level 2 on) get a
  symmetric V-cycle on auxiliary uniform grids (Xu, Computing 1996).  Its
  transfers interpolate the coarse grids' hat functions at the fine free
  vertices, which need not be coarse-grid nodes; they depend on geometry
  alone and are cached with the mesh's assembly data, while the Galerkin
  operators P^T A P are built per solve.  CG then takes 10-40 iterations
  where Jacobi takes hundreds.
* Every other mesh gets Jacobi.  Bisected meshes are graded towards the
  coefficient's jumps, which uniform auxiliary grids do not resolve, and
  each is solved only once, so its transfers would not pay for themselves;
  on smaller meshes the V-cycle's set-up costs as much as it saves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "energy_norm",
    "error_norms",
]

CG_RTOL = 1e-10
DEGENERATE_AREA = 1e-14
COARSEST_CELLS = 16       # the V-cycle's coarsest grid has at most this many cells a side
# Tensor meshes with more cells a side than this get the V-cycle.  On a mesh
# that is solved once, Jacobi-PCG costs no more than the V-cycle's set-up up
# to about 40 cells a side (box coefficient, contrast 300).
MULTIGRID_CELLS = 32
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


def _gradient_factors(mesh: TriMesh):
    """Barycentric gradient coefficients grad phi_i = (b_i, c_i) / (2 area),
    as the column triples (b_0, b_1, b_2), (c_0, c_1, c_2)."""
    (x0, x1, x2), (y0, y1, y2) = mesh.corner_coordinates()
    return (y1 - y2, y2 - y0, y0 - y1), (x2 - x1, x0 - x2, x1 - x0)


def _corner_sum(values, b):
    """v_0 b_0 + v_1 b_1 + v_2 b_2 of per-corner columns, added left to right
    (the order of a row sum over an (M, 3) array)."""
    v0, v1, v2 = values
    b0, b1, b2 = b
    return v0 * b0 + v1 * b1 + v2 * b2


@dataclass
class SparseSystem:
    """Dirichlet-eliminated SPD stiffness system on the interior vertices."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray          # interior vertex ids in DOF order
    mesh: TriMesh
    transfers: tuple          # the mesh's multigrid transfers (P, P^T), if any

    @property
    def num_dof(self) -> int:
        return self.matrix.shape[0]


@dataclass
class FESolution:
    """Nodal P1 solution; boundary entries are exactly zero."""

    mesh: TriMesh
    values: np.ndarray
    iterations: int = 0
    residual: float = 0.0


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


class _MeshAssembler:
    """Per-mesh assembly cache: the sparsity pattern and the geometric part of
    the element matrices are fixed, only the elementwise coefficient varies
    between samples.

    The cache lives on its mesh and holds no reference back to it: the pair
    would form a cycle, which only the cyclic garbage collector frees, and
    every mesh of an adaptive path would outlive the path.
    """

    def __init__(self, mesh: TriMesh):
        areas = mesh.areas
        if np.any(areas <= DEGENERATE_AREA):
            raise AssemblyError("degenerate triangle encountered during assembly")
        self.free = np.flatnonzero(~mesh.boundary_vertex)
        n = len(self.free)
        dof_of = np.full(mesh.num_vertices, -1, dtype=np.int64)
        dof_of[self.free] = np.arange(n)

        # entry (K, i, j) couples the corners t_i, t_j of element K; entries
        # stay in this element-major order, which fixes the order in which
        # stiffness() adds them up
        dofs = dof_of[mesh.triangles]
        rows = np.repeat(dofs, 3, axis=1).ravel()
        cols = np.tile(dofs, (1, 3)).ravel()
        keep = (rows >= 0) & (cols >= 0)
        keys = rows[keep]
        keys *= n
        keys += cols[keep]
        del dofs, rows, cols
        pattern, slots = np.unique(keys, return_inverse=True)
        del keys
        self._slots = slots.astype(np.int32)
        del slots
        self.nnz = len(pattern)
        # int32 indices, which scipy would otherwise make for every matrix
        self.indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
        pattern %= n
        self.indices = pattern.astype(np.int32)
        for arr in (self.indices, self.indptr):
            arr.setflags(write=False)

        b, c = _gradient_factors(mesh)
        scale = 4.0 * areas
        geo = np.empty((mesh.num_triangles, 3, 3))
        for i in range(3):
            for j in range(i, 3):
                geo[:, i, j] = (b[i] * b[j] + c[i] * c[j]) / scale
                geo[:, j, i] = geo[:, i, j]
        self._geo_entries = geo.ravel()[keep]
        del geo
        self._entry_elem = (np.flatnonzero(keep) // 9).astype(np.int32)
        self._unit_load = _load_vector(mesh, 1.0)[self.free]
        self.transfers = _grid_transfers(mesh, self.free)

    def stiffness(self, a_k: np.ndarray) -> sp.csr_matrix:
        data = np.bincount(
            self._slots, weights=a_k[self._entry_elem] * self._geo_entries, minlength=self.nnz
        )
        n = len(self.free)
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
                        mesh=mesh, transfers=asm.transfers)


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
    empty for any other mesh and for tensor meshes of at most MULTIGRID_CELLS."""
    cells = mesh.tensor_cells
    if cells is None or cells <= MULTIGRID_CELLS:
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
    passes the V-cycle for tensor meshes finer than MULTIGRID_CELLS and
    keeps Jacobi for bisected meshes, whose graded refinement the uniform
    auxiliary grids do not see.

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


def solve(system: SparseSystem, rtol=CG_RTOL) -> FESolution:
    """Solve the reduced system; raises SolverError if CG does not converge.

    Systems on fine tensor meshes are preconditioned with the V-cycle on
    their mesh's grid transfers, all others with Jacobi.
    """
    precondition = _vcycle(system.matrix, system.transfers) if system.transfers else None
    x, iterations, relres = pcg(system.matrix, system.rhs, rtol=rtol, precondition=precondition)
    if relres > rtol:
        raise SolverError(
            f"CG did not reach rtol={rtol:g} within {iterations} iterations "
            f"(relative residual {relres:.3e})",
            residual=relres,
            iterations=iterations,
        )
    values = np.zeros(system.mesh.num_vertices)
    values[system.free] = x
    return FESolution(mesh=system.mesh, values=values, iterations=iterations, residual=relres)


def _element_grad_sq(mesh: TriMesh, values) -> np.ndarray:
    """Per-element |grad v|^2 * area for a nodal field v."""
    b, c = _gradient_factors(mesh)
    ue = mesh.corner_values(values)
    gx = _corner_sum(ue, b)
    gy = _corner_sum(ue, c)
    return (gx**2 + gy**2) / (4.0 * mesh.areas)


def h1_norm(sol: FESolution) -> float:
    """Full H1 norm of the P1 field, integrated exactly elementwise."""
    mesh, u = sol.mesh, sol.values
    u0, u1, u2 = mesh.corner_values(u)
    mass = (mesh.areas / 12.0) * ((u0 + u1 + u2) ** 2 + (u0 * u0 + u1 * u1 + u2 * u2))
    return float(np.sqrt(mass.sum() + _element_grad_sq(mesh, u).sum()))


def energy_norm(sol: FESolution, coeff) -> float:
    """Energy norm sqrt(sum_K a_K int_K |grad v|^2) of a solution or difference."""
    a_k = element_coefficients(sol.mesh, coeff)
    return float(np.sqrt((a_k * _element_grad_sq(sol.mesh, sol.values)).sum()))


# degree-5 quadrature on the reference triangle (barycentric points, weights sum to 1)
_QW = np.array(
    [9.0 / 40.0]
    + [(155.0 + np.sqrt(15.0)) / 1200.0] * 3
    + [(155.0 - np.sqrt(15.0)) / 1200.0] * 3
)
_a1, _b1 = (6.0 + np.sqrt(15.0)) / 21.0, (9.0 - 2.0 * np.sqrt(15.0)) / 21.0
_a2, _b2 = (6.0 - np.sqrt(15.0)) / 21.0, (9.0 + 2.0 * np.sqrt(15.0)) / 21.0
_QP = np.array(
    [
        [1 / 3, 1 / 3, 1 / 3],
        [_b1, _a1, _a1], [_a1, _b1, _a1], [_a1, _a1, _b1],
        [_b2, _a2, _a2], [_a2, _b2, _a2], [_a2, _a2, _b2],
    ]
)


def error_norms(sol: FESolution, exact, exact_grad):
    """(L2, H1) errors against a smooth exact solution via degree-5 quadrature."""
    mesh, u = sol.mesh, sol.values
    p = mesh.vertices[mesh.triangles]          # (M, 3, 2)
    pts = np.einsum("qi,mid->mqd", _QP, p)     # (M, Q, 2)
    flat = pts.reshape(-1, 2)
    ue = u[mesh.triangles]
    uh = np.einsum("qi,mi->mq", _QP, ue)
    b, c = _gradient_factors(mesh)
    gxh = _corner_sum(ue.T, b) / (2.0 * mesh.areas)
    gyh = _corner_sum(ue.T, c) / (2.0 * mesh.areas)

    du = (np.asarray(exact(flat)).reshape(uh.shape) - uh) ** 2
    g = np.asarray(exact_grad(flat)).reshape(pts.shape[0], pts.shape[1], 2)
    dg = (g[:, :, 0] - gxh[:, None]) ** 2 + (g[:, :, 1] - gyh[:, None]) ** 2

    l2_sq = (mesh.areas[:, None] * _QW * du).sum()
    h1_semi_sq = (mesh.areas[:, None] * _QW * dg).sum()
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + h1_semi_sq))
