"""Piecewise-linear Galerkin solver with homogeneous Dirichlet conditions.

The diffusion coefficient enters elementwise through its barycenter value
a_K, which is exact on meshes aligned with the discontinuities.  Stiffness
integrals are exact for P1; loads are exact for constant sources and use
the three-point edge-midpoint rule (degree 2) otherwise.

Linear systems are solved with diagonally preconditioned conjugate
gradients to a relative residual of 1e-10 (far below every statistical
error in the estimators) with an iteration cap of 20 * sqrt(DOF).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coefficient import CoefficientSample
from .mesh import TriMesh

__all__ = [
    "AssemblyError",
    "SolverError",
    "SparseSystem",
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
    """Barycentric gradient coefficients: grad phi_i = (b_i, c_i) / (2 area)."""
    p = mesh.vertices[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    return b, c


@dataclass
class SparseSystem:
    """Dirichlet-eliminated SPD stiffness system on the interior vertices."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    free: np.ndarray          # interior vertex ids in DOF order
    mesh: TriMesh
    coeff: object = None

    @property
    def num_dof(self) -> int:
        return self.matrix.shape[0]


@dataclass
class FESolution:
    """Nodal P1 solution; boundary entries are exactly zero."""

    mesh: TriMesh
    values: np.ndarray
    coeff: object = None
    iterations: int = 0
    residual: float = 0.0


def _load_vector(mesh: TriMesh, f) -> np.ndarray:
    areas = mesh.areas
    load = np.zeros(mesh.num_vertices)
    if callable(f):
        p = mesh.vertices[mesh.triangles]
        mids = 0.5 * (p[:, [1, 2, 0]] + p[:, [2, 0, 1]])  # midpoint of edge opposite vertex k
        fm = np.asarray(f(mids.reshape(-1, 2))).reshape(-1, 3)
        # phi_i = 1/2 at the two midpoints not opposite vertex i
        contrib = (areas / 6.0)[:, None] * (fm[:, [1, 2, 0]] + fm[:, [2, 0, 1]])
    else:
        contrib = np.broadcast_to((float(f) * areas / 3.0)[:, None], (len(areas), 3))
    np.add.at(load, mesh.triangles.ravel(), contrib.ravel())
    return load


class _MeshAssembler:
    """Per-mesh assembly cache: the sparsity pattern and the geometric part of
    the element matrices are fixed, only the elementwise coefficient varies
    between samples."""

    def __init__(self, mesh: TriMesh):
        areas = mesh.areas
        if np.any(areas <= DEGENERATE_AREA):
            raise AssemblyError("degenerate triangle encountered during assembly")
        self.mesh = mesh
        self.free = np.nonzero(~mesh.boundary_vertex)[0]
        dof_of = np.full(mesh.num_vertices, -1, dtype=np.int64)
        dof_of[self.free] = np.arange(len(self.free))

        b, c = _gradient_factors(mesh)
        geo = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) \
            / (4.0 * areas)[:, None, None]

        t = mesh.triangles
        rows = dof_of[np.repeat(t, 3, axis=1).ravel()]
        cols = dof_of[np.tile(t, (1, 3)).ravel()]
        keep = (rows >= 0) & (cols >= 0)
        rows, cols = rows[keep], cols[keep]
        self._geo_entries = geo.ravel()[keep]
        self._entry_elem = np.repeat(np.arange(len(t)), 9)[keep]

        n = len(self.free)
        order = np.lexsort((cols, rows))
        ro, co = rows[order], cols[order]
        new_entry = np.ones(len(ro), dtype=bool)
        new_entry[1:] = (ro[1:] != ro[:-1]) | (co[1:] != co[:-1])
        slot_sorted = np.cumsum(new_entry) - 1
        self._slots = np.empty(len(ro), dtype=np.int64)
        self._slots[order] = slot_sorted
        self.nnz = int(slot_sorted[-1]) + 1
        self.indices = co[new_entry]
        counts = np.bincount(ro[new_entry], minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self._unit_load = _load_vector(mesh, 1.0)[self.free]

    def stiffness(self, a_k: np.ndarray) -> sp.csr_matrix:
        data = np.bincount(
            self._slots, weights=a_k[self._entry_elem] * self._geo_entries, minlength=self.nnz
        )
        n = len(self.free)
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    def load(self, f) -> np.ndarray:
        if callable(f):
            return _load_vector(self.mesh, f)[self.free]
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
    return SparseSystem(
        matrix=asm.stiffness(a_k), rhs=asm.load(f), free=asm.free, mesh=mesh, coeff=coeff
    )


def pcg(matrix, rhs, rtol=CG_RTOL, maxiter=None):
    """Jacobi-preconditioned conjugate gradients.

    Returns (solution, iterations, relative residual).  The reduction order
    is fixed, so results are bit-reproducible for identical inputs.
    """
    n = len(rhs)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros(n), 0, 0.0
    if maxiter is None:
        maxiter = int(np.ceil(20.0 * np.sqrt(n)))
    inv_diag = 1.0 / matrix.diagonal()

    x = np.zeros(n)
    r = rhs.copy()
    z = inv_diag * r
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        ap = matrix @ p
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= rtol * rhs_norm:
            # the recursive residual drifts below the true one; certify
            # convergence against the actual residual
            true_res = np.linalg.norm(rhs - matrix @ x)
            if true_res <= rtol * rhs_norm:
                return x, it, true_res / rhs_norm
            r = rhs - matrix @ x
        z = inv_diag * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxiter, np.linalg.norm(rhs - matrix @ x) / rhs_norm


def solve(system: SparseSystem, rtol=CG_RTOL) -> FESolution:
    """Solve the reduced system; raises SolverError if CG does not converge."""
    x, iterations, relres = pcg(system.matrix, system.rhs, rtol=rtol)
    if relres > rtol:
        raise SolverError(
            f"CG did not reach rtol={rtol:g} within {iterations} iterations "
            f"(relative residual {relres:.3e})",
            residual=relres,
            iterations=iterations,
        )
    values = np.zeros(system.mesh.num_vertices)
    values[system.free] = x
    return FESolution(
        mesh=system.mesh, values=values, coeff=system.coeff,
        iterations=iterations, residual=relres,
    )


def _element_grad_sq(mesh: TriMesh, values) -> np.ndarray:
    """Per-element |grad v|^2 * area for a nodal field v."""
    b, c = _gradient_factors(mesh)
    ue = values[mesh.triangles]
    gx = (ue * b).sum(axis=1)
    gy = (ue * c).sum(axis=1)
    return (gx**2 + gy**2) / (4.0 * mesh.areas)


def h1_norm(sol: FESolution) -> float:
    """Full H1 norm of the P1 field, integrated exactly elementwise."""
    mesh, u = sol.mesh, sol.values
    ue = u[mesh.triangles]
    mass = (mesh.areas / 12.0) * ((ue.sum(axis=1)) ** 2 + (ue**2).sum(axis=1))
    return float(np.sqrt(mass.sum() + _element_grad_sq(mesh, u).sum()))


def energy_norm(sol: FESolution, coeff=None) -> float:
    """Energy norm sqrt(sum_K a_K int_K |grad v|^2) of a solution or difference."""
    if coeff is None:
        coeff = sol.coeff
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
    gxh = (ue * b).sum(axis=1) / (2.0 * mesh.areas)
    gyh = (ue * c).sum(axis=1) / (2.0 * mesh.areas)

    du = (np.asarray(exact(flat)).reshape(uh.shape) - uh) ** 2
    g = np.asarray(exact_grad(flat)).reshape(pts.shape[0], pts.shape[1], 2)
    dg = (g[:, :, 0] - gxh[:, None]) ** 2 + (g[:, :, 1] - gyh[:, None]) ** 2

    l2_sq = (mesh.areas[:, None] * _QW * du).sum()
    h1_semi_sq = (mesh.areas[:, None] * _QW * dg).sum()
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + h1_semi_sq))
