"""Residual a-posteriori error indicators and Doerfler-marked refinement.

The per-element indicator combines the scaled interior residual with the
normal-flux jumps of the discrete solution,

    eta_K^2 = h_K^2 a_K^{-1} ||f||_{L2(K)}^2
              + 1/2 sum_{edges of K not on the boundary} h_e a_e^{-1}
                ||[n . a grad u]||_{L2(e)}^2,

with a_e the larger of the two adjacent element values.  For P1 elements
the flux jump is constant along each edge, so the edge integral is the
squared jump times the edge length; the source is used exactly (constant
case) or through the degree-2 edge-midpoint rule, so no separate data
oscillation terms arise.

The total estimator drives both the marking loop and the samplewise
continuous levels of the level-continuous estimators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import (
    FESolution,
    _corner_sum,
    _edge_midpoints,
    _gradient_factors,
    assemble,
    element_coefficients,
    h1_norm,
    solve,
)
from .mesh import TriMesh, bisect_refine

__all__ = [
    "ErrorIndicators",
    "residual_indicators",
    "doerfler_mark",
    "HierarchyStep",
    "Hierarchy",
    "adaptive_hierarchy",
]


@dataclass
class ErrorIndicators:
    """Per-element indicator values eta_K >= 0."""

    eta: np.ndarray

    @property
    def total(self) -> float:
        """Root-sum-square of the element indicators."""
        return float(np.sqrt((self.eta**2).sum()))


def residual_indicators(sol: FESolution, coeff=None, f=1.0) -> ErrorIndicators:
    """Elementwise residual indicators for the discontinuous-coefficient problem."""
    mesh = sol.mesh
    if coeff is None:
        coeff = sol.coeff
    a_k = element_coefficients(mesh, coeff)
    areas = mesh.areas

    # interior residual: h_K^2 a_K^-1 ||f||^2_{L2(K)}
    if callable(f):
        fm = np.asarray(f(_edge_midpoints(mesh).reshape(-1, 2))).reshape(-1, 3)
        fsq = (fm**2).mean(axis=1) * areas
    else:
        fsq = float(f) ** 2 * areas
    eta_sq = mesh.diameters**2 / a_k * fsq

    # flux jumps: constant per edge for P1
    b, c = _gradient_factors(mesh)
    ue = mesh.corner_values(sol.values)
    scale = a_k / (2.0 * areas)
    flux_x = _corner_sum(ue, b) * scale
    flux_y = _corner_sum(ue, c) * scale

    interior = np.flatnonzero(~mesh.boundary_edge)
    left, right = mesh.edge_tris[interior].T
    head, tail = mesh.edges[interior].T
    x, y = mesh.vertices.T
    h_e = mesh.edge_lengths[interior]
    normal_x = (y[tail] - y[head]) / h_e
    normal_y = -(x[tail] - x[head]) / h_e
    jump = (flux_x[left] - flux_x[right]) * normal_x + (flux_y[left] - flux_y[right]) * normal_y
    a_e = np.maximum(a_k[left], a_k[right])
    # ||jump||^2_{L2(e)} = jump^2 h_e; the 1/2 accounts for each edge
    # appearing in the edge set of both neighbours
    edge_term = 0.5 * h_e**2 / a_e * jump**2
    np.add.at(eta_sq, left, edge_term)
    np.add.at(eta_sq, right, edge_term)

    return ErrorIndicators(eta=np.sqrt(eta_sq))


def doerfler_mark(indicators: ErrorIndicators, theta: float) -> np.ndarray:
    """Smallest-cardinality element set holding a theta-fraction of the squared mass.

    Realized by taking the minimal prefix of the indicators sorted in
    descending order; ties are broken towards lower element ids, so the
    output is deterministic.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("marking parameter theta must lie in (0, 1)")
    eta_sq = indicators.eta**2
    total = eta_sq.sum()
    if total == 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-eta_sq, kind="stable")
    csum = np.cumsum(eta_sq[order])
    k = int(np.searchsorted(csum, theta * total, side="left")) + 1
    return np.sort(order[:k])


@dataclass
class HierarchyStep:
    """One solve of an adaptive hierarchy."""

    mesh: TriMesh
    solution: FESolution
    indicators: ErrorIndicators
    estimator: float   # total indicator e_j
    qoi: float         # H1 norm of the discrete solution
    dof: int


@dataclass
class Hierarchy:
    """An adaptive sample path: solves j = 0, 1, ... with their estimators."""

    steps: list[HierarchyStep] = field(default_factory=list)
    truncated: bool = False

    @property
    def estimators(self) -> np.ndarray:
        return np.array([s.estimator for s in self.steps])

    @property
    def qois(self) -> np.ndarray:
        return np.array([s.qoi for s in self.steps])

    @property
    def dofs(self) -> np.ndarray:
        return np.array([s.dof for s in self.steps])


def adaptive_hierarchy(
    coeff,
    f,
    theta: float,
    initial_mesh: TriMesh,
    *,
    max_refinements: int | None = None,
    max_dof: int | None = None,
    stop_when=None,
) -> Hierarchy:
    """Solve/estimate/mark/refine until a stopping rule fires.

    Stopping rules (combined; whichever fires first):
      * ``max_refinements`` -- stop after this many refinements,
      * ``max_dof`` -- stop, flagged truncated, when the next refinement is
        predicted (current vertex count x 2) to exceed the cap,
      * ``stop_when(steps)`` -- arbitrary predicate on the recorded steps,
        e.g. a target continuous level.
    """
    hierarchy = Hierarchy()
    mesh = initial_mesh
    while True:
        sol = solve(assemble(mesh, coeff, f))
        ind = residual_indicators(sol, coeff, f)
        hierarchy.steps.append(
            HierarchyStep(
                mesh=mesh, solution=sol, indicators=ind,
                estimator=ind.total, qoi=h1_norm(sol), dof=mesh.num_vertices,
            )
        )
        refinements_done = len(hierarchy.steps) - 1
        if stop_when is not None and stop_when(hierarchy.steps):
            break
        if max_refinements is not None and refinements_done >= max_refinements:
            break
        if max_dof is not None and 2 * mesh.num_vertices >= max_dof:
            hierarchy.truncated = True
            break
        marked = doerfler_mark(ind, theta)
        if marked.size == 0:  # estimator identically zero; nothing to refine
            hierarchy.truncated = True
            break
        mesh = bisect_refine(mesh, marked)
    return hierarchy
