"""Residual error indicators and Doerfler-marked refinement for -div(a grad u) = 1.

The per-element indicator combines the scaled interior residual with the
normal-flux jumps of the discrete solution,

    eta_K^2 = h_K^2 a_K^{-1} |K|
              + 1/2 sum_{edges of K not on the boundary} h_e a_e^{-1}
                ||[n . a grad u]||_{L2(e)}^2,

with a_e the larger of the two adjacent element values.  The source is 1,
so no data oscillation terms arise and every indicator is positive.  For
P1 elements the flux jump is constant along each edge, so the edge
integral is the squared jump times the edge length.

The total estimator e_j drives the marking loop and gives the samplewise
continuous level l_j = -log(e_j / e_0) of the level-continuous estimators.
``adaptive_hierarchy`` returns one record per sample path: per solve only
(e_j, Q_j, DOF), plus the continuous levels.  It keeps no mesh, solution
or indicator array of a finished step, so only the current mesh is alive
while the path refines.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .fem import FESolution, assemble, h1_norm, solve
from .mesh import TriMesh, bisect_refine

__all__ = [
    "ErrorIndicators",
    "residual_indicators",
    "doerfler_mark",
    "continuous_levels",
    "HierarchyStep",
    "Hierarchy",
    "may_refine",
    "adaptive_hierarchy",
]

log = logging.getLogger(__name__)

MONOTONE_GAP = 1e-6  # enforced minimal level increment for non-decaying estimators


@dataclass
class ErrorIndicators:
    """Per-element indicator values eta_K >= 0."""

    eta: np.ndarray

    @property
    def total(self) -> float:
        """Root-sum-square of the element indicators."""
        return float(np.sqrt((self.eta**2).sum()))


def residual_indicators(sol: FESolution, a_k: np.ndarray) -> ErrorIndicators:
    """Elementwise residual indicators for the discontinuous-coefficient
    problem, with the element values a_k the solution was assembled with."""
    mesh = sol.mesh
    areas = mesh.areas

    # interior residual: h_K^2 a_K^-1 ||1||^2_{L2(K)}
    eta_sq = mesh.diameters**2 / a_k * areas

    # flux jumps: constant per edge for P1
    gx, gy = sol.gradient_sums
    scale = a_k / (2.0 * areas)
    flux_x = gx * scale
    flux_y = gy * scale

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


def continuous_levels(estimators) -> tuple[np.ndarray, int]:
    """Continuous levels -log(e_j / e_0) of an estimator sequence, forced
    strictly increasing.

    A non-decaying estimator (e_j >= e_{j-1}) would break the weight
    formula; such levels are nudged to the previous level plus a tiny gap.
    Returns (levels, number of nudged entries).
    """
    e = np.asarray(estimators, dtype=np.float64)
    if np.any(e <= 0):
        raise ValueError("estimator values must be positive")
    levels = -np.log(e / e[0])
    fixes = 0
    for j in range(1, len(levels)):
        floor = levels[j - 1] + MONOTONE_GAP
        if levels[j] < floor:
            levels[j] = floor
            fixes += 1
    return levels, fixes


@dataclass
class HierarchyStep:
    """What the estimators read of one solve of an adaptive hierarchy."""

    estimator: float   # total indicator e_j
    qoi: float         # H1 norm of the discrete solution
    dof: int


@dataclass
class Hierarchy:
    """An adaptive sample path: solves j = 0, 1, ... with their estimators
    and the continuous levels l_0 = 0 < l_1 < ... < l_J of the estimators."""

    steps: list[HierarchyStep] = field(default_factory=list)
    levels: np.ndarray = field(default_factory=lambda: np.zeros(0))
    level_fixes: int = 0     # levels nudged by continuous_levels
    truncated: bool = False  # cut by the DOF cap before the level target

    @property
    def estimators(self) -> np.ndarray:
        return np.array([s.estimator for s in self.steps])

    @property
    def qois(self) -> np.ndarray:
        return np.array([s.qoi for s in self.steps])

    @property
    def dofs(self) -> np.ndarray:
        return np.array([s.dof for s in self.steps])

    @property
    def cost_dof(self) -> int:
        return int(self.dofs.sum())


def may_refine(num_vertices: int, max_dof: int) -> bool:
    """The DOF cap of an adaptive path: a mesh is refined only while twice its
    vertex count, the predicted count after a refinement, stays below the cap."""
    return 2 * num_vertices < max_dof


def adaptive_hierarchy(coeff, theta: float, initial_mesh: TriMesh, *,
                       max_level: float, max_dof: int | None = None) -> Hierarchy:
    """Solve/estimate/mark/refine until a stopping rule fires.
    The coefficient's ``element_values`` are taken once per mesh, for both
    the solve and the indicators.

    Stopping rules (whichever fires first):
      * ``max_level`` -- stop at the first refined step whose continuous
        level reaches it; the levels of a prefix do not depend on the steps
        after it, so the path's final levels agree with this test,
      * ``max_dof`` -- stop, flagged truncated, when the next refinement is
        predicted (current vertex count x 2) to exceed the cap.
    """
    hierarchy = Hierarchy()
    mesh = initial_mesh
    while True:
        a_k = coeff.element_values(mesh)
        sol = solve(assemble(mesh, a_k))
        ind = residual_indicators(sol, a_k)
        hierarchy.steps.append(
            HierarchyStep(estimator=ind.total, qoi=h1_norm(sol), dof=mesh.num_vertices))
        hierarchy.levels, hierarchy.level_fixes = continuous_levels(hierarchy.estimators)
        if len(hierarchy.steps) > 1 and hierarchy.levels[-1] >= max_level:
            break
        if max_dof is not None and not may_refine(mesh.num_vertices, max_dof):
            hierarchy.truncated = True
            break
        # the unit source keeps every estimator positive, so marking marks an element
        marked = doerfler_mark(ind, theta)
        del sol, ind  # the solution refers to the mesh, which dies once refined
        mesh = bisect_refine(mesh, marked)
    if hierarchy.level_fixes:
        log.debug("level_fixes=%d: nudged non-monotone levels", hierarchy.level_fixes)
    return hierarchy
