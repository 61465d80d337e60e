import math

import numpy as np
import pytest
from adaptive_replay import REPLAYED, replay_hierarchy
from reference_numerics import energy_norm, error_norms

from levelmc.coefficient import CoefficientSample
from levelmc.fem import FESolution, assemble, h1_norm, solve
from levelmc.indicator import (
    ErrorIndicators,
    adaptive_hierarchy,
    continuous_levels,
    doerfler_mark,
    residual_indicators,
)
from levelmc.mesh import structured_unit_square


def brute_force_min_marking(eta_sq, theta):
    """Smallest subset cardinality meeting the bulk criterion (exhaustive)."""
    n = len(eta_sq)
    need = theta * eta_sq.sum()
    best = n
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if eta_sq[members].sum() >= need:
            best = min(best, len(members))
    return best


class TestResidualIndicators:
    def test_zero_solution_zero_source(self):
        mesh = structured_unit_square(2)
        sol = FESolution(mesh, np.zeros(mesh.num_vertices))
        ind = residual_indicators(sol, None, 0.0)
        assert np.all(ind.eta == 0.0)

    def test_two_triangle_hand_value(self):
        # u = 0, f = 1, a = 1 on the 2-triangle unit square:
        # eta_K^2 = h_K^2 * ||f||^2 = 2 * 1/2 = 1, no jumps
        mesh = structured_unit_square(1)
        sol = FESolution(mesh, np.zeros(mesh.num_vertices))
        ind = residual_indicators(sol, None, 1.0)
        assert np.allclose(ind.eta, 1.0)
        assert ind.total == pytest.approx(np.sqrt(2.0))

    def test_linear_field_no_jumps(self):
        mesh = structured_unit_square(4)
        values = 0.7 * mesh.vertices[:, 0] - 1.3 * mesh.vertices[:, 1]
        ind = residual_indicators(FESolution(mesh, values), 2.0, 0.0)
        assert np.allclose(ind.eta, 0.0, atol=1e-14)

    def test_efficiency_band_on_manufactured_problem(self):
        # total estimator / true energy error stays within a fixed band
        exact_grad = lambda p: np.stack(
            [
                np.pi * np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                np.pi * np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
            ],
            axis=1,
        )
        f = lambda p: (
            2 * np.pi**2 * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        )
        for n in (8, 12, 18, 27, 40):
            sol = solve(assemble(structured_unit_square(n), None, f))
            ind = residual_indicators(sol, None, f)
            _, h1_err = error_norms(
                sol,
                lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
                exact_grad,
            )
            ratio = ind.total / h1_err
            assert 0.5 <= ratio <= 20.0

    def test_total_is_root_sum_square(self):
        eta = np.array([0.3, 1.2, 0.05, 2.0])
        assert ErrorIndicators(eta).total == pytest.approx(np.sqrt((eta**2).sum()))


class TestTotalEstimator:
    def test_simple_values(self):
        assert ErrorIndicators(np.array([1.0, 1.0])).total == pytest.approx(np.sqrt(2))
        assert ErrorIndicators(np.array([3.0, 4.0])).total == pytest.approx(5.0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        eta = rng.random(20)
        shuffled = rng.permutation(eta)
        assert ErrorIndicators(eta).total == pytest.approx(ErrorIndicators(shuffled).total)


class TestDoerflerMark:
    def test_hand_case(self):
        ind = ErrorIndicators(np.array([3.0, 2.0, 1.0]))
        assert doerfler_mark(ind, 0.5).tolist() == [0]

    def test_theta_near_zero_marks_one(self):
        ind = ErrorIndicators(np.array([0.5, 0.1, 0.9]))
        assert len(doerfler_mark(ind, 1e-12)) == 1

    def test_equal_indicators(self):
        ind = ErrorIndicators(np.ones(4))
        assert len(doerfler_mark(ind, 0.5)) == 2

    def test_tie_break_by_lower_id(self):
        # all indicators equal: the minimal prefix takes the lowest ids
        ind = ErrorIndicators(np.array([2.0, 2.0, 2.0, 2.0]))
        marked = doerfler_mark(ind, 0.49)
        assert marked.tolist() == [0, 1]

    def test_bulk_criterion_holds_and_is_minimal(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = rng.integers(1, 13)
            eta = rng.random(n) * 10.0 ** rng.integers(-2, 3)
            theta = rng.uniform(0.05, 0.95)
            ind = ErrorIndicators(eta)
            marked = doerfler_mark(ind, theta)
            eta_sq = eta**2
            assert eta_sq[marked].sum() >= theta * eta_sq.sum() - 1e-12
            assert len(marked) == brute_force_min_marking(eta_sq, theta)

    def test_all_zero_marks_nothing(self):
        assert len(doerfler_mark(ErrorIndicators(np.zeros(5)), 0.5)) == 0

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            doerfler_mark(ErrorIndicators(np.ones(3)), 1.0)


class TestAdaptiveHierarchy:
    @pytest.mark.parametrize("case", REPLAYED)
    def test_replay_gives_the_hierarchy_bit_for_bit(self, case):
        coeff, mesh, refinements = REPLAYED[case]
        replayed = replay_hierarchy(coeff, mesh, refinements)
        # the levels increase strictly, so the path stops at the replay's last step
        levels, _ = continuous_levels([ind.total for _, _, ind in replayed])
        h = adaptive_hierarchy(coeff, 0.5, mesh, max_level=levels[-1])
        assert [(s.estimator, s.qoi, s.dof) for s in h.steps] == \
            [(ind.total, h1_norm(sol), m.num_vertices) for m, sol, ind in replayed]

    def test_zero_refinements_single_step(self):
        coeff = CoefficientSample("box", 0.5, 0.5, 300.0, length=0.25)
        mesh = structured_unit_square(8)
        # a level target refines at least once; a DOF cap at the initial mesh does not
        h = adaptive_hierarchy(coeff, 0.5, mesh, max_level=1.0, max_dof=2 * mesh.num_vertices)
        assert len(h.steps) == 1 and h.truncated
        [(_, sol, ind)] = replay_hierarchy(coeff, mesh, 0)
        assert h.steps[0].dof == mesh.num_vertices
        assert (h.steps[0].estimator, h.steps[0].qoi) == (ind.total, h1_norm(sol))
        assert h.steps[0].qoi > 0 and h.steps[0].estimator > 0

    def test_refinement_concentrates_at_discontinuity(self):
        coeff, mesh0, refinements = REPLAYED["concentration"]
        final_mesh = replay_hierarchy(coeff, mesh0, refinements)[-1][0]
        new_vertices = final_mesh.vertices[mesh0.num_vertices:]
        # distance to the boundary of the box [0.25,0.55]x[0.45,0.75]
        dx = np.maximum.reduce([0.25 - new_vertices[:, 0], new_vertices[:, 0] - 0.55,
                                np.zeros(len(new_vertices))])
        dy = np.maximum.reduce([0.45 - new_vertices[:, 1], new_vertices[:, 1] - 0.75,
                                np.zeros(len(new_vertices))])
        outside = np.hypot(dx, dy)
        inside = np.minimum.reduce([
            np.abs(new_vertices[:, 0] - 0.25), np.abs(new_vertices[:, 0] - 0.55),
            np.abs(new_vertices[:, 1] - 0.45), np.abs(new_vertices[:, 1] - 0.75),
        ])
        dist = np.where(outside > 0, outside, inside)
        assert (dist <= 0.05).mean() >= 0.6

    def test_max_dof_truncates(self):
        coeff = CoefficientSample("box", 0.45, 0.55, 300.0, length=0.25)
        h = adaptive_hierarchy(coeff, 0.5, structured_unit_square(15),
                               max_level=math.inf, max_dof=1000)
        assert h.truncated
        assert h.steps[-1].dof < 1000

    def test_estimators_recorded_even_if_non_monotone(self):
        coeff = CoefficientSample("box", 0.4, 0.6, 300.0, length=0.3)
        # levels 0.468 at steps 3-5 (4 and 5 nudged) and 0.644 at step 6
        h = adaptive_hierarchy(coeff, 0.5, structured_unit_square(15), max_level=0.6)
        assert len(h.estimators) == 7
        assert (h.estimators > 0).all()


class TestEnergyGalerkin:
    def test_energy_norm_of_difference(self):
        mesh = structured_unit_square(6)
        coeff = CoefficientSample("cross", 0.5, 0.5, 10.0)
        sol = solve(assemble(mesh, coeff, 1.0))
        diff = FESolution(mesh, sol.values - sol.values)
        assert energy_norm(diff, coeff) == 0.0


def row_reduction_indicators(sol, coeff, f=1.0):
    """Residual indicators with the flux, normal and jump taken by row
    reductions over 3-D gathers."""
    mesh = sol.mesh
    a_k = coeff.element_values(mesh)
    areas = mesh.areas
    d = mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]]
    diameters = np.hypot(d[:, 0], d[:, 1])[mesh.tri_edges].max(axis=1)
    eta_sq = diameters**2 / a_k * (float(f) ** 2 * areas)
    p = mesh.vertices[mesh.triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    ue = sol.values[mesh.triangles]
    flux = np.column_stack([(ue * b).sum(axis=1), (ue * c).sum(axis=1)]) \
        * (a_k / (2.0 * areas))[:, None]
    interior = ~mesh.boundary_edge
    left, right = mesh.edge_tris[interior, 0], mesh.edge_tris[interior, 1]
    evec = mesh.vertices[mesh.edges[interior, 1]] - mesh.vertices[mesh.edges[interior, 0]]
    h_e = np.hypot(evec[:, 0], evec[:, 1])
    normal = np.column_stack([evec[:, 1], -evec[:, 0]]) / h_e[:, None]
    jump = ((flux[left] - flux[right]) * normal).sum(axis=1)
    edge_term = 0.5 * h_e**2 / np.maximum(a_k[left], a_k[right]) * jump**2
    np.add.at(eta_sq, left, edge_term)
    np.add.at(eta_sq, right, edge_term)
    return np.sqrt(eta_sq)


class TestColumnKernelsBitIdentical:
    def test_indicators_match_row_reductions(self):
        # equal bits, not closeness: a marking decision can flip on one ulp
        coeff = REPLAYED["contrast-300"][0]
        for _, sol, ind in replay_hierarchy(*REPLAYED["contrast-300"]):
            want = row_reduction_indicators(sol, coeff)
            assert np.array_equal(ind.eta, want)
            assert np.array_equal(residual_indicators(sol, coeff).eta, want)

    def test_marking_matches_lexsort_order(self):
        rng = np.random.default_rng(5)
        for theta in (0.3, 0.5, 0.8):
            # repeated values exercise the tie-break towards lower ids
            eta = rng.choice([0.0, 0.5, 1.0, 2.0], size=200) * rng.choice([1.0, 3.0], size=200)
            order = np.lexsort((np.arange(len(eta)), -(eta**2)))
            k = int(np.searchsorted(np.cumsum(eta[order] ** 2), theta * (eta**2).sum())) + 1
            assert np.array_equal(doerfler_mark(ErrorIndicators(eta), theta), np.sort(order[:k]))
