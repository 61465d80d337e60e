import math
import time

import numpy as np
import pytest

import levelmc.mlmc
from levelmc.coefficient import draw_coefficient
from levelmc.fem import MULTIGRID_CELLS, assemble, h1_norm, solve
from levelmc.mesh import aligned_structured_mesh, level_resolution, uniform_family
from levelmc.mlmc import (
    M_MAX,
    MlmcConfig,
    PairSample,
    PdeLevelModel,
    RateFit,
    Welford,
    bias_level,
    bias_stop,
    check_sample_cap,
    computable_mlmc_cost,
    estimate_rates_mlmc,
    midpoint_argmin,
    optimal_bias_weight,
    optimal_samples,
    run_mlmc,
    sequential_sampling,
    solve_qoi,
)


class ExactRateModel:
    """Per-level samples with exact sample mean/variance on a log-linear decay."""

    first_level = 1

    def __init__(self, alpha=1.0, beta=2.0, s=2.0, c1=1.0, c2=1.0, samples=10):
        self.alpha, self.beta, self.s = alpha, beta, s
        self.c1, self.c2 = c1, c2
        self.samples = samples

    def pair(self, level, k):
        mean = self.c1 * self.s ** (-self.alpha * level)
        sd = math.sqrt(self.c2 * self.s ** (-self.beta * level))
        # alternating +-delta gives the exact target sample variance
        delta = sd * math.sqrt((self.samples - 1) / self.samples)
        y = mean + (delta if k % 2 == 0 else -delta)
        return PairSample(fine=y, coarse=0.0,
                          cost_dof=int(round(100 * self.s**level)), seconds=0.0)


class GaussianModel:
    """Synthetic differences with known limit sum(c1 s^-al) and noise."""

    first_level = 1

    def __init__(self, seed, alpha=1.0, beta=2.0, s=2.25, c1=0.5, c2=0.05):
        self.seed, self.alpha, self.beta = seed, alpha, beta
        self.s, self.c1, self.c2 = s, c1, c2

    def truth(self):
        q = self.s**-self.alpha
        return self.c1 * q / (1.0 - q)

    def pair(self, level, k):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, level, k)))
        mean = self.c1 * self.s ** (-self.alpha * level)
        sd = math.sqrt(self.c2 * self.s ** (-self.beta * level))
        return PairSample(fine=mean + sd * rng.standard_normal(), coarse=0.0,
                          cost_dof=int(round(10 * self.s**level)), seconds=0.0)


class StepModel:
    """Level-1 differences N(0, 1.5^2) and finer ones N(0, 1e-6): the means of
    levels 1-3 pass the bias test long before level 1 has its samples."""

    s = 2.25
    first_level = 1

    def __init__(self, seed):
        self.seed = seed

    def pair(self, level, k):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, level, k)))
        sd = 1.5 if level == 1 else 1e-3
        return PairSample(fine=sd * rng.standard_normal(), coarse=0.0,
                          cost_dof=int(round(10 * self.s**level)), seconds=0.0)


class ConstantModel:
    s = 2.25
    first_level = 1

    def pair(self, level, k):
        return PairSample(fine=3.25, coarse=3.25, cost_dof=10, seconds=0.0)


class LevelZeroModel(GaussianModel):
    """GaussianModel whose sum starts at level 0, with a level-0 mean of 100;
    it records the (level, k) of every pair it is asked for."""

    first_level = 0

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def pair(self, level, k):
        self.calls.append((level, k))
        pair = super().pair(level, k)
        if level == 0:
            pair.fine += 100.0 - self.c1
        return pair


def make_fit(alpha=1.0, beta=2.0, gamma=1.0, c1=1.0, c2=1.0, c3=1.0, s=2.25):
    return RateFit(alpha=alpha, beta=beta, gamma=gamma, c1=c1, c2=c2, c3=c3,
                   s=s, domain=(1.0, 6.0), samples=100,
                   r_squared={"mean": 1.0, "variance": 1.0, "cost": 1.0},
                   points={"mean": 6, "variance": 6, "cost": 6})


def mc_estimate(samples) -> float:
    """Plain Monte Carlo mean through the accumulator the drivers use."""
    acc = Welford()
    for x in samples:
        acc.push(x)
    return acc.mean


class TestMcEstimate:
    def test_simple_mean(self):
        assert mc_estimate([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_constant(self):
        assert mc_estimate([4.5] * 7) == pytest.approx(4.5)

    def test_against_fsum_oracle(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=1001) * 1e3
        oracle = math.fsum(xs) / len(xs)
        assert mc_estimate(xs) == pytest.approx(oracle, rel=1e-12)


class TestCoupledPairs:
    def test_same_seed_identical(self):
        model = PdeLevelModel(kind="box", contrast=300.0, seed=9)
        a = model.pair(1, 4)
        b = PdeLevelModel(kind="box", contrast=300.0, seed=9).pair(1, 4)
        assert (a.fine, a.coarse) == (b.fine, b.coarse)

    def test_cost_is_vertex_sum(self):
        model = PdeLevelModel(kind="cross", contrast=300.0, seed=2)
        pair = model.pair(2, 0)
        expected = model.mesh(2).num_vertices + model.mesh(1).num_vertices
        assert pair.cost_dof == expected

    def test_pair_counts_the_cg_iterations_of_both_solves(self):
        # levels of 100 and 150 cells a side: both take multigrid-PCG
        model = PdeLevelModel(kind="cross", contrast=300.0, base_n=MULTIGRID_CELLS, seed=2)
        coeff = model._draw_coefficient(1, 0)
        meshes = [model.mesh(l) for l in (1, 0)]
        expected = sum(solve(assemble(m, coeff.element_values(m))).iterations for m in meshes)
        pair = model.pair(1, 0)
        assert pair.cg_iterations == expected > 0
        assert pair.factored_solves == 0
        # the default levels 2 and 1 are factored
        pair = PdeLevelModel(kind="cross", contrast=300.0, seed=2).pair(2, 0)
        assert (pair.cg_iterations, pair.factored_solves) == (0, 2)

    @pytest.mark.parametrize("aligned", [False, True])
    def test_levels_up_to_4_are_factored_and_level_5_takes_cg(self, aligned):
        model = PdeLevelModel(kind="box", contrast=300.0, seed=6, aligned=aligned)
        pair = model.pair(4, 0)
        assert (pair.cg_iterations, pair.factored_solves) == (0, 2)
        pair = model.pair(5, 0)
        assert pair.cg_iterations > 0
        assert pair.factored_solves == 1

    @pytest.mark.parametrize("kind", ["box", "cross"])
    def test_aligned_level_0_pair_is_the_aligned_mesh_against_q0(self, kind):
        # one draw on the aligned level-0 mesh and on Q_0's mesh
        model = PdeLevelModel(kind=kind, contrast=300.0, base_n=8, seed=3, aligned=True)
        assert model.first_level == 0
        for k in range(3):
            coeff = draw_coefficient(kind, 300.0, 3, (0, k))
            aligned = aligned_structured_mesh(*coeff.break_lines(), level_resolution(0, 8))
            q0_mesh = uniform_family(0, 8)
            pair = model.pair(0, k)
            assert pair.fine == solve_qoi(aligned, coeff)[0]
            assert pair.coarse == solve_qoi(q0_mesh, coeff)[0]
            assert pair.cost_dof == aligned.num_vertices + q0_mesh.num_vertices
            assert pair.difference != 0.0

    def test_uniform_level_0_pair_raises(self):
        model = PdeLevelModel(kind="box", contrast=300.0, base_n=8)
        assert model.first_level == 1
        with pytest.raises(ValueError, match="coupled pairs need level >= 1"):
            model.pair(0, 0)

    def test_pair_seconds_include_building_the_meshes(self, monkeypatch):
        build = levelmc.mlmc.aligned_structured_mesh

        def slow_build(*args):
            time.sleep(0.05)
            return build(*args)

        monkeypatch.setattr(levelmc.mlmc, "aligned_structured_mesh", slow_build)
        model = PdeLevelModel(kind="box", contrast=300.0, base_n=4, seed=1, aligned=True)
        assert model.pair(1, 0).seconds >= 0.1

    def test_per_level_ledger_sums_the_pair_iterations(self):
        model = PdeLevelModel(kind="box", contrast=300.0, seed=4)
        run = run_mlmc(MlmcConfig(eps=10.0, alpha=1.0, b_w=0.5, m_ini=2), model)
        for entry in run.diagnostics["per_level"]:
            pairs = [model.pair(entry["level"], k) for k in range(entry["samples"])]
            assert entry["cg_iterations"] == sum(p.cg_iterations for p in pairs)
            assert entry["factored_solves"] == sum(p.factored_solves for p in pairs)
            assert entry["factored_solves"] == 2 * entry["samples"]

    def test_coupling_reduces_variance(self):
        model = PdeLevelModel(kind="box", contrast=300.0, seed=31)
        fines, diffs = [], []
        for k in range(120):
            pair = model.pair(2, k)
            fines.append(pair.fine)
            diffs.append(pair.difference)
        assert np.var(diffs, ddof=1) < np.var(fines, ddof=1)

    def test_telescoping_identity(self):
        # one coefficient sample solved on every level: the level sum collapses
        model = PdeLevelModel(kind="box", contrast=300.0, seed=5)
        coeff = model._draw_coefficient(0, 0)
        meshes = [model.mesh(l) for l in range(4)]
        qois = [h1_norm(solve(assemble(m, coeff.element_values(m)))) for m in meshes]
        telescoped = sum(qois[l] - qois[l - 1] for l in range(1, 4))
        assert telescoped == pytest.approx(qois[3] - qois[0], abs=1e-12)


class TestEstimateRates:
    def test_exact_log_linear_data(self):
        model = ExactRateModel(alpha=1.0, beta=2.0, s=2.0)
        fit = estimate_rates_mlmc(model, levels=5, samples=10)
        assert fit.alpha == pytest.approx(1.0, abs=1e-8)
        assert fit.beta == pytest.approx(2.0, abs=1e-8)
        assert fit.gamma == pytest.approx(1.0, abs=1e-8)
        assert fit.c1 == pytest.approx(1.0, rel=1e-6)

    def test_requires_minimum_levels(self):
        with pytest.raises(ValueError):
            estimate_rates_mlmc(ExactRateModel(), levels=2, samples=10)


class TestRateFit:
    @pytest.mark.parametrize("levels, s", [
        (np.arange(1, 7, dtype=float), 2.25),   # MLMC: integer levels, DOF growth s
        (np.linspace(0.3, 2.5, 50), math.e),   # CLMC: the continuous level
    ], ids=["integer-levels", "continuous-level"])
    def test_recovers_exact_rates(self, levels, s):
        alpha, beta, gamma, c1, c2, c3 = 0.7, 1.3, 1.1, 0.9, 0.4, 300.0
        # a negative mean fits by its absolute value
        fit = RateFit.fit(levels, -c1 * s ** (-alpha * levels), c2 * s ** (-beta * levels),
                          c3 * s ** (gamma * levels), s, samples=8)
        for got, want in [(fit.alpha, alpha), (fit.beta, beta), (fit.gamma, gamma)]:
            assert got == pytest.approx(want, abs=1e-12)
        for got, want in [(fit.c1, c1), (fit.c2, c2), (fit.c3, c3)]:
            assert got == pytest.approx(want, rel=1e-12)
        assert all(r2 == pytest.approx(1.0, abs=1e-12) for r2 in fit.r_squared.values())
        assert fit.points == dict.fromkeys(("mean", "variance", "cost"), len(levels))
        assert (fit.s, fit.domain, fit.samples) == (s, (levels[0], levels[-1]), 8)

    def test_nonpositive_mean_is_left_out_of_its_fit(self):
        levels = np.arange(1, 7, dtype=float)
        means = 2.25 ** -levels
        means[2] = 0.0
        with pytest.warns(UserWarning, match="excluding 1 points from the mean fit"):
            fit = RateFit.fit(levels, means, 2.25 ** -levels, 2.25**levels, 2.25, samples=8)
        assert fit.points == {"mean": 5, "variance": 6, "cost": 6}
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha, beta, gamma, holds", [
        (1.0, 2.0, 1.5, True),
        (1.0, 3.0, 2.0, False),   # gamma = 2 alpha
        (2.0, 1.5, 1.5, False),   # gamma = beta
        (0.5, 1.0, 2.0, False),
    ], ids=["feasible", "boundary-alpha", "boundary-beta", "infeasible"])
    def test_hypotheses_hold_on_a_nonempty_feasible_interval(self, alpha, beta, gamma, holds):
        fit = make_fit(alpha=alpha, beta=beta, gamma=gamma)
        lo, hi = fit.feasible_interval()
        assert (lo, hi) == (gamma, min(beta, 2.0 * alpha))
        assert fit.hypotheses_hold() == (lo < hi) == holds


class TestOptimalSamples:
    def test_floor_of_two(self):
        counts = optimal_samples([1.0], [1.0], eps=1.0, b_w=0.5)
        # budget (1-b_w) eps^2 = 0.5 -> raw count 2; floor keeps it at 2
        assert counts.tolist() == [2]

    def test_variance_constraint_met(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = rng.integers(1, 6)
            v = rng.random(n) * 10.0 ** rng.integers(-3, 2)
            c = rng.integers(10, 10_000, n).astype(float)
            eps, b_w = rng.uniform(0.01, 0.5), rng.uniform(0.1, 0.9)
            counts = optimal_samples(v, c, eps, b_w)
            assert (v / counts).sum() <= (1 - b_w) * eps**2 + 1e-12

    def test_doubling_variances_doubles_counts_before_floor(self):
        v = np.array([4.0, 1.0])
        c = np.array([100.0, 500.0])
        base = optimal_samples(v, c, eps=0.05, b_w=0.3)
        doubled = optimal_samples(2 * v, c, eps=0.05, b_w=0.3)
        assert (doubled >= 2 * base - 1).all()

    def test_counts_below_the_cap_are_kept(self):
        assert optimal_samples([0.1, 0.01], [10, 40], 0.05, 0.5).tolist() == [131, 21]

    # about 3e19 counts overflowed int64, 3e17 fit it but exceed the cap, and
    # at 1e-200 eps^2 underflows to 0
    @pytest.mark.parametrize("eps", [1e-10, 1e-9, 1e-200])
    def test_counts_past_the_cap_raise(self, eps):
        with pytest.raises(ValueError, match="exceed M_MAX = 2000000"):
            optimal_samples([0.1, 0.01], [10, 40], eps, 0.5)

    def test_cap_refuses_counts_that_are_not_finite_or_past_it(self):
        check_sample_cap(M_MAX, "count")
        check_sample_cap([2, M_MAX], "counts")
        for counts in (math.nan, math.inf, M_MAX + 1, [2.0, math.nan]):
            with pytest.raises(ValueError, match=f"exceeds? M_MAX = {M_MAX}$"):
                check_sample_cap(counts, "count")

    def test_matches_exhaustive_two_level_search(self):
        # The rounded-up continuous optimum x_u costs less than the integer
        # optimum plus sum(c): the integer optimum costs at least c @ x_u,
        # and max(2, ceil(x)) < x + 1 for x > 1.
        rng = np.random.default_rng(7)
        for _ in range(25):
            v = rng.uniform(0.5, 4.0, 2)
            c = rng.uniform(10, 200, 2)
            eps, b_w = rng.uniform(0.2, 0.6), rng.uniform(0.2, 0.8)
            budget = (1 - b_w) * eps**2
            counts = optimal_samples(v, c, eps, b_w)
            best_cost = np.inf
            for m1 in range(2, 400):
                rem = budget - v[0] / m1
                if rem <= 0:
                    continue
                m2 = max(2, math.ceil(v[1] / rem))
                best_cost = min(best_cost, m1 * c[0] + m2 * c[1])
            x_u = np.sqrt(v / c) * np.sqrt(v * c).sum() / budget
            assert (x_u > 1).all()
            assert (v / counts).sum() <= budget
            assert best_cost <= counts @ c < best_cost + c.sum()


class TestBiasStop:
    def test_all_zero_means(self):
        assert bias_stop([0.0, 0.0, 0.0], s=2.25, alpha=1.0, b_w=0.5, eps=0.1)

    def test_large_last_mean_fails(self):
        assert not bias_stop([0.0, 0.0, 1.0], s=2.25, alpha=1.0, b_w=0.5, eps=0.1)

    def test_threshold_plug_in(self):
        # sqrt(0.25) * 0.1 * |1 - 2.25| = 0.0625
        ok = bias_stop([0.0, 0.0, 0.0624], s=2.25, alpha=1.0, b_w=0.25, eps=0.1)
        bad = bias_stop([0.0, 0.0, 0.0626], s=2.25, alpha=1.0, b_w=0.25, eps=0.1)
        assert ok and not bad

    def test_rate_correction_of_older_terms(self):
        s, alpha = 2.0, 1.0
        threshold = math.sqrt(0.5) * 0.1 * abs(1 - s)
        value = threshold * s**2 * 0.999  # corrected by s^-2: just below
        assert bias_stop([value, 0.0, 0.0], s=s, alpha=alpha, b_w=0.5, eps=0.1)
        assert not bias_stop([value * 1.01, 0.0, 0.0], s=s, alpha=alpha, b_w=0.5, eps=0.1)

    def test_short_history_never_stops(self):
        assert not bias_stop([0.0], s=2.0, alpha=1.0, b_w=0.5, eps=0.1)


class TestOptimalBiasWeight:
    def test_result_in_open_interval(self):
        fit = make_fit()
        b = optimal_bias_weight(fit, eps=0.05, level_cap=8)
        assert 0.0 < b < 1.0

    def test_bias_level_decreases_in_weight(self):
        fit = make_fit()
        assert bias_level(fit, 0.05, 0.2) > bias_level(fit, 0.05, 0.8)

    def test_lower_bound_grows_as_eps_shrinks(self):
        # finer tolerance needs more of the budget on bias: b_low increases
        fit = make_fit()

        def b_low(eps):
            root = fit.c1 / (eps * (fit.s**fit.alpha - 1) * fit.s ** (fit.alpha * 8))
            return min(max(root**2, 1e-6), 1 - 1e-6)

        assert b_low(0.01) > b_low(0.1)

    def test_cost_formula_positive(self):
        fit = make_fit()
        assert computable_mlmc_cost(fit, eps=0.1, b_w=0.5) > 0

    def test_midpoint_argmin_takes_the_first_least_grid_point(self):
        # the grid of (1, 2) in 4 points is 1.125, 1.375, 1.625, 1.875
        assert midpoint_argmin(lambda x: 0.0, 1.0, 2.0, 4) == 1.125
        assert midpoint_argmin(lambda x: -x, 1.0, 2.0, 4) == 1.875
        assert midpoint_argmin(lambda x: abs(x - 1.4), 1.0, 2.0, 4) == 1.375


class TestRunMlmc:
    def test_constant_model_stops_at_warmup(self):
        run = run_mlmc(MlmcConfig(eps=0.1, alpha=1.0, b_w=0.5, m_ini=5), ConstantModel())
        assert run.diagnostics["max_level"] == 3
        assert run.estimate == 0.0
        assert run.samples == 15

    def test_reproducibility(self):
        cfg = MlmcConfig(eps=0.08, alpha=1.0, b_w=0.5, m_ini=10)
        a = run_mlmc(cfg, GaussianModel(seed=3))
        b = run_mlmc(cfg, GaussianModel(seed=3))
        assert a.estimate == b.estimate
        assert a.samples == b.samples
        assert a.diagnostics["per_level"] == b.diagnostics["per_level"]

    def test_synthetic_mse_within_budget(self):
        eps = 0.05
        errors = []
        for seed in range(20):
            model = GaussianModel(seed=seed)
            run = run_mlmc(MlmcConfig(eps=eps, alpha=model.alpha, b_w=0.5, m_ini=20),
                           model)
            errors.append((run.estimate - model.truth()) ** 2)
        assert np.mean(errors) <= 1.5 * eps**2

    # a driver that tests the bias before it allocates ends 7 of these 10 runs
    # over budget, 5 of them at the warm-up
    @pytest.mark.parametrize("eps", [0.1, 0.05])
    @pytest.mark.parametrize("seed", range(5))
    def test_allocates_before_it_tests_the_bias(self, eps, seed):
        cfg = MlmcConfig(eps=eps, alpha=1.0, b_w=0.5, m_ini=20, l_max=8)
        run = run_mlmc(cfg, StepModel(seed))
        means = [d["mean"] for d in run.diagnostics["per_level"]]
        assert run.variance_estimate <= (1 - cfg.b_w) * eps**2
        assert bias_stop(means, StepModel.s, cfg.alpha, cfg.b_w, eps) and not run.flags

    def test_bias_proxy_uses_the_model_growth_factor(self):
        model = GaussianModel(seed=2, s=3.0)
        run = run_mlmc(MlmcConfig(eps=0.08, alpha=1.0, b_w=0.5, m_ini=10), model)
        top = run.diagnostics["per_level"][-1]
        assert run.bias_proxy == abs(top["mean"]) / abs(1.0 - 3.0**1.0)

    def test_sums_from_the_first_level_and_tests_the_bias_above_it(self):
        model = LevelZeroModel(seed=4)
        cfg = MlmcConfig(eps=0.1, alpha=1.0, b_w=0.5, m_ini=6)
        run = run_mlmc(cfg, model)
        per_level = run.diagnostics["per_level"]
        # the warm-up takes levels 0..3 in order
        assert model.calls[:24] == [(l, k) for l in range(4) for k in range(6)]
        assert [d["level"] for d in per_level] == [0, 1, 2, 3]
        assert run.estimate == sum(d["mean"] for d in per_level)
        assert run.samples == sum(d["samples"] for d in per_level)
        assert 99.0 < per_level[0]["mean"] < 101.0
        assert run.variance_estimate <= (1 - cfg.b_w) * cfg.eps**2
        # a level-0 mean of 100 does not enter the bias test of levels 1..3
        assert run.diagnostics["max_level"] == 3 and not run.flags
        assert bias_stop([d["mean"] for d in per_level[1:]], model.s, 1.0, 0.5, 0.1)
        assert run.bias_proxy == abs(per_level[-1]["mean"]) / abs(1.0 - model.s)

    def test_bias_unconverged_flag(self):
        model = GaussianModel(seed=1, alpha=0.05, c1=5.0)  # near-flat bias decay
        run = run_mlmc(MlmcConfig(eps=0.01, alpha=0.05, b_w=0.5, m_ini=4, l_max=4),
                       model)
        assert "bias-unconverged" in run.flags

    def test_l_max_covers_the_warm_up_levels(self):
        with pytest.raises(ValueError, match="l_max must be >= 3"):
            MlmcConfig(eps=0.1, alpha=1.0, b_w=0.5, l_max=2)
        assert MlmcConfig(eps=0.1, alpha=1.0, b_w=0.5, l_max=3).l_max == 3

    @pytest.mark.parametrize("field", ["eps", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, 0.0, -0.1])
    def test_refuses_eps_or_alpha_that_is_not_positive(self, field, value):
        with pytest.raises(ValueError, match="eps and alpha must be positive"):
            MlmcConfig(**{"eps": 0.1, "alpha": 1.0, field: value}, b_w=0.5)

    def test_samples_never_discarded_and_cost_consistent(self):
        model = GaussianModel(seed=12)
        run = run_mlmc(MlmcConfig(eps=0.03, alpha=1.0, b_w=0.4, m_ini=10), model)
        per_level = run.diagnostics["per_level"]
        assert all(d["samples"] >= 10 for d in per_level)
        assert run.cost_dof == pytest.approx(sum(d["cost_dof"] for d in per_level))


class TestWelford:
    def test_matches_numpy(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=257)
        acc = Welford()
        for x in xs:
            acc.push(x)
        assert acc.mean == pytest.approx(xs.mean(), rel=1e-12)
        assert acc.variance == pytest.approx(xs.var(ddof=1), rel=1e-10)

    def test_constant_samples(self):
        acc = Welford()
        for x in (3.0, 3.0):
            acc.push(x)
        assert acc.variance == 0.0

    def test_hand_case(self):
        # sample variance 2, so the variance of the mean of two samples is 1
        acc = Welford()
        for x in (0.0, 2.0):
            acc.push(x)
        assert acc.variance / acc.count == pytest.approx(1.0)

    def test_scales_inversely_with_sample_count(self):
        rng = np.random.default_rng(9)

        def variance_of_mean(size):
            acc = Welford()
            for x in rng.normal(size=size):
                acc.push(x)
            return acc.variance / acc.count

        small = np.mean([variance_of_mean(50) for _ in range(400)])
        large = np.mean([variance_of_mean(100) for _ in range(400)])
        assert large == pytest.approx(small / 2.0, rel=0.15)


class TestSequentialSampling:
    @pytest.mark.parametrize("target, warmup", [(4e-4, 10), (1.0, 10), (4e-4, 3000)])
    def test_stops_at_the_first_count_past_the_warm_up_that_meets_the_target(self, target,
                                                                              warmup):
        ys = np.random.default_rng(21).normal(size=6000)
        for acc in sequential_sampling(target, warmup):
            acc.push(ys[acc.count])
        m = next(m for m in range(warmup, len(ys) + 1)
                 if np.var(ys[:m], ddof=1) / m <= target)
        assert acc.count == m
        assert acc.mean == pytest.approx(ys[:m].mean(), rel=1e-12)
        assert acc.variance == pytest.approx(np.var(ys[:m], ddof=1), rel=1e-12)

    def test_refuses_a_target_past_the_cap_after_exactly_its_warm_up(self):
        ys = np.random.default_rng(22).normal(size=100)
        pushed = []
        with pytest.raises(ValueError, match=r"^after 7 samples at variance \S+, the "
                           r"projected sample count \S+e\+\d+ exceeds M_MAX = 2000000$"):
            for acc in sequential_sampling(1e-20, 7):
                pushed.append(acc.count)
                acc.push(ys[acc.count])
        assert pushed == list(range(7))

    def test_needs_two_samples(self):
        acc = Welford()
        acc.push(1.0)
        assert math.isnan(acc.variance)
        with pytest.raises(ValueError, match="at least 2 samples"):
            next(sequential_sampling(1.0, warmup=1))
