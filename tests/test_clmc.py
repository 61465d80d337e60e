import math

import numpy as np
import pytest

from levelmc.clmc import (
    AdaptivePathSampler,
    ClmcConfig,
    ClmcRateFit,
    SamplePath,
    clip_and_index,
    clmc_cost,
    continuous_levels,
    estimate_rates_clmc,
    optimal_rate_param,
    path_contribution,
    path_contribution_curve,
    run_clmc,
    theoretical_sample_size,
    truncation_bias_bound,
    variance_estimate,
    weights,
)
from levelmc.sampling import UniformSource


def make_path(levels, qois, max_level, truncated=None):
    levels = np.asarray(levels, float)
    J, clipped, trunc = clip_and_index(levels, max_level)
    return SamplePath(
        max_level=max_level, levels=levels, qois=np.asarray(qois, float),
        clipped=clipped, index=J,
        truncated=trunc if truncated is None else truncated,
        dofs=np.ones(len(levels)),
    )


def make_fit(alpha=2.0, beta=4.0, gamma=2.0, c4=1.0, c5=1.0, c6=1.0):
    return ClmcRateFit(alpha=alpha, beta=beta, gamma=gamma, c4=c4, c5=c5, c6=c6,
                       level_domain=(0.2, 2.0), samples=100,
                       r_squared={"mean": 1.0, "variance": 1.0, "cost": 1.0})


class TestContinuousLevel:
    def test_equal_estimator_is_level_zero(self):
        levels, fixes = continuous_levels([0.7])
        assert levels[0] == 0.0 and fixes == 0

    def test_exp_decay(self):
        levels, _ = continuous_levels([0.5, 0.5 * math.exp(-2.0)])
        assert levels[1] == pytest.approx(2.0)

    def test_halving_gives_log_two_ladder(self):
        e = 0.8 * 0.5 ** np.arange(5)
        levels, fixes = continuous_levels(e)
        assert fixes == 0
        assert np.allclose(levels, np.arange(5) * math.log(2.0))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            continuous_levels([1.0, 0.0])

    def test_monotone_fix(self):
        levels, fixes = continuous_levels([1.0, 0.5, 0.6])
        assert fixes == 1
        assert levels[2] == pytest.approx(levels[1] + 1e-6)
        assert np.all(np.diff(levels) > 0)


class TestClipAndIndex:
    def test_first_level_exceeds(self):
        J, clipped, truncated = clip_and_index([0.0, 1.0, 2.0], 0.5)
        assert J == 1 and not truncated
        assert clipped.tolist() == [0.5]

    def test_interior_clip(self):
        J, clipped, truncated = clip_and_index([0.0, 1.0, 2.0], 1.7)
        assert J == 2 and not truncated
        assert clipped.tolist() == [1.0, 1.7]

    def test_zero_max_level(self):
        J, clipped, truncated = clip_and_index([0.0, 1.0], 0.0)
        assert J == 1 and clipped.tolist() == [0.0]

    def test_truncated_path(self):
        J, clipped, truncated = clip_and_index([0.0, 1.0, 2.0], 5.0)
        assert truncated and J == 2
        assert clipped.tolist() == [1.0, 2.0]


class TestWeights:
    def test_unit_gap_formula(self):
        path = make_path([0.0, 1.0], [0.0, 1.0], max_level=2.0)
        w = weights(path, 1.0)
        assert w.tolist() == [pytest.approx(math.e - 1.0)]

    def test_zero_weight_when_max_level_hits_lower_endpoint(self):
        # L = l_0: the clipped level collapses onto the interval start
        path = make_path([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], max_level=0.0)
        w = weights(path, 1.5)
        assert w.tolist() == [0.0]

    def test_small_rate_limit(self):
        path = make_path([0.0, 0.4, 1.0], [0.0, 1.0, 2.0], max_level=0.7)
        w = weights(path, 1e-8)
        assert w[0] == pytest.approx(1.0, rel=1e-6)
        assert w[1] == pytest.approx(0.3 / 0.6, rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lv = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 4))])
            path = make_path(lv, rng.normal(size=5), max_level=rng.uniform(0, 4))
            assert (weights(path, rng.uniform(0.2, 4.0)) >= 0).all()

    def test_degenerate_gap_rejected(self):
        path = make_path([0.0, 1.0], [0.0, 1.0], max_level=2.0)
        path.levels = np.array([0.0, 0.0])
        with pytest.raises(ValueError):
            weights(path, 1.0)


class TestPathContribution:
    def test_constant_qoi_is_zero(self):
        path = make_path([0.0, 0.5, 1.1], [2.0, 2.0, 2.0], max_level=0.8)
        assert path_contribution(path, 1.3) == 0.0

    def test_hand_case(self):
        path = make_path([0.0, 1.0], [0.0, 1.0], max_level=2.0)
        assert path_contribution(path, 1.0) == pytest.approx(math.e - 1.0)

    def test_curve_matches_scalar(self):
        levels = [0.0, 0.3, 0.9, 1.4]
        qois = [1.0, 1.4, 1.7, 1.75]
        draws = np.array([0.0, 0.2, 0.35, 1.0, 1.2, 2.5])
        curve = path_contribution_curve(levels, qois, 1.1, draws)
        for L, y in zip(draws, curve):
            path = make_path(levels, qois, max_level=L)
            assert path_contribution(path, 1.1) == pytest.approx(y, rel=1e-12)

    def test_weight_expectation_identity_small(self):
        # E[w_j 1{L > l_{j-1}}] = 1 for each increment
        from scipy.integrate import quad

        rng = np.random.default_rng(5)
        for _ in range(10):
            lv = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 0.8, 3))])
            rate = rng.uniform(0.3, 3.0)
            for j in range(1, len(lv)):
                lo, hi = lv[j - 1], lv[j]

                def integrand(t):
                    w = (math.exp(rate * min(hi, t)) - math.exp(rate * lo)) / (
                        rate * (hi - lo))
                    return rate * math.exp(-rate * t) * w

                val, _ = quad(integrand, lo, hi, epsabs=1e-13, limit=200)
                tail, _ = quad(integrand, hi, np.inf, epsabs=1e-13, limit=200)
                assert val + tail == pytest.approx(1.0, abs=1e-10)


def variance_of(ys):
    """variance_estimate from the running sums of the samples ys."""
    ys = np.asarray(ys, float)
    return variance_estimate(len(ys), ys.sum(), (ys**2).sum())


class TestVarianceEstimate:
    def test_constant_samples(self):
        assert variance_of([3.0, 3.0]) == 0.0

    def test_hand_case(self):
        assert variance_of([0.0, 2.0]) == pytest.approx(1.0)

    def test_scales_inversely_with_sample_count(self):
        rng = np.random.default_rng(9)
        small = np.mean([variance_of(rng.normal(size=50)) for _ in range(400)])
        large = np.mean([variance_of(rng.normal(size=100)) for _ in range(400)])
        assert large == pytest.approx(small / 2.0, rel=0.15)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            variance_of([1.0])


class FakeSampler:
    """Synthetic paths with exact log-linear derivative data on the grid."""

    def __init__(self, alpha=2.0, beta=4.0, gamma=1.0, points=50):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.points = points

    def path(self, k, max_level=None, max_refinements=None):
        lo, hi = 0.5, 2.5
        d = (hi - lo) / (self.points - 1)
        levels = np.concatenate([[0.0], lo + d * np.arange(self.points)])
        # derivative on the interval ending at level l equals c e^{-alpha l},
        # perturbed +-delta so the two-sample variance is exact too
        deriv = np.exp(-self.alpha * levels[1:])
        delta = np.exp(-0.5 * self.beta * levels[1:]) * math.sqrt(0.5)
        sign = 1.0 if k % 2 == 0 else -1.0
        dq = (deriv + sign * delta) * np.diff(levels)
        qois = np.concatenate([[0.0], np.cumsum(dq)])
        dofs = np.diff(np.exp(self.gamma * levels), prepend=0.0)
        return SamplePath(
            max_level=math.inf, levels=levels, qois=qois, clipped=levels[1:].copy(),
            index=len(levels) - 1, truncated=False, dofs=dofs,
        )


class TestEstimateRatesClmc:
    def test_exact_synthetic_rates(self):
        fit = estimate_rates_clmc(FakeSampler(alpha=2.0, beta=4.0), refinements=50, samples=2)
        assert fit.alpha == pytest.approx(2.0, abs=1e-6)
        assert fit.beta == pytest.approx(4.0, abs=1e-6)
        assert fit.gamma == pytest.approx(1.0, abs=1e-6)

    def test_empty_common_domain_rejected(self):
        class DisjointSampler(FakeSampler):
            def path(self, k, max_level=None, max_refinements=None):
                p = super().path(k, max_level, max_refinements)
                if k == 0:
                    p.levels = p.levels + np.concatenate([[0.0], np.full(50, 3.0)])
                return p

        with pytest.raises(ValueError):
            estimate_rates_clmc(DisjointSampler(), refinements=50, samples=2)


class TestRateOptimization:
    def test_interior_argmin(self):
        fit = make_fit()
        r = optimal_rate_param(fit, eps=0.5)
        lo, hi = fit.feasible_interval()
        assert lo < r < hi

    def test_poles_at_endpoints(self):
        fit = make_fit(alpha=2.0, beta=4.0, gamma=2.0)
        lo, hi = fit.feasible_interval()
        interior = clmc_cost(fit, 1.0, 3.0)
        assert clmc_cost(fit, 1.0, lo + 1e-9) > 1e6 * interior
        assert clmc_cost(fit, 1.0, hi - 1e-9) > 1e3 * interior

    def test_infeasible_interval_rejected(self):
        with pytest.raises(ValueError):
            optimal_rate_param(make_fit(alpha=0.5, beta=1.0, gamma=2.0), 1.0)

    def test_argmin_independent_of_eps(self):
        fit = make_fit()
        assert optimal_rate_param(fit, 0.01) == optimal_rate_param(fit, 1.0)


class TestTheoreticalSampleSize:
    def test_hand_evaluation(self):
        fit = make_fit(alpha=2.0, beta=2.0, c4=1.0, c5=1.0, gamma=0.5)
        # 4 c5/((b-r) b) + c4^2 r/((2a-r) a^2) at r=1: 2 + 1/12
        assert theoretical_sample_size(fit, eps=1.0, rate=1.0) == 3

    def test_eps_scaling(self):
        fit = make_fit()
        m1 = theoretical_sample_size(fit, eps=0.2, rate=3.0)
        m2 = theoretical_sample_size(fit, eps=0.1, rate=3.0)
        assert m2 >= 4 * m1 - 4

    def test_minimum_one(self):
        fit = make_fit(c4=1e-9, c5=1e-9)
        assert theoretical_sample_size(fit, eps=10.0, rate=3.0) >= 1

    def test_infeasible_rate(self):
        with pytest.raises(ValueError):
            theoretical_sample_size(make_fit(), eps=1.0, rate=10.0)


class TestTruncationBiasBound:
    def test_hand_value(self):
        assert truncation_bias_bound(1000, 1.5, 10.0) == pytest.approx(
            1000 * math.exp(-15.0))

    def test_monotone_in_samples(self):
        assert truncation_bias_bound(2000, 1.5, 10.0) > truncation_bias_bound(
            1000, 1.5, 10.0)

    def test_vanishes_with_level_cap(self):
        assert truncation_bias_bound(1000, 1.5, 1e6) == pytest.approx(0.0, abs=1e-300)


class TestRunClmc:
    def test_stops_right_after_warmup_for_loose_tolerance(self):
        cfg = ClmcConfig(eps=100.0, rate=2.0, m_ini=20, dof_max=50_000, seed=3)
        run = run_clmc(cfg, kind="box", contrast=300.0)
        assert run.samples == 21

    def test_reproducible(self):
        cfg = dict(eps=0.5, rate=2.5, m_ini=10, dof_max=50_000, seed=8, level_seed=99)
        a = run_clmc(ClmcConfig(**cfg), kind="box", contrast=300.0)
        b = run_clmc(ClmcConfig(**cfg), kind="box", contrast=300.0)
        assert a.estimate == b.estimate
        assert a.samples == b.samples
        assert [r["y"] for r in a.diagnostics["per_sample"]] == [
            r["y"] for r in b.diagnostics["per_sample"]
        ]

    def test_pseudo_and_quasi_share_pde_randomness(self):
        base = dict(eps=0.5, rate=2.5, m_ini=5, dof_max=50_000, seed=8, level_seed=99)
        clmc = run_clmc(ClmcConfig(sampler_kind="pseudo", **base), "box", 300.0)
        qclmc = run_clmc(ClmcConfig(sampler_kind="low-discrepancy", **base), "box", 300.0)
        assert clmc.method == "clmc" and qclmc.method == "qclmc"
        # identical PDE seeds, different maximal-level streams
        assert clmc.samples >= 6 and qclmc.samples >= 6

    def test_deterministic_paths_unbiased(self):
        # frozen path: the estimator over many level draws matches the
        # telescoped sum within 3 standard errors
        levels = [0.0, 0.35, 0.8, 1.55]
        qois = [2.0, 2.5, 2.62, 2.7]
        rate = 1.7
        draws = -np.log1p(-UniformSource("pseudo", seed=42).next_block(200_000)) / rate
        ys = path_contribution_curve(levels, qois, rate, draws)
        se = ys.std(ddof=1) / math.sqrt(len(ys))
        assert abs(ys.mean() - (qois[-1] - qois[0])) <= 3 * se
