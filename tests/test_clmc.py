import logging
import math

import numpy as np
import pytest

import levelmc.clmc
from levelmc.clmc import (
    RATE_SEARCH_POINTS,
    AdaptivePathSampler,
    ClmcConfig,
    clmc_cost,
    estimate_rates_clmc,
    optimal_rate_param,
    path_contribution,
    run_clmc,
    truncation_bias_bound,
)
from levelmc.coefficient import draw_coefficient
from levelmc.indicator import Hierarchy, HierarchyStep, adaptive_hierarchy, continuous_levels
from levelmc.mesh import uniform_family
from levelmc.mlmc import PdeLevelModel, RateFit, midpoint_argmin, solve_qoi
from levelmc.sampling import UniformSource


def make_fit(alpha=2.0, beta=4.0, gamma=2.0, c1=1.0, c2=1.0, c3=1.0):
    return RateFit(alpha=alpha, beta=beta, gamma=gamma, c1=c1, c2=c2, c3=c3, s=math.e,
                   domain=(0.2, 2.0), samples=100,
                   r_squared={"mean": 1.0, "variance": 1.0, "cost": 1.0},
                   points={"mean": 50, "variance": 50, "cost": 50})


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


def y_of(levels, qois, rate, max_level):
    """Y of one path at one maximal level."""
    return float(path_contribution(levels, qois, rate, [max_level])[0])


def unit_jump(j, intervals):
    """QoIs 0 .. 0, 1 .. 1 with the jump on interval j (1-based): Y = w_j."""
    return (np.arange(intervals + 1) >= j).astype(float)


# the paths of the pinned values; the long one has 12 intervals, enough for
# numpy's 8-way unrolled pairwise sum
SHORT = ([0.0, 0.3, 0.9, 1.4], [1.0, 1.4, 1.7, 1.75])
LONG = ([0.0, 0.31, 0.58, 0.83, 1.07, 1.29, 1.52, 1.74, 1.95, 2.17, 2.38, 2.6, 2.81],
        [0.5, 0.91, 1.13, 1.26, 1.335, 1.38, 1.41, 1.428, 1.44, 1.447, 1.452, 1.4551, 1.4572])


class TestClipAndIndex:
    """A path ends at its first level >= L, so L clips its last interval J,
    or lies beyond its last level if the path was truncated."""

    def test_first_level_exceeds(self):
        # L = 0.5 in (l_0, l_1]: w_1 = (e^(0.5 r) - 1) / r
        assert y_of([0.0, 1.0], [0.0, 1.0], 1.0, 0.5) == pytest.approx(math.exp(0.5) - 1.0)

    def test_interior_clip(self):
        # L = 1.7 in (l_1, l_2]: w_1 is full, w_2 is clipped at L
        levels = [0.0, 1.0, 2.0]
        assert y_of(levels, unit_jump(1, 2), 1.0, 1.7) == pytest.approx(math.e - 1.0)
        assert y_of(levels, unit_jump(2, 2), 1.0, 1.7) == pytest.approx(math.exp(1.7) - math.e)

    def test_zero_max_level(self):
        assert y_of([0.0, 1.0], [0.0, 1.0], 1.5, 0.0) == 0.0

    def test_truncated_path(self):
        # every level lies below L = 5: the full weights
        levels, rate = [0.0, 1.0, 2.0], 1.3
        full = [(math.exp(rate * hi) - math.exp(rate * lo)) / rate for lo, hi in [(0, 1), (1, 2)]]
        for j in (1, 2):
            assert y_of(levels, unit_jump(j, 2), rate, 5.0) == pytest.approx(full[j - 1])


class TestWeights:
    """The weight w_j is Y of a path whose QoI jumps by one on interval j."""

    def test_unit_gap_formula(self):
        assert y_of([0.0, 1.0], [0.0, 1.0], 1.0, 2.0) == pytest.approx(math.e - 1.0)

    def test_zero_weight_when_max_level_hits_lower_endpoint(self):
        # L = l_0: the clipped level collapses onto the interval start, and
        # the intervals above L weigh nothing
        for j in (1, 2):
            assert y_of([0.0, 1.0, 2.0], unit_jump(j, 2), 1.5, 0.0) == 0.0

    def test_small_rate_limit(self):
        levels = [0.0, 0.4, 1.0]
        assert y_of(levels, unit_jump(1, 2), 1e-8, 0.7) == pytest.approx(1.0, rel=1e-6)
        assert y_of(levels, unit_jump(2, 2), 1e-8, 0.7) == pytest.approx(0.3 / 0.6, rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            lv = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, 4))])
            rate, L = rng.uniform(0.2, 4.0), rng.uniform(0, 4)
            assert all(y_of(lv, unit_jump(j, 4), rate, L) >= 0 for j in range(1, 5))

    def test_degenerate_gap_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            y_of([0.0, 0.0], [0.0, 1.0], 1.0, 2.0)


class TestPathContribution:
    def test_constant_qoi_is_zero(self):
        assert y_of([0.0, 0.5, 1.1], [2.0, 2.0, 2.0], 1.3, 0.8) == 0.0

    def test_hand_case(self):
        # w_1 = (e^1 - 1) / (2 * 0.5), w_2 = (e^1.6 - e^1) / (2 * 0.5)
        y = y_of([0.0, 0.5, 1.0], [1.0, 3.0, 4.0], 2.0, 0.8)
        assert y == pytest.approx(2.0 * (math.e - 1.0) + math.exp(1.6) - math.e)

    def test_curve_matches_scalar(self):
        # many draws of L at once give the bits of one draw at a time
        draws = [0.0, 0.2, 0.35, 1.0, 1.2, 2.5]
        ys = path_contribution(*SHORT, 1.1, draws)
        assert ys.tolist() == [y_of(*SHORT, 1.1, L) for L in draws]

    @pytest.mark.parametrize("path, rate, max_level, expected", [
        (SHORT, 1.1, 1.2, "0x1.291c0d091f06ap+0"),
        ((SHORT[0][:2], SHORT[1][:2]), 1.1, 0.2, "0x1.316ef4a998dbfp-2"),
        (LONG, 1.9, 2.7, "0x1.3c743443b91dep+2"),
        (LONG, 1.9, 4.0, "0x1.49b0000303e0fp+2"),  # truncated: L beyond the last level
    ], ids=["short", "first-interval", "twelve-intervals", "truncated"])
    def test_pinned_values(self, path, rate, max_level, expected):
        # per-sample Y enters the emitted CSVs; these are the bits of the
        # formula the estimator has always used
        assert y_of(*path, rate, max_level).hex() == expected

    def test_single_level_rejected(self):
        with pytest.raises(ValueError, match="at least levels"):
            y_of([0.0], [1.0], 1.0, 2.0)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            y_of([0.0, 1.0], [0.0, 1.0], 0.0, 2.0)

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


class FakeSampler:
    """Synthetic paths with exact log-linear derivative data on the grid."""

    def __init__(self, alpha=2.0, beta=4.0, gamma=1.0, points=50):
        self.alpha, self.beta, self.gamma = alpha, beta, gamma
        self.points = points

    def path(self, k, max_level):
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
        steps = [HierarchyStep(estimator=math.exp(-level), qoi=q, dof=d)
                 for level, q, d in zip(levels, qois, dofs)]
        return Hierarchy(steps=steps, levels=levels)


class SyntheticPaths:
    """A continuous-level model with a known answer, in place of PDE paths.

    Sample k of a seed has its own level grid 0 = l_0 < l_1 < ... < l_J with
    gaps from U(0.2, 0.6) and l_J >= 40, and on it

        Q(l) = A_k (1 - e^(-alpha l)) + e^(-beta l / 2) z(l),

    with A_k ~ N(1, 0.3^2) and z i.i.d. N(0, 0.1^2) per level, at cost
    10 e^l DOF.  So E[Y] = E[Q(l_J) - Q(0)] = E[A] = 1 up to a term of order
    e^(-40 alpha), and Y has finite variance for rates below min(beta, 2 alpha).
    It takes the keywords that ``run_clmc`` builds ``AdaptivePathSampler``
    with and reads only the seed.
    """

    alpha, beta, gaps = 1.5, 3.0, 200

    def __init__(self, *, seed, **settings):
        self.seed = seed

    def path(self, k, max_level):
        rng = np.random.default_rng([self.seed, k])
        levels = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 0.6, self.gaps))])
        qois = (rng.normal(1.0, 0.3) * -np.expm1(-self.alpha * levels)
                + np.exp(-0.5 * self.beta * levels) * rng.normal(0.0, 0.1, len(levels)))
        end = max(1, int(np.searchsorted(levels, max_level)))  # first level >= max_level
        steps = [HierarchyStep(estimator=math.exp(-level), qoi=q, dof=int(10 * math.exp(level)))
                 for level, q in zip(levels[:end + 1], qois[:end + 1])]
        return Hierarchy(steps=steps, levels=levels[:end + 1])


class TestEstimateRatesClmc:
    def test_exact_synthetic_rates(self):
        fit = estimate_rates_clmc(FakeSampler(alpha=2.0, beta=4.0), max_level=2.5, samples=2)
        assert fit.alpha == pytest.approx(2.0, abs=1e-6)
        assert fit.beta == pytest.approx(4.0, abs=1e-6)
        assert fit.gamma == pytest.approx(1.0, abs=1e-6)

    def test_empty_common_domain_rejected(self):
        class DisjointSampler(FakeSampler):
            def path(self, k, max_level):
                p = super().path(k, max_level)
                if k == 0:
                    p.levels = p.levels + np.concatenate([[0.0], np.full(50, 3.0)])
                return p

        with pytest.raises(ValueError):
            estimate_rates_clmc(DisjointSampler(), max_level=2.5, samples=2)


class TestRateOptimization:
    def test_interior_argmin(self):
        fit = make_fit()
        r = optimal_rate_param(fit)
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
            optimal_rate_param(make_fit(alpha=0.5, beta=1.0, gamma=2.0))

    def test_argmin_independent_of_eps(self):
        # the cost scales as eps^-2, so the rate takes no tolerance
        fit = make_fit()
        lo, hi = fit.feasible_interval()
        for eps in (0.01, 0.2, 1.0):
            assert midpoint_argmin(lambda r: clmc_cost(fit, eps, r), lo, hi,
                                   RATE_SEARCH_POINTS) == optimal_rate_param(fit)


class TestTruncationBiasBound:
    def test_hand_value(self):
        assert truncation_bias_bound(1000, 1.5, 10.0) == pytest.approx(
            1000 * math.exp(-15.0))

    def test_monotone_in_samples(self):
        assert truncation_bias_bound(2000, 1.5, 10.0) > truncation_bias_bound(
            1000, 1.5, 10.0)

    def test_vanishes_with_level_cap(self):
        assert truncation_bias_bound(1000, 1.5, 1e6) == pytest.approx(0.0, abs=1e-300)


class TestAdaptivePath:
    """Y is read off the whole path, so a path must end at its first level >= L."""

    @pytest.mark.parametrize("max_level", [0.0, 0.6, 1.5])
    def test_ends_at_first_level_reaching_max_level(self, max_level):
        path = AdaptivePathSampler("box", 300.0, base_n=4, seed=3).path(1, max_level=max_level)
        assert not path.truncated
        assert path.levels[-1] >= max_level and (path.levels[1:-1] < max_level).all()

    def test_initial_mesh_is_not_settable(self):
        # a preset mesh need not match base_n, and every path refines from it
        with pytest.raises(TypeError):
            AdaptivePathSampler("box", 300.0, base_n=4, _mesh0=object())

    def test_cap_truncates_below_max_level(self):
        sampler = AdaptivePathSampler("box", 300.0, base_n=4, seed=3, dof_max=200)
        path = sampler.path(1, max_level=5.0)
        assert path.truncated and len(path.levels) >= 2 and path.levels[-1] < 5.0

    def test_level_nudges_logged_once_per_path(self, caplog):
        caplog.set_level(logging.DEBUG, logger="levelmc.indicator")
        sampler = AdaptivePathSampler("box", 300.0, base_n=4, seed=3, dof_max=1000)
        path = sampler.path(3, max_level=4.0)
        assert path.level_fixes >= 2
        records = [r for r in caplog.records if r.name == "levelmc.indicator"]
        assert len(records) == 1
        assert f"level_fixes={path.level_fixes}" in records[0].getMessage()


class TestSharedCoarseMesh:
    """E[Q - Q_0] is one target for every estimator: an adaptive path starts
    from MLMC's level-0 mesh, so its step-0 QoI is the Q_0 of MLMC's level 0
    and the Q_0 of the reference's level-0 pair."""

    MESH_ARRAYS = ("vertices", "triangles", "edges", "tri_edges", "edge_sides")

    @pytest.mark.parametrize("kind", ["box", "cross"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_path_starts_from_level_zero(self, kind, k, monkeypatch):
        first_meshes = []

        def recording(coeff, theta, initial_mesh, **kwargs):
            first_meshes.append(initial_mesh)
            return adaptive_hierarchy(coeff, theta, initial_mesh, **kwargs)

        monkeypatch.setattr(levelmc.clmc, "adaptive_hierarchy", recording)
        sampler = AdaptivePathSampler(kind, 300.0, base_n=15, seed=11)
        path = sampler.path(k, max_level=0.5)
        level0 = uniform_family(0, 15)
        [mesh] = first_meshes
        for name in self.MESH_ARRAYS:
            np.testing.assert_array_equal(getattr(mesh, name), getattr(level0, name))

        coeff = draw_coefficient(kind, 300.0, sampler.seed, k)
        q0 = solve_qoi(level0, coeff)[0]
        assert path.qois[0] == q0
        # the mesh of MLMC's level 0, the coarse mesh of the reference's level-0 pair
        assert solve_qoi(PdeLevelModel(kind, 300.0, base_n=15).mesh(0), coeff)[0] == q0


class TestRunClmc:
    def test_stops_right_after_warmup_for_loose_tolerance(self):
        cfg = ClmcConfig(eps=100.0, rate=2.0, m_ini=20, dof_max=50_000, seed=3,
                         level_seed=1_000_006)
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

    @pytest.mark.parametrize("sampler_kind", ["pseudo", "low-discrepancy"])
    def test_refuses_a_tolerance_past_the_cap_right_after_its_warm_up(self, monkeypatch,
                                                                      sampler_kind):
        calls = []
        path = AdaptivePathSampler.path

        def counted(sampler, k, max_level):
            calls.append(k)
            return path(sampler, k, max_level)

        monkeypatch.setattr(AdaptivePathSampler, "path", counted)
        cfg = ClmcConfig(eps=1e-20, rate=2.0, m_ini=4, dof_max=5000, sampler_kind=sampler_kind,
                         seed=3, level_seed=11)
        with pytest.raises(ValueError, match=r"^after 5 samples at variance \S+, the projected "
                           r"sample count \S+e\+\d+ exceeds M_MAX = 2000000$"):
            run_clmc(cfg, kind="box", contrast=300.0)
        assert calls == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("sampler_kind", ["pseudo", "low-discrepancy"])
    def test_estimate_and_variance_are_those_of_the_y_column(self, monkeypatch, sampler_kind):
        monkeypatch.setattr(levelmc.clmc, "AdaptivePathSampler", SyntheticPaths)
        run = run_clmc(ClmcConfig(eps=0.05, rate=1.5, m_ini=10, sampler_kind=sampler_kind,
                                  seed=5, level_seed=77))
        rows = run.diagnostics["per_sample"]
        ys = np.array([r["y"] for r in rows])
        assert run.samples == len(ys) > 11
        assert run.estimate == pytest.approx(ys.mean(), rel=1e-12)
        assert run.variance_estimate == pytest.approx(np.var(ys, ddof=1) / len(ys), rel=1e-12)
        assert [r["cum_variance"] for r in rows[:10]] == [1.0] * 10
        assert rows[-1]["cum_variance"] == run.variance_estimate <= 0.05**2
        assert rows[-2]["cum_variance"] > 0.05**2

    @pytest.mark.parametrize("sampler_kind", ["pseudo", "low-discrepancy"])
    def test_unbiased_on_a_synthetic_model(self, monkeypatch, sampler_kind):
        # M fixed as in the benchmark: m_ini = M - 1 and a tolerance that the
        # first variance estimate meets; every run has its own PDE and level seeds
        monkeypatch.setattr(levelmc.clmc, "AdaptivePathSampler", SyntheticPaths)
        m, runs = 16, 200
        estimates = []
        for run in range(runs):
            result = run_clmc(ClmcConfig(eps=1e6, rate=1.5, m_ini=m - 1, sampler_kind=sampler_kind,
                                         seed=run, level_seed=10_000 + run))
            assert result.samples == m and result.diagnostics["truncated_paths"] == 0
            estimates.append(result.estimate)
        se = np.std(estimates, ddof=1) / math.sqrt(runs)
        assert abs(np.mean(estimates) - 1.0) <= 3 * se

    def test_deterministic_paths_unbiased(self):
        # frozen path: the estimator over many level draws matches the
        # telescoped sum within 3 standard errors
        levels = [0.0, 0.35, 0.8, 1.55]
        qois = [2.0, 2.5, 2.62, 2.7]
        rate = 1.7
        draws = -np.log1p(-UniformSource("pseudo", seed=42).next_block(200_000)) / rate
        ys = path_contribution(levels, qois, rate, draws)
        se = ys.std(ddof=1) / math.sqrt(len(ys))
        assert abs(ys.mean() - (qois[-1] - qois[0])) <= 3 * se
