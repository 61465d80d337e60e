"""Continuous-level Monte Carlo and its quasi-random variant.

Each sample draws a maximal refinement level L ~ Exp(r), refines its own
adaptive mesh hierarchy until the samplewise continuous level

    l_j = -log(e_j / e_0)

(built from the relative a-posteriori estimators) reaches L, and
contributes

    Y = sum_{j=1..J} w_j (Q_j - Q_{j-1}),
    w_j = (exp(r min(l_j, L)) - exp(r l_{j-1})) / (r (l_j - l_{j-1})),

the discretized form of weighting each level increment by the reciprocal
survival probability of L.  A path is the ``Hierarchy`` record of
``levelmc.indicator``, which holds per step only (e_j, Q_j, DOF) and the
continuous levels, and ends at its first level l_j >= L, so J is its last
index and only w_J is clipped.  The estimator is the plain average of the
Y values; its variance is estimated on the fly and stops the sampling
loop at the target tolerance.  Feeding the maximal levels from a
scrambled low-discrepancy stream instead of a pseudo-random one gives the
quasi variant; nothing else changes.

Paths that would exceed the machine's DOF budget are cut; the level
process is frozen beyond the cap (zero further increments), which biases
the estimate by at most M exp(-r L_cap).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .coefficient import draw_coefficient
from .indicator import Hierarchy, adaptive_hierarchy
from .mesh import structured_unit_square
from .mlmc import EstimatorRun, RateFit, sequential_sampling
from .sampling import SOURCE_KINDS, ExponentialLevelSampler, UniformSource

__all__ = [
    "ClmcConfig",
    "AdaptivePathSampler",
    "path_contribution",
    "estimate_rates_clmc",
    "clmc_cost",
    "optimal_rate_param",
    "truncation_bias_bound",
    "run_clmc",
]

RATE_GRID_POINTS = 50  # level grid of the continuous-level rate calibration
RATE_SEARCH_POINTS = 1000  # midpoint grid of the cost-optimal rate search


def path_contribution(levels, qois, rate: float, max_levels) -> np.ndarray:
    """Y(L) = sum_j w_j (Q_j - Q_{j-1}) of one path for each maximal level L,

        w_j = (exp(r min(l_j, max(L, l_{j-1}))) - exp(r l_{j-1})) / (r (l_j - l_{j-1})).

    Intervals above L weigh nothing.  A draw beyond the last level (a
    truncated path) gets the full weights; the frozen tail of the level
    process contributes nothing.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    lv = np.asarray(levels, dtype=np.float64)
    if len(lv) < 2:
        raise ValueError("a path needs at least levels l_0 and l_1")
    gaps = np.diff(lv)
    if np.any(gaps <= 0):
        raise ValueError("degenerate path: levels must be strictly increasing")
    dq = np.diff(np.asarray(qois, dtype=np.float64))
    L = np.asarray(max_levels, dtype=np.float64)[:, None]
    lo, hi = lv[None, :-1], lv[None, 1:]
    w = (np.exp(rate * np.minimum(hi, np.maximum(L, lo))) - np.exp(rate * lo)) / (rate * gaps)
    return (w * dq).sum(axis=1)


@dataclass
class AdaptivePathSampler:
    """Adaptive PDE sample paths: coefficient draw k -> refinement hierarchy.

    Coefficient randomness lives on pseudo-random substreams keyed by
    (seed, k), independent of whatever stream produces maximal levels.
    """

    kind: str
    contrast: float
    theta: float = 0.5
    base_n: int = 15
    seed: int = 0
    dof_max: int = 200_000
    _mesh0: object = field(default=None, init=False, repr=False)

    def initial_mesh(self):
        if self._mesh0 is None:
            self._mesh0 = structured_unit_square(self.base_n)
        return self._mesh0

    def path(self, k: int, max_level: float) -> Hierarchy:
        """Refine sample k until its continuous level reaches max_level,
        bounded by the DOF cap.

        A path ends at its first level >= max_level, unless the cap cut it
        first (``truncated``).
        """
        coeff = draw_coefficient(self.kind, self.contrast, self.seed, k)
        return adaptive_hierarchy(coeff, self.theta, self.initial_mesh(), max_level=max_level,
                                  max_dof=self.dof_max)


def estimate_rates_clmc(sampler: AdaptivePathSampler, max_level: float,
                        samples: int) -> RateFit:
    """Calibrate continuous-level rates from pilot paths refined to max_level.

    Per sample the piecewise-constant level derivative
    (Q_j - Q_{j-1}) / (l_j - l_{j-1}) and the cumulative solve cost are
    interpolated onto a uniform grid over the common level domain
    [max_k l_1, min_k l_last]; mean, variance and cost per grid point are
    then fit log-linearly against the level.
    """
    if samples < 2 or not max_level > 0:
        raise ValueError("need at least 2 samples and a positive level")
    paths = [sampler.path(k, max_level=max_level) for k in range(samples)]

    lo = max(p.levels[1] for p in paths)
    hi = min(p.levels[-1] for p in paths)
    if lo >= hi:
        raise ValueError("empty common level domain; raise the pilot level")
    grid = np.linspace(lo, hi, RATE_GRID_POINTS)

    derivs = np.empty((samples, RATE_GRID_POINTS))
    costs = np.empty((samples, RATE_GRID_POINTS))
    for i, p in enumerate(paths):
        j = np.searchsorted(p.levels, grid, side="left")  # l_{j-1} < g <= l_j
        gaps = np.diff(p.levels)
        derivs[i] = np.diff(p.qois)[j - 1] / gaps[j - 1]
        costs[i] = np.cumsum(p.dofs)[j]
    return RateFit.fit(grid, derivs.mean(axis=0), derivs.var(axis=0, ddof=1),
                       costs.mean(axis=0), math.e, samples)


def clmc_cost(fit: RateFit, eps: float, rate: float) -> float:
    """Cost bound of the level-continuous estimator at tolerance eps and rate r."""
    a, b, g = fit.alpha, fit.beta, fit.gamma
    var_part = 4.0 * fit.c2 / ((b - rate) * b) + fit.c1**2 * rate / ((2.0 * a - rate) * a**2)
    return fit.c3 / (eps**2 * (rate - g)) * var_part


def optimal_rate_param(fit: RateFit, eps: float) -> float:
    """Cost-minimizing exponential rate on the open feasibility interval.

    Searches a midpoint grid of (gamma, min(beta, 2 alpha)); endpoints are
    excluded by half a grid step (the objective has poles there).
    """
    lo, hi = fit.feasible_interval()
    if not lo < hi:
        raise ValueError(
            f"infeasible rate interval: need gamma < min(beta, 2 alpha), got "
            f"gamma={fit.gamma:.3g}, beta={fit.beta:.3g}, alpha={fit.alpha:.3g}"
        )
    rates = lo + (np.arange(RATE_SEARCH_POINTS) + 0.5) * (hi - lo) / RATE_SEARCH_POINTS
    costs = np.array([clmc_cost(fit, eps, r) for r in rates])
    return float(rates[np.argmin(costs)])


def truncation_bias_bound(samples: int, rate: float, level_cap: float) -> float:
    """Expected number of maximal-level draws beyond the machine level cap."""
    if samples <= 0 or rate <= 0 or level_cap <= 0:
        raise ValueError("all arguments must be positive")
    return samples * math.exp(-rate * level_cap)


@dataclass
class ClmcConfig:
    eps: float
    rate: float
    m_ini: int = 20
    dof_max: int = 200_000
    sampler_kind: str = "pseudo"   # "pseudo" -> CLMC, "low-discrepancy" -> quasi variant
    theta: float = 0.5
    seed: int = 0
    level_seed: int = field(kw_only=True)  # seed of the maximal-level stream

    def __post_init__(self):
        if not (self.eps**2 > 0 and self.rate > 0):
            raise ValueError("eps and rate must be positive, and eps^2 must not underflow to 0")
        if self.m_ini < 1:
            raise ValueError("m_ini must be >= 1")
        if self.sampler_kind not in SOURCE_KINDS:
            raise ValueError(f"unknown sampler kind {self.sampler_kind!r}")

    def asdict(self) -> dict:
        return asdict(self)


def run_clmc(config: ClmcConfig, kind: str = "box", contrast: float = 300.0,
             base_n: int = 15) -> EstimatorRun:
    """Sequential sampling loop: draw a maximal level, refine, accumulate Y,
    stop once the variance of the mean of the Ys reaches eps^2.

    The warm-up is m_ini + 1 samples, over which the ``cum_variance`` column
    is pinned to 1; the stop rule is ``sequential_sampling``.
    """
    sampler = AdaptivePathSampler(
        kind=kind, contrast=contrast, theta=config.theta,
        base_n=base_n, seed=config.seed, dof_max=config.dof_max,
    )
    level_source = UniformSource(config.sampler_kind, seed=config.level_seed)
    level_sampler = ExponentialLevelSampler(config.rate, level_source)

    rows = []
    cost_dof = 0
    level_fixes = 0
    truncation_levels = []
    for acc in sequential_sampling(config.eps**2, warmup=config.m_ini + 1):
        k = acc.count + 1
        max_level = level_sampler.draw_max_level()
        path = sampler.path(k, max_level=max_level)
        y = float(path_contribution(path.levels, path.qois, config.rate, [max_level])[0])
        acc.push(y)
        cost_dof += path.cost_dof
        level_fixes += path.level_fixes
        if path.truncated:
            truncation_levels.append(path.levels[-1])
        rows.append(
            {
                "k": k,
                "max_level": max_level,
                "index": len(path.levels) - 1,
                "max_dof": int(path.dofs.max()),
                "y": y,
                "cum_estimate": acc.mean,
                "cum_variance": 1.0 if k <= config.m_ini else acc.variance / k,
                "truncated": int(path.truncated),
            }
        )

    # without a truncated path the cap is infinite and the bound exactly 0.0
    level_cap = min(truncation_levels, default=math.inf)
    return EstimatorRun(
        method="qclmc" if config.sampler_kind == "low-discrepancy" else "clmc",
        estimate=acc.mean,
        variance_estimate=acc.variance / acc.count,
        bias_proxy=truncation_bias_bound(acc.count, config.rate, level_cap),
        cost_dof=float(cost_dof),
        samples=acc.count,
        diagnostics={
            "per_sample": rows,
            "truncated_paths": len(truncation_levels),
            "level_fixes": level_fixes,
        },
    )
