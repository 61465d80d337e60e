"""Multilevel Monte Carlo: calibration, cost optimization and the driver loop.

A level model supplies coupled samples ``pair(level, k)`` and the factor
``s`` by which its DOF grow per level (2.25 on the uniform mesh family);
the drivers read s from the model.  Each level-l sample couples the fine
and coarse solve through a common coefficient draw; the estimator
telescopes the per-level difference means,

    estimate = sum_l mean(Q_l - Q_{l-1}),    l = 1..L,

targeting E[Q - Q_0].  On its current levels the driver first extends the
per-level sample counts to the variance-optimal allocation (never
discarding computed samples), then tests a rate-corrected bias proxy built
from the last three difference means against the bias share of the
tolerance, and adds a level while that test fails.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .coefficient import draw_coefficient
from .fem import assemble, h1_norm, solve
from .mesh import aligned_structured_mesh, level_resolution, uniform_family

__all__ = [
    "EstimatorRun",
    "MlmcConfig",
    "PairSample",
    "PdeLevelModel",
    "RateFit",
    "Welford",
    "estimate_rates_mlmc",
    "bias_level",
    "computable_mlmc_cost",
    "optimal_bias_weight",
    "optimal_samples",
    "bias_stop",
    "check_sample_cap",
    "sequential_sampling",
    "run_mlmc",
]

BIAS_WEIGHT_POINTS = 10_000  # midpoint grid of the cost-optimal MSE weight search
M_MAX = 2_000_000  # sample cap of an MLMC level, a CLMC run and a plain MC reference


def check_sample_cap(counts, what: str):
    """Raise ValueError unless each projected sample count is finite and at most M_MAX."""
    if not np.all(np.asarray(counts, float) <= M_MAX):  # nan compares false
        raise ValueError(f"{what} {counts} exceed{'' if np.ndim(counts) else 's'} M_MAX = {M_MAX}")


@dataclass
class EstimatorRun:
    """Outcome of one estimator run with its cost ledger and diagnostics."""

    method: str
    estimate: float
    variance_estimate: float
    bias_proxy: float
    cost_dof: float
    samples: int
    diagnostics: dict
    flags: list = field(default_factory=list)


class Welford:
    """Single-pass mean/variance accumulator."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, value: float):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased sample variance; requires at least two values."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)


def sequential_sampling(target: float, warmup: int, prefix: str = ""):
    """The stop rule of every sequential sampler: yield one ``Welford``
    accumulator, into which the caller pushes one sample per step, while fewer
    than ``warmup`` samples are in or the variance of their mean exceeds target.

    From the warm-up on, each further sample's projected count, sample variance
    / target, must pass ``check_sample_cap``; ``prefix`` names the sampler in
    its message.
    """
    if warmup < 2:
        raise ValueError("the warm-up needs at least 2 samples for a variance")
    acc = Welford()
    while acc.count < warmup or acc.variance / acc.count > target:
        if acc.count >= warmup:
            check_sample_cap(acc.variance / target, f"{prefix}after {acc.count} samples at "
                             f"variance {acc.variance / acc.count:.3g}, the projected sample count")
        yield acc


@dataclass
class PairSample:
    fine: float
    coarse: float
    cost_dof: int
    seconds: float
    cg_iterations: int = 0     # of the fine and the coarse solve together
    factored_solves: int = 0   # of the two, those solved by the banded Cholesky

    @property
    def difference(self) -> float:
        return self.fine - self.coarse


@dataclass
class PdeLevelModel:
    """Coupled level pairs of the H1-norm QoI on a family of level meshes.

    The meshes are the uniform family, or with ``aligned`` set, tensor meshes
    of the same resolutions whose gridlines contain each sample's
    discontinuities.  Aligned meshes represent the coefficient exactly, so
    the weak error decays at the fast rate; the reference computation uses
    them.

    Each (level, k) pair owns an independent substream of the coefficient
    seed, so extending sample counts never re-draws earlier samples and
    results do not depend on evaluation order.  Like any level model, it
    supplies ``pair(level, k)`` and the growth factor ``s`` the drivers read.
    """

    s: ClassVar[float] = 1.5**2  # DOF growth factor of the uniform family
    kind: str                  # "box" | "cross"
    contrast: float
    base_n: int = 15
    seed: int = 0
    aligned: bool = False
    _meshes: dict = field(default_factory=dict, init=False, repr=False)

    def mesh(self, level: int, coeff=None):
        """Mesh of a level; aligned meshes need the coefficient sample."""
        if self.aligned:
            return aligned_structured_mesh(*coeff.break_lines(),
                                           level_resolution(level, self.base_n))
        if level not in self._meshes:
            self._meshes[level] = uniform_family(level, self.base_n)
        return self._meshes[level]

    def _draw_coefficient(self, level: int, k: int):
        return draw_coefficient(self.kind, self.contrast, self.seed, (level, k))

    @staticmethod
    def _qoi(mesh, coeff):
        """The QoI of a solve, its CG iteration count and whether it was factored."""
        solution = solve(assemble(mesh, coeff))
        return h1_norm(solution), solution.iterations, solution.factored

    def pair(self, level: int, k: int) -> PairSample:
        """Solve one coefficient draw on levels (level, level-1); the pair's
        seconds include building the two meshes."""
        if level < 1:
            raise ValueError("coupled pairs need level >= 1")
        coeff = self._draw_coefficient(level, k)
        t0 = time.perf_counter()
        fine_mesh, coarse_mesh = self.mesh(level, coeff), self.mesh(level - 1, coeff)
        fine, fine_iterations, fine_factored = self._qoi(fine_mesh, coeff)
        coarse, coarse_iterations, coarse_factored = self._qoi(coarse_mesh, coeff)
        seconds = time.perf_counter() - t0
        return PairSample(fine, coarse,
                          fine_mesh.num_vertices + coarse_mesh.num_vertices, seconds,
                          fine_iterations + coarse_iterations, fine_factored + coarse_factored)

    def single(self, level: int, k: int) -> float:
        """One plain QoI sample at a level."""
        coeff = self._draw_coefficient(level, k)
        return self._qoi(self.mesh(level, coeff), coeff)[0]


@dataclass
class RateFit:
    """Log-linear decay/growth calibration over a level axis l: |mean| ~ c1 s^(-alpha l),
    variance ~ c2 s^(-beta l), cost ~ c3 s^(gamma l).  MLMC fits integer levels with
    the model's DOF growth s, CLMC the continuous level with s = e."""

    alpha: float
    beta: float
    gamma: float
    c1: float
    c2: float
    c3: float
    s: float
    domain: tuple
    samples: int
    r_squared: dict
    points: dict  # the number of values each fit used

    @classmethod
    def fit(cls, levels, means, variances, costs, s: float, samples: int) -> RateFit:
        """Fit lines to the base-s logarithms of |means|, variances and costs
        against the levels, each over its positive values only."""
        mean_slope, log_c1, r2_mean, n_mean = _masked_log_fit(levels, np.abs(means), "mean", s)
        var_slope, log_c2, r2_var, n_var = _masked_log_fit(levels, variances, "variance", s)
        cost_slope, log_c3, r2_cost, n_cost = _masked_log_fit(levels, costs, "cost", s)
        return cls(
            alpha=-mean_slope, beta=-var_slope, gamma=cost_slope,
            c1=s**log_c1, c2=s**log_c2, c3=s**log_c3, s=s,
            domain=(float(levels[0]), float(levels[-1])), samples=samples,
            r_squared={"mean": r2_mean, "variance": r2_var, "cost": r2_cost},
            points={"mean": n_mean, "variance": n_var, "cost": n_cost},
        )

    def feasible_interval(self) -> tuple:
        """The rates r with gamma < r < min(beta, 2 alpha)."""
        return self.gamma, min(self.beta, 2.0 * self.alpha)

    def hypotheses_hold(self) -> bool:
        lo, hi = self.feasible_interval()
        return lo < hi


def _log_fit(x, y):
    """Least-squares line through (x, y); returns slope, intercept, R^2."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    r2 = 1.0 - (resid @ resid) / (total @ total) if (total @ total) > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def _masked_log_fit(x, values, name: str, base: float):
    """Line through (x, log_base(values)) over the positive values only.

    Nonpositive values are excluded with a warning; fewer than 3 usable
    points is an error.  Returns slope, intercept, R^2 as ``_log_fit`` and
    the number of points used.
    """
    values = np.asarray(values, float)
    usable = values > 0
    count = int(usable.sum())
    if count < len(values):
        warnings.warn(f"excluding {len(values) - count} points from the {name} fit "
                      "(nonpositive estimates)")
    if count < 3:
        raise ValueError(f"fewer than 3 usable points for the {name} fit")
    return (*_log_fit(np.asarray(x, float)[usable], np.log(values[usable]) / math.log(base)), count)


def estimate_rates_mlmc(model, levels: int, samples: int) -> RateFit:
    """Calibrate (alpha, beta, gamma) and constants from per-level pilot runs.

    Fits straight lines to the base-``model.s`` logarithms of |difference
    mean|, difference variance and pair cost over levels 1..levels.  Levels
    with a nonpositive mean or variance estimate are excluded from the
    affected fit with a warning; fewer than 3 usable levels is an error.
    """
    if levels < 3:
        raise ValueError("need at least 3 levels for a rate fit")
    if samples < 2:
        raise ValueError("need at least 2 samples per level")
    means, variances, costs = [], [], []
    for level in range(1, levels + 1):
        pairs = [model.pair(level, k) for k in range(samples)]
        diffs = np.array([p.difference for p in pairs])
        means.append(diffs.mean())
        variances.append(diffs.var(ddof=1))
        costs.append(np.mean([p.cost_dof for p in pairs]))

    return RateFit.fit(np.arange(1, levels + 1, dtype=float), means, variances, costs,
                       model.s, samples)


def bias_level(fit: RateFit, eps: float, b_w: float) -> float:
    """Continuous level L(b_w) at which the geometric bias tail meets sqrt(b_w) eps."""
    return math.log(fit.c1 / (math.sqrt(b_w) * eps * (fit.s**fit.alpha - 1.0))) \
        / (fit.alpha * math.log(fit.s))


def computable_mlmc_cost(fit: RateFit, eps: float, b_w: float) -> float:
    """Computable cost bound of the level-telescoped estimator at weight b_w,
    up to the continuous bias level L(b_w)."""
    level = bias_level(fit, eps, b_w)
    s, beta, gamma = fit.s, fit.beta, fit.gamma
    geo = fit.c3 * s**gamma * (s ** (gamma * level) - 1.0) / (s**gamma - 1.0)
    q = s ** ((gamma - beta) / 2.0)
    var_term = (
        fit.c2 * fit.c3 / ((1.0 - b_w) * eps**2)
        * s ** (gamma - beta)
        * ((1.0 - q**level) / (1.0 - q)) ** 2
    )
    return max(2.0 * geo, var_term) + geo


def optimal_bias_weight(fit: RateFit, eps: float, level_cap: int) -> float:
    """Cost-minimizing MSE weight over (b_low, 1).

    b_low makes the continuous bias level meet the largest computable level;
    the argmin is taken on a mid-point grid of the open interval.  An empty
    feasible interval falls back to 0.5 with a warning.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    root = fit.c1 / (eps * (fit.s**fit.alpha - 1.0) * fit.s ** (fit.alpha * level_cap))
    b_low = min(max(root**2, 1e-6), 1.0 - 1e-6)
    if b_low >= 1.0 - 1e-6:
        warnings.warn("empty feasible interval for the MSE weight; using 0.5")
        return 0.5
    bs = b_low + (np.arange(BIAS_WEIGHT_POINTS) + 0.5) * (1.0 - b_low) / BIAS_WEIGHT_POINTS
    costs = np.array([computable_mlmc_cost(fit, eps, b) for b in bs])
    return float(bs[np.argmin(costs)])


def optimal_samples(variances, costs, eps: float, b_w: float) -> np.ndarray:
    """Variance-optimal per-level sample counts with the minimum-2 floor.

    Given per-level variances V_l and per-sample costs C_l (fine+coarse DOF),
    returns ceil(S * sqrt(V_l / C_l) / ((1-b_w) eps^2)) with
    S = sum_m sqrt(V_m C_m), floored at 2.  The result satisfies
    sum V_l / M_l <= (1 - b_w) eps^2, and must pass ``check_sample_cap``.

    This is the rounded-up continuous optimum x_u, not the integer optimum
    (which need not be unique).  When every x_u,l > 1 its cost sum C_l M_l
    is less than the integer optimum's cost plus sum C_l.
    """
    if not 0.0 < b_w < 1.0:
        raise ValueError("bias weight must lie in (0, 1)")
    v = np.asarray(variances, float)
    c = np.asarray(costs, float)
    if np.any(v < 0) or np.any(c <= 0):
        raise ValueError("variances must be >= 0 and costs > 0")
    budget = (1.0 - b_w) * eps**2
    total = np.sqrt(v * c).sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        raw = np.ceil(np.sqrt(v / c) * total / budget)
    check_sample_cap(raw.tolist(), "MLMC sample counts")
    return np.maximum(2, raw.astype(np.int64))


def bias_stop(level_means, s: float, alpha: float, b_w: float, eps: float) -> bool:
    """Rate-corrected three-term bias criterion on the last level means."""
    tail = [abs(float(b)) for b in level_means][-3:]
    while len(tail) < 3:
        tail.insert(0, math.inf)
    corrected = max(tail[0] * s ** (-2.0 * alpha), tail[1] * s**-alpha, tail[2])
    return corrected <= math.sqrt(b_w) * eps * abs(1.0 - s**alpha)


@dataclass
class MlmcConfig:
    eps: float
    alpha: float
    b_w: float
    m_ini: int = 50
    l_max: int = 10

    def __post_init__(self):
        if not (self.eps > 0 and self.alpha > 0):  # nan compares false
            raise ValueError("eps and alpha must be positive")
        if not 0.0 < self.b_w < 1.0:
            raise ValueError("bias weight must lie in (0, 1)")
        if self.m_ini < 2:
            raise ValueError("need at least 2 initial samples per level")
        if self.l_max < 3:
            raise ValueError("l_max must be >= 3: the warm-up computes levels 1-3")


class _LevelState:
    def __init__(self):
        self.stats = Welford()
        self.cost_dof = 0
        self.cost_seconds = 0.0
        self.cg_iterations = 0
        self.factored_solves = 0

    def extend(self, model, level, target):
        while self.stats.count < target:
            pair = model.pair(level, self.stats.count)
            self.stats.push(pair.difference)
            self.cost_dof += pair.cost_dof
            self.cost_seconds += pair.seconds
            self.cg_iterations += pair.cg_iterations
            self.factored_solves += pair.factored_solves


def run_mlmc(config: MlmcConfig, model) -> EstimatorRun:
    """On-the-fly driver in the order of Giles (Acta Numerica 2015, Algorithm 1):
    warm up levels 1..3; then extend the sample counts to the variance-optimal
    allocation until no level is short, test the bias, and add a level while
    the test fails."""
    states: dict[int, _LevelState] = {}

    def ensure(level, target):
        state = states.setdefault(level, _LevelState())
        state.extend(model, level, target)

    flags = []
    for level in (1, 2, 3):
        ensure(level, config.m_ini)
    top = 3
    while True:
        levels = list(range(1, top + 1))
        while True:
            variances = np.array([states[l].stats.variance for l in levels])
            costs = np.array([states[l].cost_dof / states[l].stats.count for l in levels])
            counts = optimal_samples(variances, costs, config.eps, config.b_w)
            short = [(l, int(m)) for l, m in zip(levels, counts) if m > states[l].stats.count]
            if not short:
                break
            for l, m in short:
                ensure(l, m)
        means = [states[l].stats.mean for l in levels]
        if bias_stop(means, model.s, config.alpha, config.b_w, config.eps):
            break
        if top >= config.l_max:
            flags.append("bias-unconverged")
            break
        top += 1
        ensure(top, config.m_ini)

    estimate = float(sum(states[l].stats.mean for l in levels))
    variance_sum = float(
        sum(states[l].stats.variance / states[l].stats.count for l in levels)
    )
    bias_proxy = abs(states[top].stats.mean) / abs(1.0 - model.s**config.alpha)
    per_level = [
        {
            "level": l,
            "samples": states[l].stats.count,
            "mean": states[l].stats.mean,
            "variance": states[l].stats.variance,
            "cost_dof": states[l].cost_dof,
            "cg_iterations": states[l].cg_iterations,
            "factored_solves": states[l].factored_solves,
            "cost_seconds": states[l].cost_seconds,
        }
        for l in levels
    ]
    return EstimatorRun(
        method="mlmc",
        estimate=estimate,
        variance_estimate=variance_sum,
        bias_proxy=bias_proxy,
        cost_dof=float(sum(states[l].cost_dof for l in levels)),
        samples=int(sum(states[l].stats.count for l in levels)),
        diagnostics={"per_level": per_level, "max_level": top},
        flags=flags,
    )
