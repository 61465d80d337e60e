"""The benchmark's workloads: pinned estimator inputs, per-call seeds,
correctness checks and fingerprints of the deterministic outputs.

Every workload uses the box coefficient at contrast 300 on the 15 x 15
base mesh with Doerfler parameter 0.5, and has a fixed amount of Monte
Carlo work.  The estimators' sequential stopping rules make the work of a
single run depend strongly on its seed.  Measured on a 2-core Xeon with
one BLAS thread: over 7 seeds the stopping-rule QCLMC run at
eps = 0.08192 took 260-391 samples, 9-43 s and 0.18-1.4 GB of peak
memory, and over 7 seeds the MLMC run at eps = 0.128 stopped at level 5,
6 or 7 (0.9M-3.8M DOF).  No run length averages that out, so the QCLMC
and MLMC workloads fix their sample counts and only the random inputs
vary with the seed.

Call i of a run with seed n draws its coefficients from the base seed plus
``1000 n + i`` (base seed 20000 of the desk compare config).  The QCLMC
level points are the scrambled van der Corput points of scramble seed
77000 + i in every run: the depth of the deepest paths, not the
coefficients, sets most of a call's cost (over 8 calls of 128 samples,
283k-381k DOF with the scramble fixed and 295k-796k with it drawn from the
seed), so fixing the scramble per call leaves the coefficients as the
seed's input and the depth profile of a run the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

KIND = "box"
CONTRAST = 300.0
BASE_N = 15
THETA = 0.5

# E[Q - Q_0] for the box coefficient at contrast 300 from one desk-scale run of
#   OPENBLAS_NUM_THREADS=1 uq reference --config '{"kinds": ["box"]}'
# (ReferenceConfig seed 5000, config hash e06b4949bcbc).  Its three MSE
# components are each held below 0.01^2.
E_REF = 0.988918375057231
E_REF_MSE = 3 * 0.01**2

SEED_STRIDE = 1000      # calls per run stay far below this

# Twenty runs of each workload make about 200 estimate checks; at 4 standard
# errors a correct estimator fails one of them with probability about 1 %, at 3
# about 40 %.
Z_LIMIT = 4.0


@dataclass
class Outcome:
    """What one estimator call produced, reduced to comparable values."""

    estimate: float
    cost_dof: int
    samples: int
    problems: list
    fingerprint: str
    top_level: int = 0
    info: dict = field(default_factory=dict)   # recorded, not checked


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    driver: str          # span name of the estimator call: "clmc" or "mlmc"
    call_seconds: float  # nominal seconds per call on a 2-core Xeon; sets calls per run
    expected_spans: tuple

    def prepare(self, seed: int, call: int, smoke: bool):
        """Build the inputs of call ``call`` of a run; returns (config dict, call, outcome)."""
        return _PREPARE[self.name](seed, call, smoke)

    def calls_per_run(self, seconds: float, traced: bool) -> int:
        """Calls in a run of ``seconds``; a traced call is paired with an untraced one."""
        per_call = self.call_seconds * (2 if traced else 1)
        return max(1, int(seconds // per_call))


def _fingerprint(rows) -> str:
    """sha256 of deterministic values, formatted as the harness CSVs format them."""
    text = "\n".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row)
                     for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def _check_estimate(estimate, variance, bias, problems) -> dict:
    """|estimate - E_ref| within Z_LIMIT standard errors (estimator and
    reference) plus the estimator's own bias bound; returns the z-score."""
    z = abs(estimate - E_REF) / math.sqrt(variance + E_REF_MSE)
    limit = Z_LIMIT * math.sqrt(variance + E_REF_MSE) + bias
    if not abs(estimate - E_REF) <= limit:
        problems.append(f"estimate {estimate:.6g} is {abs(estimate - E_REF):.3g} "
                        f"from E_ref {E_REF:.6g}; limit {limit:.3g}")
    return {"z": z}


# -- qclmc-box ---------------------------------------------------------------

# 2^6 points of the scrambled van der Corput stream.  A run's metrics are
# medians over its calls, so many short calls give steadier medians than a
# few long ones.
QCLMC_SAMPLES = 64
QCLMC_RATE = 1.9        # r-hat of the 24-refinement box calibration
# Truncates the deepest paths at 10k-13k DOF.  A call's peak memory is set by
# its deepest path, whose size is heavy-tailed in the coefficients: with a cap
# of 50k, 16 calls of 128 samples peaked at 109-386 MB, with 20k at
# 111-166 MB.  The cap keeps a run's time and memory bounded, and truncated
# paths enter the check through the bias bound.
QCLMC_DOF_MAX = 20_000


def _prepare_qclmc(seed, index, smoke):
    from levelmc import ClmcConfig, run_clmc

    samples = 8 if smoke else QCLMC_SAMPLES
    # m_ini = M - 1 pins the variance for M - 1 samples; eps = 1 is met by the
    # first real variance estimate, so the run stops after exactly M samples
    config = ClmcConfig(eps=1.0, rate=QCLMC_RATE, sampler_kind="low-discrepancy",
                        m_ini=samples - 1, dof_max=QCLMC_DOF_MAX, theta=THETA,
                        seed=20000 + SEED_STRIDE * seed + index, level_seed=77000 + index)

    def call():
        return run_clmc(config, kind=KIND, contrast=CONTRAST, base_n=BASE_N)

    def outcome(run):
        problems = list(run.flags)
        if run.samples != samples:
            problems.append(f"{run.samples} samples, expected {samples}")
        info = _check_estimate(run.estimate, run.variance_estimate, run.bias_proxy, problems)
        columns = ("k", "max_level", "index", "max_dof", "y",
                   "cum_estimate", "cum_variance", "truncated")
        rows = [[r[c] for c in columns] for r in run.diagnostics["per_sample"]]
        return Outcome(run.estimate, int(run.cost_dof), run.samples, problems,
                       _fingerprint(rows), info=info)

    return config.asdict(), call, outcome


# -- mlmc-box ----------------------------------------------------------------

# pairs per level 1..6: about half the allocation run_mlmc chose at
# eps = 0.128, alpha = 0.73, b_w = 0.28 on the canonical seed (173, 88, 41,
# 20, 20, 20), keeping its top level and its share of top-level work
MLMC_PAIRS = (80, 40, 20, 10, 10, 10)
MLMC_ALPHA = 0.73       # from a 30-sample calibration
MLMC_S = 1.5**2


def _prepare_mlmc(seed, index, smoke):
    from levelmc import PdeLevelModel
    from levelmc.mlmc import Welford

    pairs = (4, 4, 4) if smoke else MLMC_PAIRS
    model = PdeLevelModel(kind=KIND, contrast=CONTRAST, base_n=BASE_N,
                          seed=20000 + SEED_STRIDE * seed + index)
    config = {"pairs": list(pairs), "alpha": MLMC_ALPHA, "s": MLMC_S,
              "base_n": BASE_N, "seed": model.seed}

    def call():
        """The level-telescoped estimate at a fixed allocation."""
        levels = []
        for level, count in enumerate(pairs, start=1):
            stats, cost = Welford(), 0
            for k in range(count):
                pair = model.pair(level, k)
                stats.push(pair.difference)
                cost += pair.cost_dof
            levels.append((level, stats, cost))
        return levels

    def outcome(levels):
        problems = []
        estimate = sum(s.mean for _, s, _ in levels)
        variance = sum(s.variance / s.count for _, s, _ in levels)
        bias = abs(levels[-1][1].mean) / abs(1.0 - MLMC_S**MLMC_ALPHA)
        info = _check_estimate(estimate, variance, bias, problems)
        rows = [[l, s.count, s.mean, s.variance, c] for l, s, c in levels]
        return Outcome(estimate, sum(c for *_, c in levels),
                       sum(s.count for _, s, _ in levels), problems,
                       _fingerprint(rows), top_level=len(levels), info=info)

    return config, call, outcome


_PREPARE = {"qclmc-box": _prepare_qclmc, "mlmc-box": _prepare_mlmc}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("qclmc-box",
                 "QCLMC, 64 samples a call: many short adaptive paths and a capped deep tail "
                 "stress per-call overhead in mesh, indicator, cold fem assembly and level draws",
                 driver="clmc", call_seconds=2.5,
                 expected_spans=("clmc.driver", "clmc.path", "indicator.adaptive_hierarchy",
                                 "indicator.residual_indicators", "indicator.doerfler_mark",
                                 "mesh.bisect_refine", "fem.assemble", "fem.solve",
                                 "fem.h1_norm", "coefficient.draw", "sampling.level_draw")),
        Workload("mlmc-box",
                 "fixed-allocation MLMC on uniform levels 1-6: warm assembly and CG on large "
                 "meshes; bypasses bisection and indicators",
                 driver="mlmc", call_seconds=6.5,
                 expected_spans=("mlmc.driver", "mlmc.pair", "mesh.uniform_family",
                                 "fem.assemble", "fem.solve", "fem.h1_norm",
                                 "coefficient.draw")),
    )
}


def config_hash(config: dict) -> str:
    payload = json.dumps(config, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:12]
