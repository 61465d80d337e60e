"""Experiment drivers: convergence study, calibration, sampling study,
reference solution and the three-way method comparison.

Every command takes a config that ``_parse_config`` resolved and checked
at the boundary.  Omitted keys get the dataclass defaults, which are desk
scale; ``full_scale`` lays the paper-scale values of ``_FULL_SCALE`` under
the given keys.  Unknown keys, wrong types, empty or repeated list entries
and values outside a rule of ``_RULES`` (one field) or ``_CROSS_RULES``
(fields together) are errors.  Each command writes CSV records plus a JSON
summary into an output directory.  Each emitted file carries the hash of
the resolved config and the seed, so results are traceable to their exact
settings.

Per-sample and per-level CSVs contain only deterministic columns, except
the wall-clock ``cost_seconds`` that ends MLMC's per-level CSV; rerunning an
experiment with identical config and seeds reproduces every other column
byte for byte.  Other wall-clock timings live in run records and summaries
only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .clmc import (
    AdaptivePathSampler,
    ClmcConfig,
    estimate_rates_clmc,
    optimal_rate_param,
    run_clmc,
)
from .coefficient import KINDS, CoefficientSample
from .indicator import adaptive_hierarchy, may_refine
from .mesh import aligned_structured_mesh, level_resolution, uniform_family
from .mlmc import (
    MlmcConfig,
    PdeLevelModel,
    RateFit,
    estimate_rates_mlmc,
    log_fit,
    optimal_bias_weight,
    run_mlmc,
    solve_qoi,
)
from .sampling import SOURCE_KINDS, moment_mse_experiment

__all__ = [
    "OUT_ROOT",
    "ConfigError",
    "NumericalError",
    "ConvergeConfig",
    "RatesConfig",
    "LdsConfig",
    "ReferenceConfig",
    "CompareConfig",
    "cmd_converge",
    "cmd_rates",
    "cmd_lds",
    "cmd_reference",
    "cmd_compare",
]

OUT_ROOT = "uq-out"      # `uq <experiment>` writes to OUT_ROOT/<experiment> by default

# fixed single-sample parameters of the convergence study, by kind
CONVERGE_SAMPLES = {"box": dict(x=0.4, y=0.6, length=0.3), "cross": dict(x=0.4, y=0.6)}

TOLERANCE_BASE = 0.04    # eps_i^2 = 0.04 * 0.8^(2 i)
TOLERANCE_DECAY = 0.8

MIN_FIT_R2 = 0.5  # least mean and variance R^2 of a CLMC pilot fit that gives r_hat


class ConfigError(ValueError):
    """Bad configuration file or values (CLI exit code 2)."""


class NumericalError(RuntimeError):
    """Experiment failed numerically (CLI exit code 3)."""


def tolerance_ladder(indices) -> list[float]:
    """Squared MSE tolerances eps_i^2 of the comparison ladder."""
    return [TOLERANCE_BASE * TOLERANCE_DECAY ** (2 * i) for i in indices]


# --------------------------------------------------------------------------
# config ingestion


# the JSON values a field of each annotation takes, in a config or a rates file;
# JSON true/false are Python bools, which are ints, so only a "bool" field takes them
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "tuple": ((list, tuple), "a list"),
    "dict": ((dict,), "an object"),
}
# the annotation of the entries of each "tuple" field
_ENTRY_TYPES = {"kinds": "str", "methods": "str", "contrasts": "float", "tolerance_indices": "int"}


def _check_type(name, value, annotation):
    types, what = _FIELD_TYPES[annotation]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if annotation == "float":
        # the json module reads Infinity, NaN and integers too large for a float
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _at_least(bound):
    return lambda v: v >= bound, f"must be >= {bound}"


# range of each field, in every config that has it; a list field's rule holds for each entry
_RULES = {
    "theta": (lambda v: 0 < v < 1, "must lie in (0,1)"),
    "kinds": (lambda v: v in KINDS, f"must be one of {KINDS}"),
    "methods": (lambda v: v in ("mlmc", "clmc", "qclmc"), "must be 'mlmc', 'clmc' or 'qclmc'"),
    **dict.fromkeys(("contrast", "contrasts", "clmc_level", "adaptive_level"),
                    (lambda v: v > 0, "must be positive")),
    # inv_exp_cdf draws distinct low-discrepancy levels for these rates
    "rate": (lambda v: 0.01 <= v <= 50, "must lie in [0.01, 50]"),
    # it bounds a share of E[Q - Q_0], which is about 1
    "component_tol": (lambda v: 0 < v <= 1, "must lie in (0, 1]"),
    **dict.fromkeys(("tolerance_indices", "seed", "seed_base", "scramble_base"), _at_least(0)),
    **dict.fromkeys(("base_n", "uniform_levels", "m_ini_clmc"), _at_least(1)),
    **dict.fromkeys(("runs", "pilot_m", "m_ini", "m_ini_mlmc"), _at_least(2)),
    # l_max: run_mlmc always computes levels 1-3; fit_window: a rate fit takes 3 points
    **dict.fromkeys(("mlmc_levels", "pilot_levels", "l_max", "fit_window"), _at_least(3)),
}

# rules that relate fields: (the fields read, predicate on the config, wording);
# they run after the single-field rules, so each sees fields already in range
_CROSS_RULES = (
    # a run holds all 2^max_exponent draws at once, and scrambling them peaks
    # near 64 B a draw: 2^24 draws take about 1 GiB
    (("min_exponent", "max_exponent"), lambda c: 1 <= c.min_exponent < c.max_exponent <= 24,
     "need 1 <= min_exponent < max_exponent <= 24"),
    # the initial mesh has (base_n + 1)^2 vertices
    (("dof_max", "base_n"), lambda c: may_refine((c.base_n + 1) ** 2, c.dof_max),
     "dof_max must exceed 2 (base_n + 1)^2 so that a path refines at least once"),
    (("reference_n", "uniform_levels", "base_n"),
     lambda c: c.reference_n > level_resolution(c.uniform_levels, c.base_n),
     "reference_n must exceed the resolution of the finest uniform mesh, "
     "level_resolution(uniform_levels, base_n)"),
)


def _parse_config(cls, raw: dict, full_scale: bool):
    """Build a config dataclass from a JSON dict and check every field of it;
    ``full_scale`` lays the paper-scale defaults under the given keys."""
    known = {f.name for f in fields(cls)} - {"full_scale"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown config keys for {cls.__name__}: {sorted(unknown)}; "
            f"known keys: {sorted(known)}"
        )
    if full_scale:
        raw = {**_FULL_SCALE.get(cls, {}), **raw}
    cfg = cls(full_scale=full_scale, **raw)
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        _check_type(f.name, value, f.type)
        entries = (value,)
        if f.type == "tuple":
            entries, annotation = value, _ENTRY_TYPES[f.name]
            for entry in entries:
                _check_type(f"each entry of {f.name}", entry, annotation)
            # contrasts are told apart by their form in a case key
            keys = [_contrast_key(e) if annotation == "float" else e for e in entries]
            _require(len(keys) == len(set(keys)) > 0,
                     f"{f.name} must be a nonempty list of distinct entries, got {value!r}")
        if f.name in _RULES:
            ok, rule = _RULES[f.name]
            for entry in entries:
                _require(ok(entry), f"{f.name} {rule}, got {entry!r}")
    _check_cross_rules(cfg)
    return cfg


def _check_cross_rules(cfg):
    """Check each rule of ``_CROSS_RULES`` whose fields ``cfg`` has."""
    for names, ok, rule in _CROSS_RULES:
        if all(hasattr(cfg, name) for name in names) and not ok(cfg):
            got = ", ".join(f"{name}={getattr(cfg, name)!r}" for name in names)
            raise ConfigError(f"{rule}, got {got}")


@contextmanager
def _reraised(exceptions, error, context):
    """Report ``exceptions`` raised in the block as ``error``, prefixed by ``context``."""
    try:
        yield
    except exceptions as exc:
        raise error(f"{context}: {exc}") from exc


def _contrast_key(contrast) -> str:
    return f"{contrast:g}"


def _cases(config):
    """(key, kind, contrast) of each case, kinds outermost; the key names the
    case in rates.json, reference.json and the comparison summary."""
    for kind, contrast in itertools.product(config.kinds, config.contrasts):
        yield f"{kind}:{_contrast_key(contrast)}", kind, contrast


class _ConfigBase:
    @classmethod
    def from_dict(cls, raw: dict, full_scale: bool = False):
        return _parse_config(cls, dict(raw), full_scale)

    def asdict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        payload = json.dumps(self.asdict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:12]


@dataclass
class ConvergeConfig(_ConfigBase):
    """Single-sample convergence study (uniform vs adaptive refinement)."""

    full_scale: bool = False
    kinds: tuple = KINDS
    contrast: float = 300.0
    theta: float = 0.5
    base_n: int = 15
    uniform_levels: int = 6
    adaptive_level: float = 2.5            # continuous level the adaptive path reaches
    reference_n: int = 256
    fit_window: int = 7                    # trailing levels used for rate fits


@dataclass
class RatesConfig(_ConfigBase):
    """Pilot calibration of the level-telescoped and level-continuous rates."""

    full_scale: bool = False
    kinds: tuple = ("box",)
    contrasts: tuple = (300.0,)
    theta: float = 0.5
    base_n: int = 15
    mlmc_levels: int = 6
    clmc_level: float = 2.5                # continuous level each CLMC pilot path reaches
    pilot_m: int = 100
    dof_max: int = 400_000
    seed: int = 1000


@dataclass
class LdsConfig(_ConfigBase):
    """Pseudo- vs quasi-random moment approximation study."""

    full_scale: bool = False
    rate: float = 1.5
    runs: int = 20
    min_exponent: int = 6
    max_exponent: int = 13
    seed: int = 7


@dataclass
class ReferenceConfig(_ConfigBase):
    """High-accuracy reference for E[Q - Q_0] via interface-aligned meshes."""

    full_scale: bool = False
    kinds: tuple = KINDS
    contrasts: tuple = (300.0,)
    theta: float = 0.5
    base_n: int = 15
    component_tol: float = 0.01
    pilot_levels: int = 4
    pilot_m: int = 25
    m_ini: int = 30
    l_max: int = 8
    seed: int = 5000


@dataclass
class CompareConfig(_ConfigBase):
    """Three-way method comparison over the tolerance ladder, on the cases,
    coarse mesh ``base_n`` and ``theta`` of the rates file it reads."""

    full_scale: bool = False
    methods: tuple = ("mlmc", "clmc", "qclmc")
    tolerance_indices: tuple = (0, 1, 2, 3, 4, 5, 6)
    runs: int = 20
    m_ini_mlmc: int = 20
    m_ini_clmc: int = 20
    l_max: int = 8                         # finest MLMC level: largest computable uniform level
    dof_max: int = 200_000
    seed_base: int = 20_000
    scramble_base: int = 77_000
    # where `uq rates` and `uq reference` write by default
    rates_file: str = f"{OUT_ROOT}/rates/rates.json"
    reference_file: str = f"{OUT_ROOT}/reference/reference.json"
    emit_samples: bool = False


# the paper-scale values that ``full_scale`` puts in place of desk defaults
_FULL_SCALE = {
    ConvergeConfig: {"uniform_levels": 7, "adaptive_level": 3.4, "reference_n": 640},
    RatesConfig: {"pilot_m": 1000},
    ReferenceConfig: {"component_tol": 0.0025},
    CompareConfig: {"runs": 100},
}


# --------------------------------------------------------------------------
# file emission


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


def write_csv(path, rows, config, seed) -> None:
    """Write dict rows under a line with the config's hash and the seed; the
    columns are the keys of the first row, in order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = list(rows[0])
    lines = [f"# config_hash={config.hash()} seed={seed}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # strict JSON, without NaN or Infinity: an undefined value is written as null
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_summary(path, experiment, config, **results) -> dict:
    """Write and return an experiment's JSON summary: its results beside its
    name, its config and the config's hash."""
    payload = {"experiment": experiment, "config": config.asdict(),
               "config_hash": config.hash(), **results}
    write_json(path, payload)
    return payload


def _loglog_slope(x, y) -> float:
    return log_fit(np.log(x), np.log(y))[0]


# --------------------------------------------------------------------------
# converge


def cmd_converge(config: ConvergeConfig, out_dir) -> dict:
    """Uniform vs adaptive single-sample convergence (CSV) with fitted rates."""
    out = Path(out_dir)
    rows, summary = [], {}
    for kind in config.kinds:
        sample = CoefficientSample(kind=kind, contrast=config.contrast, **CONVERGE_SAMPLES[kind])
        aligned = aligned_structured_mesh(*sample.break_lines(), config.reference_n)
        q_ref = solve_qoi(aligned, sample)[0]

        for level in range(config.uniform_levels + 1):
            mesh = uniform_family(level, config.base_n)
            q = solve_qoi(mesh, sample)[0]
            rows.append({
                "kind": kind, "series": "uniform", "level": level,
                "dof": mesh.num_vertices, "weak_h1_error": abs(q_ref - q),
                "estimator": "", "qoi": q,
            })

        hierarchy = adaptive_hierarchy(sample, config.theta, uniform_family(0, config.base_n),
                                       max_level=config.adaptive_level)
        w = config.fit_window
        if len(hierarchy.steps) < w:
            raise NumericalError(
                f"the adaptive {kind} path reached level {config.adaptive_level!r} in "
                f"{len(hierarchy.steps)} steps, fewer than fit_window {w}")
        for level, step in enumerate(hierarchy.steps):
            rows.append({
                "kind": kind, "series": "adaptive", "level": level,
                "dof": step.dof, "weak_h1_error": abs(q_ref - step.qoi),
                "estimator": step.estimator, "qoi": step.qoi,
            })

        uni = [r for r in rows if r["kind"] == kind and r["series"] == "uniform"]
        ada = [r for r in rows if r["kind"] == kind and r["series"] == "adaptive"]
        est_rate = -_loglog_slope([r["dof"] for r in ada[-w:]],
                                  [r["estimator"] for r in ada[-w:]])
        ada_rate = -_loglog_slope([r["dof"] for r in ada[-w:]],
                                  [r["weak_h1_error"] for r in ada[-w:]])
        uni_rate = -_loglog_slope([r["dof"] for r in uni],
                                  [r["weak_h1_error"] for r in uni])
        summary[kind] = {
            "reference_qoi": q_ref,
            "estimator_rate": est_rate,
            "adaptive_weak_rate": ada_rate,
            "uniform_weak_rate": uni_rate,
            "rate_gain": ada_rate / uni_rate if uni_rate != 0 else None,
            "adaptive_steps": len(hierarchy.steps),
            "adaptive_final_level": float(hierarchy.levels[-1]),
            "level_fixes": hierarchy.level_fixes,
        }

    write_csv(out / "converge.csv", rows, config, "-")
    return _write_summary(out / "converge_summary.json", "converge", config, results=summary)


# --------------------------------------------------------------------------
# rates


def cmd_rates(config: RatesConfig, out_dir) -> dict:
    """Pilot rate calibration for both estimator families; persists fits."""
    results = {}
    for key, kind, contrast in _cases(config):
        model = PdeLevelModel(kind=kind, contrast=contrast,
                              base_n=config.base_n, seed=config.seed)
        sampler = AdaptivePathSampler(kind=kind, contrast=contrast,
                                      theta=config.theta, base_n=config.base_n,
                                      seed=config.seed + 1, dof_max=config.dof_max)
        with _reraised(ValueError, NumericalError, f"rate fit for {key} failed"):
            mlmc_fit = estimate_rates_mlmc(model, levels=config.mlmc_levels,
                                           samples=config.pilot_m)
            clmc_fit = estimate_rates_clmc(sampler, max_level=config.clmc_level,
                                           samples=config.pilot_m)
        entry = {
            "mlmc": asdict(mlmc_fit),
            "clmc": asdict(clmc_fit),
            "mlmc_hypotheses_hold": mlmc_fit.hypotheses_hold(),
            "clmc_hypotheses_hold": clmc_fit.hypotheses_hold(),
        }
        r2 = clmc_fit.r_squared
        if not clmc_fit.hypotheses_hold():
            entry["r_hat_refused"] = "the continuous-level hypotheses failed in calibration"
        elif not min(r2["mean"], r2["variance"]) >= MIN_FIT_R2:
            entry["r_hat_refused"] = (f"the CLMC fit's mean or variance R^2 is below "
                                      f"{MIN_FIT_R2}: {r2['mean']:.3g}, {r2['variance']:.3g}")
        else:
            with _reraised(ValueError, NumericalError, f"rate fit for {key} failed"):
                entry["r_hat"] = optimal_rate_param(clmc_fit)
            entry["feasible_interval"] = list(clmc_fit.feasible_interval())
        results[key] = entry
    return _write_summary(Path(out_dir) / "rates.json", "rates", config,
                          seed=config.seed, fits=results)


# --------------------------------------------------------------------------
# lds


def cmd_lds(config: LdsConfig, out_dir) -> dict:
    """Moment-MSE study of pseudo vs low-discrepancy exponential sampling."""
    out = Path(out_dir)
    counts = [2**e for e in range(config.min_exponent, config.max_exponent + 1)]
    rows = moment_mse_experiment(config.rate, counts, config.runs, seed=config.seed)
    write_csv(out / "lds.csv", rows, config, config.seed)

    slopes = {}
    for kind in SOURCE_KINDS:
        sub = [r for r in rows if r["kind"] == kind]
        slopes[kind] = {
            "mean_mse_slope": _loglog_slope([r["count"] for r in sub],
                                            [r["mse_mean"] for r in sub]),
            "variance_mse_slope": _loglog_slope([r["count"] for r in sub],
                                                [r["mse_variance"] for r in sub]),
            "mean_mse_at_max": sub[-1]["mse_mean"],
        }
    return _write_summary(out / "lds_summary.json", "lds", config,
                          exact_mean=1.0 / config.rate, exact_variance=1.0 / config.rate**2,
                          slopes=slopes)


# --------------------------------------------------------------------------
# reference


def _decaying_alpha(fit, name) -> float:
    """The bias rate alpha of an MLMC fit; exit 3 unless it is positive."""
    if not fit.alpha > 0:
        raise NumericalError(f"{name} has alpha {fit.alpha!r} <= 0; "
                             "the level-telescoped bias does not decay")
    return fit.alpha


def cmd_reference(config: ReferenceConfig, out_dir) -> dict:
    """Aligned-mesh estimate of E[Q - Q_0] within an MSE budget of 2.5 t^2,
    with t = component_tol.

    One MLMC run on aligned meshes telescopes down to Q_0, with every term
    coupled: E[Q - Q_0] ~ E[Q_al,0 - Q_0] + sum_l E[Q_al,l - Q_al,l-1],
    l = 1..L, where its level-0 pair solves one coefficient draw on the
    aligned level-0 mesh and on Q_0's mesh.  At eps^2 = 2.5 t^2 and bias
    weight 0.4, its squared bias stays below t^2, tested on levels 1 and up,
    and its variance below 1.5 t^2, split at least cost over levels 0..L.
    The pilot fits the bias rate on levels 1..pilot_levels.
    """
    t = config.component_tol
    results = {}
    for key, kind, contrast in _cases(config):
        model = partial(PdeLevelModel, kind=kind, contrast=contrast, base_n=config.base_n,
                        aligned=True)
        with _reraised(ValueError, NumericalError, f"rate fit for {key} failed"):
            pilot = estimate_rates_mlmc(model(seed=config.seed),
                                        levels=config.pilot_levels, samples=config.pilot_m)
        alpha = _decaying_alpha(pilot, f"aligned pilot for {key}")
        with _reraised(ValueError, NumericalError, f"reference for {key} failed"):
            run = run_mlmc(
                MlmcConfig(eps=math.sqrt(2.5) * t, alpha=alpha, b_w=0.4,
                           m_ini=config.m_ini, l_max=config.l_max),
                model(seed=config.seed + 1),
            )
        results[key] = {
            "reference": run.estimate,
            "budget": 2.5 * t**2,
            "components": {"variance": run.variance_estimate,
                           "bias_squared": run.bias_proxy**2},
            "detail": {
                "samples": [level["samples"] for level in run.diagnostics["per_level"]],
                "mlmc_flags": run.flags,
                "pilot_alpha": pilot.alpha,
            },
        }
    return _write_summary(Path(out_dir) / "reference.json", "reference", config,
                          seed=config.seed, component_tol=t, values=results)


# --------------------------------------------------------------------------
# compare


def _load_table(path, hint, key, cls):
    """The ``key`` object of a JSON file that ``uq {hint}`` writes, and the
    config of class ``cls`` it was made with, checked like a given one."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{hint} file {path} not found; run `uq {hint}` first")
    with _reraised((OSError, json.JSONDecodeError), ConfigError, f"cannot read {hint} file {path}"):
        payload = json.loads(path.read_text())
    for name in (key, "config"):
        if not isinstance(payload, dict) or not isinstance(payload.get(name), dict):
            raise ConfigError(f"{hint} file {path} has no {name!r} object; rerun `uq {hint}`")
    made = dict(payload["config"])
    # a missing full_scale is None, which its type check refuses
    full_scale = made.pop("full_scale", None)
    with _reraised(ConfigError, ConfigError, f"{hint} file {path} holds a config that "
                   f"this version does not take; rerun `uq {hint}`"):
        return payload[key], cls.from_dict(made, full_scale)


def cmd_compare(config: CompareConfig, out_dir) -> dict:
    """Timed MSE comparison of the three estimators over the tolerance ladder."""
    out = Path(out_dir)
    continuous = "clmc" in config.methods or "qclmc" in config.methods
    fits, calibration = _load_table(config.rates_file, "rates", "fits", RatesConfig)
    _check_cross_rules(SimpleNamespace(dof_max=config.dof_max, base_n=calibration.base_n))
    references, made = _load_table(config.reference_file, "reference", "values", ReferenceConfig)
    # E[Q - Q_0] depends on the coarse mesh of Q_0
    if made.base_n != calibration.base_n:
        raise ConfigError(f"reference file {config.reference_file} was made with base_n "
                          f"{made.base_n!r}, not the rates file's {calibration.base_n!r}; "
                          "rerun `uq reference` with it")

    eps_sq = tolerance_ladder(config.tolerance_indices)
    run_failed = "{} run for {} at tolerance index {} failed".format  # method, key, index
    inputs, b_w = {}, {}
    for key, kind, contrast in _cases(calibration):
        if key not in fits:
            raise ConfigError(f"no rate fit for {key}; rerun `uq rates`")
        if key not in references:
            raise ConfigError(f"no reference value for {key}; rerun `uq reference`")
        entry = fits[key]
        rates_at = f"{key} in {config.rates_file}"
        ref_at = f"{key} in {config.reference_file}"
        _check_type(f"entry {rates_at}", entry, "dict")
        with _reraised((KeyError, TypeError), ConfigError, f"malformed entry {ref_at}"):
            ref_value = references[key]["reference"]
        _check_type(f"reference of {ref_at}", ref_value, "float")
        alpha = r_hat = None
        if "mlmc" in config.methods:
            with _reraised((KeyError, TypeError), ConfigError,
                           f"malformed entry {rates_at}; rerun `uq rates`"):
                fit = RateFit(**entry["mlmc"])
            for f in fields(fit):
                _check_type(f"{f.name} of the MLMC fit {rates_at}", getattr(fit, f.name), f.type)
            alpha = _decaying_alpha(fit, f"MLMC fit for {key}")
            for tol_index, e2 in zip(config.tolerance_indices, eps_sq):
                with _reraised(ValueError, NumericalError, run_failed("mlmc", key, tol_index)):
                    b_w[key, tol_index] = optimal_bias_weight(fit, math.sqrt(e2), config.l_max)
        if continuous:
            if "r_hat" not in entry:
                raise NumericalError(f"no feasible exponential rate for {key}: "
                                     f"{entry.get('r_hat_refused', 'the rates file has no r_hat')}")
            r_hat = entry["r_hat"]
            _check_type(f"r_hat of {rates_at}", r_hat, "float")
            ok, rule = _RULES["rate"]
            _require(ok(r_hat), f"r_hat of {rates_at} {rule}, got {r_hat!r}")
        inputs[key] = alpha, r_hat, ref_value

    records = []
    for (key, kind, contrast), (tol_index, e2), run_idx, method in itertools.product(
            _cases(calibration), zip(config.tolerance_indices, eps_sq),
            range(config.runs), config.methods):
        alpha, r_hat, ref_value = inputs[key]
        eps = math.sqrt(e2)
        pde_seed = config.seed_base + run_idx
        t0 = time.perf_counter()
        with _reraised(ValueError, NumericalError, run_failed(method, key, tol_index)):
            if method == "mlmc":
                run = run_mlmc(
                    MlmcConfig(eps=eps, alpha=alpha, b_w=b_w[key, tol_index],
                               m_ini=config.m_ini_mlmc, l_max=config.l_max),
                    PdeLevelModel(kind=kind, contrast=contrast, base_n=calibration.base_n,
                                  seed=pde_seed),
                )
            else:
                run = run_clmc(
                    ClmcConfig(
                        eps=eps, rate=r_hat, m_ini=config.m_ini_clmc, dof_max=config.dof_max,
                        sampler_kind="low-discrepancy" if method == "qclmc" else "pseudo",
                        theta=calibration.theta, seed=pde_seed,
                        level_seed=config.scramble_base + run_idx,
                    ),
                    kind=kind, contrast=contrast, base_n=calibration.base_n,
                )
        seconds = time.perf_counter() - t0
        records.append({
            "method": method, "kind": kind, "contrast": contrast,
            "tol_index": tol_index, "eps_sq": e2, "run": run_idx,
            "estimate": run.estimate,
            "sq_error": (run.estimate - ref_value) ** 2,
            "seconds": seconds,
            "cost_dof": run.cost_dof,
            "samples": run.samples,
            "flags": ";".join(run.flags),
        })
        if config.emit_samples:
            # the ledger of the run: per level for MLMC, whose cost_seconds is
            # wall-clock and so not reproducible, and per sample for (Q)CLMC
            name = f"{method}_{kind}_{_contrast_key(contrast)}_t{tol_index}_r{run_idx}.csv"
            write_csv(out / "samples" / name,
                      run.diagnostics["per_level" if method == "mlmc" else "per_sample"],
                      config, pde_seed)

    write_csv(out / "records.csv", records, config, config.seed_base)
    return _write_summary(out / "compare_summary.json", "compare", config,
                          inputs={"rates": calibration.hash(), "reference": made.hash()},
                          summary=_summarize_compare(records, config, calibration))


def _summarize_compare(records, config: CompareConfig, calibration: RatesConfig) -> dict:
    groups = {}
    for rec in records:
        key = (rec["method"], rec["kind"], rec["contrast"], rec["tol_index"])
        groups.setdefault(key, []).append(rec)

    cells = {}    # (method, kind, contrast, tol_index) -> cell summary
    for (method, kind, contrast, tol_index), recs in sorted(groups.items()):
        errors = np.array([r["sq_error"] for r in recs])
        secs = np.array([r["seconds"] for r in recs])
        n = len(errors)
        mean_mse = float(errors.mean())
        half = 1.96 * float(errors.std(ddof=1)) / math.sqrt(n)
        cells[method, kind, contrast, tol_index] = {
            "method": method, "kind": kind, "contrast": contrast,
            "tol_index": tol_index, "eps_sq": tolerance_ladder([tol_index])[0],
            "runs": n, "mean_mse": mean_mse,
            "ci_low": mean_mse - half, "ci_high": mean_mse + half,
            "mean_seconds": float(secs.mean()),
            "mean_cost_dof": float(np.mean([r["cost_dof"] for r in recs])),
        }

    ladder = sorted(config.tolerance_indices)
    out = {"cells": list(cells.values()), "methods": {}}
    for method in config.methods:
        per_kind = {}
        for key, kind, contrast in _cases(calibration):
            cells_m = [cells[method, kind, contrast, t] for t in ladder]
            per_kind[key] = {
                "mse_within_budget": all(c["mean_mse"] <= 1.5 * c["eps_sq"] for c in cells_m),
            }
            # log mean MSE against log mean cost, in seconds and in DOF; one
            # tolerance index, or one cost for all, fits no line
            for name, cost in (("time", "mean_seconds"), ("dof", "mean_cost_dof")):
                log_cost = np.log([c[cost] for c in cells_m])
                slope = r2 = None
                if np.ptp(log_cost) > 0:
                    slope, _, r2 = log_fit(log_cost, np.log([c["mean_mse"] for c in cells_m]))
                per_kind[key] |= {f"{name}_mse_slope": slope, f"{name}_mse_r2": r2}
        out["methods"][method] = per_kind

    if "clmc" in config.methods and "qclmc" in config.methods:
        out["qclmc_vs_clmc"] = {
            key: {
                "qclmc_wins": sum(cells["qclmc", kind, contrast, t]["mean_mse"]
                                  <= cells["clmc", kind, contrast, t]["mean_mse"]
                                  for t in config.tolerance_indices),
                "cells": len(config.tolerance_indices),
            }
            for key, kind, contrast in _cases(calibration)
        }
    return out
