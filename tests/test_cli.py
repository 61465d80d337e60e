"""End-to-end checks of the ``uq`` command line: exit codes and reproducible
output files, on configurations small enough to run in a few seconds."""

import json
import math
from dataclasses import asdict, fields, replace

import pytest

import levelmc.cli
import levelmc.harness
import levelmc.mlmc
from levelmc.cli import main
from levelmc.coefficient import draw_coefficient
from levelmc.fem import SolverError
from levelmc.harness import (
    _CROSS_RULES,
    _ENTRY_TYPES,
    _FIELD_TYPES,
    _FULL_SCALE,
    OUT_ROOT,
    _RULES,
    CompareConfig,
    ConfigError,
    ConvergeConfig,
    LdsConfig,
    RatesConfig,
    ReferenceConfig,
    _ConfigBase,
    _summarize_compare,
)
from levelmc.mesh import aligned_structured_mesh, level_resolution, uniform_family
from levelmc.mlmc import EstimatorRun, PdeLevelModel, RateFit, optimal_bias_weight, solve_qoi

# MLMC and CLMC fits of a desk-scale `uq rates` run for the box coefficient
# (rounded), with the continuous-level rate r-hat of a 24-refinement
# calibration; like the files `uq` writes, each carries the config it was made with
RATES = {"config": RatesConfig.from_dict({}).asdict(), "fits": {"box:300": {
    "mlmc": {"alpha": 0.716, "beta": 0.939, "gamma": 0.972, "c1": 0.877, "c2": 0.743,
             "c3": 373.3, "s": 2.25, "domain": [1.0, 6.0], "samples": 100,
             "r_squared": {"mean": 0.986, "variance": 0.980, "cost": 1.0},
             "points": {"mean": 6, "variance": 6, "cost": 6}},
    "clmc": {"alpha": 1.489, "beta": 3.174, "gamma": 1.624, "c1": 1.232, "c2": 7.210,
             "c3": 583.0, "s": math.e, "domain": [0.241, 2.503], "samples": 100,
             "r_squared": {"mean": 0.743, "variance": 0.748, "cost": 0.997},
             "points": {"mean": 50, "variance": 50, "cost": 50}},
    "r_hat": 1.9,
}}}
# the reference of the default config holds both kinds; a compare on RATES
# reads only its box value (the cross value is a stand-in)
REFERENCE = {"config": ReferenceConfig.from_dict({}).asdict(),
             "values": {"box:300": {"reference": 0.988918375057231},
                        "cross:300": {"reference": 1.0}}}


# the ledger columns of an estimator run that compare emits
MLMC_LEDGER = "level,samples,mean,variance,cost_dof,cg_iterations,factored_solves,cost_seconds"
CLMC_LEDGER = "k,max_level,index,max_dof,y,cum_estimate,cum_variance,truncated"
# the log-log fits of mean MSE against mean cost in compare_summary.json
COST_FITS = ("time_mse_slope", "time_mse_r2", "dof_mse_slope", "dof_mse_r2")


def run(tmp_path, experiment, config, out="out"):
    path = tmp_path / f"{experiment}.json"
    path.write_text(json.dumps(config))
    return main([experiment, "--config", str(path), "--out", str(tmp_path / out)])


def assert_csv_head(path, config, seed, columns):
    """The first two lines of a CSV: the config hash and seed, then the columns."""
    lines = path.read_text().splitlines()
    assert lines[:2] == [f"# config_hash={config.hash()} seed={seed}", columns]


def assert_envelope(path, experiment, config):
    """A JSON summary names its experiment, its resolved config and that config's hash."""
    payload = json.loads(path.read_text())
    assert payload["experiment"] == experiment
    assert payload["config"] == json.loads(json.dumps(config.asdict()))
    assert payload["config_hash"] == config.hash()


@pytest.mark.parametrize("experiment, config", [
    ("rates", {"contrasts": 300}),
    ("rates", {"theta": 2.0}),
    ("rates", {"dof_max": 0}),
    ("converge", {"theta": 0.0}),
    ("reference", {"m_ini": 1}),
    ("reference", {"pilot_m": 1}),
    ("compare", {"runs": "20"}),
    ("compare", {"m_ini_mlmc": 1}),
    ("compare", {"m_ini_clmc": 0}),
    # compare takes its cases, base_n and theta from its rates file, and l_max
    # is its one finest level
    ("compare", {"level_cap": 8}),
    ("compare", {"kinds": ["box"]}),
    ("lds", {"runs": 2.5}),
    ("lds", {"seed": True}),
    ("lds", {"max_exponent": 9.0}),
    ("rates", {"mlmc_levels": 3.5}),
    ("rates", {"pilot_m": 100.0}),
    ("converge", {"fit_window": None}),
    ("reference", {"seed": "5000"}),
    ("compare", {"runs": False}),
    ("lds", {"rate": True, "runs": 2, "max_exponent": 7}),
    ("compare", {"emit_samples": "no"}),
    ("compare", {"rates_file": 3}),
    ("compare", {"tolerance_indices": [0.5]}),
    ("compare", {"tolerance_indices": [-1]}),
    ("converge", {"contrast": True}),
    ("reference", {"component_tol": False}),
    ("rates", {"contrasts": [300, True]}),
    ("compare", {"methods": ["mlmc", 1]}),
    ("converge", {"base_n": 0}),
    ("compare", {"base_n": 15}),
    ("reference", {"base_n": -1}),
    ("compare", {"contrasts": [300]}),
    ("rates", {"dof_max": 512}),  # 2 (base_n + 1)^2: the first refinement is cut
    ("lds", {"min_exponent": 0}),
    ("lds", {"min_exponent": -2}),
    ("compare", {"runs": None}),
    ("converge", {"uniform_levels": None}),
    ("compare", {"tolerance_indices": [0, 0]}),
    ("compare", {"theta": 0.5}),
    ("rates", {"contrasts": [300, 300.0001]}),  # both name the case box:300
    ("reference", {"contrasts": [300, 300.0]}),
    ("rates", {"contrasts": []}),
    ("compare", {"methods": []}),
    ("lds", {"seed": -1}),
    ("rates", {"seed": -1}),
    ("reference", {"seed": -1}),
    ("compare", {"seed_base": -1}),
    ("compare", {"scramble_base": -1}),
    ("compare", {"l_max": 1}),
    ("reference", {"l_max": 2}),
    ("converge", {"uniform_levels": -1}),
    ("converge", {"uniform_levels": 0}),
    ("converge", {"reference_n": 0}),
    ("converge", {"reference_n": 171}),  # the finest uniform mesh at 6 levels is 171 x 171
    ("lds", {"rate": math.inf, "runs": 2, "max_exponent": 7}),
    ("converge", {"contrast": math.inf}),
    # integers too large for a float
    ("rates", {"contrasts": [10**400]}),
    ("converge", {"contrast": 10**400}),
    ("reference", {"component_tol": 10**400}),
    ("lds", {"rate": 10**400, "runs": 2, "max_exponent": 7}),
    ("converge", {"contrast": math.nan}),
    ("lds", {"max_exponent": 25}),
    ("rates", {"clmc_level": 0}),
    ("rates", {"clmc_level": True}),
    # rates outside [0.01, 50] divided by zero or overflowed in the lds run
    ("lds", {"runs": 2, "min_exponent": 1, "max_exponent": 2, "rate": 1e-300}),
    ("lds", {"runs": 2, "min_exponent": 1, "max_exponent": 2, "rate": 1e300}),
    ("lds", {"runs": 2, "max_exponent": 7, "rate": 0.0099}),
    ("lds", {"runs": 2, "max_exponent": 7, "rate": 50.5}),
    # t^2 overflowed; E[Q - Q_0], which component_tol bounds a share of, is about 1
    ("reference", {"kinds": ["box"], "base_n": 4, "pilot_levels": 3, "pilot_m": 2,
                   "component_tol": 1e300, "m_ini": 4, "l_max": 5}),
    ("reference", {"component_tol": 1.5}),
    ("converge", {"adaptive_level": 0}),
    ("converge", {"adaptive_level": True}),
    ("converge", {"fit_window": 2}),
    # the key that converge took before adaptive_level replaced it
    ("converge", {"adaptive_steps": 16}),
])
def test_malformed_config_exits_2(tmp_path, capsys, experiment, config):
    assert run(tmp_path, experiment, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [
    {"emit_samples": "no"},
    {"rates_file": 3},
    {"tolerance_indices": [0.5]},
    {"tolerance_indices": [-1]},
    {"methods": ["mlmc", 1]},
    {"m_ini_mlmc": 1},
    {"l_max": 2},
    {"runs": None},
    {"tolerance_indices": [0, 0]},
    {"methods": ["mlmc", "mlmc"]},
    {"methods": []},
    {"seed_base": -1},
    {"scramble_base": -1},
    {"l_max": 1},
])
def test_compare_config_types_checked_before_reading_results(config):
    # `uq compare` would also exit 2 on the missing rates file
    with pytest.raises(ConfigError):
        CompareConfig.from_dict(config)


def test_lds_stream_bound_checked_before_drawing():
    # checked on the config only: a run holds all 2^max_exponent draws at once,
    # about 1 GiB at the bound
    with pytest.raises(ConfigError, match="max_exponent <= 24"):
        LdsConfig.from_dict({"max_exponent": 25})
    assert LdsConfig.from_dict({"max_exponent": 24}).max_exponent == 24


def test_integer_fields_keep_their_defaults_and_hashes():
    # null is a wrong type like any other; an omitted key selects the default,
    # and a given key wins over the paper-scale default
    with pytest.raises(ConfigError, match="runs must be an integer, got None"):
        CompareConfig.from_dict({"runs": None})
    assert CompareConfig.from_dict({}).runs == 20
    assert CompareConfig.from_dict({"runs": 5}, full_scale=True).runs == 5
    # the reference config that the benchmark's E_ref cites
    assert ReferenceConfig.from_dict({"kinds": ["box"]}).hash() == "e06b4949bcbc"


@pytest.mark.parametrize("cls, desk, full", [
    (ConvergeConfig, "e4aef1618b00", "56fde937217d"),
    (RatesConfig, "0d62ea8fd543", "cc57838406a9"),
    (LdsConfig, "635f45d35242", "334173637c94"),
    (ReferenceConfig, "04dc3ede46d6", "e0c04d1fea2f"),
    (CompareConfig, "0fae276d527f", "159acf90451f"),
])
def test_default_config_hashes_pinned(cls, desk, full):
    # every emitted file carries its config hash; a serializer change must keep them
    assert cls.from_dict({}).hash() == desk
    assert cls.from_dict({}, full_scale=True).hash() == full


def test_every_config_field_is_type_checked():
    configs = _ConfigBase.__subclasses__()
    assert len(configs) == 5
    for cls in configs:
        for f in fields(cls):
            assert f.type in _FIELD_TYPES, (cls.__name__, f.name)
            assert f.type != "tuple" or f.name in _ENTRY_TYPES, (cls.__name__, f.name)


def test_every_number_field_has_a_range_and_every_table_key_a_field():
    configs = _ConfigBase.__subclasses__()
    crossed = {name for names, _, _ in _CROSS_RULES for name in names}
    for cls in configs:
        for f in fields(cls):
            assert f.type not in ("int", "float") or f.name in set(_RULES) | crossed, \
                (cls.__name__, f.name)
    for cls, values in _FULL_SCALE.items():
        assert set(values) <= {f.name for f in fields(cls)}, cls.__name__
    assert set(_RULES) <= {f.name for cls in configs for f in fields(cls)}


@pytest.mark.parametrize("method", ["mlmc", "clmc"])
def test_rate_fit_round_trips_through_the_rates_file_format(method):
    entry = RATES["fits"]["box:300"][method]
    fit = RateFit(**entry)
    assert json.loads(json.dumps(asdict(fit))) == entry
    assert RateFit(**json.loads(json.dumps(asdict(fit)))) == fit


MLMC_FIT = RateFit(alpha=0.7, beta=0.9, gamma=1.0, c1=1.0, c2=1.0, c3=1.0, s=2.25,
                   domain=(1.0, 3.0), samples=2, r_squared={}, points={})
CLMC_FIT = RateFit(alpha=1.1, beta=2.3, gamma=1.6, c1=1.0, c2=1.0, c3=1.0, s=math.e,
                   domain=(0.2, 2.5), samples=2,
                   r_squared={"mean": 0.74, "variance": 0.75, "cost": 1.0}, points={})


@pytest.mark.parametrize("experiment, fit", [
    ("rates", "estimate_rates_mlmc"),
    ("rates", "estimate_rates_clmc"),
    ("rates", "optimal_rate_param"),
    ("reference", "estimate_rates_mlmc"),
])
def test_rate_fit_failure_exits_3(tmp_path, capsys, monkeypatch, experiment, fit):
    def failing_fit(*args, **kwargs):
        raise ValueError("fewer than 3 usable points for the mean fit")

    monkeypatch.setattr(levelmc.harness, "estimate_rates_mlmc", lambda *a, **k: MLMC_FIT)
    monkeypatch.setattr(levelmc.harness, "estimate_rates_clmc", lambda *a, **k: CLMC_FIT)
    monkeypatch.setattr(levelmc.harness, fit, failing_fit)
    assert run(tmp_path, experiment, {"kinds": ["box"]}) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: rate fit for box:300 failed: fewer than 3")
    assert "Traceback" not in err


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def failing_solve(system, rtol=None):
        raise SolverError("CG did not converge", residual=1.0, iterations=1)

    monkeypatch.setattr(levelmc.mlmc, "solve", failing_solve)
    assert run(tmp_path, "converge", {"kinds": ["box"]}) == 3
    assert capsys.readouterr().err.startswith("numerical failure: CG did not converge")


def with_mlmc_fit(r_hat=1.9, **changes):
    """The RATES file text with r_hat and the MLMC fit's keys changed (None drops a key)."""
    fit = {**RATES["fits"]["box:300"]["mlmc"], **changes}
    entry = {"mlmc": {k: v for k, v in fit.items() if v is not None}, "r_hat": r_hat}
    return json.dumps({**RATES, "fits": {"box:300": {k: v for k, v in entry.items()
                                                      if v is not None}}})


# a compare runs every method unless a case names some
ALL_METHODS = ["mlmc", "clmc", "qclmc"]
# a rates file whose box:300 entry is the number 5, not an object
NON_OBJECT_ENTRY = json.dumps({**RATES, "fits": {"box:300": 5}})


@pytest.mark.parametrize("name, text, messages, methods", [
    ("rates.json", "{}", ["has no 'fits' object"], ALL_METHODS),
    ("rates.json", "not json", ["cannot read rates file", "Expecting value"], ALL_METHODS),
    ("rates.json", with_mlmc_fit(beta=None), ["malformed entry box:300", "'beta'"], ALL_METHODS),
    ("rates.json", with_mlmc_fit(alpha="0.7"), ["alpha of the MLMC fit box:300", "a number"],
     ALL_METHODS),
    ("reference.json", json.dumps({**REFERENCE, "values": {"box:300": {}}}),
     ["malformed entry box:300", "'reference'"], ALL_METHODS),
    ("rates.json", with_mlmc_fit(r_hat=-1.0), ["r_hat of box:300", "must lie in [0.01, 50]"],
     ALL_METHODS),
    # the rate rule of every config: inv_exp_cdf draws distinct levels inside it
    ("rates.json", with_mlmc_fit(r_hat=60.0),
     ["r_hat of box:300", "must lie in [0.01, 50], got 60.0"], ["clmc"]),
    ("rates.json", with_mlmc_fit(r_hat=math.inf), ["r_hat of box:300", "got inf"], ALL_METHODS),
    ("rates.json", with_mlmc_fit(r_hat=10**400), ["r_hat of box:300", "a finite number"],
     ALL_METHODS),
    ("rates.json", with_mlmc_fit(alpha=10**400),
     ["alpha of the MLMC fit box:300", "a finite number"], ALL_METHODS),
    ("rates.json", with_mlmc_fit(c3=math.nan), ["c3 of the MLMC fit box:300", "got nan"],
     ALL_METHODS),
    ("reference.json", json.dumps({**REFERENCE, "values": {"box:300": {"reference": 10**400}}}),
     ["reference of box:300", "a finite number"], ALL_METHODS),
    # the key that `uq rates` wrote before clmc_level replaced it
    ("rates.json", json.dumps({**RATES, "config": {**RATES["config"], "clmc_refinements": 12}}),
     ["unknown config keys for RatesConfig: ['clmc_refinements']", "rerun `uq rates`"],
     ALL_METHODS),
    ("rates.json", NON_OBJECT_ENTRY, ["entry box:300", "must be an object, got 5"], ["mlmc"]),
    ("rates.json", NON_OBJECT_ENTRY, ["entry box:300", "must be an object, got 5"], ["clmc"]),
    # the key that `uq rates` wrote for the MLMC level range before `domain` replaced it
    ("rates.json", with_mlmc_fit(domain=None, levels=[1, 6]),
     ["malformed entry box:300", "rerun `uq rates`", "'levels'"], ["mlmc"]),
], ids=["empty", "not-json", "fit-without-beta", "string-alpha", "no-reference-value",
        "negative-r_hat", "r_hat-past-the-rate-rule", "infinite-r_hat", "huge-r_hat",
        "huge-alpha", "nan-c3", "huge-reference", "stale-rates-config", "non-object-entry-mlmc",
        "non-object-entry-clmc", "stale-mlmc-levels"])
def test_malformed_results_file_exits_2(tmp_path, capsys, name, text, messages, methods):
    files = {"rates.json": json.dumps(RATES), "reference.json": json.dumps(REFERENCE), name: text}
    for file_name, content in files.items():
        (tmp_path / file_name).write_text(content)
    config = {"methods": methods, "rates_file": str(tmp_path / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert str(tmp_path / name) in err
    assert all(m in err for m in messages)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rates, message", [
    (with_mlmc_fit(r_hat=None), "no feasible exponential rate for box:300"),
    (with_mlmc_fit(alpha=0.0), "MLMC fit for box:300 has alpha 0.0 <= 0"),
    (with_mlmc_fit(alpha=-0.3), "MLMC fit for box:300 has alpha -0.3 <= 0"),
], ids=["no-r_hat", "zero-alpha", "negative-alpha"])
def test_unusable_rate_fit_exits_3(tmp_path, capsys, rates, message):
    (tmp_path / "rates.json").write_text(rates)
    (tmp_path / "reference.json").write_text(json.dumps(REFERENCE))
    config = {"rates_file": str(tmp_path / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/out"], ids=["a-file", "under-a-file"])
def test_output_directory_that_cannot_be_made_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch, out):
    (tmp_path / "file").write_text("")
    runs = []
    monkeypatch.setitem(levelmc.cli._COMMANDS, "lds",
                        (LdsConfig, lambda config, out_dir: runs.append(out_dir)))
    assert main(["lds", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {tmp_path / out}")
    assert "Traceback" not in err
    assert not runs


def test_failed_run_removes_the_output_directories_it_made(tmp_path, capsys, monkeypatch):
    (tmp_path / "kept").mkdir()

    def failing_run(config, out_dir):
        assert out_dir.is_dir()
        raise ConfigError("no rate fit")

    monkeypatch.setitem(levelmc.cli._COMMANDS, "lds", (LdsConfig, failing_run))
    assert main(["lds", "--out", str(tmp_path / "kept" / "a" / "b")]) == 2
    assert list(tmp_path.iterdir()) == [tmp_path / "kept"]
    assert not any((tmp_path / "kept").iterdir())


def test_results_files_are_strict_json(tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        levelmc.harness.write_json(tmp_path / "summary.json", {"slope": math.nan})


def test_lds_is_byte_identical_across_runs(tmp_path):
    config = {"runs": 4, "max_exponent": 9}
    assert run(tmp_path, "lds", config, out="a") == 0
    assert run(tmp_path, "lds", config, out="b") == 0
    first = (tmp_path / "a" / "lds.csv").read_bytes()
    assert first == (tmp_path / "b" / "lds.csv").read_bytes()
    resolved = LdsConfig.from_dict(config)
    assert_csv_head(tmp_path / "a" / "lds.csv", resolved, resolved.seed,
                    "kind,count,mse_mean,mse_variance")
    assert_envelope(tmp_path / "a" / "lds_summary.json", "lds", resolved)


def test_rates_is_byte_identical_and_keeps_its_format(tmp_path):
    config = {"kinds": ["box"], "base_n": 8, "mlmc_levels": 4, "clmc_level": 2.5,
              "pilot_m": 8, "dof_max": 20000}
    assert run(tmp_path, "rates", config, out="a") == 0
    assert run(tmp_path, "rates", config, out="b") == 0
    first = (tmp_path / "a" / "rates.json").read_bytes()
    assert first == (tmp_path / "b" / "rates.json").read_bytes()
    entry = json.loads(first)["fits"]["box:300"]
    assert sorted(entry["mlmc"]) == sorted(f.name for f in fields(RateFit))
    assert sorted(entry["clmc"]) == sorted(f.name for f in fields(RateFit))
    assert entry["mlmc"]["s"] == 2.25
    assert entry["clmc"]["s"] == math.e
    assert entry["mlmc"]["domain"] == [1.0, 4.0]
    assert_envelope(tmp_path / "a" / "rates.json", "rates", RatesConfig.from_dict(config))


def test_lds_csv_cells_are_numbers(tmp_path):
    assert run(tmp_path, "lds", {"runs": 2, "max_exponent": 7}) == 0
    lines = (tmp_path / "out" / "lds.csv").read_text().splitlines()
    assert lines[1] == "kind,count,mse_mean,mse_variance"
    for line in lines[2:]:
        kind, *numbers = line.split(",")
        assert kind in ("pseudo", "low-discrepancy")
        assert all(math.isfinite(float(cell)) for cell in numbers), line


ALIGNED = {"kinds": ["box"], "component_tol": 0.2, "pilot_levels": 3, "pilot_m": 2,
           "m_ini": 2, "l_max": 4, "base_n": 8}


def test_reference_on_aligned_meshes(tmp_path):
    assert run(tmp_path, "reference", ALIGNED) == 0
    payload = json.loads((tmp_path / "out" / "reference.json").read_text())
    entry = payload["values"]["box:300"]
    t = ALIGNED["component_tol"]
    assert math.isfinite(entry["reference"])
    assert entry["budget"] == 2.5 * t**2
    # the squared bias below t^2 and the variance below 1.5 t^2: one MLMC run
    # at eps^2 = 2.5 t^2 with bias weight 0.4
    assert sorted(entry["components"]) == ["bias_squared", "variance"]
    assert entry["components"]["variance"] <= 1.5 * t**2
    assert entry["components"]["bias_squared"] <= t**2
    assert sorted(entry["detail"]) == ["mlmc_flags", "pilot_alpha", "samples"]
    # levels 0..3 or more, the first the level-0 pairs Q_al,0 - Q_0
    samples = entry["detail"]["samples"]
    assert len(samples) >= 4 and min(samples) >= ALIGNED["m_ini"]
    assert entry["detail"]["mlmc_flags"] == []
    assert_envelope(tmp_path / "out" / "reference.json", "reference",
                    ReferenceConfig.from_dict(ALIGNED))


def recording_pairs(monkeypatch):
    """(seed, aligned, level, k) of every pair a PdeLevelModel solves, mapped
    to the pair's difference."""
    pairs = {}
    solve_pair = PdeLevelModel.pair

    def recording(model, level, k):
        sample = solve_pair(model, level, k)
        pairs[model.seed, model.aligned, level, k] = sample.difference
        return sample

    monkeypatch.setattr(PdeLevelModel, "pair", recording)
    return pairs


@pytest.mark.parametrize("kind", ["box", "cross"])
def test_reference_level0_correction_solves_one_draw_on_both_meshes(tmp_path, monkeypatch, kind):
    # the level-0 pairs of the one MLMC run, Q_al,0 - Q_0, take one coefficient
    # draw to the aligned level-0 mesh and to Q_0's mesh; the pilot has none
    pairs = recording_pairs(monkeypatch)
    config = {**ALIGNED, "kinds": [kind]}
    assert run(tmp_path, "reference", config) == 0
    samples = json.loads((tmp_path / "out" / "reference.json").read_text())[
        "values"][f"{kind}:300"]["detail"]["samples"]
    seed = ReferenceConfig.from_dict(config).seed + 1
    level0 = sorted(key for key in pairs if key[2] == 0)
    assert level0 == [(seed, True, 0, k) for k in range(samples[0])]
    q0_mesh = uniform_family(0, 8)
    for k in range(4):
        coeff = draw_coefficient(kind, 300.0, seed, (0, k))
        aligned = aligned_structured_mesh(*coeff.break_lines(), level_resolution(0, 8))
        assert pairs[seed, True, 0, k] == (solve_qoi(aligned, coeff)[0]
                                           - solve_qoi(q0_mesh, coeff)[0])


def test_reference_pilot_whose_bias_does_not_decay_exits_3(tmp_path, capsys):
    # this aligned pilot fits alpha = -9.68
    config = {"kinds": ["box"], "base_n": 4, "pilot_levels": 3, "pilot_m": 2, "seed": 0,
              "component_tol": 0.1, "m_ini": 4, "l_max": 5}
    assert run(tmp_path, "reference", config) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: aligned pilot for box:300 has alpha -9.")
    assert "<= 0; the level-telescoped bias does not decay" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_converge_writes_its_columns_and_summary(tmp_path):
    # levels 0.412 and 0.491 at steps 2 and 3: the path stops at step 3
    config = {"kinds": ["box"], "base_n": 4, "uniform_levels": 2, "adaptive_level": 0.45,
              "fit_window": 3, "reference_n": 16}
    assert run(tmp_path, "converge", config) == 0
    resolved = ConvergeConfig.from_dict(config)
    assert_csv_head(tmp_path / "out" / "converge.csv", resolved, "-",
                    "kind,series,level,dof,weak_h1_error,estimator,qoi")
    assert_envelope(tmp_path / "out" / "converge_summary.json", "converge", resolved)
    lines = (tmp_path / "out" / "converge.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines if ",adaptive," in line] == ["0", "1", "2", "3"]
    box = json.loads((tmp_path / "out" / "converge_summary.json").read_text())["results"]["box"]
    assert box["adaptive_steps"] == 4 and box["level_fixes"] == 0
    assert 0.45 <= box["adaptive_final_level"] < 0.5


def test_converge_path_shorter_than_its_fit_window_exits_3(tmp_path, capsys):
    config = {"kinds": ["box"], "base_n": 4, "uniform_levels": 2, "adaptive_level": 0.45,
              "fit_window": 5, "reference_n": 16}
    assert run(tmp_path, "converge", config) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the adaptive box path reached level 0.45 in 4 "
                          "steps, fewer than fit_window 5")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# the repros of sample counts past M_MAX: eps^2 is about 1e-40 at tolerance index
# 200 and underflows to 0 at 2000; CLMC and QCLMC refuse right after their
# m_ini_clmc = 20 warm-up samples
@pytest.mark.parametrize("methods, index, message", [
    (["mlmc"], 200, "mlmc run for box:300 at tolerance index 200 failed: MLMC sample counts"),
    (["mlmc"], 2000, "mlmc run for box:300 at tolerance index 2000 failed: eps must be positive"),
    (["clmc"], 2000, "clmc run for box:300 at tolerance index 2000 failed: "
                     "eps and rate must be positive"),
    (["clmc"], 200, "clmc run for box:300 at tolerance index 200 failed: after 21 samples at "
                    "variance "),
    (["qclmc"], 200, "qclmc run for box:300 at tolerance index 200 failed: after 21 samples at "
                     "variance "),
], ids=["mlmc-200", "mlmc-2000", "clmc-2000", "clmc-200", "qclmc-200"])
@pytest.mark.filterwarnings("ignore:empty feasible interval for the MSE weight")
def test_compare_past_the_sample_cap_exits_3(tmp_path, capsys, methods, index, message):
    config = {"methods": methods, "tolerance_indices": [index], **write_inputs(tmp_path)}
    assert run(tmp_path, "compare", config) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}") and "Traceback" not in err
    assert ("M_MAX = 2000000" in err) == (index == 200)
    assert not (tmp_path / "out").exists()


REFERENCE_REPRO = {"kinds": ["box"], "base_n": 4, "pilot_levels": 3, "pilot_m": 2,
                   "m_ini": 4, "l_max": 5}


def test_reference_past_the_sample_cap_exits_3(tmp_path, capsys):
    # t^2 underflows to 0, so the difference run asks for infinitely many samples
    assert run(tmp_path, "reference", {**REFERENCE_REPRO, "component_tol": 1e-200}) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: reference for box:300 failed: "
                          "MLMC sample counts [")
    assert "exceed M_MAX = 2000000" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_reference_allocation_after_the_warm_up_stops_at_the_sample_cap(tmp_path, capsys,
                                                                       monkeypatch):
    # after m_ini = 2 samples on each of levels 0..3, the first allocation of
    # the one MLMC run asks for more level-0 pairs than the lowered cap
    monkeypatch.setattr(levelmc.mlmc, "M_MAX", 80)
    pairs = recording_pairs(monkeypatch)
    assert run(tmp_path, "reference", {**ALIGNED, "component_tol": 0.08}) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: reference for box:300 failed: MLMC sample "
                          "counts [")
    assert err.rstrip().endswith("exceed M_MAX = 80")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    seed = ReferenceConfig.from_dict(ALIGNED).seed + 1
    assert sorted(key for key in pairs if key[0] == seed) == [
        (seed, True, level, k) for level in range(4) for k in range(2)]


def test_compare_emits_reproducible_samples(tmp_path, monkeypatch):
    # eps = 0.5 instead of the ladder's 0.2 keeps each estimator run below a second
    monkeypatch.setattr(levelmc.harness, "TOLERANCE_BASE", 0.25)
    (tmp_path / "rates.json").write_text(json.dumps(RATES))
    (tmp_path / "reference.json").write_text(json.dumps(REFERENCE))
    config = {"runs": 2, "tolerance_indices": [0], "l_max": 4,
              "dof_max": 5000, "m_ini_mlmc": 4, "m_ini_clmc": 4,
              "emit_samples": True, "rates_file": str(tmp_path / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config, out="a") == 0
    assert run(tmp_path, "compare", config, out="b") == 0

    resolved = CompareConfig.from_dict(config)
    samples = sorted(p.name for p in (tmp_path / "a" / "samples").iterdir())
    assert samples == [f"{m}_box_300_t0_r{r}.csv"
                       for m in ("clmc", "mlmc", "qclmc") for r in (0, 1)]
    for name in samples:
        assert_csv_head(tmp_path / "a" / "samples" / name, resolved,
                        resolved.seed_base + int(name[-5]),  # the run's PDE seed
                        MLMC_LEDGER if name.startswith("mlmc") else CLMC_LEDGER)
        a = (tmp_path / "a" / "samples" / name).read_text()
        b = (tmp_path / "b" / "samples" / name).read_text()
        if name.startswith("mlmc"):  # cost_seconds is wall-clock
            a, b = ([line.rsplit(",", 1)[0] for line in t.splitlines()] for t in (a, b))
        assert a == b

    def records(out):
        lines = (tmp_path / out / "records.csv").read_text().splitlines()
        header = lines[1].split(",")
        seconds = header.index("seconds")
        return [[v for i, v in enumerate(line.split(",")) if i != seconds] for line in lines[1:]]

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    assert_csv_head(tmp_path / "a" / "records.csv", resolved, resolved.seed_base,
                    "method,kind,contrast,tol_index,eps_sq,run,"
                    "estimate,sq_error,seconds,cost_dof,samples,flags")
    assert_envelope(tmp_path / "a" / "compare_summary.json", "compare", resolved)

    payload = json.loads((tmp_path / "a" / "compare_summary.json").read_text(),
                         parse_constant=reject)
    # the runs take their settings from the input files, which their hashes name
    assert payload["inputs"] == {"rates": RatesConfig.from_dict({}).hash(),
                                 "reference": ReferenceConfig.from_dict({}).hash()}
    # one tolerance index gives no cost-MSE fit: null, not NaN
    summary = payload["summary"]
    assert {s["box:300"][key] for s in summary["methods"].values() for key in COST_FITS} == {None}

    rows = records("a")
    assert rows == records("b")
    assert len(rows) == 1 + 2 * 3
    assert [r[0] for r in rows[1:]] == ["mlmc", "clmc", "qclmc"] * 2


@pytest.mark.parametrize("method, entry, made", [
    ("mlmc", {"mlmc": RATES["fits"]["box:300"]["mlmc"]}, {}),
    ("clmc", {"r_hat": RATES["fits"]["box:300"]["r_hat"]}, {}),
    # theta steers only the adaptive CLMC pilot
    ("mlmc", {"mlmc": RATES["fits"]["box:300"]["mlmc"]}, {"theta": 0.4}),
], ids=["mlmc-without-r_hat", "clmc-without-mlmc-fit", "mlmc-with-other-theta"])
def test_compare_reads_only_the_rates_of_its_methods(tmp_path, monkeypatch, method, entry, made):
    monkeypatch.setattr(levelmc.harness, "TOLERANCE_BASE", 0.25)
    rates = {"config": {**RATES["config"], **made}, "fits": {"box:300": entry}}
    (tmp_path / "rates.json").write_text(json.dumps(rates))
    (tmp_path / "reference.json").write_text(json.dumps(REFERENCE))
    config = {"methods": [method], "runs": 2, "tolerance_indices": [0],
              "l_max": 4, "dof_max": 5000, "m_ini_mlmc": 4, "m_ini_clmc": 4,
              "rates_file": str(tmp_path / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config) == 0
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[2:]] == [method, method]


@pytest.mark.parametrize("name", ["reference.json", "rates.json"],
                         ids=["reference-base_n", "rates-base_n"])
def test_compare_refuses_results_made_with_other_settings(tmp_path, capsys, monkeypatch, name):
    # E[Q - Q_0] depends on the coarse mesh of Q_0: a reference made at base_n 8
    # read by a compare at 15 gave squared errors of about 3 at eps^2 = 0.04;
    # a compare that read the files anyway would still be small
    monkeypatch.setattr(levelmc.harness, "TOLERANCE_BASE", 0.25)
    files = {"rates.json": RATES, "reference.json": REFERENCE}
    files[name] = {**files[name], "config": {**files[name]["config"], "base_n": 8}}
    for file_name, content in files.items():
        (tmp_path / file_name).write_text(json.dumps(content))
    config = {"methods": ["mlmc"], "runs": 2, "tolerance_indices": [0],
              "l_max": 4, "dof_max": 5000, "m_ini_mlmc": 4,
              "rates_file": str(tmp_path / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config) == 2
    err = capsys.readouterr().err
    made, calibrated = (8, 15) if name == "reference.json" else (15, 8)
    assert err.startswith(f"config error: reference file {tmp_path / 'reference.json'} was "
                          f"made with base_n {made}, not the rates file's {calibrated}")
    assert not (tmp_path / "out").exists()


def write_inputs(tmp_path, rates=RATES, reference=REFERENCE):
    """Write the rates and reference files; return the compare config keys naming them."""
    (tmp_path / "rates.json").write_text(json.dumps(rates))
    (tmp_path / "reference.json").write_text(json.dumps(reference))
    return {"rates_file": str(tmp_path / "rates.json"),
            "reference_file": str(tmp_path / "reference.json")}


def test_compare_runs_the_cases_of_its_rates_file(tmp_path, monkeypatch):
    # inputs of the default rates (box) and reference (box and cross) configs;
    # the compare config names no case
    monkeypatch.setattr(levelmc.harness, "TOLERANCE_BASE", 0.25)
    config = {"runs": 2, "tolerance_indices": [0], "l_max": 4, "dof_max": 5000,
              "m_ini_mlmc": 4, "m_ini_clmc": 4, **write_inputs(tmp_path)}
    assert run(tmp_path, "compare", config) == 0
    lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        (method, "box", "300.0") for method in ("mlmc", "clmc", "qclmc")] * 2
    summary = json.loads((tmp_path / "out" / "compare_summary.json").read_text())["summary"]
    assert all(list(per_case) == ["box:300"] for per_case in summary["methods"].values())


def compare_records(method, sq_errors, seconds, cost_dof):
    """Hand-made compare records of box:300, one list of per-run values per
    tolerance index 0, 1, 2."""
    return [{"method": method, "kind": "box", "contrast": 300.0, "tol_index": i,
             "sq_error": e, "seconds": t, "cost_dof": c}
            for i in (0, 1, 2)
            for e, t, c in zip(sq_errors[i], seconds[i], cost_dof[i], strict=True)]


def test_compare_summary_fits_mse_against_seconds_and_dof():
    # MLMC: mean MSE 0.04 * 4^-i against seconds 0.5 * 2^i and DOF 1000 * 4^i,
    # exact power laws of exponents -2 and -1
    mlmc = compare_records("mlmc", [[0.04 * 4.0**-i] * 2 for i in (0, 1, 2)],
                           [[0.5 * 2.0**i] * 2 for i in (0, 1, 2)],
                           [[1000 * 4**i] * 2 for i in (0, 1, 2)])
    # CLMC: two runs of x and 3x, x = 0.01 * 4^-i, so the half-width
    # 1.96 sd / sqrt(2) is 1.96 x
    clmc = compare_records("clmc", [[0.01 * 4.0**-i, 0.03 * 4.0**-i] for i in (0, 1, 2)],
                           [[0.2 * 2.0**i, 0.4 * 2.0**i] for i in (0, 1, 2)],
                           [[100 * 4**i, 300 * 4**i] for i in (0, 1, 2)])
    # QCLMC: below CLMC at index 0, tied with it at 1 (the same records) and
    # above it at 2: a tie counts as a QCLMC win
    qclmc = compare_records("qclmc", [[0.01, 0.01], [0.01 * 4.0**-1, 0.03 * 4.0**-1],
                                      [0.02, 0.03]],
                            [[0.1, 0.3], [0.5, 0.7], [1.0, 2.0]],
                            [[50, 150], [500, 700], [1000, 3000]])
    rates = RatesConfig.from_dict({"kinds": ["box"]})
    config = CompareConfig.from_dict({"tolerance_indices": [0, 1, 2]})
    summary = _summarize_compare(mlmc + clmc + qclmc, config, rates)
    fits = summary["methods"]["mlmc"]["box:300"]
    assert fits["time_mse_slope"] == pytest.approx(-2.0, rel=1e-12)
    assert fits["dof_mse_slope"] == pytest.approx(-1.0, rel=1e-12)
    assert fits["time_mse_r2"] == pytest.approx(1.0, abs=1e-12)
    assert fits["dof_mse_r2"] == pytest.approx(1.0, abs=1e-12)
    assert fits["mse_within_budget"]
    assert summary["qclmc_vs_clmc"] == {"box:300": {"qclmc_wins": 2, "cells": 3}}

    cells = {(c["method"], c["tol_index"]): c for c in summary["cells"]}
    assert len(cells) == len(summary["cells"]) == 9
    for i in (0, 1, 2):
        for method in ("mlmc", "clmc", "qclmc"):
            cell = cells[method, i]
            assert (cell["kind"], cell["contrast"], cell["runs"]) == ("box", 300.0, 2)
            assert cell["eps_sq"] == pytest.approx(0.04 * 0.64**i, rel=1e-12)
        mlmc_cell, clmc_cell = cells["mlmc", i], cells["clmc", i]
        assert mlmc_cell["mean_mse"] == mlmc_cell["ci_low"] == mlmc_cell["ci_high"] \
            == pytest.approx(0.04 * 4.0**-i, rel=1e-12)
        x = 0.01 * 4.0**-i
        assert clmc_cell["mean_mse"] == pytest.approx(2 * x, rel=1e-12)
        assert clmc_cell["ci_low"] == pytest.approx(2 * x - 1.96 * x, rel=1e-12)
        assert clmc_cell["ci_high"] == pytest.approx(2 * x + 1.96 * x, rel=1e-12)
        assert clmc_cell["mean_seconds"] == pytest.approx(0.3 * 2.0**i, rel=1e-12)
        assert clmc_cell["mean_cost_dof"] == pytest.approx(200 * 4**i, rel=1e-12)
    assert [cells["qclmc", i]["mean_mse"] for i in (0, 1, 2)] == \
        pytest.approx([0.01, 0.005, 0.025], rel=1e-12)
    assert [cells["qclmc", i]["mean_seconds"] for i in (0, 1, 2)] == \
        pytest.approx([0.2, 0.6, 1.5], rel=1e-12)
    assert [cells["qclmc", i]["mean_cost_dof"] for i in (0, 1, 2)] == [100.0, 600.0, 2000.0]

    # the head-to-head needs both continuous methods
    for methods, records in ((["mlmc"], mlmc), (["mlmc", "clmc"], mlmc + clmc),
                             (["qclmc"], qclmc)):
        config = CompareConfig.from_dict({"methods": methods, "tolerance_indices": [0, 1, 2]})
        summary = _summarize_compare(records, config, rates)
        assert set(summary["methods"]) == set(methods)
        assert "qclmc_vs_clmc" not in summary


def test_default_pipeline_chains_through_the_default_output_directories(tmp_path, monkeypatch):
    # rates and reference write under the output root, and a compare config that
    # names no file reads what they wrote there
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(levelmc.harness, "TOLERANCE_BASE", 0.25)
    configs = {
        "rates": {"kinds": ["box"], "base_n": 8, "mlmc_levels": 4, "clmc_level": 2.5,
                  "pilot_m": 8, "dof_max": 20000},
        "reference": {"kinds": ["box"], "component_tol": 0.2, "pilot_levels": 3, "pilot_m": 2,
                      "m_ini": 2, "l_max": 4, "base_n": 8},
        "compare": {"runs": 2, "tolerance_indices": [0], "l_max": 4, "dof_max": 5000,
                    "m_ini_mlmc": 4, "m_ini_clmc": 4},
    }
    for experiment, config in configs.items():
        (tmp_path / f"{experiment}.json").write_text(json.dumps(config))
        assert main([experiment, "--config", f"{experiment}.json"]) == 0
    out = tmp_path / OUT_ROOT
    summary = json.loads((out / "compare" / "compare_summary.json").read_text())
    assert summary["inputs"] == {
        name: json.loads((out / name / f"{name}.json").read_text())["config_hash"]
        for name in ("rates", "reference")}


@pytest.mark.parametrize("base_n, dof_max", [(15, 512), (8, 162)])
def test_compare_dof_max_is_checked_against_the_rates_base_n_before_any_run(
        tmp_path, capsys, monkeypatch, base_n, dof_max):
    runs = []
    monkeypatch.setattr(levelmc.harness, "run_mlmc", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(levelmc.harness, "run_clmc", lambda *a, **k: runs.append(a))
    rates = {**RATES, "config": {**RATES["config"], "base_n": base_n}}
    reference = {**REFERENCE, "config": {**REFERENCE["config"], "base_n": base_n}}
    config = {"dof_max": dof_max, **write_inputs(tmp_path, rates, reference)}
    assert run(tmp_path, "compare", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dof_max must exceed 2 (base_n + 1)^2 so that a path "
                          f"refines at least once, got dof_max={dof_max}, base_n={base_n}")
    assert not runs and not (tmp_path / "out").exists()


def test_compare_weighs_the_mlmc_bias_for_its_finest_level(tmp_path, monkeypatch):
    # with the RATES fit, eps = 0.16 takes b_w 0.3115 for level 8 and 0.4660 for level 4
    configs = []

    def recorded_run(config, model):
        configs.append(config)
        return EstimatorRun(method="mlmc", estimate=1.0, variance_estimate=0.0, bias_proxy=0.0,
                            cost_dof=1.0, samples=2, diagnostics={}, flags=[])

    monkeypatch.setattr(levelmc.harness, "run_mlmc", recorded_run)
    config = {"methods": ["mlmc"], "runs": 2, "tolerance_indices": [0, 1], "l_max": 4,
              **write_inputs(tmp_path)}
    assert run(tmp_path, "compare", config) == 0
    fit = RateFit(**RATES["fits"]["box:300"]["mlmc"])
    expected = [optimal_bias_weight(fit, eps, 4) for eps in (0.2, 0.16) for _ in range(2)]
    assert [c.b_w for c in configs] == expected
    assert {c.l_max for c in configs} == {4}
    assert round(expected[-1], 4) == 0.466


@pytest.mark.parametrize("clmc_fit, refused", [
    (replace(CLMC_FIT, r_squared={"mean": 0.011, "variance": 0.019, "cost": 0.99}),
     "the CLMC fit's mean or variance R^2 is below 0.5: 0.011, 0.019"),
    (replace(CLMC_FIT, r_squared={"mean": 0.9, "variance": 0.49, "cost": 1.0}),
     "the CLMC fit's mean or variance R^2 is below 0.5: 0.9, 0.49"),
    (replace(CLMC_FIT, gamma=2.5), "the continuous-level hypotheses failed in calibration"),
], ids=["both-r2-low", "variance-r2-low", "hypotheses-fail"])
def test_unusable_clmc_fit_gives_no_r_hat_and_a_clmc_compare_exits_3(
        tmp_path, capsys, monkeypatch, clmc_fit, refused):
    monkeypatch.setattr(levelmc.harness, "estimate_rates_mlmc", lambda *a, **k: MLMC_FIT)
    monkeypatch.setattr(levelmc.harness, "estimate_rates_clmc", lambda *a, **k: clmc_fit)
    assert run(tmp_path, "rates", {"kinds": ["box"]}, out="rates") == 0
    entry = json.loads((tmp_path / "rates" / "rates.json").read_text())["fits"]["box:300"]
    assert "r_hat" not in entry and "feasible_interval" not in entry
    assert entry["r_hat_refused"] == refused

    (tmp_path / "reference.json").write_text(json.dumps(REFERENCE))
    config = {"methods": ["clmc"],
              "rates_file": str(tmp_path / "rates" / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: no feasible exponential rate for box:300: {refused}")
    assert not (tmp_path / "out").exists()


def test_clmc_fit_at_the_r2_bound_gives_r_hat(tmp_path, monkeypatch):
    fit = replace(CLMC_FIT, r_squared={"mean": 0.5, "variance": 0.5, "cost": 1.0})
    monkeypatch.setattr(levelmc.harness, "estimate_rates_mlmc", lambda *a, **k: MLMC_FIT)
    monkeypatch.setattr(levelmc.harness, "estimate_rates_clmc", lambda *a, **k: fit)
    assert run(tmp_path, "rates", {"kinds": ["box"]}) == 0
    entry = json.loads((tmp_path / "out" / "rates.json").read_text())["fits"]["box:300"]
    assert "r_hat_refused" not in entry
    assert entry["feasible_interval"][0] < entry["r_hat"] < entry["feasible_interval"][1]
