"""End-to-end checks of the ``uq`` command line: exit codes and reproducible
output files, on configurations small enough to run in a few seconds."""

import json
import math
from dataclasses import asdict, fields

import pytest

import levelmc.harness
from levelmc.cli import main
from levelmc.clmc import ClmcRateFit
from levelmc.fem import SolverError
from levelmc.harness import (
    _ENTRY_TYPES,
    _FIELD_TYPES,
    CompareConfig,
    ConfigError,
    ConvergeConfig,
    LdsConfig,
    RatesConfig,
    ReferenceConfig,
    _ConfigBase,
)
from levelmc.mlmc import MlmcRateFit

# MLMC fit of a desk-scale `uq rates` run for the box coefficient (rounded),
# with the continuous-level rate r-hat of a 24-refinement calibration
RATES = {"fits": {"box:300": {
    "mlmc": {"alpha": 0.716, "beta": 0.939, "gamma": 0.972, "c1": 0.877, "c2": 0.743,
             "c3": 373.3, "s": 2.25, "levels": [1, 6], "samples": 100,
             "r_squared": {"mean": 0.986, "variance": 0.980, "cost": 1.0}},
    "r_hat": 1.9,
}}}
REFERENCE = {"values": {"box:300": {"reference": 0.988918375057231}}}


def run(tmp_path, experiment, config, out="out"):
    path = tmp_path / f"{experiment}.json"
    path.write_text(json.dumps(config))
    return main([experiment, "--config", str(path), "--out", str(tmp_path / out)])


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
    ("compare", {"level_cap": 0}),
    ("compare", {"kinds": "box"}),
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
    ("compare", {"base_n": 0}),
    ("reference", {"base_n": -1}),
    ("compare", {"dof_max": 300}),
    ("rates", {"dof_max": 512}),  # 2 (base_n + 1)^2: the first refinement is cut
    ("lds", {"min_exponent": 0}),
    ("lds", {"min_exponent": -2}),
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
    {"base_n": 0},
    {"dof_max": 300},
])
def test_compare_config_types_checked_before_reading_results(config):
    # `uq compare` would also exit 2 on the missing rates file
    with pytest.raises(ConfigError):
        CompareConfig.from_dict(config)


def test_lds_stream_bound_checked_before_drawing():
    # not run through `uq lds`: past the check, 2^32 draws a run would exhaust memory
    # before the low-discrepancy stream ran out at index 2^32
    with pytest.raises(ConfigError, match="max_exponent <= 31"):
        LdsConfig.from_dict({"max_exponent": 32})
    assert LdsConfig.from_dict({"max_exponent": 31}).max_exponent == 31


def test_integer_fields_keep_their_defaults_and_hashes():
    # an explicit null selects the default of an optional integer field
    assert CompareConfig.from_dict({"runs": None}).runs == 20
    # the reference config that the benchmark's E_ref cites
    assert ReferenceConfig.from_dict({"kinds": ["box"]}).hash() == "e06b4949bcbc"


@pytest.mark.parametrize("cls, desk, full", [
    (ConvergeConfig, "525f2a7c51b8", "2823ec9014ad"),
    (RatesConfig, "a6e5effaa0dd", "37c1faa1bdba"),
    (LdsConfig, "635f45d35242", "334173637c94"),
    (ReferenceConfig, "04dc3ede46d6", "e0c04d1fea2f"),
    (CompareConfig, "bbac9a8d9308", "457fcba30c1c"),
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
            assert f.type.removesuffix(" | None") in _FIELD_TYPES, (cls.__name__, f.name)
            assert f.type != "tuple" or f.name in _ENTRY_TYPES, (cls.__name__, f.name)


def test_mlmc_fit_round_trips_through_the_rates_file_format():
    entry = RATES["fits"]["box:300"]["mlmc"]
    fit = MlmcRateFit(**entry)
    assert json.loads(json.dumps(asdict(fit))) == entry
    assert MlmcRateFit(**json.loads(json.dumps(asdict(fit)))) == fit


MLMC_FIT = MlmcRateFit(alpha=0.7, beta=0.9, gamma=1.0, c1=1.0, c2=1.0, c3=1.0, s=2.25,
                       levels=(1, 3), samples=2, r_squared={})
CLMC_FIT = ClmcRateFit(alpha=1.1, beta=2.3, gamma=1.6, c4=1.0, c5=1.0, c6=1.0,
                       level_domain=(0.2, 1.2), samples=2, r_squared={})


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

    monkeypatch.setattr(levelmc.harness, "solve", failing_solve)
    assert run(tmp_path, "converge", {"kinds": ["box"]}) == 3
    assert capsys.readouterr().err.startswith("numerical failure: CG did not converge")


def with_mlmc_fit(r_hat=1.9, **changes):
    """The RATES file text with r_hat and the MLMC fit's keys changed (None drops a key)."""
    fit = {**RATES["fits"]["box:300"]["mlmc"], **changes}
    entry = {"mlmc": {k: v for k, v in fit.items() if v is not None}, "r_hat": r_hat}
    return json.dumps({"fits": {"box:300": {k: v for k, v in entry.items() if v is not None}}})


@pytest.mark.parametrize("name, text, messages", [
    ("rates.json", "{}", ["has no 'fits' object"]),
    ("rates.json", "not json", ["cannot read rates file", "Expecting value"]),
    ("rates.json", with_mlmc_fit(beta=None), ["malformed entry box:300", "'beta'"]),
    ("rates.json", with_mlmc_fit(alpha="0.7"), ["alpha of the MLMC fit box:300", "a number"]),
    ("reference.json", json.dumps({"values": {"box:300": {}}}),
     ["malformed entry box:300", "'reference'"]),
    ("rates.json", with_mlmc_fit(r_hat=-1.0), ["r_hat of box:300", "finite and positive"]),
    ("rates.json", with_mlmc_fit(r_hat=math.inf), ["r_hat of box:300", "got inf"]),
], ids=["empty", "not-json", "fit-without-beta", "string-alpha", "no-reference-value",
        "negative-r_hat", "infinite-r_hat"])
def test_malformed_results_file_exits_2(tmp_path, capsys, name, text, messages):
    files = {"rates.json": json.dumps(RATES), "reference.json": json.dumps(REFERENCE), name: text}
    for file_name, content in files.items():
        (tmp_path / file_name).write_text(content)
    config = {"kinds": ["box"], "rates_file": str(tmp_path / "rates.json"),
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
    config = {"kinds": ["box"], "rates_file": str(tmp_path / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_lds_is_byte_identical_across_runs(tmp_path):
    config = {"runs": 4, "max_exponent": 9}
    assert run(tmp_path, "lds", config, out="a") == 0
    assert run(tmp_path, "lds", config, out="b") == 0
    first = (tmp_path / "a" / "lds.csv").read_bytes()
    assert first == (tmp_path / "b" / "lds.csv").read_bytes()
    assert first.startswith(b"# config_hash=")


def test_lds_csv_cells_are_numbers(tmp_path):
    assert run(tmp_path, "lds", {"runs": 2, "max_exponent": 7}) == 0
    lines = (tmp_path / "out" / "lds.csv").read_text().splitlines()
    assert lines[1] == "kind,count,mse_mean,mse_variance"
    for line in lines[2:]:
        kind, *numbers = line.split(",")
        assert kind in ("pseudo", "low-discrepancy")
        assert all(math.isfinite(float(cell)) for cell in numbers), line


def test_reference_on_aligned_meshes(tmp_path):
    config = {"kinds": ["box"], "component_tol": 0.2, "pilot_levels": 3, "pilot_m": 2,
              "m_ini": 2, "l_max": 4, "base_n": 8}
    assert run(tmp_path, "reference", config) == 0
    payload = json.loads((tmp_path / "out" / "reference.json").read_text())
    entry = payload["values"]["box:300"]
    assert math.isfinite(entry["reference"])
    assert all(v <= 0.2**2 for v in entry["components"].values())
    assert entry["detail"]["aligned_level0_samples"] >= 50


def test_compare_emits_reproducible_samples(tmp_path, monkeypatch):
    # eps = 0.5 instead of the ladder's 0.2 keeps each estimator run below a second
    monkeypatch.setattr(levelmc.harness, "TOLERANCE_BASE", 0.25)
    (tmp_path / "rates.json").write_text(json.dumps(RATES))
    (tmp_path / "reference.json").write_text(json.dumps(REFERENCE))
    config = {"kinds": ["box"], "runs": 2, "tolerance_indices": [0], "l_max": 4,
              "dof_max": 5000, "m_ini_mlmc": 4, "m_ini_clmc": 4,
              "emit_samples": True, "rates_file": str(tmp_path / "rates.json"),
              "reference_file": str(tmp_path / "reference.json")}
    assert run(tmp_path, "compare", config, out="a") == 0
    assert run(tmp_path, "compare", config, out="b") == 0

    samples = sorted(p.name for p in (tmp_path / "a" / "samples").iterdir())
    assert samples == [f"{m}_box_300_t0_r{r}.csv"
                       for m in ("clmc", "mlmc", "qclmc") for r in (0, 1)]
    for name in samples:
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

    rows = records("a")
    assert rows == records("b")
    assert len(rows) == 1 + 2 * 3
    assert [r[0] for r in rows[1:]] == ["mlmc", "clmc", "qclmc"] * 2
