"""End-to-end checks of the ``uq`` command line: exit codes and reproducible
output files, on configurations small enough to run in a few seconds."""

import json
import math

import pytest

import levelmc.harness
from levelmc.cli import main
from levelmc.clmc import ClmcRateFit
from levelmc.fem import SolverError
from levelmc.harness import CompareConfig, ReferenceConfig
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
])
def test_malformed_config_exits_2(tmp_path, capsys, experiment, config):
    assert run(tmp_path, experiment, config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_integer_fields_keep_their_defaults_and_hashes():
    # an explicit null selects the default of an optional integer field
    assert CompareConfig.from_dict({"runs": None}).runs == 20
    # the reference config that the benchmark's E_ref cites
    assert ReferenceConfig.from_dict({"kinds": ["box"]}).hash() == "e06b4949bcbc"


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


def test_lds_is_byte_identical_across_runs(tmp_path):
    config = {"runs": 4, "max_exponent": 9}
    assert run(tmp_path, "lds", config, out="a") == 0
    assert run(tmp_path, "lds", config, out="b") == 0
    first = (tmp_path / "a" / "lds.csv").read_bytes()
    assert first == (tmp_path / "b" / "lds.csv").read_bytes()
    assert first.startswith(b"# config_hash=")


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
