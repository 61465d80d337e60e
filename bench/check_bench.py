"""Smoke test of the benchmark; not collected by the tier-1 run.

    python -m pytest -q bench/check_bench.py

Runs every workload shrunk by ``--smoke``, untraced and traced, and checks
that the result line carries exactly the metrics BENCHMARK.json names, each
with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: (m["unit"]) for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_tracer_wraps_every_binding_and_restores_it():
    import importlib

    import levelmc  # noqa: F401  (loads every submodule)
    from tracer import FUNCTIONS, Tracer

    originals = {name: getattr(importlib.import_module(mod), func)
                 for mod, func, name in FUNCTIONS}
    modules = [m for n, m in sys.modules.items() if n.startswith("levelmc")]

    def bound_originals():
        return sorted(f"{m.__name__}.{attr}" for m in modules
                      for attr, value in vars(m).items()
                      if any(value is f for f in originals.values()))

    before = bound_originals()
    assert "levelmc.indicator.solve" in before and "levelmc.mlmc.solve" in before
    tracer = Tracer()
    tracer.install()
    try:
        assert bound_originals() == []
    finally:
        tracer.uninstall()
    assert bound_originals() == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "qclmc-box", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
