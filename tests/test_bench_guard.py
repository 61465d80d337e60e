"""The traced benchmark still fits the program.

bench/tracer.py wraps levelmc functions and methods by name, and a traced
run fails on a span that never fires.  These checks read the benchmark's
own tracer and workload definitions, without editing or importing them as
a package, so a rename inside levelmc shows up here rather than as a failed
benchmark run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracer():
    return runpy.run_path(str(BENCH / "tracer.py"))


@pytest.fixture(scope="module")
def workloads():
    return runpy.run_path(str(BENCH / "workloads.py"))


def test_every_traced_function_resolves(tracer):
    for module_name, func_name, _ in tracer["FUNCTIONS"]:
        assert module_name.startswith("levelmc.")
        assert callable(getattr(importlib.import_module(module_name), func_name))


def test_every_traced_method_is_defined_on_its_class(tracer):
    for module_name, class_name, method, _ in tracer["METHODS"]:
        cls = getattr(importlib.import_module(module_name), class_name)
        # the tracer patches the class's own attribute, not an inherited one
        assert callable(vars(cls)[method])


def traced_smoke_call(tracer, workload):
    """A smoke call untraced and the same call traced, each with inputs of its
    own, as a worker builds them; returns (plain, traced, fired span names)."""
    _, call, outcome = workload.prepare(0, 0, True)
    plain = outcome(call())

    _, call, outcome = workload.prepare(0, 0, True)
    spans = tracer["Tracer"]()
    spans.install()
    try:
        with spans.span(workload.driver + ".driver"):
            traced = outcome(call())
    finally:
        spans.uninstall()
    return plain, traced, {span[0] for span in spans.spans}


def check_traced_call(tracer, workload):
    plain, traced, fired = traced_smoke_call(tracer, workload)
    assert set(workload.expected_spans) <= fired
    assert (traced.fingerprint, traced.estimate, traced.cost_dof) == \
        (plain.fingerprint, plain.estimate, plain.cost_dof)
    assert traced.problems == []


def test_traced_qclmc_call_fires_every_expected_span(tracer, workloads):
    check_traced_call(tracer, workloads["WORKLOADS"]["qclmc-box"])


def test_traced_mlmc_call_fires_every_expected_span(tracer, workloads):
    check_traced_call(tracer, workloads["WORKLOADS"]["mlmc-box"])
