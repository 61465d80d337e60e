"""The levelmc benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  A run makes ``S // call_seconds`` calls
(at least one) of the workload's estimator, each in a fresh single-threaded
process with one BLAS thread; call i draws its inputs from (N, i).  The call
count depends only on ``S``, so the counts a run reports depend only on the
seed and the code.  Every call's output is checked (see workloads.py).

With ``--trace 0`` the run reports the end-to-end metrics, each the median
over its calls.  With ``--trace 1`` every call is made twice, untraced and
traced; the two must agree exactly, and the run reports the per-layer
metrics of the traced calls (medians; the path and pair percentiles are
taken over the durations of all of them) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the workload configs and every call.  ``--smoke``
shrinks every workload to a call of about a second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER_UNITS, PERCENTILE_SPANS, percentiles_ms
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cost_dof": "dof",
    "samples": "count",
    "dof_per_s": "dof/s",
    "peak_rss_mb": "MiB",
}
TRACE_UNITS = {**PER_LAYER_UNITS, "trace.overhead": "ratio"}

# One BLAS thread: calls run one at a time, each on one core, and PCG's last
# bits depend on the thread count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# set-up time is the median of at least this many worker starts
MIN_SETUPS = 15
CALL_TIMEOUT_S = 170


class CallFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, index: int, traced: bool, smoke: bool, setup_only=False):
    """Start one worker; returns (setup seconds, its JSON record or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--call", str(index)]
    cmd += ["--trace"] * traced + ["--smoke"] * smoke + ["--setup-only"] * setup_only
    env = {**os.environ, **BLAS_ENV}
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True) as proc:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            rest, _ = proc.communicate(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise CallFailed(f"{workload} call {index}: no result in {CALL_TIMEOUT_S} s")
    if first.strip() != "ready" or proc.returncode != 0:
        raise CallFailed(f"{workload} call {index}: worker exited {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise CallFailed(f"{workload} call {index}: worker printed no result")
    record = json.loads(lines[-1])
    record["setup_s"] = setup_s
    record["call"] = index
    return setup_s, record


def environment() -> dict:
    """Where and on what the run was made."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = ROOT / "src" / "levelmc"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_env": BLAS_ENV,
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run(workload_name: str, seed: int, seconds: int, traced: bool, smoke: bool):
    """Make the run's calls; returns (result line dict, record dict)."""
    workload = WORKLOADS[workload_name]
    calls = 1 if smoke else workload.calls_per_run(seconds, traced)
    setups, done, traced_done, overheads, crashes = [], [], [], [], []

    def call(index, traced_call):
        try:
            setup_s, record = spawn(workload_name, seed, index, traced_call, smoke)
        except CallFailed as exc:
            crashes.append(str(exc))
            return None
        setups.append(setup_s)
        (traced_done if traced_call else done).append(record)
        return record

    # warm-up, not timed: the first start in a checkout compiles the bytecode,
    # and any start after other work refills the file cache
    spawn(workload_name, seed, 0, False, smoke, setup_only=True)
    for index in range(calls):
        if not traced:
            call(index, False)
            continue
        # alternate which of the pair runs first, so drift in machine speed
        # does not bias the overhead
        first, second = call(index, index % 2 == 1), call(index, index % 2 == 0)
        if first is None or second is None:
            continue
        plain, rec = (second, first) if index % 2 else (first, second)
        if any(rec[k] != plain[k] for k in ("estimate", "cost_dof", "samples", "fingerprint")):
            rec["problems"].append("traced call differs from untraced")
        overheads.append(rec["run_s"] / plain["run_s"] - 1.0)
    while setups and len(setups) < (1 if smoke else MIN_SETUPS):
        setups.append(spawn(workload_name, seed, 0, False, smoke, setup_only=True)[0])

    calls_made = done + traced_done
    problems = crashes + [f"call {r['call']}{' traced' if 'layers' in r else ''}: {p}"
                          for r in calls_made for p in r["problems"]]
    completed = traced_done if traced else done
    if not completed:
        raise CallFailed("; ".join(problems) or "no call completed")
    attempted = len(calls_made) + len(crashes)
    failed = len(crashes) + sum(1 for r in calls_made if r["problems"])

    if traced:
        metrics = {name: statistics.median(r["layers"][name] for r in traced_done)
                   for name in traced_done[0]["layers"]}
        for span in PERCENTILE_SPANS:
            pooled = [d for r in traced_done for d in r["durations_s"][span]]
            for suffix, value in percentiles_ms(pooled).items():
                metrics[f"{span}_{suffix}"] = value
        metrics["trace.overhead"] = statistics.median(overheads) if overheads else 0.0
        units = TRACE_UNITS
    else:
        for r in done:
            r["dof_per_s"] = r["cost_dof"] / r["run_s"]
        metrics = {name: statistics.median(r[name] for r in done)
                   for name in END_TO_END_UNITS if name != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": traced,
        "smoke": smoke, "environment": environment(), "setups_s": setups,
        "problems": problems,
        "calls": [{k: v for k, v in r.items() if k not in ("layers", "durations_s")}
                  for r in done + traced_done],
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="levelmc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a call of about a second")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "levelmc" / "__init__.py").is_file():
        print(f"bench: no levelmc package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.smoke)
    except CallFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{args.workload:10s} {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"{args.workload:10s} CHECK FAILED: {problem}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
