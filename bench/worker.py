"""One estimator call of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --call I [--trace] [--smoke] [--setup-only]

Prints ``ready`` once the program is imported and the call's inputs are
built, then (unless ``--setup-only``) makes the call and prints one JSON
line with its timing, peak memory, outcome and, with ``--trace``, the
per-layer metrics.  run.py starts one worker per call, so every call gets
its own peak RSS and no call inherits another's heap.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """numpy's BLAS library, its version and the threads it will use."""
    import numpy

    info = {"numpy": numpy.__version__}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    threads = None
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                query.argtypes = []
                threads = query()
                break
    info["blas_threads"] = threads
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--call", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import scipy

    from tracer import PERCENTILE_SPANS, Tracer
    from workloads import WORKLOADS, config_hash

    workload = WORKLOADS[args.workload]
    config, call, outcome = workload.prepare(args.seed, args.call, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    driver = workload.driver + ".driver"
    start = time.perf_counter()
    if tracer is None:
        result = call()
    else:
        with tracer.span(driver):
            result = call()
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    out = outcome(result)

    record = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "estimate": out.estimate,
        "cost_dof": out.cost_dof,
        "samples": out.samples,
        "fingerprint": out.fingerprint,
        "problems": out.problems,
        "info": out.info,
        "config": config,
        "config_hash": config_hash(config),
        "scipy": scipy.__version__,
        **blas_info(),
    }
    if tracer is not None:
        missing = sorted(set(workload.expected_spans) - {span[0] for span in tracer.spans})
        if missing:
            record["problems"].append(f"expected spans never fired: {missing}")
        record["layers"] = tracer.per_layer(top_level=out.top_level)
        record["durations_s"] = {name: tracer.durations(name) for name in PERCENTILE_SPANS}
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
