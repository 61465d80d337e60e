"""Spans around the calls into levelmc's layers, for the traced benchmark run.

The tracer replaces each traced function with a timing wrapper at every
name it is bound to inside the ``levelmc`` package.  Modules import with
``from .fem import solve``, so the caller looks the function up in its own
namespace (``levelmc.indicator.solve``, ``levelmc.mlmc.solve``, ...); a
wrapper installed only at ``levelmc.fem.solve`` would record nothing.
Methods are wrapped on their class, which every caller shares.

Spans are kept in memory as (name, start, end, parent).  A span's self time
is its duration minus the durations of its direct children; the program is
single-threaded, so children nest strictly inside their parent.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

# (defining module, function, span name)
FUNCTIONS = (
    ("levelmc.mesh", "bisect_refine", "mesh.bisect_refine"),
    ("levelmc.mesh", "uniform_family", "mesh.uniform_family"),
    ("levelmc.fem", "assemble", "fem.assemble"),
    ("levelmc.fem", "solve", "fem.solve"),
    ("levelmc.fem", "h1_norm", "fem.h1_norm"),
    ("levelmc.indicator", "adaptive_hierarchy", "indicator.adaptive_hierarchy"),
    ("levelmc.indicator", "residual_indicators", "indicator.residual_indicators"),
    ("levelmc.indicator", "doerfler_mark", "indicator.doerfler_mark"),
    ("levelmc.coefficient", "sample_box", "coefficient.draw"),
)

# (defining module, class, method, span name)
METHODS = (
    ("levelmc.sampling", "ExponentialLevelSampler", "draw_max_level", "sampling.level_draw"),
    ("levelmc.clmc", "AdaptivePathSampler", "path", "clmc.path"),
    ("levelmc.mlmc", "PdeLevelModel", "pair", "mlmc.pair"),
)

# per-layer metric -> unit; every traced run reports all of them, with 0
# for a layer the workload never enters
PER_LAYER_UNITS = {
    "mesh.bisect_refine_s": "s",
    "mesh.bisect_refine_calls": "count",
    "mesh.new_vertices": "count",
    "mesh.uniform_family_s": "s",
    "fem.assemble_s": "s",
    "fem.assemble_calls": "count",
    "fem.assemble_reuse_ratio": "ratio",
    "fem.solve_s": "s",
    "fem.solve_calls": "count",
    "fem.solve_dof": "dof",
    "fem.cg_iterations": "count",
    "fem.cg_iterations_per_solve": "count",
    "fem.cg_dof_iterations": "count",
    "fem.solve_ns_per_dof_iteration": "ns",
    "fem.solve_errors": "count",
    "fem.h1_norm_s": "s",
    "indicator.adaptive_hierarchy_s": "s",
    "indicator.adaptive_hierarchy_self_s": "s",
    "indicator.steps": "count",
    "indicator.residual_indicators_s": "s",
    "indicator.doerfler_mark_s": "s",
    "indicator.marked_fraction": "ratio",
    "indicator.truncated_paths": "count",
    "coefficient.draw_s": "s",
    "sampling.level_draw_s": "s",
    "clmc.path_s": "s",
    "clmc.path_ms_p50": "ms",
    "clmc.path_ms_p90": "ms",
    "clmc.path_self_s": "s",
    "clmc.level_fixes": "count",
    "clmc.driver_self_s": "s",
    "mlmc.pair_s": "s",
    "mlmc.pair_ms_p50": "ms",
    "mlmc.pair_ms_p90": "ms",
    "mlmc.pair_self_s": "s",
    "mlmc.driver_self_s": "s",
    "mlmc.top_level": "count",
}

# spans whose durations give the *_ms_p50 and *_ms_p90 metrics; run.py pools
# them over a run's calls
PERCENTILE_SPANS = ("clmc.path", "mlmc.pair")
# a p90 is reported only with at least ten values beyond it
P90_MIN_VALUES = 100


def percentiles_ms(durations) -> dict:
    """The p50 and p90 of span durations in seconds, in ms, keyed by suffix."""
    if not durations:
        return {"ms_p50": 0.0, "ms_p90": 0.0}
    p90 = statistics.quantiles(durations, n=10)[8] if len(durations) >= P90_MIN_VALUES else 0.0
    return {"ms_p50": 1e3 * statistics.median(durations), "ms_p90": 1e3 * p90}


class Tracer:
    """Records spans and counters between install() and uninstall()."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self._open = []          # indices of the spans currently running
        self._assembled = weakref.WeakSet()
        self._patches = []       # (owner, attribute, original)

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        except BaseException:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, original, name):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            tracer._observe(name, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _observe(self, name, args, result):
        """Counters taken at the layer boundary from the call's own values."""
        c = self.counts
        if name == "fem.assemble":
            # a mesh assembled before reuses its cached assembler; weak
            # references, unlike id(), are never confused by freed meshes
            mesh = args[0]
            if mesh in self._assembled:
                c["fem.assemble_reuse"] += 1
            else:
                self._assembled.add(mesh)
        elif name == "fem.solve":
            dof = args[0].num_dof
            c["fem.solve_dof"] += dof
            c["fem.cg_iterations"] += result.iterations
            c["fem.cg_dof_iterations"] += dof * result.iterations
        elif name == "indicator.adaptive_hierarchy":
            c["indicator.steps"] += len(result.steps)
            c["indicator.truncated_paths"] += int(result.truncated)
        elif name == "indicator.doerfler_mark":
            c["indicator.marked"] += len(result)
            c["indicator.elements"] += len(args[0].eta)
        elif name == "mesh.bisect_refine":
            c["mesh.new_vertices"] += result.num_vertices - args[0].num_vertices
        elif name == "clmc.path":
            c["clmc.level_fixes"] += result.level_fixes

    def install(self):
        """Wrap every traced function at each levelmc name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "levelmc" or n.startswith("levelmc.")]
        for module_name, func_name, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for module_name, class_name, method, span_name in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._patch(cls, method, self._wrap(vars(cls)[method], span_name))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def durations(self, name) -> list:
        """Durations in seconds of every span called ``name``."""
        return [end - start for span, start, end, _ in self.spans if span == name]

    def per_layer(self, top_level: int = 0) -> dict:
        """Per-layer metrics of everything recorded, keyed as PER_LAYER_UNITS,
        without the percentiles of PERCENTILE_SPANS (see durations())."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[index]
            calls[name] += 1

        c = self.counts
        solves = calls["fem.solve"]
        marked_of = c["indicator.elements"]

        return {
            "mesh.bisect_refine_s": total["mesh.bisect_refine"],
            "mesh.bisect_refine_calls": calls["mesh.bisect_refine"],
            "mesh.new_vertices": c["mesh.new_vertices"],
            "mesh.uniform_family_s": total["mesh.uniform_family"],
            "fem.assemble_s": total["fem.assemble"],
            "fem.assemble_calls": calls["fem.assemble"],
            "fem.assemble_reuse_ratio": (c["fem.assemble_reuse"] / calls["fem.assemble"]
                                         if calls["fem.assemble"] else 0.0),
            "fem.solve_s": total["fem.solve"],
            "fem.solve_calls": solves,
            "fem.solve_dof": c["fem.solve_dof"],
            "fem.cg_iterations": c["fem.cg_iterations"],
            "fem.cg_iterations_per_solve": c["fem.cg_iterations"] / solves if solves else 0.0,
            "fem.cg_dof_iterations": c["fem.cg_dof_iterations"],
            "fem.solve_ns_per_dof_iteration": (1e9 * total["fem.solve"] / c["fem.cg_dof_iterations"]
                                               if c["fem.cg_dof_iterations"] else 0.0),
            "fem.solve_errors": c["fem.solve.errors"],
            "fem.h1_norm_s": total["fem.h1_norm"],
            "indicator.adaptive_hierarchy_s": total["indicator.adaptive_hierarchy"],
            "indicator.adaptive_hierarchy_self_s": self_time["indicator.adaptive_hierarchy"],
            "indicator.steps": c["indicator.steps"],
            "indicator.residual_indicators_s": total["indicator.residual_indicators"],
            "indicator.doerfler_mark_s": total["indicator.doerfler_mark"],
            "indicator.marked_fraction": c["indicator.marked"] / marked_of if marked_of else 0.0,
            "indicator.truncated_paths": c["indicator.truncated_paths"],
            "coefficient.draw_s": total["coefficient.draw"],
            "sampling.level_draw_s": total["sampling.level_draw"],
            "clmc.path_s": total["clmc.path"],
            "clmc.path_self_s": self_time["clmc.path"],
            "clmc.level_fixes": c["clmc.level_fixes"],
            "clmc.driver_self_s": self_time["clmc.driver"],
            "mlmc.pair_s": total["mlmc.pair"],
            "mlmc.pair_self_s": self_time["mlmc.pair"],
            "mlmc.driver_self_s": self_time["mlmc.driver"],
            "mlmc.top_level": top_level,
        }
