"""Span tracing around the calls into mtlab's layers, from outside mtlab.

A traced run replaces the public functions of each layer, in every module
namespace that looks them up, by wrappers that record a span (name, start,
end, parent) and a few counts taken from the call's arguments.  The wrappers
are installed for the duration of the traced run only.  Spans stay in memory
and are written out as JSON when the run ends.  A target that no longer
exists is reported as absent; metrics that read only absent targets are left
out of the result.
"""

from __future__ import annotations

import json
import math
import time
from array import array

import numpy as np


def _wp_kind(args, kwargs):
    """W1 or W_p, by the order p of a wp_1d(mu_q, nu_q, p) call."""
    p = args[2] if len(args) > 2 else kwargs.get("p", 1.0)
    return "wasserstein.w1" if float(p) == 1.0 else "wasserstein.wp"


_wp_kind.names = ("wasserstein.w1", "wasserstein.wp")


def _eval_points(args, kwargs):
    field, x = args[0], args[2]
    return {"velocity.eval_points": np.size(x) // max(int(field.dims), 1)}


def _resolution_steps(args, kwargs):
    """Steps the harness takes at one resolution: floor(T / dt + 1e-9)."""
    cfg, N = args[0], args[1]
    if hasattr(cfg, "speed"):  # split-square triangles: hbar = h / sqrt(2)
        h = (cfg.domain[1][0] - cfg.domain[0][0]) / N
        dt = cfg.cfl * (h / math.sqrt(2.0)) / math.hypot(*cfg.speed)
    else:
        dt = cfg.cfl * (cfg.domain[1] - cfg.domain[0]) / N
    return {"harness.steps": math.floor(cfg.T / dt + 1e-9)}


# (module, attribute or Class.method, span name, counter of the call's
#  arguments); the span name may be a function of the call's arguments that
#  returns one of its `names`
TARGETS = [
    ("measures", "project_initial", "measures.project", None),
    ("harness", "project_initial", "measures.project", None),
    ("velocity", "VelocityField.__call__", "velocity.eval", _eval_points),
    ("schemes", "step", "schemes.step",
     lambda a, k: {"schemes.node_updates": len(a[0].weights)}),
    ("schemes", "run", "schemes.run", None),
    ("stochastic", "kernel_of", "stochastic.kernel",
     lambda a, k: {"stochastic.kernel_rows": len(a[3])}),
    ("stochastic", "make_kernels", "stochastic.kernel", None),
    ("stochastic", "propagate_law", "stochastic.propagate", None),
    ("stochastic", "sample_paths", "stochastic.sample",
     lambda a, k: {"stochastic.path_steps": a[2] * len(a[1])}),
    ("stochastic", "increment_residual", "stochastic.increment", None),
    ("stochastic", "empirical_law", "stochastic.law", None),
    ("flows", "ExactSolution.measure", "flows.exact", None),
    ("flows", "ExactSolution.quantile_fn", "flows.exact", None),
    ("harness", "exact_solution", "flows.exact", None),
    ("harness", "w1_grid_vs_quantile", "wasserstein.w1", None),
    ("harness", "l1_grid_vs_pieces", "wasserstein.l1", None),
    ("harness", "wp_1d", _wp_kind,
     lambda a, k: {"wasserstein.wp_breakpoints":
                   len(a[0].breakpoints()) + len(a[1].breakpoints())}),
    ("simplex", "structured_mesh", "simplex.mesh", None),
    ("harness", "structured_mesh", "simplex.mesh", None),
    ("simplex", "TriMesh.__post_init__", "simplex.mesh",
     lambda a, k: {"simplex.triangles": len(a[0].triangles)}),
    ("simplex", "sl_step", "simplex.sl_step",
     lambda a, k: {"simplex.node_updates": len(a[0].weights)}),
    ("harness", "sl_step", "simplex.sl_step",
     lambda a, k: {"simplex.node_updates": len(a[0].weights)}),
    ("simplex", "sl_run", "simplex.sl_run", None),
    ("harness", "w1_to_point", "simplex.w1_to_point", None),
    ("harness", "run_study", "harness.study", None),
    ("harness", "run_tri_study", "harness.study", None),
    ("harness", "run_resolution", "harness.resolution", _resolution_steps),
    ("harness", "run_tri_resolution", "harness.resolution", _resolution_steps),
    ("harness", "emit_report", "harness.report", None),
]

# metric -> (kind, span names it reads); kinds: "time" sums the outermost
# spans among the names, "calls" counts them, "count" sums a counter,
# "self" sums self time, "finest" sums the last resolution of each study
METRICS = {
    "measures.project_s": ("time", ("measures.project",)),
    "velocity.eval_calls": ("calls", ("velocity.eval",)),
    "velocity.eval_points": ("count", ("velocity.eval",)),
    "velocity.eval_s": ("time", ("velocity.eval",)),
    "schemes.step_calls": ("calls", ("schemes.step",)),
    "schemes.node_updates": ("count", ("schemes.step",)),
    "schemes.step_s": ("time", ("schemes.step",)),
    "stochastic.kernel_s": ("time", ("stochastic.kernel",)),
    "stochastic.kernel_rows": ("count", ("stochastic.kernel",)),
    "stochastic.propagate_s": ("time", ("stochastic.propagate",)),
    "stochastic.sample_s": ("time", ("stochastic.sample",)),
    "stochastic.path_steps": ("count", ("stochastic.sample",)),
    "stochastic.increment_s": ("time", ("stochastic.increment",)),
    "stochastic.law_s": ("time", ("stochastic.law",)),
    "flows.exact_calls": ("calls", ("flows.exact",)),
    "flows.exact_s": ("time", ("flows.exact",)),
    "wasserstein.distance_calls": ("calls", ("wasserstein.w1", "wasserstein.l1",
                                             "wasserstein.wp")),
    "wasserstein.w1_s": ("time", ("wasserstein.w1",)),
    "wasserstein.l1_s": ("time", ("wasserstein.l1",)),
    "wasserstein.wp_s": ("time", ("wasserstein.wp",)),
    "wasserstein.wp_breakpoints": ("count", ("wasserstein.wp",)),
    "simplex.mesh_build_s": ("time", ("simplex.mesh",)),
    "simplex.triangles": ("count", ("simplex.mesh",)),
    "simplex.sl_step_s": ("time", ("simplex.sl_step",)),
    "simplex.node_updates": ("count", ("simplex.sl_step",)),
    "simplex.w1_to_point_s": ("time", ("simplex.w1_to_point",)),
    "harness.resolution_s": ("time", ("harness.resolution",)),
    "harness.self_s": ("self", ("harness.study", "harness.resolution",
                                "harness.report")),
    "harness.steps": ("count", ("harness.resolution",)),
    "harness.finest_s": ("finest", ("harness.resolution",)),
}

UNITS = {"time": "s", "self": "s", "finest": "s", "calls": "count",
         "count": "count"}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self.installed: set[str] = set()
        self.absent: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    tracer.counts[key] = tracer.counts.get(key, 0) + value
            i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> None:
        """Wrap every target found in the given {name: module} mapping."""
        for mod_name, attr, name, counter in TARGETS:
            owner = modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(leaf)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, counter))
            self.installed.update([name] if isinstance(name, str) else name.names)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def metrics(self, lo: int, hi: int, counts: dict) -> dict[str, float]:
        """Per-layer metrics over spans lo..hi-1 (one round)."""
        names = [self.names[k] for k in self.name[lo:hi]]
        parent = self.parent[lo:hi]
        dur = [(e - s) * 1e-9 for s, e in zip(self.start[lo:hi], self.end[lo:hi])]
        child = [0.0] * (hi - lo)
        for j in range(hi - lo):
            if parent[j] >= lo:
                child[parent[j] - lo] += dur[j]

        def outermost(j, wanted):
            p = parent[j]
            while p >= lo:
                if names[p - lo] in wanted:
                    return False
                p = parent[p - lo]
            return True

        by_name: dict[str, list[int]] = {}
        for j, name in enumerate(names):
            by_name.setdefault(name, []).append(j)

        out = {}
        for metric, (kind, wanted) in METRICS.items():
            if not self.installed.intersection(wanted):
                continue
            sel = sorted(j for name in wanted for j in by_name.get(name, ()))
            if kind == "count":
                out[metric] = counts.get(metric, 0)
            elif kind == "self":
                out[metric] = sum(dur[j] - child[j] for j in sel)
            elif kind == "finest":
                last = {}
                for j in sel:
                    last[parent[j]] = j
                out[metric] = sum(dur[j] for j in last.values())
            else:
                top = [j for j in sel if outermost(j, wanted)]
                out[metric] = len(top) if kind == "calls" else sum(dur[j] for j in top)
        return out

    def dump(self, path: str) -> None:
        """Write the spans as columns; times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0
        payload = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [s - t0 for s in self.start],
            "end_ns": [e - t0 for e in self.end],
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
