"""certbench's traced mode against the names it wraps in mtlab.

`certbench/tracing.py` wraps mtlab's layer functions by name and leaves out
of its result every metric whose wrapped names are all gone, so renaming or
deleting a traced function silently drops per-layer metrics from a traced
benchmark run.  This test installs the tracer as `certbench/run.py` does,
runs a small chain and study under it, and checks that every per-layer
metric of BENCHMARK.json is still produced.  It reads `certbench/` and
BENCHMARK.json and changes neither.
"""

import ast
import importlib
import importlib.util
import json
import pathlib

import numpy as np

from mtlab.measures import CartesianGrid, DiscreteMeasure
from mtlab.velocity import VelocityField, constant

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "certbench"

# wrapped names that mtlab does not have; a name joins this list only when
# the function it traced is gone from mtlab on purpose
ABSENT = ["harness.w1_grid_vs_quantile", "harness.structured_mesh",
          "harness.sl_step", "harness.run_tri_resolution"]


def _tracing():
    spec = importlib.util.spec_from_file_location("certbench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers() -> tuple[str, ...]:
    """The LAYERS tuple of certbench/run.py, the modules its tracer wraps."""
    for node in ast.parse((BENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("certbench/run.py defines no LAYERS")


def test_traced_run_keeps_every_per_layer_metric():
    tracing = _tracing()
    m = {name: importlib.import_module(f"mtlab.{name}") for name in _layers()}
    per_layer = {entry["name"] for entry in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    tracer = tracing.Tracer()
    tracer.install(m)
    try:
        assert tracer.absent == ABSENT
        g = CartesianGrid(dx=(0.25,), dt=0.125)
        mu = DiscreteMeasure(g, {(0,): 0.5, (2,): 0.5})
        spec, field = m["schemes"].SchemeSpec("upwind"), constant(1.0)
        kernels = m["stochastic"].make_kernels(mu, spec, field, 3)
        law = m["stochastic"].propagate_law(mu, kernels)
        batch = m["stochastic"].sample_paths(mu, kernels, 200, 5)
        m["stochastic"].increment_residual(batch, field, g, 10)
        m["stochastic"].empirical_law(batch, 3)
        assert law == m["schemes"].run(mu, spec, field, 3)[-1]
        m["schemes"].step(mu, spec, field, 0)
        m["harness"].run_study(m["harness"].StudyConfig(ladder=(50, 100), T=0.25))
        metrics = tracer.metrics(0, len(tracer.start), tracer.counts)
    finally:
        tracer.uninstall()
    assert per_layer <= set(metrics), sorted(per_layer - set(metrics))
    assert metrics["stochastic.path_steps"] == 200 * 3
    assert metrics["schemes.step_calls"] == 1
    for name in ("stochastic.kernel_s", "stochastic.propagate_s",
                 "stochastic.sample_s", "harness.resolution_s"):
        assert metrics[name] > 0.0, name
    # uninstalled: the layers hold their own functions again
    assert not hasattr(m["stochastic"].make_kernels, "__wrapped__")


def _traced_chain(m, tracing, lanes, monkeypatch):
    """Metrics and LIFO breaks of a traced 2-D chain of 2^16 + 7 paths in
    the given number of lanes."""
    monkeypatch.setattr(m["stochastic"].os, "sched_getaffinity",
                        lambda pid: set(range(lanes)))
    tracer, breaks = tracing.Tracer(), []
    close = tracer.close

    def close_last_opened(i):
        if tracer._stack[-1] != i:
            breaks.append(i)
        close(i)

    tracer.close = close_last_opened
    tracer.install(m)
    try:
        g = CartesianGrid(dx=(0.25, 0.25), dt=0.0625)
        mu = DiscreteMeasure(g, {(0, 0): 0.5, (2, -1): 0.5})
        field = VelocityField(lambda t, x: np.where(x < 0.0, 0.6, -0.4), a_inf=1.0,
                              dims=2)
        spec = m["schemes"].SchemeSpec("rusanov")
        kernels = m["stochastic"].make_kernels(mu, spec, field, 4)
        batch = m["stochastic"].sample_paths(mu, kernels, 2 ** 16 + 7, 5)
        m["stochastic"].increment_residual(batch, field, g, 10)
        metrics = tracer.metrics(0, len(tracer.start), tracer.counts)
    finally:
        tracer.uninstall()
    return metrics, breaks, tracer._stack


def test_traced_chain_in_two_lanes_counts_as_the_serial_one(monkeypatch):
    # the lane runs no user code, so a tracer sees the calls and points of
    # the serial run and its spans nest
    tracing = _tracing()
    m = {name: importlib.import_module(f"mtlab.{name}") for name in _layers()}
    assert 2 ** 16 + 7 >= m["stochastic"]._LANE_MIN_PATHS
    counted = ("velocity.eval_calls", "velocity.eval_points", "stochastic.path_steps")
    runs = {}
    for lanes in (1, 2):
        metrics, breaks, stack = _traced_chain(m, tracing, lanes, monkeypatch)
        assert breaks == [] and stack == [-1]
        runs[lanes] = [metrics[name] for name in counted]
    assert runs[2] == runs[1]
    assert runs[1][2] == (2 ** 16 + 7) * 4
