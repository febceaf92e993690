#!/usr/bin/env python3
"""Certification benchmark for mtlab.

    python3 certbench/run.py --workload ladder-1d --seed 1 --seconds 36 --trace 0

runs one workload in this process on the mtlab sources of the checkout that
holds this file (``src/``), repeating whole rounds of its operations for as
long as they fit in --seconds, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With --trace 0 the
metrics are the end-to-end ones, their times scaled to a reference speed of
the machine that a calibration loop measures during the run; with --trace 1
the calls into mtlab's layers are traced and the metrics are the per-layer
ones.  Without --workload every workload runs, each in its own process.
See README.md.
"""

import os

# no more threads than the two cores of the reference machine; one keeps
# native kernels from competing with the interpreter
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".bench_out")
LAYERS = ("measures", "velocity", "schemes", "stochastic", "flows",
          "wasserstein", "simplex", "harness")
SETUP_REPEATS = 5
# time the calibration loop takes on the reference machine in a quiet spell;
# timings are scaled to this speed (see speed_factor)
CALIBRATION_REF_S = 0.045
_CALIBRATION_PTS = np.random.default_rng(0).random((3, 2))

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import mtlab; "
    "print(time.perf_counter() - t)"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def import_mtlab() -> types.SimpleNamespace:
    if not os.path.isfile(os.path.join(SRC, "mtlab", "__init__.py")):
        raise BenchError(f"no mtlab sources under {SRC}")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"mtlab.{name}") for name in LAYERS}
    if not os.path.abspath(mods["harness"].__file__).startswith(SRC + os.sep):
        raise BenchError(f"mtlab imported from {mods['harness'].__file__}, not {SRC}")
    return types.SimpleNamespace(**mods)


def cold_import_seconds() -> float:
    """Time to import mtlab in a fresh interpreter, as a user's run pays it."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy
    calls, the two things the workloads spend their time on.

    Independent of mtlab.  The shared host runs the same code up to 1.6x
    slower for tens of seconds at a time; timed between operations, this
    loop tracks that speed.  (A large-array sort tracked it worse.)"""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(150_000):
        acc += i * i % 7
        table[i & 1023] = acc
    for _ in range(2_000):
        [np.linalg.norm(_CALIBRATION_PTS[(k + 1) % 3] - _CALIBRATION_PTS[k])
         for k in range(3)]
    return time.perf_counter() - t0


def speed_factor(calibrations) -> float:
    """Scale from this run's seconds to seconds at the reference speed."""
    return CALIBRATION_REF_S / statistics.median(calibrations)


def run_round(ops, calibrations, tracer=None) -> dict:
    """Run every operation once, with a calibration appended to calibrations
    before the first and after each; returns wall time and failures."""
    state, walls, failed, unexpected = {}, {}, 0, []
    calibrations.append(calibrate())
    for op in ops:
        span = tracer.open("bench." + op.name) if tracer else None
        clock = workloads.Clock()
        try:
            state[op.name] = op.run(clock, state)
            problems, raised = op.check(state[op.name], state), False
        except Exception:
            problems, raised = [traceback.format_exc(limit=4)], True
        finally:
            walls[op.name] = clock.seconds
            calibrations.append(calibrate())
            if tracer:
                tracer.close(span)
        if problems:
            failed += 1
            if raised or not op.known_fault:
                unexpected += [f"{op.name}: {p}" for p in problems]
    return {"wall": sum(walls.values()), "walls": walls, "attempted": len(ops),
            "failed": failed, "unexpected": unexpected}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    m = import_mtlab()
    os.makedirs(OUTDIR, exist_ok=True)
    build = workloads.WORKLOADS[name]
    setups, setup_calibrations = [], []
    for _ in range(SETUP_REPEATS):
        setup_calibrations.append(calibrate())
        t_import = cold_import_seconds()
        t0 = time.perf_counter()
        ops = build(m, seed, OUTDIR)
        setups.append(t_import + time.perf_counter() - t0)
        setup_calibrations.append(calibrate())

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(vars(m))
    rounds, layer_rounds, calibrations = [], [], []
    start = time.perf_counter()
    longest = 0.0
    try:
        # whole rounds only, and only those expected to end within --seconds
        while not rounds or time.perf_counter() - start + longest <= seconds:
            lo = len(tracer.start) if tracer else 0
            if tracer:
                tracer.counts = {}
            t0 = time.perf_counter()
            rounds.append(run_round(ops, calibrations, tracer))
            longest = max(longest, time.perf_counter() - t0)
            if tracer:
                layer_rounds.append(tracer.metrics(lo, len(tracer.start),
                                                   tracer.counts))
    finally:
        if tracer:
            tracer.uninstall()

    unexpected = [p for r in rounds for p in r["unexpected"]]
    for problem in unexpected[:20]:
        print("FAILED", problem)
    print(f"workload {name} seed {seed}: {len(rounds)} rounds, "
          f"wall per round {[round(r['wall'], 4) for r in rounds]}")
    medians = {op.name: statistics.median(r["walls"][op.name] for r in rounds)
               for op in ops}
    for op_name, t in medians.items():
        print(f"  {op_name}: {t:.4f} s")
    raw_wall = sum(medians.values())
    speed = speed_factor(calibrations)
    wall = raw_wall * speed
    setup = statistics.median(setups) * speed_factor(setup_calibrations)
    print(f"calibration median {statistics.median(calibrations):.4f} s "
          f"(reference {CALIBRATION_REF_S} s); measured wall {raw_wall:.4f} s, "
          f"setup {statistics.median(setups):.4f} s")
    if tracer:
        path = os.path.join(OUTDIR, f"trace-{name}.json")
        tracer.dump(path)
        print(f"traced wall_s {wall:.4f} s; spans in {path}")
        if tracer.absent:
            print("absent:", ", ".join(tracer.absent))
        metrics = {}
        for key, (kind, _) in tracing.METRICS.items():
            if key in layer_rounds[0]:
                values = [r[key] for r in layer_rounds]
                # counts are the same in every round
                value = values[0] if tracing.UNITS[kind] == "count" \
                    else statistics.median(values)
                metrics[key] = {"value": value, "unit": tracing.UNITS[kind]}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    for key, metric in metrics.items():
        print(f"{key} {metric['value']} {metric['unit']}")
    result = {"correct": not unexpected,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    return result


def run_all(args) -> int:
    """Every workload, each in its own process."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}"
                          for k, v in result["metrics"].items())
        print(f"{name}: correct {result['correct']}, attempted "
              f"{result['attempted']}, failed {result['failed']}; {shown}")
        status |= not result["correct"]
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"certbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
