#!/usr/bin/env python3
"""Time the distance layer of mtlab and the 1-D studies that use it.

    python scripts/bench.py --out BENCH.json --label after
    python scripts/bench.py --out BENCH.json --src ../parent/src --label before

imports mtlab from --src (default: this checkout's src/), times each case
K = 5 times and writes the medians, the single runs and the machine into
--out under the given label.  --out has no default, so that no earlier record
is rewritten by accident.  Labels already in the file are kept, so a run on
the parent commit (`before`) and one on the change (`after`) end up side by
side, with the speed-up of every case that both have.  Cases use only calls that both sides have:
`quantile`, `quantile_of_analytic`, `wp_1d`, `w1_pair`,
`harness._distance_at`, `harness.run_resolution` and `harness.run_study`.

Cases:
  * `wp_1d` on support m = 500, 1000, 2000, 10^4: step vs step (p = 1 via
    `w1_pair`, which includes building both quantile functions, and p = 2 on
    built ones) and step vs the affine example2 solution at t = 0.7 (p = 1);
  * one harness distance call per distance kind (w1 against a Dirac and
    against example2, l1, wp(2)), on windows the size of the last window at
    the finest resolution of the default ladder, timed over a loop of calls;
  * `run_resolution` at N = 3200 for example2 W1 (a field constant in time)
    and example3 W1 (a field that depends on t), which show the stepping
    path of each kind of field apart;
  * `run_study` for each of the seven 1-D studies of the benchmark's
    ladder-1d workload.

A case whose runs exceed BUDGET_S seconds in total stops early; its runs
list says how many were made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

STUDIES = [  # the ladder-1d workload of certbench/workloads.py
    ("example1-w1", dict(example="example1", distance="w1")),
    ("example2-w1", dict(example="example2", distance="w1")),
    ("example2-l1", dict(example="example2", distance="l1")),
    ("example3-w1", dict(example="example3", distance="w1")),
    ("example1-rusanov", dict(example="example1", scheme="rusanov")),
    ("binomial-w1", dict(example="binomial")),
    ("example1-wp2", dict(example="example1", distance="wp(2)",
                          ladder=(100, 200, 400, 800))),
]
RESOLUTIONS = ("example2-w1", "example3-w1")  # run_resolution at N = 3200
SUPPORTS = (500, 1000, 2000, 10_000)
CALLS = 500  # harness distance calls per timed run
K = 5  # runs per case
BUDGET_S = 20.0  # seconds after which a case stops repeating


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _time(fn, per: int = 1) -> dict:
    runs = []
    spent = 0.0
    for _ in range(K):
        start = time.perf_counter()
        for _ in range(per):
            fn()
        elapsed = time.perf_counter() - start
        runs.append(elapsed / per)
        spent += elapsed
        if spent > BUDGET_S:
            break
    return {"median_s": statistics.median(runs), "runs_s": runs}


def _step_measure(mtlab, rng, m: int):
    """A grid measure with m support nodes, random weights, dx = 1/m."""
    grid = mtlab.measures.CartesianGrid(dx=(1.0 / m,), dt=0.5 / m)
    nodes = rng.choice(4 * m, size=m, replace=False) - 2 * m
    ws = rng.uniform(0.1, 1.0, m)
    ws /= ws.sum()
    return mtlab.measures.DiscreteMeasure(
        grid, {(int(j),): float(w) for j, w in zip(nodes, ws)})


def _harness_window(kind: str):
    """(jmin, window, dx) the size of the last window of a study at N = 3200
    (2560 steps): the upwind binomial spread of a Dirac, down to underflow,
    or a uniform spread over the 2475 cells example2 reaches."""
    import numpy as np
    from scipy.stats import binom

    dx = 5.0 / 3200
    if kind == "dirac":
        ws = binom.pmf(np.arange(2561), 2560, 0.5)
        nz = np.flatnonzero(ws)
        ws = ws[nz[0]:nz[-1] + 1]
        return int(nz[0]) - 1280, ws / ws.sum(), dx
    return -1238, np.full(2475, 1.0 / 2475), dx


def measure(mtlab) -> dict:
    import numpy as np

    rng = np.random.default_rng(5)
    wp_1d = mtlab.wasserstein.wp_1d
    harness = mtlab.harness
    cases = {}
    exact2 = mtlab.flows.quantile_of_analytic(
        mtlab.flows.exact_solution("example2").measure(0.7))
    for m in SUPPORTS:
        mu, nu = _step_measure(mtlab, rng, m), _step_measure(mtlab, rng, m)
        qmu, qnu = mtlab.measures.quantile(mu), mtlab.measures.quantile(nu)
        cases[f"w1_pair step vs step m={m}"] = _time(
            lambda: mtlab.wasserstein.w1_pair(mu, nu))
        cases[f"wp_1d step vs step m={m} p=2"] = _time(
            lambda: wp_1d(qmu, qnu, 2.0))
        cases[f"wp_1d step vs example2 m={m} p=1"] = _time(
            lambda: wp_1d(qmu, exact2, 1.0))
    for name, example, distance, kind in (
        ("w1 vs Dirac", "example1", "w1", "dirac"),
        ("w1 vs example2", "example2", "w1", "uniform"),
        ("l1 vs example2", "example2", "l1", "uniform"),
        ("wp(2) vs Dirac", "example1", "wp(2)", "dirac"),
    ):
        cfg = harness.StudyConfig(example=example, distance=distance)
        exact = cfg.exact()
        jmin, window, dx = _harness_window(kind)
        cases[f"harness distance call {name} m={len(window)}"] = _time(
            lambda: harness._distance_at(cfg, exact, jmin, window, dx, 1.3),
            per=CALLS)
    for name in RESOLUTIONS:
        cfg = harness.StudyConfig(**dict(STUDIES)[name])
        cases[f"run_resolution {name} N=3200"] = _time(
            lambda: harness.run_resolution(cfg, 3200))
    for name, params in STUDIES:
        cfg = harness.StudyConfig(**params)
        cases[f"run_study {name}"] = _time(lambda: harness.run_study(cfg))
    return cases


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="directory that holds the mtlab package")
    ap.add_argument("--label", default="after", help="name of this run in --out")
    ap.add_argument("--out", required=True,
                    help="JSON record to add this run to")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import mtlab.flows
    import mtlab.harness
    import mtlab.measures
    import mtlab.wasserstein

    payload = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            payload = json.load(fh)
    payload["machine"] = _machine()
    payload["method"] = (f"median of k={K} runs per case, one process per "
                         "label, time.perf_counter; see scripts/bench.py")
    runs = payload.setdefault("runs", {})
    runs[args.label] = {"cases": measure(mtlab)}
    if "before" in runs and "after" in runs:
        before, after = runs["before"]["cases"], runs["after"]["cases"]
        payload["speedup"] = {name: before[name]["median_s"] / after[name]["median_s"]
                              for name in after if name in before}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, case in runs[args.label]["cases"].items():
        print(f"{name:<48} {case['median_s'] * 1e3:10.3f} ms "
              f"({len(case['runs_s'])} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
