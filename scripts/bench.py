#!/usr/bin/env python3
"""Time the distance, path-sampling and semi-Lagrangian layers of mtlab and
its studies.

    python scripts/bench.py --out BENCH.json --src ../parent/src --label before
    python scripts/bench.py --out BENCH.json --label after --base ../parent/src

imports mtlab from --src (default: this checkout's src/), times each case
K = 5 times and writes the medians, the single runs and the machine into
--out under the given label.  --out has no default, so that no earlier record
is rewritten by accident.  Labels already in the file are kept, so a run on
the parent commit (`before`) and one on the change (`after`) end up side by
side, with the speed-up of every case that both have.  Cases use only calls
that both sides have: `quantile`, `quantile_of_analytic`, `wp_1d`, `w1_pair`,
`l1_grid_vs_pieces`, `QuantileFunction.from_masses`,
`harness.run_resolution`, `harness.run_study`, `harness.run_tri_study`,
`schemes.run`, `make_kernels`, `sample_paths`, `increment_residual` and
`empirical_law` of `stochastic`, `structured_mesh`, `NodeMeasure` and
`sl_run` of `simplex`, and `exact_solution` with its `measure` and
`quantile_fn` for each name in `harness.EXAMPLES`; the one exception is the window semi-Lagrangian step,
timed only where `simplex.kuhn_rows` exists.

Cases:
  * `wp_1d` on support m = 500, 1000, 2000, 10^4: step vs step (p = 1 via
    `w1_pair`, which includes building both quantile functions, and p = 2 on
    built ones) and step vs the affine example2 solution at t = 0.7 (p = 1);
  * one harness distance per distance kind (w1 against a Dirac and against
    example2, l1, wp(2)), as the grid study measures it at a step, on
    windows the size of the last window at the finest resolution of the
    default ladder, timed over a loop of calls;
  * `run_resolution` at N = 3200 for example2 W1 (a field constant in time)
    and example3 W1 (a field that depends on t), which show the stepping
    path of each kind of field apart;
  * `run_study` for each of the seven 1-D studies of the benchmark's
    ladder-1d workload;
  * the Markov-chain layer at the sizes of the benchmark's sparse-chain-nd
    chains (upwind d = 1 with 12 steps, Rusanov d = 2 with 8 steps, from a
    Dirac under a product step field, grid dx = 1/16 at CFL 0.9):
    `make_kernels`, then `sample_paths` of 10^5 paths, `increment_residual`
    and `empirical_law` of the last step on that batch, each timed once per
    run in the order a chain uses them, each of the K runs of a chain in a
    fresh interpreter with PYTHONPATH set to --src;
  * `schemes.run` on the six scheme runs of the benchmark's sparse-chain-nd
    workload (upwind and Rusanov in d = 1, 2, 3, from a Dirac under the
    chains' product step field, dx = 1/16 at CFL 0.9), each timed once after
    one untimed round of all six, and the six in all, each of the K runs in
    a fresh interpreter with PYTHONPATH set to --src;
  * `run_tri_study` on the default `TriStudyConfig`, which steps a window of
    grid nodes along the Kuhn rows and builds no mesh; one window
    semi-Lagrangian step of it (`kuhn_rows` plus one `apply_window`) on its
    last window at its finest N = 256; and a wide `sl_run` on the mesh path,
    the size of the benchmark's tri-sl run: 12 steps of a 40 x 40 block of
    nodes on an 80 x 80 split-square mesh under a field that points towards
    the block's centre lines;
  * cold start: `import mtlab` in a fresh interpreter with PYTHONPATH set
    to --src, timed from outside (interpreter start included), with the
    child's own peak RSS (`VmHWM`) of each run;
  * end to end: `scripts/convergence_study.py` in a subprocess with
    PYTHONPATH set to --src (five 1-D studies and the triangulated study);
  * exact solutions: the time per call of `ExactSolution.quantile_fn` and
    `ExactSolution.measure` of each example over the 2560 step times of the
    finest default resolution (N = 3200), each of the K runs in a fresh
    interpreter with PYTHONPATH set to --src (the median of 5 passes after
    a warm-up pass).

In-process timings of the exact-solution calls, the Markov-chain cases and
the scheme runs move with the heap state of the process, so those three
kinds of case run in fresh interpreters.  With --base, their runs alternate
between --base, recorded under the label `before`, and --src, in turn first.

Besides the times, each label records the peak RSS of this process and of
its children (`ru_maxrss` of RUSAGE_SELF and RUSAGE_CHILDREN), both read
before the end-to-end case: `run_study` runs the coarser resolutions of a
ladder in forked workers, whose memory RUSAGE_SELF does not count.  The
machine record holds `affinity_cpus`, the CPUs this process may run on,
which is the number of processes a study may run in.  The script imports no
scipy of its own (it reads scipy's version from the package metadata), so its
peak RSS is that of the mtlab under test and the cases.

A case whose runs exceed BUDGET_S seconds in total stops early; its runs
list says how many were made.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
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
# the sparse-chain-nd chains of certbench/workloads.py: (kind, dims, steps),
# with PATHS sampled paths and a per-state mean test from MIN_VISITS visits
CHAINS = (("upwind", 1, 12), ("rusanov", 2, 8))
# the sparse-chain-nd scheme runs of certbench/workloads.py: (kind, dims, steps)
SCHEME_RUNS = (("upwind", 1, 300), ("rusanov", 1, 150), ("upwind", 2, 60),
               ("rusanov", 2, 36), ("upwind", 3, 24), ("rusanov", 3, 14))
PATHS = 100_000
MIN_VISITS = 100
# the wide sl_run of certbench's tri-sl workload: cells per side, half width
# of the square, nodes per side of the datum, steps
WIDE = (80, 5.0, 40, 12)
# the cold-start case: a fresh interpreter that imports mtlab and prints its
# own peak RSS in kB.  Not ru_maxrss: Linux carries the forking process's
# peak into the child's across exec, so the child would report this one's.
COLD_IMPORT = ("import mtlab\n"
               "with open('/proc/self/status') as fh:\n"
               "    print(next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')))\n")
# the exact-solution case: argv is example, method; prints seconds per call
EXACT_CALLS = ("import statistics, sys, time\n"
               "from mtlab.flows import exact_solution\n"
               "call = getattr(exact_solution(sys.argv[1]), sys.argv[2])\n"
               "ts = [(n + 1) * 0.00078125 for n in range(2560)]\n"
               "runs = []\n"
               "for _ in range(6):\n"
               "    start = time.perf_counter()\n"
               "    for t in ts:\n"
               "        call(t)\n"
               "    runs.append((time.perf_counter() - start) / len(ts))\n"
               "print(statistics.median(runs[1:]))\n")
# the Markov-chain case: argv is this directory, kind, dims, steps; prints
# the seconds of each case of the chain as a JSON object
CHAIN_CALLS = ("import json, sys\n"
               "sys.path.insert(0, sys.argv[1])\n"
               "import bench\n"
               "print(json.dumps(bench.chain_times(*sys.argv[2:])))\n")
# the scheme-run case: argv is this directory; prints the seconds of each run
# as a JSON object
RUN_CALLS = ("import json, sys\n"
             "sys.path.insert(0, sys.argv[1])\n"
             "import bench\n"
             "print(json.dumps(bench.run_times()))\n")


def _machine() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
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

    dx = 5.0 / 3200
    if kind == "dirac":
        n = 2560
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
        ws = np.exp(log_fact[n] - log_fact - log_fact[::-1] + n * math.log(0.5))
        nz = np.flatnonzero(ws)
        ws = ws[nz[0]:nz[-1] + 1]
        return int(nz[0]) - 1280, ws / ws.sum(), dx
    return -1238, np.full(2475, 1.0 / 2475), dx


def _chain_case(mtlab, kind: str, dims: int):
    """(mu0, spec, field) of a benchmark chain: a Dirac at the origin under
    the product step field a_i(x) = f(x_i), one-signed for upwind (0.6 left
    of 0, 0.4 right of it) and compressive for Rusanov (0.5, then -0.3), on
    dx = 1/16 with dt at CFL 0.9 of the scheme's coefficient bound."""
    import numpy as np

    left, right = (0.6, 0.4) if kind == "upwind" else (0.5, -0.3)
    a_inf = 0.8 * dims ** 0.5
    coef = a_inf if kind == "upwind" else 2.0 * a_inf
    dx = 1.0 / 16.0
    grid = mtlab.measures.CartesianGrid(dx=(dx,) * dims,
                                        dt=0.9 * dx / (coef * dims))
    field = mtlab.velocity.VelocityField(
        lambda t, x: np.where(x < 0.0, left, right), a_inf=a_inf, dims=dims,
        name="bench-steps")
    mu0 = mtlab.measures.DiscreteMeasure(grid, {(0,) * dims: 1.0})
    return mu0, mtlab.schemes.SchemeSpec(kind), field


def _distance(mtlab, cfg, exact, jmin, window, dx, t):
    """The grid study's distance at time t of the window (jmin, window)."""
    import numpy as np

    if cfg.distance == "l1":
        return mtlab.wasserstein.l1_grid_vs_pieces(jmin, window, dx,
                                                   exact.measure(t).pieces)
    xs = np.arange(jmin, jmin + len(window)) * dx
    return mtlab.wasserstein.wp_1d(
        mtlab.measures.QuantileFunction.from_masses(xs, window),
        exact.quantile_fn(t), cfg.order)


def _wide_run(mtlab):
    """(mu0, field, steps, dt) of the wide semi-Lagrangian run: uniform
    weights on the centre block of nodes, each axis of the field 0.6 before
    the block's centre line and -0.6 after it, at CFL 0.9."""
    import numpy as np

    cells, half, block, steps = WIDE
    mesh = mtlab.simplex.structured_mesh((-half, -half), (half, half),
                                         (cells, cells))
    first = (cells - block) // 2 + 1
    side = first + np.arange(block)
    ids = (side[:, None] * (cells + 1) + side[None, :]).ravel()
    centre = 0.5 * (mesh.nodes[ids[0]] + mesh.nodes[ids[-1]])
    field = mtlab.velocity.VelocityField(
        lambda t, x: np.where(x < centre, 0.6, -0.6), a_inf=1.0, dims=2,
        name="bench-compressive")
    mu0 = mtlab.simplex.NodeMeasure(
        mesh, dict.fromkeys(ids.tolist(), 1.0 / len(ids)))
    return mu0, field, steps, 0.9 * mesh.hbar


def _tri_window(harness, cfg, N):
    """(xi, (lo, box)): the displacement in cells of the triangulated study
    `cfg` at resolution N, and its window after the last step."""
    import numpy as np

    steps, dt, h, state, advance, _ = cfg.resolution(N)
    for n in range(steps):
        state = advance(n, state)
    return np.asarray(cfg.speed)[None, :] * dt / h, state


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cold_import(src: str, rss_mb: list) -> None:
    """import mtlab in a fresh interpreter; append the child's own peak RSS."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env,
                         check=True, capture_output=True, text=True).stdout
    rss_mb.append(int(out) / 1024.0)


def _end_to_end(src: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, os.path.join(HERE, "convergence_study.py")],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def _fresh_runs(srcs: dict, code: str, *argv: str) -> dict:
    """{label: [stdout of each run]} of code run with argv in K fresh
    interpreters per label, PYTHONPATH set to the label's source, the labels
    alternating and in turn first."""
    outs = {label: [] for label in srcs}
    order = list(srcs.items())
    for k in range(K):
        for label, src in order[::-1] if k % 2 else order:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            outs[label].append(subprocess.run(
                [sys.executable, "-c", code, *argv],
                env=env, check=True, capture_output=True, text=True).stdout)
    return outs


def _exact_calls(examples, srcs: dict) -> dict:
    """{label: cases} of the exact-solution calls, in fresh interpreters."""
    cases = {label: {} for label in srcs}
    for example in examples:
        for method in ("quantile_fn", "measure"):
            for label, outs in _fresh_runs(srcs, EXACT_CALLS, example, method).items():
                rs = [float(out) for out in outs]
                cases[label][f"exact {example} {method} per call"] = {
                    "median_s": statistics.median(rs), "runs_s": rs}
    return cases


def chain_times(kind: str, dims: str, steps: str) -> dict:
    """{case: seconds} of one benchmark chain: `make_kernels`, `sample_paths`,
    `increment_residual` and `empirical_law` of the last step, each timed
    once in this process on the mtlab that it imports."""
    import mtlab.measures
    import mtlab.schemes
    import mtlab.stochastic
    import mtlab.velocity

    chain = mtlab.stochastic
    dims, steps = int(dims), int(steps)
    mu0, spec, field = _chain_case(mtlab, kind, dims)
    tag = f"{kind} d={dims} steps={steps}"
    times = {}

    def clock(name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        times[name] = time.perf_counter() - start
        return out

    kernels = clock(f"make_kernels {tag}", chain.make_kernels, mu0, spec, field, steps)
    batch = clock(f"sample_paths {tag} paths={PATHS}",
                  chain.sample_paths, mu0, kernels, PATHS, 7)
    clock(f"increment_residual {tag} paths={PATHS}",
          chain.increment_residual, batch, field, mu0.grid, MIN_VISITS)
    clock(f"empirical_law {tag} paths={PATHS}", chain.empirical_law, batch, steps)
    return times


def run_times() -> dict:
    """{case: seconds} of `schemes.run` on each of SCHEME_RUNS, timed once
    after an untimed round of all of them, and of the round, in this process
    on the mtlab that it imports."""
    import mtlab.measures
    import mtlab.schemes
    import mtlab.velocity

    cases = [(_chain_case(mtlab, kind, dims), kind, dims, steps)
             for kind, dims, steps in SCHEME_RUNS]
    for (mu0, spec, field), _, _, steps in cases:
        mtlab.schemes.run(mu0, spec, field, steps)
    times = {}
    for (mu0, spec, field), kind, dims, steps in cases:
        start = time.perf_counter()
        mtlab.schemes.run(mu0, spec, field, steps)
        times[f"schemes.run {kind} d={dims} steps={steps}"] = time.perf_counter() - start
    times["schemes.run sparse-chain-nd round"] = sum(times.values())
    return times


def _json_cases(outs: dict) -> dict:
    """{label: cases} of fresh runs that each print {case: seconds}."""
    cases = {label: {} for label in outs}
    for label, runs in outs.items():
        runs = [json.loads(out) for out in runs]
        for name in runs[0]:
            rs = [run[name] for run in runs]
            cases[label][name] = {"median_s": statistics.median(rs), "runs_s": rs}
    return cases


def _chain_calls(srcs: dict) -> dict:
    """{label: cases} of the Markov-chain cases and the scheme runs, in fresh
    interpreters."""
    outs = [_fresh_runs(srcs, CHAIN_CALLS, HERE, kind, str(dims), str(steps))
            for kind, dims, steps in CHAINS]
    outs.append(_fresh_runs(srcs, RUN_CALLS, HERE))
    cases = {label: {} for label in srcs}
    for out in outs:
        for label, found in _json_cases(out).items():
            cases[label].update(found)
    return cases


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
            lambda: _distance(mtlab, cfg, exact, jmin, window, dx, 1.3),
            per=CALLS)
    for name in RESOLUTIONS:
        cfg = harness.StudyConfig(**dict(STUDIES)[name])
        cases[f"run_resolution {name} N=3200"] = _time(
            lambda: harness.run_resolution(cfg, 3200))
    for name, params in STUDIES:
        cfg = harness.StudyConfig(**params)
        cases[f"run_study {name}"] = _time(lambda: harness.run_study(cfg))
    tri = harness.TriStudyConfig()
    cases["run_tri_study default"] = _time(lambda: harness.run_tri_study(tri))
    if hasattr(mtlab.simplex, "kuhn_rows"):
        N = tri.ladder[-1]
        xi, state = _tri_window(harness, tri, N)
        moves = mtlab.simplex.kuhn_moves(2)

        def sl_window_step():
            rows = mtlab.simplex.kuhn_rows(xi)
            mtlab.schemes.apply_window(*state, rows.reshape(rows.shape + (1,)), moves)

        cases[f"window sl step N={N} {state[1].shape[0]}x{state[1].shape[1]}"] = _time(
            sl_window_step, per=CALLS)
    mu0, field, steps, dt = _wide_run(mtlab)
    cells, _, block, _ = WIDE
    cases[f"sl_run {cells}x{cells} mesh, {block}x{block} datum, "
          f"{steps} steps"] = _time(
        lambda: mtlab.simplex.sl_run(mu0, field, steps, dt))
    return cases


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="directory that holds the mtlab package")
    ap.add_argument("--label", default="after", help="name of this run in --out")
    ap.add_argument("--out", required=True,
                    help="JSON record to add this run to")
    ap.add_argument("--base", help="mtlab source of the parent commit; the "
                    "exact-solution and Markov-chain runs then alternate with "
                    "it (label before)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import mtlab.flows
    import mtlab.harness
    import mtlab.measures
    import mtlab.schemes
    import mtlab.simplex
    import mtlab.velocity
    import mtlab.wasserstein

    payload = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            payload = json.load(fh)
    payload["machine"] = _machine()
    payload["method"] = (f"median of k={K} runs per case, one process per "
                         "label (a fresh one per run for the exact-solution "
                         "and Markov-chain cases, alternating with --base), "
                         "time.perf_counter; see scripts/bench.py")
    runs = payload.setdefault("runs", {})
    cases = measure(mtlab)
    label = runs[args.label] = {
        "cases": cases,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "children_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    rss_mb = []
    cold = cases["cold import mtlab"] = _time(lambda: _cold_import(args.src, rss_mb))
    cold["child_peak_rss_mb"] = rss_mb
    cases["end to end scripts/convergence_study.py"] = _time(
        lambda: _end_to_end(args.src))
    srcs = {args.label: args.src}
    if args.base:
        srcs = {"before": args.base, **srcs}
    for fresh in (_exact_calls(mtlab.harness.EXAMPLES, srcs), _chain_calls(srcs)):
        for name, fresh_cases in fresh.items():
            runs.setdefault(name, {"cases": {}})["cases"].update(fresh_cases)
    if "before" in runs and "after" in runs:
        before, after = runs["before"]["cases"], runs["after"]["cases"]
        payload["speedup"] = {name: before[name]["median_s"] / after[name]["median_s"]
                              for name in after if name in before}
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, case in cases.items():
        print(f"{name:<56} {case['median_s'] * 1e3:10.3f} ms "
              f"({len(case['runs_s'])} runs)")
    print(f"peak RSS {label['peak_rss_mb']:.1f} MB, children "
          f"{label['children_peak_rss_mb']:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
