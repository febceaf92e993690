#!/usr/bin/env python3
"""Time the layers of mtlab and its studies, every case in fresh interpreters.

    python scripts/bench.py --out BENCH.json --base ../parent/src
    python scripts/bench.py --out BENCH.json

Every case group runs in K = 10 fresh interpreters per side, with PYTHONPATH
set to the side's mtlab source: --base (label `before`) and --src (label
`after`, default this checkout's src/).  The sides alternate, each first in
turn.  A group's child runs `bench.GROUPS[name](*argv)` on the mtlab it
imports, which returns {case: seconds}, and prints that as JSON with its own
peak RSS (`VmHWM`) and that of the processes it waited on (`ru_maxrss` of
RUSAGE_CHILDREN, which covers `run_study`'s forked workers; 0 where a group
forks none).

Inside a child each case repeats REPEATS = 5 times, or runs once where a call
takes over LONG_S = 1 s, and the child reports the median.  Each case records
`runs_s` (one value per process), their `median_s` and `min_s`, and `speedup`
is the `before` `min_s` over the `after` one.  The minimum, because a shared
host can run whole processes, or several in a row, 1.5-2x slower on every
case: the minimum over processes measures the code, not that slow mode.

Two cases are subprocesses timed from outside, interpreter start included,
that alternate with --base too: `import mtlab` (the child prints its own
`VmHWM`) and `scripts/convergence_study.py` end to end.

Groups, on calls that both sides have:
  * distances: `wp_1d` on support m = 500, 1000, 2000, 10^4, step vs step
    (p = 1 via `w1_pair`, which includes building both quantile functions,
    and p = 2 on built ones) and step vs the affine example2 solution at
    t = 0.7 (p = 1); and one harness distance per distance kind (w1 against
    a Dirac and against example2, l1, wp(2)), as the grid study measures it
    at a step, on windows the size of the last window at the finest
    resolution of the default ladder, timed over a loop of CALLS calls;
  * studies: `run_resolution` at N = 3200 for example2 W1 (a field constant
    in time) and example3 W1 (a field that depends on t), `run_study` for
    each of certbench's ladder-1d studies, and `run_study` on the default
    `TriStudyConfig` (case `run_tri_study default`, the name older records
    use);
  * sl: one window semi-Lagrangian step (`kuhn_rows` plus one
    `apply_window`) on the last window of the default triangulated study, at
    its finest N = 256, over a loop of CALLS calls; and `sl_run` on the mesh
    path at the size of certbench's tri-sl wide run: a block of nodes under a
    field that points towards the block's centre lines;
  * exact: `ExactSolution.quantile_fn` and `ExactSolution.measure` of each
    example, per call, over the 2560 step times of the finest default
    resolution (N = 3200);
  * chain, one child per chain of certbench's sparse-chain-nd: from a Dirac
    under a product step field, `make_kernels`, then `sample_paths`,
    `increment_residual` and `empirical_law` of the last step, in that order;
  * runs: `schemes.run` on each of sparse-chain-nd's scheme runs from the
    chains' Dirac and field, and the round of all of them.

The workload sizes (STUDIES, SCHEME_RUNS, CHAINS, PATHS, MIN_VISITS and the
grid and wide-run constants) are read from certbench/workloads.py.  --out
has no default and must not exist: one invocation writes the whole record.
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
sys.path.insert(0, os.path.join(HERE, "..", "certbench"))

from workloads import (  # noqa: E402
    CHAINS,
    GRID_CFL,
    GRID_DX,
    MIN_VISITS,
    PATHS,
    SCHEME_RUNS,
    STUDIES,
    TRI_CELLS,
    TRI_CFL,
    TRI_DATUM,
    TRI_HALF_WIDTH,
    TRI_STEPS,
)

RESOLUTIONS = ("example2-w1", "example3-w1")  # run_resolution at N = 3200
SUPPORTS = (500, 1000, 2000, 10_000)
CALLS = 500  # calls per timed run of a harness distance or window SL step
K = 10  # fresh interpreters per case and side
REPEATS = 5  # runs per case inside a child
LONG_S = 1.0  # a call that takes longer runs once
# a child's entry point: argv is this directory, the group and its arguments
CHILD = ("import json, sys\n"
         "sys.path.insert(0, sys.argv[1])\n"
         "import bench\n"
         "cases = bench.GROUPS[sys.argv[2]](*sys.argv[3:])\n"
         "print(json.dumps({'cases': cases, **bench.peak_rss_mb()}))\n")
# the cold-start case: prints the child's own peak RSS in kB.  Not ru_maxrss:
# Linux carries the forking process's peak into the child's across exec, so
# the child would report this one's.
COLD_IMPORT = ("import mtlab\n"
               "with open('/proc/self/status') as fh:\n"
               "    print(next(ln.split()[1] for ln in fh if ln.startswith('VmHWM:')))\n")
COLD_CASE = "cold import mtlab"
END_TO_END = "end to end scripts/convergence_study.py"


def peak_rss_mb() -> dict:
    """This process's peak RSS (`VmHWM`) and that of the children it waited
    on, in MB."""
    with open("/proc/self/status") as fh:
        kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    return {"peak_rss_mb": kb / 1024.0,
            "children_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def _medians(one_pass) -> dict:
    """{case: median seconds} over REPEATS calls of one_pass, which returns
    {case: seconds}, or over one call where a case took over LONG_S."""
    passes = [one_pass()]
    while len(passes) < REPEATS and max(passes[0].values()) <= LONG_S:
        passes.append(one_pass())
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def _median_s(fn, per: int = 1) -> float:
    """Median seconds per call of fn, timed over runs of per calls."""
    def one_pass():
        start = time.perf_counter()
        for _ in range(per):
            fn()
        return {"call": (time.perf_counter() - start) / per}

    return _medians(one_pass)["call"]


def _step_measure(rng, m: int):
    """A grid measure with m support nodes, random weights, dx = 1/m."""
    from mtlab.measures import CartesianGrid, DiscreteMeasure

    grid = CartesianGrid(dx=(1.0 / m,), dt=0.5 / m)
    nodes = rng.choice(4 * m, size=m, replace=False) - 2 * m
    ws = rng.uniform(0.1, 1.0, m)
    ws /= ws.sum()
    return DiscreteMeasure(grid, {(int(j),): float(w) for j, w in zip(nodes, ws)})


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


def distances() -> dict:
    import numpy as np
    from mtlab import flows, harness, measures, wasserstein

    def study_distance(cfg, exact, jmin, window, dx, t):
        """The grid study's distance at time t of the window (jmin, window)."""
        if cfg.distance == "l1":
            return wasserstein.l1_grid_vs_pieces(jmin, window, dx,
                                                 exact.measure(t).pieces)
        xs = np.arange(jmin, jmin + len(window)) * dx
        return wasserstein.wp_1d(measures.QuantileFunction.from_masses(xs, window),
                                 exact.quantile_fn(t), cfg.order)

    rng = np.random.default_rng(5)
    cases = {}
    exact2 = flows.quantile_of_analytic(flows.exact_solution("example2").measure(0.7))
    for m in SUPPORTS:
        mu, nu = _step_measure(rng, m), _step_measure(rng, m)
        qmu, qnu = measures.quantile(mu), measures.quantile(nu)
        cases[f"w1_pair step vs step m={m}"] = _median_s(
            lambda: wasserstein.w1_pair(mu, nu))
        cases[f"wp_1d step vs step m={m} p=2"] = _median_s(
            lambda: wasserstein.wp_1d(qmu, qnu, 2.0))
        cases[f"wp_1d step vs example2 m={m} p=1"] = _median_s(
            lambda: wasserstein.wp_1d(qmu, exact2, 1.0))
    for name, example, distance, kind in (
        ("w1 vs Dirac", "example1", "w1", "dirac"),
        ("w1 vs example2", "example2", "w1", "uniform"),
        ("l1 vs example2", "example2", "l1", "uniform"),
        ("wp(2) vs Dirac", "example1", "wp(2)", "dirac"),
    ):
        cfg = harness.StudyConfig(example=example, distance=distance)
        exact = cfg.exact()
        jmin, window, dx = _harness_window(kind)
        cases[f"harness distance call {name} m={len(window)}"] = _median_s(
            lambda: study_distance(cfg, exact, jmin, window, dx, 1.3), per=CALLS)
    return cases


def studies() -> dict:
    from mtlab import harness

    cases = {}
    for name in RESOLUTIONS:
        cfg = harness.StudyConfig(**dict(STUDIES)[name])
        cases[f"run_resolution {name} N=3200"] = _median_s(
            lambda: harness.run_resolution(cfg, 3200))
    for name, params in STUDIES:
        cfg = harness.StudyConfig(**params)
        cases[f"run_study {name}"] = _median_s(lambda: harness.run_study(cfg))
    tri = harness.TriStudyConfig()
    # the case keeps its name, so that BENCH records stay comparable
    cases["run_tri_study default"] = _median_s(lambda: harness.run_study(tri))
    return cases


def _wide_run():
    """(mu0, field, dt) of the wide semi-Lagrangian run: uniform weights on
    the centre block of nodes, each axis of the field 0.6 before the block's
    centre line and -0.6 after it."""
    import numpy as np
    from mtlab import simplex
    from mtlab.velocity import VelocityField

    cells, half = TRI_CELLS, TRI_HALF_WIDTH
    mesh = simplex.structured_mesh((-half, -half), (half, half), (cells, cells))
    side = (cells - TRI_DATUM) // 2 + 1 + np.arange(TRI_DATUM)
    ids = (side[:, None] * (cells + 1) + side[None, :]).ravel()
    centre = 0.5 * (mesh.nodes[ids[0]] + mesh.nodes[ids[-1]])
    field = VelocityField(lambda t, x: np.where(x < centre, 0.6, -0.6), a_inf=1.0,
                          dims=2, name="bench-compressive")
    mu0 = simplex.NodeMeasure(mesh, dict.fromkeys(ids.tolist(), 1.0 / len(ids)))
    return mu0, field, TRI_CFL * mesh.hbar


def sl() -> dict:
    import numpy as np
    from mtlab import harness, schemes, simplex

    tri = harness.TriStudyConfig()
    N = tri.ladder[-1]
    steps, dt, h, state, advance, _ = tri.resolution(N)
    for n in range(steps):
        state = advance(n, state)
    xi = np.asarray(tri.speed)[None, :] * dt / h  # displacement in cells
    moves = simplex.kuhn_moves(2)

    def sl_window_step():
        rows = simplex.kuhn_rows(xi)
        schemes.apply_window(*state, rows.reshape(rows.shape + (1,)), moves)

    mu0, field, dt = _wide_run()
    box = state[1].shape
    return {
        f"window sl step N={N} {box[0]}x{box[1]}": _median_s(sl_window_step, per=CALLS),
        f"sl_run {TRI_CELLS}x{TRI_CELLS} mesh, {TRI_DATUM}x{TRI_DATUM} datum, "
        f"{TRI_STEPS} steps": _median_s(
            lambda: simplex.sl_run(mu0, field, TRI_STEPS, dt)),
    }


def exact() -> dict:
    from mtlab.flows import EXAMPLES, exact_solution

    ts = [(n + 1) * 0.00078125 for n in range(2560)]
    cases = {}
    for example in EXAMPLES:
        for method in ("quantile_fn", "measure"):
            call = getattr(exact_solution(example), method)

            def calls():
                for t in ts:
                    call(t)

            cases[f"exact {example} {method} per call"] = _median_s(calls) / len(ts)
    return cases


def _chain_case(kind: str, dims: int):
    """(mu0, spec, field) of a benchmark chain: a Dirac at the origin under
    the product step field a_i(x) = f(x_i), one-signed for upwind (0.6 left
    of 0, 0.4 right of it) and compressive for Rusanov (0.5, then -0.3), on
    sparse-chain-nd's grid width and CFL ratio of the scheme's coefficient
    bound."""
    import numpy as np
    from mtlab.measures import CartesianGrid, DiscreteMeasure
    from mtlab.schemes import SchemeSpec
    from mtlab.velocity import VelocityField

    left, right = (0.6, 0.4) if kind == "upwind" else (0.5, -0.3)
    a_inf = 0.8 * dims ** 0.5
    coef = a_inf if kind == "upwind" else 2.0 * a_inf
    grid = CartesianGrid(dx=(GRID_DX,) * dims, dt=GRID_CFL * GRID_DX / (coef * dims))
    field = VelocityField(lambda t, x: np.where(x < 0.0, left, right), a_inf=a_inf,
                          dims=dims, name="bench-steps")
    return DiscreteMeasure(grid, {(0,) * dims: 1.0}), SchemeSpec(kind), field


def chain(kind: str, dims: str, steps: str) -> dict:
    from mtlab import stochastic

    dims, steps = int(dims), int(steps)
    mu0, spec, field = _chain_case(kind, dims)
    tag = f"{kind} d={dims} steps={steps}"

    def one_pass():
        times = {}

        def clock(name, fn, *args):
            start = time.perf_counter()
            out = fn(*args)
            times[name] = time.perf_counter() - start
            return out

        kernels = clock(f"make_kernels {tag}", stochastic.make_kernels,
                        mu0, spec, field, steps)
        batch = clock(f"sample_paths {tag} paths={PATHS}",
                      stochastic.sample_paths, mu0, kernels, PATHS, 7)
        clock(f"increment_residual {tag} paths={PATHS}",
              stochastic.increment_residual, batch, field, mu0.grid, MIN_VISITS)
        clock(f"empirical_law {tag} paths={PATHS}",
              stochastic.empirical_law, batch, steps)
        return times

    return _medians(one_pass)


def runs() -> dict:
    from mtlab import schemes

    cases = [(_chain_case(kind, dims), f"schemes.run {kind} d={dims} steps={steps}",
              steps) for kind, dims, steps in SCHEME_RUNS]

    def one_pass():
        times = {}
        for (mu0, spec, field), name, steps in cases:
            start = time.perf_counter()
            schemes.run(mu0, spec, field, steps)
            times[name] = time.perf_counter() - start
        times["schemes.run sparse-chain-nd round"] = sum(times.values())
        return times

    return _medians(one_pass)


GROUPS = {"distances": distances, "studies": studies, "sl": sl, "exact": exact,
          "chain": chain, "runs": runs}
# the argv of each group's children
JOBS = [("distances",), ("studies",), ("sl",), ("exact",),
        *(("chain", kind, str(dims), str(steps)) for kind, dims, steps in CHAINS),
        ("runs",)]


def _alternate(srcs: dict, *argv: str) -> dict:
    """{label: [(seconds, stdout) of each run]} of `python argv` in K fresh
    interpreters per label, PYTHONPATH set to the label's source, the labels
    alternating and each first in turn."""
    outs = {label: [] for label in srcs}
    order = list(srcs.items())
    for k in range(K):
        for label, src in order[::-1] if k % 2 else order:
            env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
            start = time.perf_counter()
            out = subprocess.run([sys.executable, *argv], env=env, check=True,
                                 capture_output=True, text=True).stdout
            outs[label].append((time.perf_counter() - start, out))
    return outs


def _case(rs: list) -> dict:
    return {"median_s": statistics.median(rs), "min_s": min(rs), "runs_s": rs}


def _record(srcs: dict) -> dict:
    """{label: {cases, peak_rss_mb, children_peak_rss_mb}} of every job."""
    record = {label: {"cases": {}, "peak_rss_mb": {}, "children_peak_rss_mb": {}}
              for label in srcs}
    for job in JOBS:
        for label, outs in _alternate(srcs, "-c", CHILD, HERE, *job).items():
            children = [json.loads(out) for _, out in outs]
            rec, name = record[label], " ".join(job)
            for case in children[0]["cases"]:
                rec["cases"][case] = _case([c["cases"][case] for c in children])
            for key in ("peak_rss_mb", "children_peak_rss_mb"):
                rec[key][name] = [c[key] for c in children]
    for label, outs in _alternate(srcs, "-c", COLD_IMPORT).items():
        record[label]["cases"][COLD_CASE] = _case([s for s, _ in outs])
        record[label]["peak_rss_mb"][COLD_CASE] = [int(out) / 1024.0 for _, out in outs]
    study_script = os.path.join(HERE, "convergence_study.py")
    for label, outs in _alternate(srcs, study_script).items():
        record[label]["cases"][END_TO_END] = _case([s for s, _ in outs])
    return record


def _machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(HERE, "..", "src"),
                    help="directory that holds the mtlab package (label after)")
    ap.add_argument("--base", help="mtlab source of the parent commit (label "
                    "before); its runs alternate with those of --src")
    ap.add_argument("--out", required=True, help="JSON record to write; must not exist")
    args = ap.parse_args(argv)
    if os.path.exists(args.out):
        print(f"refusing to overwrite {args.out}", file=sys.stderr)
        return 2

    srcs = {"after": args.src} if args.base is None else {"before": args.base,
                                                          "after": args.src}
    start = time.perf_counter()
    runs = _record(srcs)
    payload = {
        "machine": _machine(),
        "method": (f"per case, the median of {REPEATS} runs inside each of K={K} "
                   "fresh interpreters per label (one run where a call takes over "
                   f"{LONG_S:g} s), the labels alternating, each first in turn; "
                   "speedup from min_s; time.perf_counter; see scripts/bench.py"),
        "wall_s": time.perf_counter() - start,
        "runs": runs,
    }
    after = runs["after"]["cases"]
    if "before" in runs:
        before = runs["before"]["cases"]
        payload["speedup"] = {name: before[name]["min_s"] / after[name]["min_s"]
                              for name in after}
    with open(args.out, "x") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    for name, case in after.items():
        ratio = payload.get("speedup", {}).get(name)
        print(f"{name:<56} {case['min_s'] * 1e3:10.3f} ms min "
              f"{case['median_s'] * 1e3:10.3f} ms median"
              + (f"  speedup {ratio:.3f}" if ratio else ""))
    print(f"{payload['wall_s']:.0f} s in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
