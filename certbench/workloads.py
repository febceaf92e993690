"""The benchmark's workloads: inputs made from a seed, calls into mtlab, checks.

A workload is a list of operations.  An operation calls into mtlab only
through a Clock, which sums the wall time of those calls; its check then
compares the outputs with properties computed apart from mtlab (oracles.py).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles


class Clock:
    """Sums the wall time spent inside the calls made through it."""

    def __init__(self):
        self.seconds = 0.0

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


@dataclass
class Op:
    """One study, scheme run, chain run or sampling batch, with its checks.

    run(clock, state) returns the outputs; check(outputs, state) returns
    failure messages.  state holds the outputs of the round's earlier
    operations by name.  known_fault marks an operation whose check fails
    because of a known fault in the program, so failing it is expected.
    """

    name: str
    run: Callable
    check: Callable
    known_fault: bool = False


# ---------------------------------------------------------------------------
# inputs


class StepField:
    """a_i(x) = vals_i[number of cuts_i <= x_i]: each axis a nonincreasing
    step function, so <a(x) - a(y), x - y> <= 0 (OSL with modulus 0)."""

    def __init__(self, cuts, vals):
        self.cuts, self.vals = cuts, vals

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if len(self.cuts) == 1:
            return self.vals[0][np.searchsorted(self.cuts[0], x, side="right")]
        out = np.empty_like(x)
        for i, (cuts, vals) in enumerate(zip(self.cuts, self.vals)):
            out[..., i] = vals[np.searchsorted(cuts, x[..., i], side="right")]
        return out


def step_field(rng, dims: int, one_signed: bool) -> StepField:
    """Random step field with |a_i| <= 0.7.  one_signed fields keep one sign
    per axis and |a_i| >= 0.3, so an upwind step moves mass off every node
    along every axis; the others may change sign and compress mass."""
    cuts, vals = [], []
    for _ in range(dims):
        c = np.sort(rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 4))))
        if one_signed:
            v = np.sort(rng.uniform(0.3, 0.7, size=len(c) + 1))
            v = v[::-1] if rng.random() < 0.5 else -v
        else:
            v = np.sort(rng.uniform(-0.7, 0.7, size=len(c) + 1))[::-1]
        cuts.append(c)
        vals.append(v)
    return StepField(cuts, vals)


def velocity_field(m, field: StepField, dims: int, a_inf: float):
    return m.velocity.VelocityField(lambda t, x: field(x), a_inf=a_inf,
                                    dims=dims, name="bench-steps")


def _arrays(mu) -> tuple[np.ndarray, np.ndarray]:
    """(idx, w) of a grid or node measure."""
    keys = list(mu.weights)
    return np.array(keys, dtype=np.int64), np.array([mu.weights[k] for k in keys])


# ---------------------------------------------------------------------------
# ladder-1d: the headline grid studies through harness.run_study

STUDIES = [
    ("example1-w1", dict(example="example1", distance="w1")),
    ("example2-w1", dict(example="example2", distance="w1")),
    ("example2-l1", dict(example="example2", distance="l1")),
    ("example3-w1", dict(example="example3", distance="w1")),
    ("example1-rusanov", dict(example="example1", scheme="rusanov")),
    ("binomial-w1", dict(example="binomial")),
    ("example1-wp2", dict(example="example1", distance="wp(2)",
                          ladder=(100, 200, 400, 800))),
]


def _study_steps(cfg, N: int) -> int:
    """Steps to T at resolution N, in exact arithmetic."""
    dt = Fraction(cfg.cfl) * (Fraction(cfg.domain[1]) - Fraction(cfg.domain[0])) / N
    return math.floor(Fraction(cfg.T) / dt)


def _check_study(name, cfg, rep, state) -> list[str]:
    ns = [r.N for r in rep.rows]
    errs = [r.error for r in rep.rows]
    if ns != list(cfg.ladder):
        return [f"{name}: rows for N={ns}, ladder was {list(cfg.ladder)}"]
    window = oracles.ORDER_ONE if name == "example2-w1" else oracles.ORDER_HALF
    out = oracles.check_order(name, ns, errs, window)
    out += oracles.check_finite(f"{name} envelope", [r.envelope_c for r in rep.rows])
    if name == "binomial-w1":
        dxs = [(cfg.domain[1] - cfg.domain[0]) / N for N in ns]
        out += oracles.check_binomial(ns, dxs, [_study_steps(cfg, N) for N in ns],
                                      errs)
    pair = ("example1-w1", "example1-wp2")
    if name in pair and all(p in state for p in pair):
        w1, w2 = (state[p].rows for p in pair)
        out += oracles.check_w1_le_w2([r.N for r in w1], [r.error for r in w1],
                                      [r.N for r in w2], [r.error for r in w2])
    return out


def ladder_1d(m, seed: int, outdir: str) -> list[Op]:
    """The studies are the paper's fixed examples; the seed sets their order
    and the config's recorded seed."""
    order = np.random.default_rng(seed).permutation(len(STUDIES))
    ops = []
    for k in order:
        name, params = STUDIES[k]
        cfg = m.harness.StudyConfig(seed=seed, **params)
        ops.append(Op(name,
                      run=lambda clock, state, cfg=cfg: clock(m.harness.run_study, cfg),
                      check=lambda rep, state, name=name, cfg=cfg:
                      _check_study(name, cfg, rep, state)))
    return ops


# ---------------------------------------------------------------------------
# sparse-chain-nd: schemes.step on sparse measures and the Markov chain

GRID_DX = 1.0 / 16.0
GRID_CFL = 0.9
SCHEME_RUNS = [("upwind", 1, 300), ("rusanov", 1, 150), ("upwind", 2, 60),
               ("rusanov", 2, 36), ("upwind", 3, 24), ("rusanov", 3, 14)]
CHAINS = [("upwind", 1, 12), ("rusanov", 2, 8)]
PATHS = 100_000
MIN_VISITS = 100


@dataclass
class GridCase:
    kind: str
    dims: int
    steps: int
    field: StepField
    a_inf: float
    dt: float
    vfield: object
    mu0: object
    spec: object


def _grid_case(m, rng, kind: str, dims: int, steps: int) -> GridCase:
    """Dirac on a random node of a random step field.  Upwind gets a
    one-signed field and Rusanov a sign-changing one; with |a_i| < a_inf and
    CFL 0.9 every node feeds every neighbour the scheme can reach, so the
    support after n steps is the full simplex (upwind) or l1-ball (Rusanov)
    of radius n, whatever the seed."""
    field = step_field(rng, dims, one_signed=(kind == "upwind"))
    a_inf = 0.8 * math.sqrt(dims)
    coef = a_inf if kind == "upwind" else 2.0 * a_inf
    dt = GRID_CFL * GRID_DX / (coef * dims)
    grid = m.measures.CartesianGrid(dx=(GRID_DX,) * dims, dt=dt)
    J0 = tuple(int(v) for v in rng.integers(-4, 5, size=dims))
    return GridCase(kind, dims, steps, field, a_inf, dt,
                    velocity_field(m, field, dims, a_inf),
                    m.measures.DiscreteMeasure(grid, {J0: 1.0}),
                    m.schemes.SchemeSpec(kind))


def _check_grid_history(case: GridCase, hist) -> list[str]:
    if len(hist) != case.steps + 1:
        return [f"run returned {len(hist)} measures for {case.steps} steps"]
    return oracles.check_grid_run([_arrays(mu) for mu in hist],
                                  (GRID_DX,) * case.dims, case.dt, case.field)


def _sampling_check(case: GridCase, out, state, chain_name) -> list[str]:
    batch, stats, emp = out
    _, law, laws = state[chain_name]
    d, count = case.dims, batch.count
    lam = np.full(d, case.dt / GRID_DX)
    failures = []
    if batch.paths.shape != (count, case.steps + 1, d):
        failures.append(f"paths of shape {batch.paths.shape}")
    moves = np.abs(np.diff(batch.paths, axis=1)).sum(axis=2)
    if moves.max() > 1:
        failures.append("a path moves more than one axis step at once")
    tests = d * sum(len(mu.weights) for mu in laws[:-1])
    per_step = []
    for st in stats:
        if sum(v for v, _, _ in st.per_state.values()) + sum(st.skipped.values()) \
                != count:
            failures.append(f"step {st.n}: visits do not add up to {count}")
        rows = []
        for J, (visits, mean, _) in st.per_state.items():
            a = np.atleast_1d(case.field(np.array(J, dtype=float) * GRID_DX))
            right, left = oracles.move_probabilities(case.kind, a, case.a_inf, lam)
            var = GRID_DX ** 2 * ((right + left) - (right - left) ** 2)
            bound = GRID_DX + case.dt * np.abs(a)
            rows.append((J, visits, mean, np.sqrt(np.maximum(var, 0.0)), bound))
        per_step.append(rows)
    failures += oracles.check_increments(per_step, [st.max_abs_h for st in stats],
                                         GRID_DX, tests)
    failures += oracles.check_empirical_law(dict(emp.weights), dict(law.weights),
                                            count)
    return failures


def sparse_chain_nd(m, seed: int, outdir: str) -> list[Op]:
    rng = np.random.default_rng(seed)
    ops = []
    for kind, dims, steps in SCHEME_RUNS:
        case = _grid_case(m, rng, kind, dims, steps)
        ops.append(Op(f"{kind}-d{dims}",
                      run=lambda clock, state, c=case:
                      clock(m.schemes.run, c.mu0, c.spec, c.vfield, c.steps),
                      check=lambda hist, state, c=case: _check_grid_history(c, hist)))
    for k, (kind, dims, steps) in enumerate(CHAINS):
        case = _grid_case(m, rng, kind, dims, steps)
        chain, sample = f"chain-{kind}-d{dims}", f"sample-{kind}-d{dims}"

        def run_chain(clock, state, c=case):
            kernels = clock(m.stochastic.make_kernels, c.mu0, c.spec, c.vfield, c.steps)
            law = clock(m.stochastic.propagate_law, c.mu0, kernels)
            laws = clock(m.schemes.run, c.mu0, c.spec, c.vfield, c.steps)
            return kernels, law, laws

        def check_chain(out, state, c=case):
            kernels, law, laws = out
            if len(kernels) != c.steps:
                return [f"{len(kernels)} kernels for {c.steps} steps"]
            return (oracles.check_same_law(dict(law.weights), dict(laws[-1].weights))
                    + _check_grid_history(c, laws))

        def run_sample(clock, state, c=case, chain=chain, sample_seed=seed * 16 + k):
            kernels = state[chain][0]
            batch = clock(m.stochastic.sample_paths, c.mu0, kernels, PATHS, sample_seed)
            stats = clock(m.stochastic.increment_residual, batch, c.vfield,
                          c.mu0.grid, MIN_VISITS)
            emp = clock(m.stochastic.empirical_law, batch, c.steps)
            return batch, stats, emp

        ops.append(Op(chain, run=run_chain, check=check_chain))
        ops.append(Op(sample, run=run_sample,
                      check=lambda out, state, c=case, chain=chain:
                      _sampling_check(c, out, state, chain)))
    return ops


# ---------------------------------------------------------------------------
# tri-sl: the triangulated semi-Lagrangian study and one wide run

TRI_CELLS = 80
TRI_HALF_WIDTH = 5.0
TRI_DATUM = 40
TRI_STEPS = 12
TRI_CFL = 0.9


def split_square_mesh(rng):
    """Nodes and triangles of a square grid whose cells are each cut along a
    random diagonal, shifted by a random sub-cell offset.  Every triangle is
    right isosceles, so the smallest height is h / sqrt(2) for any seed."""
    n = TRI_CELLS
    h = 2.0 * TRI_HALF_WIDTH / n
    axis = np.linspace(-TRI_HALF_WIDTH, TRI_HALF_WIDTH, n + 1)
    off = rng.uniform(-0.5 * h, 0.5 * h, size=2)
    gx, gy = np.meshgrid(axis + off[0], axis + off[1])
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    iy, ix = np.divmod(np.arange(n * n), n)
    v00 = iy * (n + 1) + ix
    v10, v01 = v00 + 1, v00 + n + 1
    v11 = v01 + 1
    flip = rng.random(n * n) < 0.5
    first = np.where(flip[:, None], np.column_stack([v00, v10, v01]),
                     np.column_stack([v00, v10, v11]))
    second = np.where(flip[:, None], np.column_stack([v10, v11, v01]),
                      np.column_stack([v00, v11, v01]))
    return nodes, np.concatenate([first, second]), h


def compressive_field(rng, centre, h) -> StepField:
    """Step field that points towards the datum's centre lines: per axis,
    cuts at the centre and at a seeded whole number of cells either side of
    it (all midway between node lines), values from [0.5, 0.7] and [0.3, 0.5]
    before the centre and their negative ranges after it.  Nonincreasing, so
    OSL with modulus 0.  Every node moves by at least 0.3 dt along each axis,
    half the datum's columns and half its rows each way, so the support stays
    the datum and the stepping work does not depend on the seed."""
    cuts, vals = [], []
    for c in centre:
        k = int(rng.integers(4, TRI_DATUM // 2 - 3))
        cuts.append(np.array([c - k * h, c, c + k * h]))
        hi, lo = rng.uniform(0.5, 0.7, size=2), rng.uniform(0.3, 0.5, size=2)
        vals.append(np.array([hi[0], lo[0], -lo[1], -hi[1]]))
    return StepField(cuts, vals)


def _check_wide(nodes, dt, field, hist) -> list[str]:
    if len(hist) != TRI_STEPS + 1:
        return [f"sl_run returned {len(hist)} measures for {TRI_STEPS} steps"]
    return oracles.check_node_run([_arrays(mu) for mu in hist], nodes, dt, field)


def _check_tri_study(cfg, rep) -> list[str]:
    ns = [r.N for r in rep.rows]
    if ns != list(cfg.ladder):
        return [f"tri study rows for N={ns}, ladder was {list(cfg.ladder)}"]
    return oracles.check_order("tri study", ns, [r.error for r in rep.rows],
                               oracles.ORDER_HALF)


def _check_report(cfg, paths) -> list[str]:
    with open(paths[1]) as fh:
        config = json.load(fh)["config"]
    expected = json.loads(json.dumps(dataclasses.asdict(cfg)))
    return oracles.check_report_echo(config, expected)


def tri_sl(m, seed: int, outdir: str) -> list[Op]:
    """run_tri_study keeps its default config; the seed makes the wide run's
    mesh, field and datum."""
    rng = np.random.default_rng(seed)
    cfg = m.harness.TriStudyConfig()
    nodes, triangles, h = split_square_mesh(rng)
    dt = TRI_CFL * (h / math.sqrt(2.0))
    n = TRI_CELLS + 1
    cx, cy = TRI_CELLS // 2 + rng.integers(-4, 5, size=2) - TRI_DATUM // 2
    block = ((cy + np.arange(TRI_DATUM))[:, None] * n
             + (cx + np.arange(TRI_DATUM))[None, :]).ravel()
    # midway between the datum's two middle node columns and rows
    centre = 0.5 * (nodes[block[0]] + nodes[block[-1]])
    field = compressive_field(rng, centre, h)
    raw = rng.uniform(0.5, 1.5, size=block.size)
    weights = dict(zip(block.tolist(), (raw / math.fsum(raw)).tolist()))
    vfield = velocity_field(m, field, 2, 1.0)
    prefix = os.path.join(outdir, "tri-report")

    def run_wide(clock, state):
        mesh = clock(m.simplex.TriMesh, nodes, triangles)
        mu0 = clock(m.simplex.NodeMeasure, mesh, weights)
        return clock(m.simplex.sl_run, mu0, vfield, TRI_STEPS, dt)

    return [
        Op("tri-study", run=lambda clock, state: clock(m.harness.run_tri_study, cfg),
           check=lambda rep, state: _check_tri_study(cfg, rep)),
        Op("wide-sl-run", run=run_wide,
           check=lambda hist, state: _check_wide(nodes, dt, field, hist)),
        Op("tri-report",
           run=lambda clock, state: clock(m.harness.emit_report, state["tri-study"],
                                          prefix),
           check=lambda paths, state: _check_report(cfg, paths), known_fault=True),
    ]


WORKLOADS = {"ladder-1d": ladder_1d, "sparse-chain-nd": sparse_chain_nd,
             "tri-sl": tri_sl}
