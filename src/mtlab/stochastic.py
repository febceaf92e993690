"""Markov-chain reading of the grid schemes.

Each scheme step is a row-stochastic transition kernel on multi-indices; the
scheme's weights are the chain's law.  A kernel is the rows window that one
step of the scheme's window loop (`schemes._advance`) applies, zero where no
source sits.  `make_kernels` records the kernels along that loop and
`propagate_law` runs the loop again on their rows, so chain and scheme share
one step.  `TransitionKernel.from_sources` builds a kernel from rows given
per source, as `simplex.kuhn_rows` gives the semi-Lagrangian chain's.

Trajectories are sampled with a counter-based generator (Philox keyed by seed
and step), so batches are reproducible and embarrassingly parallel.  Every
per-path operation is one O(count) array pass over integer keys: a state's
key is its C-order cell in a box, by one rule (`_cell_keys`), computed axis by
axis in intp on the per-axis columns, with the mask of the states in the box
when the caller asks for it.
  * A path finds its row as its cell in the kernel's window: its key there,
    the in-box mask and the window's source mask.
  * Paths are grouped by state through their keys in the box of the states,
    cast to the narrowest unsigned type that holds them, so numpy's stable
    sort is a radix sort for boxes of up to 2^16 cells.
  * A path's move is the number of cumulative row entries below its uniform
    draw, summed slot by slot over the (slots, cells) cumulative rows.
  * The increment diagnostics sum per state with no loop over the states in
    d >= 2: one `np.bincount` over the paths' state numbers adds each state's
    entries in path order, the order in which numpy sums the state's
    row-major (v, d) block; in d = 1 numpy sums that block pairwise, so each
    state's contiguous block is summed with `.sum()`.
  * Paths are stored axis-major: the (count, steps+1, d) array of a batch is
    the transpose of a C-order (d, steps+1, count) block, so every per-step,
    per-axis view `paths[:, n, i]` is one contiguous run of count entries and
    each pass over the paths of a step reads contiguous memory.

A batch's passes run in two lanes, the calling thread and one
`threading.Thread` beside it, when the batch holds at least
`_LANE_MIN_PATHS` paths and the affinity set two CPUs; otherwise the calling
thread runs both lanes' work in turn, through the same code.  numpy releases
the GIL in most of the array passes, so the lanes overlap, and every output
is bit for bit the serial loop's.
  * `sample_paths` draws step 0's states, then splits the paths into four
    ranges that start at multiples of 4.  The calling thread runs every
    step of ranges 0 and 2 and the lane those of 1 and 3, one `_chain_step`
    per range and step, in work arrays of one range that the calling thread
    allocates: memory that a thread frees stays in its own malloc arena, and
    four ranges rather than two keep those arrays a quarter of the batch.
    Philox4x64 is counter-based, four 64-bit words per counter and one word
    per draw, so a range that starts at path a skips ahead a / 4 counters and
    draws the words the serial pass would.  A missing row is reported as the
    serial pass reports it: the earliest step's, then the lowest path's.
  * `increment_residual` is a pipeline of two stages with a one-slot
    hand-off: the calling thread groups step n's states and evaluates the
    field there (stage A), while the lane computes step n - 1's increments,
    deviations and per-state sums in buffers allocated once per call (stage
    B).  The field is the only user code, so fields and tracers stay in the
    calling thread.  The stages' errors come in the serial order A(0), B(0),
    A(1), ...
No thread outlives a call, so `harness._worker_count` still sees one thread
when it decides whether to fork.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Executor, Future
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measures import CartesianGrid, DiscreteMeasure, MultiIndex
from .schemes import (
    SchemeSpec,
    _advance,
    _check_steps,
    _is_int,
    _scatter,
    bounding_box,
    check_cfl,
    measure_arrays,
    neighbor_moves,
    node_velocity,
    transition_rows,
    window_cells,
    window_rows,
)
from .velocity import VelocityField

ROW_SUM_TOL = 1e-14


def _cell_keys(states: np.ndarray, lo: np.ndarray, shape: tuple[int, ...],
               out: np.ndarray | None = None,
               inside: np.ndarray | None = None) -> np.ndarray:
    """C-order cell keys (intp) of the states (k, d) in the box of corner lo
    and the given shape, written into out when it is given; a key outside
    the box is meaningless.  Given a bool array inside (k,), also writes the
    mask of the states in the box there.  Computed axis by axis on the
    per-axis columns, which axis-major paths hold contiguous, in intp, so a
    key past 2^31 of int32 states does not overflow."""
    keys = np.empty(len(states), dtype=np.intp) if out is None else out
    for axis, (col, low, size) in enumerate(zip(states.T, lo.tolist(), shape)):
        if axis:
            keys *= size
            keys += col
            keys -= low
        else:
            np.subtract(col, low, out=keys, dtype=np.intp)
        if inside is not None:
            if axis:
                inside &= col >= low
            else:
                np.greater_equal(col, low, out=inside)
            inside &= col < low + size
    return keys


def _group(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of states (k, d) in lexicographic order, the group
    sizes, and the stable order of the rows by group, from one stable sort
    of the rows' keys.  The keys are cast to the narrowest unsigned type of
    the box, on which numpy's stable sort is a radix sort up to 16 bits;
    every state lies in its own bounding box, so no mask is built."""
    lo, shape = bounding_box(states)
    keys = _cell_keys(states, lo, shape)
    keys = keys.astype(np.min_scalar_type(math.prod(shape) - 1))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.r_[first, len(keys)])
    return np.column_stack(np.unravel_index(keys[first], shape)) + lo, counts, order


def check_rows(sources: np.ndarray, probs: np.ndarray) -> None:
    """ValueError naming the first source whose row (a column of probs
    (slots, m)) has a negative or NaN entry or misses 1 by more than
    ROW_SUM_TOL."""
    bad = np.flatnonzero((~(probs >= 0.0)).any(axis=0))
    if bad.size:
        raise ValueError(f"negative probability in row {sources[bad[0]].tolist()}")
    bad = np.flatnonzero(np.abs(probs.sum(axis=0) - 1.0) > ROW_SUM_TOL)
    if bad.size:
        raise ValueError(f"row {sources[bad[0]].tolist()} does not sum to 1")


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """One-step kernel of a grid scheme as the window that its step applies:
    rows[s, j] is the probability that the source at node lo + j makes move
    s of `moves` (S, d), by default the fixed neighbor order (stay, +e_1,
    -e_1, ..., +e_d, -e_d; see `schemes.neighbor_moves`), whose order is part
    of the reproducibility contract for sampling.  A cell where no source
    sits has a zero column; every source's column is checked (`check_rows`)."""

    n: int
    grid: CartesianGrid
    lo: np.ndarray
    rows: np.ndarray
    moves: np.ndarray | None = None

    def __post_init__(self):
        if self.moves is None:
            object.__setattr__(self, "moves", neighbor_moves(self.grid.dims))
        object.__setattr__(self, "_sources", self.rows.any(axis=0))
        check_rows(np.argwhere(self._sources) + self.lo, self.rows[:, self._sources])

    @classmethod
    def from_sources(cls, n, grid, idx, probs, moves=None) -> TransitionKernel:
        """The kernel whose sources idx (m, d) have the rows probs (S, m);
        ValueError for a bad row (`check_rows`) or a source given two rows,
        WindowError when their window's step would exceed the cell cap."""
        check_rows(idx, probs)
        lo, rows, cells = _scatter(idx, probs)
        if not np.array_equal(rows[(slice(None),) + cells], probs):
            raise ValueError("a repeated kernel source has two different rows")
        return cls(n, grid, lo, rows, moves)

    def locate(self, states: np.ndarray, out: np.ndarray | None = None,
               found: np.ndarray | None = None) -> np.ndarray:
        """C-order window cell of each state (k, d), written into out (intp,
        k) when it is given, with found (bool, k) as work array; KeyError
        names the first state without a row."""
        found = np.empty(len(states), dtype=bool) if found is None else found
        keys = _cell_keys(states, self.lo, self._sources.shape, out, found)
        found &= self._sources.ravel().take(keys, mode="clip")
        if not found.all():
            raise KeyError(tuple(int(v) for v in states[np.argmin(found)]))
        return keys

    def row(self, J: MultiIndex) -> tuple[tuple[MultiIndex, float], ...]:
        pos = int(self.locate(np.array([J]))[0])
        targets = (np.asarray(J) + self.moves).tolist()
        probs = self.rows.reshape(len(self.rows), -1)[:, pos].tolist()
        return tuple((tuple(t), p) for t, p in zip(targets, probs))


@dataclass(frozen=True)
class TrajectoryBatch:
    """count paths of multi-indices, shape (count, steps+1, d); int32 when
    max |J^0| + steps < 2^31 over the initial support, int64 otherwise.

    `sample_paths` stores them axis-major (the transpose of a C-order
    (d, steps+1, count) array), so `paths[:, n, i]` is contiguous; the
    functions that read a batch give the same results on a row-major copy."""

    seed: int
    count: int
    grid: CartesianGrid
    paths: np.ndarray


def kernel_of(
    spec: SchemeSpec,
    field: VelocityField,
    n: int,
    support: Iterable[MultiIndex] | np.ndarray,
    grid: CartesianGrid,
) -> TransitionKernel:
    """Kernel over the given support (multi-indices or an (m, d) integer
    array): the one `make_kernels` builds at step n on a law of this support."""
    check_cfl(spec, field, grid).require()
    idx = np.array([*support], dtype=np.int64).reshape(-1, grid.dims)
    return TransitionKernel.from_sources(n, grid, idx,
                                         transition_rows(spec, field, n, idx, grid))


def make_kernels(
    mu0: DiscreteMeasure,
    spec: SchemeSpec,
    field: VelocityField,
    steps: int,
) -> list[TransitionKernel]:
    """Per-step kernels of the scheme's run from mu0, along the run's window
    loop (`schemes._advance`): the rows of each step, on the law's support."""
    _check_steps(steps)
    grid, kernels = mu0.grid, []
    check_cfl(spec, field, grid).require()
    if not steps:
        return []

    def rows_at(n, lo, box):
        rows = window_rows(spec, field, n, lo, box.nonzero(), box.shape, grid)
        kernels.append(TransitionKernel(n, grid, lo, rows))
        return rows

    state = _scatter(*measure_arrays(mu0)[1:])[:2]
    advance = _advance(rows_at, None, 0.0)
    for n in range(steps):
        state = advance(n, state)
    return kernels


def propagate_law(mu: DiscreteMeasure, kernels: list) -> DiscreteMeasure:
    """Law after pushing mu through the kernels in order, each a
    `schemes._advance` step along the kernel's rows sliced to the law's
    window; KeyError names the law's first node (lexicographic) without a row."""
    if not kernels:
        return mu

    def rows_on(kernel, lo, box):
        # the trimmed box's cells all have rows, so it lies in the kernel's window
        kernel.locate(np.argwhere(box) + lo)
        start = (lo - kernel.lo).tolist()
        return kernel.rows[(slice(None),) + tuple(
            slice(a, a + size) for a, size in zip(start, box.shape))]

    state = _scatter(*measure_arrays(mu)[1:])[:2]
    for kernel in kernels:
        state = _advance(rows_on, kernel.moves, 0.0)(kernel, state)
    idx, w = window_cells(*state)
    return DiscreteMeasure._of_window(
        mu.grid, dict(zip(map(tuple, idx.tolist()), w.tolist())))


def _uniforms(seed: int, n: int, count: int, start: int = 0,
              out: np.ndarray | None = None) -> np.ndarray:
    """count uniform draws in [0, 1) from Philox keyed by the words (seed, n),
    from draw start of its stream on, written into out when it is given.
    Philox4x64 makes four 64-bit words per counter and a draw takes one word,
    so the stream skips ahead start // 4 counters and drops start % 4 draws.
    The key is built as uint64: numpy makes a list of a Python int at or above
    2^63 and a small one float64, which rounds the seed."""
    bits = np.random.Philox(key=np.array([seed, n], dtype=np.uint64))
    bits.advance(int(start) // 4)  # Philox.advance refuses numpy ints
    gen = np.random.Generator(bits)
    if start % 4:
        gen.random(start % 4)
    return gen.random(count, out=out)


# the fewest paths for which a call runs in two lanes (see the module
# docstring).  Min of 40 calls per lane count, alternating, on a 2-core host
# (numpy 2.4.6), one lane -> two, for upwind d = 1 (12 steps) and Rusanov
# d = 2 (8 steps): `sample_paths` took 6.1 -> 9.0 and 7.4 -> 10.1 ms at 2^14
# paths, 7.8 -> 11.3 and 10.6 -> 18.4 ms at 2^15, 16.2 -> 16.6 and
# 13.8 -> 15.5 ms at 2^16, 28.5 -> 22.1 and 21.3 -> 17.6 ms at 10^5;
# `increment_residual` 7.1 -> 9.7 and 7.1 -> 12.5, 9.7 -> 10.0 and
# 12.9 -> 15.3, 22.9 -> 17.7 and 21.0 -> 16.9, 37.5 -> 24.5 and 32.3 -> 23.6.
# Both lanes take the GIL between their array passes, and a pass over a
# range of 2^12 paths is too short to repay the hand-off.
_LANE_MIN_PATHS = 2 ** 16


class _OneLane(Executor):
    """The executor of a call that runs in one lane: each job runs at submit,
    in the calling thread, and its future holds its value or exception."""

    def submit(self, fn, /, *args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _second_lane(count: int) -> Executor:
    """The executor beside the calling thread for a pass over count paths:
    one thread when there are at least `_LANE_MIN_PATHS` of them and the
    affinity set holds two CPUs, the calling thread itself otherwise.  The
    thread ends when its `with` block exits."""
    if count >= _LANE_MIN_PATHS and len(os.sched_getaffinity(0)) >= 2:
        # imported here, so that a process that never runs two lanes (every
        # study) does not load it
        from concurrent.futures import ThreadPoolExecutor
        return ThreadPoolExecutor(max_workers=1)
    return _OneLane()


def _chain_step(kernel: TransitionKernel, cdfs: np.ndarray, moves: np.ndarray,
                seed: int, n: int, start: int, cur: np.ndarray, nxt: np.ndarray,
                work: tuple[np.ndarray, ...]) -> None:
    """Step n of the chain for the paths start, start + 1, ... of a batch:
    cur (k, d) holds their states at step n, axis-major, and their states at
    step n + 1 are written into nxt (k, d).  cdfs are the kernel's cumulative
    rows (S, cells) and moves its moves (d, S) in the states' dtype.  The
    paths draw Philox's words start, start + 1, ... under the key
    (seed, n + 1).  work is (cells, mask, u, cum, choice): intp, bool,
    float64, float64 and intp arrays of at least k entries, the only arrays
    written besides nxt.  KeyError names the first state without a row."""
    k = len(cur)
    cells, mask, u, cum, choice = (w[:k] for w in work)
    kernel.locate(cur, cells, mask)
    _uniforms(seed, n + 1, k, start, u)
    # the move is the number of cumulative entries below u; the last slot's
    # is taken as 1, above every u in [0, 1), so it never counts
    choice.fill(0)
    for cdf in cdfs[:-1]:
        np.take(cdf, cells, out=cum, mode="clip")
        np.less(cum, u, out=mask)
        choice += mask
    for i, move in enumerate(moves):
        np.take(move, choice, out=nxt[:, i], mode="clip")
        nxt[:, i] += cur[:, i]


def _sample_lane(paths: np.ndarray, plans: list, seed: int,
                 ranges: list[tuple[int, int]],
                 work: tuple[np.ndarray, ...]) -> list[tuple[int, int, KeyError]]:
    """Runs every chain step for the paths of each range [a, b) of the batch,
    from their states at step 0.  Returns the KeyError of each range where a
    state lacks a row, as (step, a, error)."""
    failures = []
    for a, b in ranges:
        try:
            for n, (kernel, cdfs, moves) in enumerate(plans):
                _chain_step(kernel, cdfs, moves, seed, n, a, paths[a:b, n, :],
                            paths[a:b, n + 1, :], work)
        except KeyError as err:
            failures.append((n, a, err))
    return failures


def sample_paths(
    mu0: DiscreteMeasure,
    kernels: list[TransitionKernel],
    count: int,
    seed: int,
) -> TrajectoryBatch:
    """i.i.d. paths, K^0 ~ mu0, transitions per the kernels.

    Uniform draws for step n come from Philox keyed by (seed, n+1), consumed
    in path-index order, so batches are reproducible and each step can be
    generated independently.  The paths run in four ranges, two per lane
    (see the module docstring); KeyError names the state without a row that
    the serial loop would name, that of the earliest step and then of the
    lowest path.  ValueError for a count that is not a positive int or a
    seed that is not an int in [0, 2^64), the range of a Philox key word.
    """
    if not _is_int(count) or count < 1:
        raise ValueError(f"count must be a positive int, not {count!r}")
    if not _is_int(seed) or not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must be a nonnegative int below 2^64, not {seed!r}")
    support = np.array(mu0.support(), dtype=np.int64)
    steps, dims = len(kernels), mu0.grid.dims
    dtype = np.int32 if int(np.abs(support).max()) + steps < 2 ** 31 else np.int64
    paths = np.empty((dims, steps + 1, count), dtype=dtype).T
    cdf = np.cumsum(mu0.weight_array())
    cdf[-1] = 1.0
    u = _uniforms(seed, 0, count)
    paths[:, 0, :] = support[np.searchsorted(cdf, u, side="right")]
    plans = [(kernel, np.cumsum(kernel.rows, axis=0).reshape(len(kernel.rows), -1),
              kernel.moves.T.astype(dtype)) for kernel in kernels]
    # four ranges that start at multiples of 4, the Philox counter's words
    edges = [4 * (count * c // 16) for c in range(4)] + [count]
    ranges = [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
    size = max(b - a for a, b in ranges)
    work = [tuple(np.empty(size, dtype=t) for t in
                  (np.intp, bool, np.float64, np.float64, np.intp)) for _ in range(2)]
    args = (paths, plans, seed)
    with _second_lane(count) as lane:
        other = lane.submit(_sample_lane, *args, ranges[1::2], work[1])
        failures = _sample_lane(*args, ranges[::2], work[0]) + other.result()
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    return TrajectoryBatch(seed=seed, count=count, grid=mu0.grid, paths=paths)


@dataclass(frozen=True)
class StepIncrementStats:
    """Per-step martingale-increment diagnostics for one trajectory batch."""

    n: int
    per_state: dict[MultiIndex, tuple[int, np.ndarray, float]]
    skipped: dict[MultiIndex, int]
    max_abs_h: float
    mean_abs_h: float
    mean_sq_h: float


def _group_drift(paths: np.ndarray, n: int, field: VelocityField,
                 grid: CartesianGrid) -> tuple[np.ndarray, ...]:
    """The states of step n grouped (`_group`), their visits, the path order
    by state, each path's state number, and dt times the states' velocity;
    the one stage of `increment_residual` that calls the field."""
    states, visits, order = _group(paths[:, n, :])
    drift = node_velocity(field, n, states, grid) * grid.dt
    inv = np.empty(len(order), dtype=np.intp)
    inv[order] = np.repeat(np.arange(len(states)), visits)
    return states, visits, order, inv, drift


def _increment_stats(paths: np.ndarray, n: int, grouped: tuple[np.ndarray, ...],
                     dx: tuple[float, ...], min_visits: int,
                     work: tuple[np.ndarray, ...]) -> StepIncrementStats:
    """Step n's increment statistics from its `_group_drift`, computed in the
    work arrays (h (d, count), sq, tmp and, for d = 1, gathered, float64)."""
    states, visits, order, inv, drift = grouped
    h, sq, tmp, gathered = work
    # h axis by axis in path order, and |h|^2 summed over the axes in turn
    for i, (h_i, step) in enumerate(zip(h, dx)):
        np.subtract(paths[:, n + 1, i], paths[:, n, i], out=h_i)
        h_i *= step
        np.take(drift[:, i], inv, out=tmp, mode="clip")
        h_i -= tmp
        if i:
            np.multiply(h_i, h_i, out=tmp)
            sq += tmp
        else:
            np.multiply(h_i, h_i, out=sq)
    habs = np.sqrt(sq, out=sq)
    # per-state sums of a per-path column x, as numpy sums axis 0 of the
    # state's row-major (v, d) block hs, so the means and stderrs are bit
    # for bit hs.mean(axis=0) and hs.std(axis=0, ddof=1): pairwise over
    # the state's contiguous block for d = 1, in path order for d >= 2
    if gathered is not None:
        ends = np.cumsum(visits).tolist()
        bounds = list(zip([0, *ends[:-1]], ends))

        def by_state(x):
            np.take(x, order, out=gathered, mode="clip")
            return np.array([gathered[a:b].sum() for a, b in bounds])
    else:
        def by_state(x):
            return np.bincount(inv, weights=x, minlength=len(states))

    mean, var = [], []
    for h_i in h:  # numpy's _var: squared deviations from the mean
        mean.append(by_state(h_i) / visits)
        np.take(mean[-1], inv, out=tmp, mode="clip")
        dev = np.subtract(h_i, tmp, out=tmp)
        var.append(by_state(np.square(dev, out=dev)) / np.maximum(visits - 1, 1))
    mean = np.column_stack(mean)
    stderr = np.where(visits > 1, np.sqrt(var).max(axis=0) / np.sqrt(visits), 0.0)
    per_state: dict[MultiIndex, tuple[int, np.ndarray, float]] = {}
    skipped: dict[MultiIndex, int] = {}
    for J, v, m, se in zip(map(tuple, states.tolist()), visits.tolist(), mean,
                           stderr.tolist()):
        if v < min_visits:
            skipped[J] = v
        else:
            per_state[J] = (v, m, se)
    return StepIncrementStats(
        n=n,
        per_state=per_state,
        skipped=skipped,
        max_abs_h=float(habs.max()),
        mean_abs_h=float(habs.mean()),
        mean_sq_h=float(np.multiply(habs, habs, out=tmp).mean()),
    )


def increment_residual(
    batch: TrajectoryBatch,
    field: VelocityField,
    grid: CartesianGrid,
    min_visits: int = 10,
) -> list[StepIncrementStats]:
    """Empirical mean of X^{n+1} - X^n - dt * a^n_J per occupied state J.

    Also reports the empirical max |h^n| and E|h^n|^p for p in {1, 2}, where
    h^n is the centered one-step increment.  States with fewer than
    min_visits visits are excluded from the mean test and reported apart;
    ValueError for a min_visits that is not a positive int.  Two stages, in
    two lanes (see the module docstring): the calling thread groups step n
    and evaluates the field there while the lane computes step n - 1's
    statistics; a failure is the serial loop's, in the stages' order.
    """
    if batch.count < 1:
        raise ValueError("empty batch")
    if not _is_int(min_visits) or min_visits < 1:
        raise ValueError(f"min_visits must be a positive int, not {min_visits!r}")
    out, pending = [], None
    paths = batch.paths
    steps, dims, count = paths.shape[1] - 1, paths.shape[2], paths.shape[0]
    work = (np.empty((dims, count)), np.empty(count), np.empty(count),
            np.empty(count) if dims == 1 else None)
    with _second_lane(count) as lane:
        for n in range(steps):
            try:
                grouped = _group_drift(paths, n, field, grid)
            finally:
                if pending is not None:
                    out.append(pending.result())
            pending = lane.submit(_increment_stats, paths, n, grouped, grid.dx,
                                  min_visits, work)
        if pending is not None:
            out.append(pending.result())
    return out


def empirical_law(batch: TrajectoryBatch, n: int) -> DiscreteMeasure:
    """Empirical distribution of the batch at step n, for n in 0..steps."""
    steps = batch.paths.shape[1] - 1
    if not _is_int(n) or not 0 <= n <= steps:
        raise ValueError(f"step {n!r} is outside 0..{steps}")
    states, counts, _ = _group(batch.paths[:, n, :])
    weights = dict(zip(map(tuple, states.tolist()), (counts / batch.count).tolist()))
    return DiscreteMeasure(batch.grid, weights)


def total_variation(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    keys = set(mu.weights) | set(nu.weights)
    return 0.5 * math.fsum(
        abs(mu.weights.get(J, 0.0) - nu.weights.get(J, 0.0)) for J in sorted(keys)
    )
