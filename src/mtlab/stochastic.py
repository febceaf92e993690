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
axis in intp on the per-axis columns, with the mask of the states in the box.
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
"""

from __future__ import annotations

import math
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


def _cell_keys(states: np.ndarray, lo: np.ndarray,
               shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """C-order cell keys (intp) of the states (k, d) in the box of corner lo
    and the given shape, and the mask of the states inside it; a key outside
    the box is meaningless.  Computed axis by axis on the per-axis columns,
    which axis-major paths hold contiguous, in intp, so a key past 2^31 of
    int32 states does not overflow."""
    keys, inside = None, np.ones(len(states), dtype=bool)
    for col, low, size in zip(states.T, lo.tolist(), shape):
        rel = np.subtract(col, low, dtype=np.intp)
        inside &= (rel >= 0) & (rel < size)
        if keys is None:
            keys = rel
        else:
            keys *= size
            keys += rel
    return keys, inside


def _group(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of states (k, d) in lexicographic order, the group
    sizes, and the stable order of the rows by group, from one stable sort
    of the rows' keys.  The keys are cast to the narrowest unsigned type of
    the box, on which numpy's stable sort is a radix sort up to 16 bits."""
    lo, shape = bounding_box(states)
    keys = _cell_keys(states, lo, shape)[0]
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

    def locate(self, states: np.ndarray) -> np.ndarray:
        """C-order window cell of each state (k, d); KeyError names the first
        state without a row."""
        keys, inside = _cell_keys(states, self.lo, self._sources.shape)
        found = inside & self._sources.ravel().take(keys, mode="clip")
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


def _uniforms(seed: int, n: int, count: int) -> np.ndarray:
    """count uniform draws in [0, 1) from Philox keyed by the words (seed, n).
    The key is built as uint64: numpy makes a list of a Python int at or above
    2^63 and a small one float64, which rounds the seed."""
    key = np.array([seed, n], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


def sample_paths(
    mu0: DiscreteMeasure,
    kernels: list[TransitionKernel],
    count: int,
    seed: int,
) -> TrajectoryBatch:
    """i.i.d. paths, K^0 ~ mu0, transitions per the kernels.

    Uniform draws for step n come from Philox keyed by (seed, n+1), consumed
    in path-index order, so batches are reproducible and each step can be
    generated independently.  ValueError for a count that is not a positive
    int or a seed that is not an int in [0, 2^64), the range of a Philox key
    word.
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
    for n, kernel in enumerate(kernels):
        cdfs = np.cumsum(kernel.rows, axis=0).reshape(len(kernel.rows), -1)
        cells = kernel.locate(paths[:, n, :])
        u = _uniforms(seed, n + 1, count)
        # the move is the number of cumulative entries below u; the last
        # slot's is taken as 1, above every u in [0, 1), so it never counts
        choice = np.zeros(count, dtype=np.intp)
        for cdf in cdfs[:-1]:
            choice += cdf[cells] < u
        for i, move in enumerate(kernel.moves.T.astype(dtype)):
            np.add(paths[:, n, i], move[choice], out=paths[:, n + 1, i])
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
    ValueError for a min_visits that is not a positive int.
    """
    if batch.count < 1:
        raise ValueError("empty batch")
    if not _is_int(min_visits) or min_visits < 1:
        raise ValueError(f"min_visits must be a positive int, not {min_visits!r}")
    out = []
    steps, dims = batch.paths.shape[1] - 1, batch.paths.shape[2]
    for n in range(steps):
        cur = batch.paths[:, n, :]
        states, visits, order = _group(cur)
        drift = node_velocity(field, n, states, grid) * grid.dt
        inv = np.empty(len(order), dtype=np.intp)
        inv[order] = np.repeat(np.arange(len(states)), visits)
        # h axis by axis in path order, and |h|^2 summed over the axes in turn
        h = [(batch.paths[:, n + 1, i] - cur[:, i]) * dx - drift[:, i][inv]
             for i, dx in enumerate(grid.dx)]
        sq = h[0] * h[0]
        for h_i in h[1:]:
            sq += h_i * h_i
        habs = np.sqrt(sq)
        # per-state sums of a per-path column x, as numpy sums axis 0 of the
        # state's row-major (v, d) block hs, so the means and stderrs are bit
        # for bit hs.mean(axis=0) and hs.std(axis=0, ddof=1): pairwise over
        # the state's contiguous block for d = 1, in path order for d >= 2
        if dims == 1:
            ends = np.cumsum(visits).tolist()
            bounds = list(zip([0, *ends[:-1]], ends))

            def by_state(x):
                x = x[order]
                return np.array([x[a:b].sum() for a, b in bounds])
        else:
            def by_state(x):
                return np.bincount(inv, weights=x, minlength=len(states))

        mean, var = [], []
        for h_i in h:  # numpy's _var: squared deviations from the mean
            mean.append(by_state(h_i) / visits)
            dev = h_i - mean[-1][inv]
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
        out.append(
            StepIncrementStats(
                n=n,
                per_state=per_state,
                skipped=skipped,
                max_abs_h=float(habs.max()),
                mean_abs_h=float(habs.mean()),
                mean_sq_h=float((habs * habs).mean()),
            )
        )
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
