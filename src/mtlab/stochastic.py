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
key is its C-order cell in a bounding box.
  * A path finds its row as its cell in the kernel's window: an offset, a
    ravel and the window's source mask.
  * Paths are grouped by state through their keys in the box of the states,
    cast to the narrowest unsigned type that holds them, so numpy's stable
    sort is a radix sort for boxes of up to 2^16 cells.
  * A path's move is the number of cumulative row entries below its uniform
    draw, summed slot by slot over the (slots, cells) cumulative rows.
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


def _group(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of states (k, d) in lexicographic order, the group
    sizes, and the stable order of the rows by group, from one stable sort
    of the rows' keys.  The keys are cast to the narrowest unsigned type of
    the box, on which numpy's stable sort is a radix sort up to 16 bits."""
    lo, shape = bounding_box(states)
    keys = np.ravel_multi_index(tuple((states - lo).T), shape)
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
        rel, shape = states - self.lo, self._sources.shape
        inside = np.ones(len(rel), dtype=bool)
        # per-axis tests: numpy reduces over the rows of a narrow array slowly
        for axis, size in zip(rel.T, shape):
            inside &= (axis >= 0) & (axis < size)
        pos = np.ravel_multi_index(tuple(rel.T), shape, mode="clip")
        found = inside & self._sources.ravel()[pos]
        if not found.all():
            raise KeyError(tuple(int(v) for v in states[np.argmin(found)]))
        return pos

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
    return DiscreteMeasure(mu.grid, dict(zip(map(tuple, idx.tolist()), w.tolist())))


def sample_paths(
    mu0: DiscreteMeasure,
    kernels: list[TransitionKernel],
    count: int,
    seed: int,
) -> TrajectoryBatch:
    """i.i.d. paths, K^0 ~ mu0, transitions per the kernels.

    Uniform draws for step n come from Philox keyed by (seed, n+1), consumed
    in path-index order, so batches are reproducible and each step can be
    generated independently.
    """
    if not _is_int(count) or count < 1:
        raise ValueError(f"count must be a positive int, not {count!r}")
    support = np.array(mu0.support(), dtype=np.int64)
    steps, dims = len(kernels), mu0.grid.dims
    dtype = np.int32 if int(np.abs(support).max()) + steps < 2 ** 31 else np.int64
    paths = np.empty((dims, steps + 1, count), dtype=dtype).T
    cdf = np.cumsum(mu0.weight_array())
    cdf[-1] = 1.0
    u = np.random.Generator(np.random.Philox(key=[seed, 0])).random(count)
    paths[:, 0, :] = support[np.searchsorted(cdf, u, side="right")]
    for n, kernel in enumerate(kernels):
        cdfs = np.cumsum(kernel.rows, axis=0).reshape(len(kernel.rows), -1)
        cells = kernel.locate(paths[:, n, :])
        rng = np.random.Generator(np.random.Philox(key=[seed, n + 1]))
        u = rng.random(count)
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
    min_visits visits are excluded from the mean test and reported apart.
    """
    if batch.count < 1:
        raise ValueError("empty batch")
    out = []
    steps, dims = batch.paths.shape[1] - 1, batch.paths.shape[2]
    running = np.empty(batch.count)

    def total(x):
        """Sum of a column x of a block as numpy sums the block's axis 0:
        pairwise for d = 1, one row after another (the last running sum)
        for d >= 2."""
        return x.sum() if dims == 1 else np.cumsum(x, out=running[:len(x)])[-1]

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
        # per-state mean and std from contiguous per-axis columns of h by
        # state, path order kept within each state; `total` sums as numpy
        # sums axis 0 of the row-major (v, d) block hs, so they are bit for
        # bit hs.mean(axis=0) and hs.std(axis=0, ddof=1), without numpy's
        # slow axis-0 reduce over narrow rows
        cols = [h_i[order] for h_i in h]
        per_state: dict[MultiIndex, tuple[int, np.ndarray, float]] = {}
        skipped: dict[MultiIndex, int] = {}
        end = 0
        for J, v in zip(map(tuple, states.tolist()), visits.tolist()):
            end += v
            if v < min_visits:
                skipped[J] = v
                continue
            blocks = [col[end - v:end] for col in cols]
            mean = np.array([total(b) / v for b in blocks])
            stderr = 0.0
            if v > 1:  # numpy's _var: squared deviations from the mean
                devs = [b - m for b, m in zip(blocks, mean)]
                var = [total(np.square(x, out=x)) / (v - 1) for x in devs]
                stderr = float(np.sqrt(var).max()) / math.sqrt(v)
            per_state[J] = (v, mean, stderr)
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
