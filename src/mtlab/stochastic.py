"""Markov-chain reading of the grid schemes.

Each scheme step is a row-stochastic transition kernel on multi-indices; the
scheme's weights are the chain's law.  A kernel stores the rows that the
scheme engine computes (`schemes.transition_rows`), and the law is pushed
along them by the scheme's own apply routine (`schemes.apply_window`), so
chain and scheme share one implementation of the step.

Trajectories are sampled with a counter-based generator (Philox keyed by seed
and step), so batches are reproducible and embarrassingly parallel.  Each
path finds its kernel row by an integer key of its state, and paths are
grouped by state through the same keys, taken in the states' bounding box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measures import CartesianGrid, DiscreteMeasure, MultiIndex
from .schemes import (
    CflError,
    SchemeSpec,
    apply_window,
    bounding_box,
    check_cfl,
    measure_arrays,
    neighbor_moves,
    node_velocity,
    to_window,
    transition_rows,
)
from .velocity import VelocityField

ROW_SUM_TOL = 1e-14


def _box_keys(idx: np.ndarray) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """(lo, shape, keys): the bounding box of the rows of idx (m, d) and each
    row's C-order position in it, so keys sort like the rows do
    lexicographically."""
    lo, shape = bounding_box(idx)
    return lo, shape, np.ravel_multi_index(tuple((idx - lo).T), shape)


def _group(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct rows of states (k, d) in lexicographic order, the group of
    each row, and the group sizes."""
    lo, shape, keys = _box_keys(states)
    ukeys, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return np.column_stack(np.unravel_index(ukeys, shape)) + lo, inv, counts


def _cells(lo: np.ndarray, box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (k, d) and weights of the nonzero cells of a window."""
    pos = np.flatnonzero(box)
    return np.column_stack(np.unravel_index(pos, box.shape)) + lo, box.ravel()[pos]


def check_rows(sources: np.ndarray, probs: np.ndarray) -> None:
    """ValueError naming the first source whose row (a column of probs
    (slots, m)) has a negative entry or misses 1 by more than ROW_SUM_TOL."""
    bad = np.flatnonzero((probs < 0.0).any(axis=0))
    if bad.size:
        raise ValueError(f"negative probability in row {sources[bad[0]].tolist()}")
    bad = np.flatnonzero(np.abs(probs.sum(axis=0) - 1.0) > ROW_SUM_TOL)
    if bad.size:
        raise ValueError(f"row {sources[bad[0]].tolist()} does not sum to 1")


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """One-step kernel of a grid scheme on the source nodes idx (m, d),
    distinct and in lexicographic order: probs[s, k] is the probability that
    source k makes move s of the fixed neighbor order (stay, +e_1, -e_1, ...,
    +e_d, -e_d; see `schemes.neighbor_moves`).  The order is part of the
    reproducibility contract for sampling."""

    n: int
    grid: CartesianGrid
    idx: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        lo, shape, keys = _box_keys(self.idx)
        if np.any(np.diff(keys) <= 0):
            raise ValueError("kernel sources must be distinct and in "
                             "lexicographic order")
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_shape", np.array(shape))
        object.__setattr__(self, "_keys", keys)

    def locate(self, states: np.ndarray) -> np.ndarray:
        """Row number of each state (k, d); KeyError names a state without
        a row."""
        rel = states - self._lo
        inside = np.all((rel >= 0) & (rel < self._shape), axis=1)
        keys = np.ravel_multi_index(tuple(rel.T), tuple(self._shape), mode="clip")
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        found = inside & (self._keys[pos] == keys)
        if not found.all():
            raise KeyError(tuple(int(v) for v in states[np.argmin(found)]))
        return pos

    def row(self, J: MultiIndex) -> tuple[tuple[MultiIndex, float], ...]:
        k = int(self.locate(np.array([J]))[0])
        targets = (np.asarray(J) + neighbor_moves(len(J))).tolist()
        return tuple((tuple(t), p) for t, p in zip(targets, self.probs[:, k].tolist()))

    def check_rows(self) -> None:
        check_rows(self.idx, self.probs)

    def push(self, idx: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights of the law w on the nodes idx after this step."""
        probs = self.probs[:, self.locate(idx)]
        return _cells(*apply_window(*to_window(idx, w, probs)))


@dataclass(frozen=True)
class TrajectoryBatch:
    """count paths of multi-indices, shape (count, steps+1, d); int32 when
    max |J^0| + steps < 2^31 over the initial support, int64 otherwise."""

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
    """Kernel rows over the given support (multi-indices or an (m, d) integer
    array), in the paper-exact form."""
    report = check_cfl(spec, field, grid)
    if not report.satisfied:
        raise CflError(report)
    if not isinstance(support, np.ndarray):
        support = list(support)
    idx = np.asarray(support, dtype=np.int64).reshape(-1, grid.dims)
    if not len(idx):
        raise ValueError("a kernel needs a nonempty support")
    _, first = np.unique(_box_keys(idx)[2], return_index=True)
    idx = idx[first]
    kernel = TransitionKernel(n, grid, idx, transition_rows(spec, field, n, idx, grid))
    kernel.check_rows()
    return kernel


def make_kernels(
    mu0: DiscreteMeasure,
    spec: SchemeSpec,
    field: VelocityField,
    steps: int,
) -> list[TransitionKernel]:
    """Per-step kernels built lazily on the propagated law's support."""
    _, idx, w = measure_arrays(mu0)
    kernels = []
    for n in range(steps):
        kernel = kernel_of(spec, field, n, idx, mu0.grid)
        kernels.append(kernel)
        idx, w = kernel.push(idx, w)
    return kernels


def propagate_law(mu: DiscreteMeasure, kernels: list) -> DiscreteMeasure:
    """Law after applying the kernels in order: grid-scheme kernels, or any
    kernel with the same `push(idx, w) -> (idx, w)` (the semi-Lagrangian
    `simplex.NodeKernel`)."""
    _, idx, w = measure_arrays(mu)
    for kernel in kernels:
        idx, w = kernel.push(idx, w)
    return DiscreteMeasure(mu.grid, dict(zip(map(tuple, idx.tolist()), w.tolist())))


def _initial_states(mu0: DiscreteMeasure, count: int, seed: int) -> np.ndarray:
    sup = mu0.support()
    cdf = np.cumsum(mu0.weight_array())
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    u = rng.random(count)
    idx = np.searchsorted(cdf, u, side="right")
    return np.array(sup, dtype=np.int64)[idx]


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
    if count < 1:
        raise ValueError("need at least one path")
    _, support, _ = measure_arrays(mu0)
    steps = len(kernels)
    dtype = np.int32 if int(np.abs(support).max()) + steps < 2 ** 31 else np.int64
    moves = neighbor_moves(mu0.grid.dims).astype(dtype)
    paths = np.empty((count, steps + 1, mu0.grid.dims), dtype=dtype)
    paths[:, 0, :] = _initial_states(mu0, count, seed)
    for n, kernel in enumerate(kernels):
        cdfs = np.cumsum(kernel.probs, axis=0).T.copy()
        cdfs[:, -1] = 1.0
        rows = kernel.locate(paths[:, n, :])
        rng = np.random.Generator(np.random.Philox(key=[seed, n + 1]))
        u = rng.random(count)
        choice = (cdfs[rows] < u[:, None]).sum(axis=1)
        paths[:, n + 1, :] = paths[:, n, :] + moves[choice]
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
    dx = np.array(grid.dx)
    out = []
    steps = batch.paths.shape[1] - 1
    for n in range(steps):
        cur = batch.paths[:, n, :]
        nxt = batch.paths[:, n + 1, :]
        incr = (nxt - cur) * dx
        states, inv, visits = _group(cur)
        drift = node_velocity(field, n, states, grid) * grid.dt
        h = incr - drift[inv]
        habs = np.sqrt((h * h).sum(axis=1))
        # rows of h by state, path order kept within each state
        by_state = h[np.argsort(inv, kind="stable")]
        per_state: dict[MultiIndex, tuple[int, np.ndarray, float]] = {}
        skipped: dict[MultiIndex, int] = {}
        end = 0
        for J, v in zip(map(tuple, states.tolist()), visits.tolist()):
            end += v
            if v < min_visits:
                skipped[J] = v
                continue
            hs = by_state[end - v:end]
            mean = hs.mean(axis=0)
            stderr = float(hs.std(axis=0, ddof=1).max() / math.sqrt(v)) \
                if v > 1 else 0.0
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
    """Empirical distribution of the batch at step n."""
    states, _, counts = _group(batch.paths[:, n, :])
    weights = dict(zip(map(tuple, states.tolist()), (counts / batch.count).tolist()))
    return DiscreteMeasure(batch.grid, weights)


def total_variation(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    keys = set(mu.weights) | set(nu.weights)
    return 0.5 * math.fsum(
        abs(mu.weights.get(J, 0.0) - nu.weights.get(J, 0.0)) for J in sorted(keys)
    )
