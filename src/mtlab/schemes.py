"""Upwind and generalized-flux (Rusanov) scheme steps with CFL enforcement.

One step moves each node weight to itself and its 2d axis neighbors through a
convex combination: node J keeps 1 - sum_i lam_i (zeta_i + beta_i) of its
mass and sends lam_i zeta_i rightward / lam_i beta_i leftward along axis i,
with lam_i = dt/dx_i.  The per-node coefficients satisfy
zeta_i - beta_i = a_i (numerical node velocity), which is what makes the
Markov-chain reading of the step exact.

Every grid stepper runs on one array engine: `node_coefficients` evaluates
the field once on a whole (m, d) node array, `transition_rows` turns the
coefficients into per-node move probabilities in the fixed neighbor order
stay, +e_1, -e_1, ..., +e_d, -e_d, and `apply_window` applies the step to a
dense bounding-box window by shifted slices, checking mass and positivity
there; it takes any move list in {-1, 0, 1}^d, as `simplex.kuhn_rows` needs.
One window step, `_advance`, moves every window run: the study harness's,
`run`'s and the Markov chain's, the last two keeping one window (lo, box)
from step to step with each step's rows on its nonzero cells (`window_rows`);
a Markov-chain kernel is the rows window of one step.  The sparse dict of
`DiscreteMeasure` is only the API boundary: `run` builds one measure per
history entry, `run_last` one at the end, and `step` is a one-step run.
Each of these measures is checked once, by the step: `apply_window` refuses
a negative or NaN weight and a mass defect on the whole box, and the
measure is built from the window's nonzero cells without a second pass
(`DiscreteMeasure._of_window`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measures import CartesianGrid, DiscreteMeasure, MultiIndex, check_mass_defect
from .velocity import VelocityField

KNOWN_SCHEMES = ("upwind", "rusanov")

# largest dense window a step may allocate (32 MB of float64); a support
# spread wider than this, e.g. far-apart atoms in d >= 2, is refused
_MAX_WINDOW_CELLS = 2 ** 22
_PRUNE_BUDGET = 1e-10  # largest mass a run of a pruning study may drop in all


class WindowError(ValueError):
    """The bounding box of a step's targets exceeds the dense-window cap."""


@dataclass(frozen=True)
class SchemeSpec:
    """Named coefficient rule for the generalized-flux family.

    One rule, zeta = (q + a)/2, beta = (q - a)/2 with q >= |a|: "upwind" has
    q = |a| (so zeta = a^+, beta = a^-), "rusanov" q = a_inf.
    "interface_upwind" is a negative control (velocity
    sampled at interfaces); it breaks the martingale increment property and is
    excluded from every convergence claim.
    """

    kind: str = "upwind"

    def __post_init__(self):
        if self.kind not in KNOWN_SCHEMES + ("interface_upwind",):
            raise ValueError(f"unknown scheme {self.kind!r}")

    def coefficient_bound(self, field: VelocityField) -> float:
        """zeta_inf + beta_inf, the factor entering the CFL bound."""
        if self.kind == "rusanov":
            return 2.0 * field.a_inf
        return field.a_inf


def _field_at(
    field: VelocityField, n: int, x: np.ndarray, grid: CartesianGrid
) -> np.ndarray:
    """Time average over step n at positions x (m, d), as an (m, d) array.

    A 1-D field gets its positions as an (m,) array."""
    xs = x[:, 0] if grid.dims == 1 else x
    a = np.asarray(field.time_average(grid.time(n), grid.time(n + 1), xs), dtype=float)
    if a.shape != xs.shape:  # a field that ignores x may return one value
        a = np.broadcast_to(a, xs.shape)
    return a.reshape(x.shape)


def node_velocity(
    field: VelocityField, n: int, idx: np.ndarray, grid: CartesianGrid
) -> np.ndarray:
    """Numerical node velocities (m, d): the time average of the field over
    step n at the nodes x_J = J * dx of idx (m, d), in one field call."""
    return _field_at(field, n, idx * np.asarray(grid.dx), grid)


def node_coefficients(
    spec: SchemeSpec,
    field: VelocityField,
    n: int,
    idx: np.ndarray,
    grid: CartesianGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """(zeta, beta), each (m, d), for the nodes idx (m, d) at step n.

    Upwind and Rusanov make one field call on the node array; the
    interface_upwind control makes 2d, at the nodes shifted by +-dx_i/2."""
    if spec.kind in KNOWN_SCHEMES:
        a = node_velocity(field, n, idx, grid)
        q = np.abs(a) if spec.kind == "upwind" else field.a_inf
        return 0.5 * (q + a), 0.5 * (q - a)
    # interface velocities; consistency zeta - beta = a_J fails in general
    x = idx * np.asarray(grid.dx)
    zeta = np.empty(x.shape)
    beta = np.empty(x.shape)
    for i, h in enumerate(grid.dx):
        xr = x.copy()
        xr[:, i] += 0.5 * h
        xl = x.copy()
        xl[:, i] -= 0.5 * h
        zeta[:, i] = np.maximum(_field_at(field, n, xr, grid)[:, i], 0.0)
        beta[:, i] = np.maximum(-_field_at(field, n, xl, grid)[:, i], 0.0)
    return zeta, beta


def neighbor_moves(dims: int) -> np.ndarray:
    """(2d+1, d) index moves of the fixed neighbor order stay, +e_1, -e_1,
    ..., +e_d, -e_d."""
    out = np.zeros((2 * dims + 1, dims), dtype=np.int64)
    for i in range(dims):
        out[1 + 2 * i, i] = 1
        out[2 + 2 * i, i] = -1
    return out


def transition_rows(
    spec: SchemeSpec,
    field: VelocityField,
    n: int,
    idx: np.ndarray,
    grid: CartesianGrid,
) -> np.ndarray:
    """One step's rows for the nodes idx (m, d): probs (2d+1, m), where
    probs[s, k] is the probability that node k makes move s of the fixed
    neighbor order (`neighbor_moves`)."""
    zeta, beta = node_coefficients(spec, field, n, idx, grid)
    probs = np.empty((2 * grid.dims + 1, len(idx)))
    for i, h in enumerate(grid.dx):
        lam = grid.dt / h
        move = lam * (zeta[:, i] + beta[:, i])
        spread = move if i == 0 else spread + move
        np.multiply(lam, zeta[:, i], out=probs[1 + 2 * i])
        np.multiply(lam, beta[:, i], out=probs[2 + 2 * i])
    # rounding can push the stay coefficient to -eps when the CFL bound
    # is attained exactly; clamp so the convex combination stays one
    np.maximum(0.0, 1.0 - spread, out=probs[0])
    return probs


def bounding_box(idx: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Corner and shape of the bounding box of the nodes idx (m, d)."""
    # per-axis reductions: numpy reduces over the rows of a narrow array slowly
    lo = np.array([axis.min() for axis in idx.T])
    return lo, tuple(int(axis.max() - low) + 1 for axis, low in zip(idx.T, lo))


def _check_window(shape: tuple[int, ...]) -> None:
    cells = math.prod(shape)
    if cells > _MAX_WINDOW_CELLS:
        raise WindowError(
            f"dense window {shape} has {cells} cells, above the cap of "
            f"{_MAX_WINDOW_CELLS}; the support is spread too wide"
        )


def _scatter(idx: np.ndarray, values: np.ndarray) -> tuple:
    """(lo, window, cells): values (..., m) of the nodes idx (m, d) in the
    dense window (..., *shape) of their bounding box, zero elsewhere, cell j
    standing for node lo + j, and the nodes' cells.  ValueError for no node;
    WindowError before allocating a window whose step exceeds the cap."""
    if not len(idx):
        raise ValueError("a window needs a nonempty support, not an empty one")
    lo, shape = bounding_box(idx)
    _check_window(tuple(s + 2 for s in shape))
    cells = tuple((idx - lo).T)
    window = np.zeros(values.shape[:-1] + shape)
    window[(...,) + cells] = values
    return lo, window, cells


def window_rows(spec: SchemeSpec, field: VelocityField, n: int, lo: np.ndarray,
                cells: tuple, shape: tuple, grid: CartesianGrid) -> np.ndarray:
    """Step n's rows (2d+1, *shape) on a window of corner lo: `transition_rows`
    at the cells (index arrays, as `box.nonzero()` gives), zero elsewhere."""
    rows = np.zeros((2 * grid.dims + 1,) + shape)
    rows[(slice(None),) + cells] = transition_rows(
        spec, field, n, np.column_stack(cells) + lo, grid)
    return rows


@functools.cache
def _targets(moves: bytes | None, dims: int) -> tuple[tuple[slice, ...], ...]:
    """Per move of an int64 move list (S, d) as bytes, the neighbor moves if
    None, its target slice in the window one cell wider on every side."""
    shift = {-1: slice(None, -2), 0: slice(1, -1), 1: slice(2, None)}
    rows = (neighbor_moves(dims) if moves is None
            else np.frombuffer(moves, dtype=np.int64).reshape(-1, dims))
    return tuple(tuple(shift[m] for m in move) for move in rows.tolist())


def apply_window(lo: np.ndarray, weights: np.ndarray, rows: np.ndarray,
                 moves: np.ndarray | None = None, pruned: float = 0.0
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One convex step on a dense window: cell j holds the weight of node
    lo + j and rows[:, j] its probabilities of the moves (S, d), by default
    the fixed neighbor order; rows (S, 1, ..., 1) serve every cell.

    Returns the window one cell wider on every side, (lo - 1, box).  Each
    target sums its contributions move by move, in list order.  Raises
    WindowError when that window exceeds the cell cap, and ValueError when a
    weight is negative or the box's mass moves from the given window's, or
    with the mass `pruned` so far from 1, by over 10 eps per given cell."""
    dims = weights.ndim
    shape = tuple(s + 2 for s in weights.shape)
    _check_window(shape)
    key = None if moves is None else np.asarray(moves, dtype=np.int64).tobytes()
    moved = rows * weights
    box = np.zeros(shape)
    for s, target in enumerate(_targets(key, dims)):
        box[target] += moved[s]
    if not np.minimum.reduce(box, axis=None) >= 0.0:  # a NaN fails it too
        raise ValueError(f"negative weight {box.min()!r} after the step")
    mass = float(np.add.reduce(box, axis=None))
    check_mass_defect(max(abs(mass - float(np.add.reduce(weights, axis=None))),
                          abs(mass + pruned - 1.0)), weights.size)
    return lo - 1, box


def window_cells(lo: np.ndarray, box: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (k, d) and weights of the nonzero cells of a window, in C order."""
    cells = np.argwhere(box)
    return cells + lo, box[tuple(cells.T)]


def measure_arrays(mu: DiscreteMeasure) -> tuple[list[MultiIndex], np.ndarray, np.ndarray]:
    """(keys, idx (m, d), w (m,)) of a measure, in its dict order."""
    keys = list(mu.weights)
    idx = np.array(keys, dtype=np.int64).reshape(len(keys), mu.grid.dims)
    w = np.fromiter(mu.weights.values(), dtype=float, count=len(keys))
    return keys, idx, w


def _advance(rows_at, moves, prune: float):
    """advance(n, (lo, box)) of every window run: one `apply_window` step
    along rows_at(n, lo, box) and the moves, weights below prune dropped (a
    RuntimeError past _PRUNE_BUDGET), the box trimmed to its nonzero cells."""
    pruned = 0.0

    def advance(n, state):
        nonlocal pruned
        lo, box = apply_window(*state, rows_at(n, *state), moves, pruned)
        if prune > 0.0:
            small = box < prune
            pruned += math.fsum(box[small])
            if pruned > _PRUNE_BUDGET:
                raise RuntimeError(f"pruned mass {pruned:.3e} exceeds budget")
            box[small] = 0.0
        # the cells come in C order, so the first axis's come sorted
        first, *rest = box.nonzero()
        keep = [slice(first[0], first[-1] + 1),
                *(slice(k.min(), k.max() + 1) for k in rest)]
        for axis, cut in enumerate(keep):
            lo[axis] += cut.start  # lo is apply_window's own array
        return lo, box[tuple(keep)]

    return advance


def _carry(names: np.ndarray, lo: np.ndarray, new_lo: np.ndarray,
           shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous object window of the given shape and corner new_lo,
    holding the keys of names (corner lo) on the nodes both cover, None
    elsewhere.  A step's window lies within one cell of the one before it,
    so the bounds of the overlap, empty or not, lie in both.  (Padding names
    as the step pads the box and copying the cut costs 2-3.6x as much.)"""
    out = np.empty(shape, dtype=object)
    src, dst = [], []
    for a, b, size, new_size in zip(lo.tolist(), new_lo.tolist(), names.shape, shape):
        start, stop = max(a, b), min(a + size, b + new_size)
        src.append(slice(start - a, stop - a))
        dst.append(slice(start - b, stop - b))
    out[tuple(dst)] = names[tuple(src)]
    return out


def _walk(mu: DiscreteMeasure, spec: SchemeSpec, field: VelocityField,
          first: int, steps: int, history: bool) -> list[DiscreteMeasure]:
    """The measures of the scheme's steps first, ..., first + steps - 1 from
    mu, after every step if history, else after the last one only.

    The run keeps one window (lo, box) from step to step (`_advance`), each
    step's rows computed on the window's nonzero cells (`window_rows`).
    Next to box it carries an object window of key tuples (None where a cell
    has none yet), so a node keeps its key object while it stays in the
    window and a history shares the tuples of the nodes that stay in the
    support.  The reuse is kept for memory: building fresh key tuples gave
    hash-identical outputs but raised certbench's `sparse-chain-nd` peak RSS
    from 81.1-81.4 MB to 92.5-95.0 MB (14-17%, 3 pairs of 8-second runs on 2
    cores)."""
    grid = mu.grid
    check_cfl(spec, field, grid).require()
    if not steps:
        return []
    keys, idx, w = measure_arrays(mu)
    lo, box, cells = _scatter(idx, w)
    names = np.empty(box.shape, dtype=object)
    names[cells] = np.fromiter(keys, dtype=object, count=len(keys))

    def rows_at(n, lo, box):  # cells: the window's nonzero cells
        return window_rows(spec, field, n, lo, cells, box.shape, grid)

    advance = _advance(rows_at, None, 0.0)
    out = []
    for n in range(first, first + steps):
        new_lo, box = advance(n, (lo, box))
        names = _carry(names, lo, new_lo, box.shape)
        lo, cells = new_lo, box.nonzero()
        if not history and n < first + steps - 1:
            continue
        keys = names[cells]
        fresh = np.flatnonzero(np.equal(keys, None))
        if fresh.size:  # name the nodes that entered the window
            new = tuple(c[fresh] for c in cells)
            coords = (np.column_stack(new) + lo).tolist()
            keys[fresh] = names[new] = np.fromiter(map(tuple, coords), dtype=object,
                                                   count=len(coords))
        out.append(DiscreteMeasure._of_window(
            grid, dict(zip(keys.tolist(), box[cells].tolist()))))
    return out


@dataclass(frozen=True)
class CflReport:
    lhs: float
    bound: float
    satisfied: bool

    @classmethod
    def of(cls, lhs: float) -> CflReport:
        """A CFL ratio against 1, with an allowance for rounding at the bound."""
        return cls(lhs=lhs, bound=1.0, satisfied=lhs <= 1.0 + 1e-12)

    def require(self) -> CflReport:
        """This report; CflError when the condition is violated."""
        if not self.satisfied:
            raise CflError(self)
        return self

    def __str__(self):
        status = "ok" if self.satisfied else "VIOLATED"
        return f"CFL {status}: {self.lhs:.6g} <= {self.bound:.6g}"


class CflError(RuntimeError):
    def __init__(self, report: CflReport):
        super().__init__(str(report))
        self.report = report


def check_cfl(spec: SchemeSpec, field: VelocityField, grid: CartesianGrid) -> CflReport:
    return CflReport.of(spec.coefficient_bound(field)
                        * math.fsum(grid.dt / h for h in grid.dx))


def _is_int(v) -> bool:
    """v is a Python or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_steps(steps) -> None:
    """ValueError unless steps is a nonnegative int."""
    if not _is_int(steps) or steps < 0:
        raise ValueError(f"steps must be a nonnegative int, not {steps!r}")


def step(
    mu: DiscreteMeasure, spec: SchemeSpec, field: VelocityField, n: int
) -> DiscreteMeasure:
    """Step n of the scheme from mu, in gather (convex combination) form."""
    return _walk(mu, spec, field, n, 1, history=False)[0]


def run(
    mu0: DiscreteMeasure, spec: SchemeSpec, field: VelocityField, steps: int
) -> list[DiscreteMeasure]:
    """Iterate the scheme; returns [mu0, mu1, ..., mu_steps]."""
    _check_steps(steps)
    return [mu0, *_walk(mu0, spec, field, 0, steps, history=True)]


def run_last(
    mu0: DiscreteMeasure, spec: SchemeSpec, field: VelocityField, steps: int
) -> DiscreteMeasure:
    """mu_steps of `run`, with no history kept."""
    _check_steps(steps)
    return (_walk(mu0, spec, field, 0, steps, history=False) or [mu0])[-1]
