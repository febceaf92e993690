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
there.  The sparse dict of `DiscreteMeasure` is only the API boundary: `step`
scatters its support into a window (`to_window`) and reads the result back,
the Markov-chain kernels store the rows themselves, and the study harness
keeps its 1D window between steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import _EPS, CartesianGrid, DiscreteMeasure, MultiIndex
from .velocity import VelocityField

KNOWN_SCHEMES = ("upwind", "rusanov")

# largest dense window a step may allocate (32 MB of float64); a support
# spread wider than this, e.g. far-apart atoms in d >= 2, is refused
_MAX_WINDOW_CELLS = 2 ** 22


class WindowError(ValueError):
    """The bounding box of a step's targets exceeds the dense-window cap."""


@dataclass(frozen=True)
class SchemeSpec:
    """Named coefficient rule for the generalized-flux family.

    "upwind": zeta = a^+, beta = a^-.  "rusanov": zeta = (a + a_inf)/2,
    beta = (a_inf - a)/2.  "interface_upwind" is a negative control (velocity
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

    def coefficients(
        self, field: VelocityField, n: int, J: MultiIndex, grid: CartesianGrid
    ) -> tuple[np.ndarray, np.ndarray]:
        """(zeta, beta) arrays of length d for node J at step n."""
        zeta, beta = node_coefficients(self, field, n, np.array([J]), grid)
        return zeta[0], beta[0]


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
    if spec.kind == "upwind":
        a = node_velocity(field, n, idx, grid)
        return np.maximum(a, 0.0), np.maximum(-a, 0.0)
    if spec.kind == "rusanov":
        a = node_velocity(field, n, idx, grid)
        return 0.5 * (a + field.a_inf), 0.5 * (field.a_inf - a)
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


def to_window(
    idx: np.ndarray, w: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter weights w and rows probs (2d+1, m) of the nodes idx (m, d)
    into the dense window of their bounding box: (lo, weights, rows), cell j
    standing for node lo + j.  WindowError before allocating a window whose
    step would exceed the cell cap."""
    lo, shape = bounding_box(idx)
    _check_window(tuple(s + 2 for s in shape))
    cells = tuple((idx - lo).T)
    weights = np.zeros(shape)
    weights[cells] = w
    rows = np.zeros((len(probs),) + shape)
    rows[(slice(None),) + cells] = probs
    return lo, weights, rows


def apply_window(
    lo: np.ndarray, weights: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One convex step on a dense window: cell j holds the weight of node
    lo + j and rows[:, j] its move probabilities in the fixed neighbor order.

    Returns the window one cell wider on every side, (lo - 1, box).  Each
    target sums its contributions move by move (stay first, then +e_1, -e_1,
    ...).  Raises WindowError when that window exceeds the cell cap, and
    ValueError when a weight is negative or the mass moves from 1 by more
    than 10 eps per cell of the given window."""
    dims = weights.ndim
    shape = tuple(s + 2 for s in weights.shape)
    _check_window(shape)
    moved = rows * weights
    box = np.zeros(shape)
    inner = (slice(1, -1),) * dims
    box[inner] += moved[0]
    for i in range(dims):
        box[inner[:i] + (slice(2, None),) + inner[i + 1:]] += moved[1 + 2 * i]
        box[inner[:i] + (slice(None, -2),) + inner[i + 1:]] += moved[2 + 2 * i]
    if np.minimum.reduce(box, axis=None) < 0.0:
        raise ValueError(f"negative weight {box.min()!r} after the step")
    defect = abs(float(np.add.reduce(box, axis=None)) - 1.0)
    tol = 10.0 * _EPS * max(weights.size, 1)
    if defect > tol:
        raise ValueError(f"mass defect {defect:.3e} exceeds {tol:.3e}")
    return lo - 1, box


def measure_arrays(mu: DiscreteMeasure) -> tuple[list[MultiIndex], np.ndarray, np.ndarray]:
    """(keys, idx (m, d), w (m,)) of a measure, in its dict order."""
    keys = list(mu.weights)
    idx = np.array(keys, dtype=np.int64).reshape(len(keys), mu.grid.dims)
    w = np.fromiter(mu.weights.values(), dtype=float, count=len(keys))
    return keys, idx, w


def _window_measure(
    grid: CartesianGrid,
    lo: np.ndarray,
    box: np.ndarray,
    keys: list[MultiIndex],
    idx: np.ndarray,
) -> DiscreteMeasure:
    """The nonzero cells of a window as a measure, in lexicographic order.

    A node of idx keeps its key object keys[k], so a history of steps shares
    the multi-index tuples of the nodes that stay in the support."""
    pos = np.flatnonzero(box)
    src = np.full(box.size, -1, dtype=np.int64)
    src[np.ravel_multi_index(tuple((idx - lo).T), box.shape)] = np.arange(len(idx))
    coords = (np.column_stack(np.unravel_index(pos, box.shape)) + lo).tolist()
    out_keys = [keys[s] if s >= 0 else tuple(c)
                for s, c in zip(src[pos].tolist(), coords)]
    return DiscreteMeasure(grid, dict(zip(out_keys, box.ravel()[pos].tolist())))


@dataclass(frozen=True)
class CflReport:
    lhs: float
    bound: float
    satisfied: bool

    def __str__(self):
        status = "ok" if self.satisfied else "VIOLATED"
        return f"CFL {status}: {self.lhs:.6g} <= {self.bound:.6g}"


class CflError(RuntimeError):
    def __init__(self, report: CflReport):
        super().__init__(str(report))
        self.report = report


def check_cfl(spec: SchemeSpec, field: VelocityField, grid: CartesianGrid) -> CflReport:
    lhs = spec.coefficient_bound(field) * math.fsum(grid.dt / h for h in grid.dx)
    # tolerate rounding when the bound is attained exactly; the step routine
    # clamps the stay coefficient so the combination remains convex
    return CflReport(lhs=lhs, bound=1.0, satisfied=lhs <= 1.0 + 1e-12)


def step(
    mu: DiscreteMeasure, spec: SchemeSpec, field: VelocityField, n: int
) -> DiscreteMeasure:
    """One scheme step in gather (convex combination) form."""
    grid = mu.grid
    report = check_cfl(spec, field, grid)
    if not report.satisfied:
        raise CflError(report)
    keys, idx, w = measure_arrays(mu)
    probs = transition_rows(spec, field, n, idx, grid)
    lo, box = apply_window(*to_window(idx, w, probs))
    return _window_measure(grid, lo, box, keys, idx)


def run(
    mu0: DiscreteMeasure, spec: SchemeSpec, field: VelocityField, steps: int
) -> list[DiscreteMeasure]:
    """Iterate the scheme; returns [mu0, mu1, ..., mu_steps]."""
    report = check_cfl(spec, field, mu0.grid)
    if not report.satisfied:
        raise CflError(report)
    out = [mu0]
    for n in range(steps):
        out.append(step(out[-1], spec, field, n))
    return out
