"""Cartesian grids, sparse discrete measures and quantile functions.

A discrete measure is a finite set of nonnegative weights attached to grid
nodes x_J = (J_1 dx_1, ..., J_d dx_d).  Cells are half-open boxes centered at
the nodes, lower-closed / upper-open, so every point of R^d belongs to exactly
one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MultiIndex = tuple[int, ...]

# mass-defect tolerance: 10 eps per support point, see DiscreteMeasure
_EPS = np.finfo(float).eps


class DimensionError(ValueError):
    """Operation requires a specific grid dimension."""


@dataclass(frozen=True)
class CartesianGrid:
    """Uniform Cartesian grid with per-axis cell widths and a time step."""

    dx: tuple[float, ...]
    dt: float

    def __post_init__(self):
        if len(self.dx) == 0:
            raise ValueError("grid needs at least one axis")
        if any(not (h > 0.0) for h in self.dx):
            raise ValueError("all cell widths must be positive")
        if not (self.dt > 0.0):
            raise ValueError("time step must be positive")
        if max(self.dx) > 1.0:
            raise ValueError("cell widths must not exceed 1")

    @property
    def dims(self) -> int:
        return len(self.dx)

    @property
    def dx_max(self) -> float:
        return max(self.dx)

    def node(self, J: MultiIndex) -> tuple[float, ...]:
        return tuple(j * h for j, h in zip(J, self.dx))

    def node_array(self, J: MultiIndex) -> np.ndarray:
        return np.asarray(self.node(J))

    def cell_of(self, x: Sequence[float]) -> MultiIndex:
        """Multi-index of the half-open cell containing x (lower-closed)."""
        return tuple(math.floor(xi / h + 0.5) for xi, h in zip(x, self.dx))

    def time(self, n: int) -> float:
        return n * self.dt


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative weights on grid nodes, total mass 1, finite support.

    Weights are stored sparsely.  Zero weights are pruned at construction so
    the support stays tight.  Instances are immutable; all reductions run in
    lexicographic multi-index order so results are reproducible.
    """

    grid: CartesianGrid
    weights: dict[MultiIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        pruned = {J: w for J, w in self.weights.items() if w != 0.0}
        object.__setattr__(self, "weights", pruned)
        for J, w in pruned.items():
            if len(J) != self.grid.dims:
                raise DimensionError("multi-index dimension mismatch")
            if w < 0.0:
                raise ValueError(f"negative weight {w} at {J}")

    def mass(self) -> float:
        return math.fsum(self.weights[J] for J in self.support())

    def mass_defect(self) -> float:
        return abs(self.mass() - 1.0)

    def check_mass(self) -> None:
        tol = 10.0 * _EPS * max(len(self.weights), 1)
        if self.mass_defect() > tol:
            raise ValueError(f"mass defect {self.mass_defect():.3e} exceeds {tol:.3e}")

    def support(self) -> list[MultiIndex]:
        return sorted(self.weights)

    def positions(self) -> np.ndarray:
        """Support node coordinates, lexicographic order, shape (m, d)."""
        sup = self.support()
        if not sup:
            return np.zeros((0, self.grid.dims))
        return np.array([self.grid.node(J) for J in sup])

    def weight_array(self) -> np.ndarray:
        return np.array([self.weights[J] for J in self.support()])


@dataclass(frozen=True)
class AnalyticMeasure:
    """Finite mix of Dirac atoms and (1D) piecewise-constant density pieces.

    atoms: list of (position tuple, mass); pieces: list of (lo, hi, height)
    half-open intervals, 1D only.
    """

    dims: int
    atoms: tuple[tuple[tuple[float, ...], float], ...] = ()
    pieces: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.pieces and self.dims != 1:
            raise DimensionError("density pieces are 1D only")

    def mass(self) -> float:
        total = math.fsum(m for _, m in self.atoms)
        total += math.fsum(h * (b - a) for a, b, h in self.pieces)
        return total


def dirac(x: Sequence[float], mass: float = 1.0) -> AnalyticMeasure:
    xt = tuple(float(v) for v in x)
    return AnalyticMeasure(dims=len(xt), atoms=((xt, mass),))


def uniform(lo: float, hi: float, height: float | None = None) -> AnalyticMeasure:
    if height is None:
        height = 1.0 / (hi - lo)
    return AnalyticMeasure(dims=1, pieces=((lo, hi, height),))


@dataclass(frozen=True)
class QuantileFunction:
    """Right-continuous nondecreasing function on [0,1).

    pieces: tuple of (z_lo, z_hi, value_at_z_lo, slope); the pieces partition
    [0, 1).  Step functions have zero slopes; absolutely continuous reference
    solutions contribute affine pieces.
    """

    pieces: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("quantile function needs at least one piece")
        if abs(self.pieces[0][0]) > 1e-14 or abs(self.pieces[-1][1] - 1.0) > 1e-12:
            raise ValueError("pieces must cover [0, 1)")

    def __call__(self, z: float) -> float:
        for z0, z1, v, s in self.pieces:
            if z0 <= z < z1:
                return v + s * (z - z0)
        if z >= self.pieces[-1][1]:  # limit from the left at 1
            z0, z1, v, s = self.pieces[-1]
            return v + s * (z1 - z0)
        raise ValueError(f"quantile argument {z} outside [0, 1)")

    def breakpoints(self) -> list[float]:
        return [p[0] for p in self.pieces] + [self.pieces[-1][1]]


def project_initial(rho_ini: AnalyticMeasure, grid: CartesianGrid) -> DiscreteMeasure:
    """Project an analytic probability measure onto the grid, cell by cell.

    Each weight is the exact measure of the half-open cell C_J; atoms on a
    cell boundary go to the cell whose closed (lower) face contains them.
    """
    if rho_ini.dims != grid.dims:
        raise DimensionError("measure/grid dimension mismatch")
    contrib: dict[MultiIndex, list[float]] = {}
    for x, m in rho_ini.atoms:
        J = grid.cell_of(x)
        contrib.setdefault(J, []).append(m)
    for lo, hi, height in rho_ini.pieces:
        h = grid.dx[0]
        j_lo = math.floor(lo / h + 0.5)
        j_hi = math.floor(hi / h + 0.5)
        for j in range(j_lo, j_hi + 1):
            left = max(lo, (j - 0.5) * h)
            right = min(hi, (j + 0.5) * h)
            if right > left:
                contrib.setdefault((j,), []).append(height * (right - left))
    weights = {J: math.fsum(contrib[J]) for J in sorted(contrib)}
    mu = DiscreteMeasure(grid, weights)
    mu.check_mass()
    return mu


def moment(mu: DiscreteMeasure, p: float) -> float:
    """p-th absolute moment sum_J |x_J|^p rho_J (Euclidean norm)."""
    if p < 0:
        raise ValueError("moment order must be nonnegative")
    terms = []
    for J in mu.support():
        r = math.hypot(*mu.grid.node(J))
        terms.append((r ** p) * mu.weights[J])
    return math.fsum(terms)


def quantile(mu: DiscreteMeasure) -> QuantileFunction:
    """Generalized inverse CDF of a 1D discrete measure as a step function."""
    if mu.grid.dims != 1:
        raise DimensionError("quantile functions are 1D only")
    sup = mu.support()
    if not sup:
        raise ValueError("empty measure has no quantile function")
    pieces = []
    z = 0.0
    last = len(sup) - 1
    for idx, J in enumerate(sup):
        w = mu.weights[J]
        z_next = 1.0 if idx == last else z + w
        pieces.append((z, z_next, mu.grid.node(J)[0], 0.0))
        z = z_next
    return QuantileFunction(tuple(pieces))


def measure_from_quantile(q: QuantileFunction, grid: CartesianGrid) -> DiscreteMeasure:
    """Push Lebesgue on [0,1) through a step quantile back to a measure.

    Only valid for step quantiles whose values are grid nodes; coinciding
    support points merge their weights.
    """
    weights: dict[MultiIndex, float] = {}
    for z0, z1, v, s in q.pieces:
        if s != 0.0:
            raise ValueError("only step quantiles can be pushed back to a grid")
        J = grid.cell_of((v,))
        weights[J] = weights.get(J, 0.0) + (z1 - z0)
    return DiscreteMeasure(grid, weights)


def serialize(mu: DiscreteMeasure) -> str:
    """Plain-text table: header with grid metadata, one line per support point."""
    lines = [
        "# mtlab measure d=%d dx=%s dt=%r"
        % (mu.grid.dims, ",".join(repr(h) for h in mu.grid.dx), mu.grid.dt)
    ]
    for J in mu.support():
        lines.append(" ".join(str(j) for j in J) + " " + repr(mu.weights[J]))
    return "\n".join(lines) + "\n"


class MeasureFileError(ValueError):
    """A measure table that cannot be read back as a probability measure."""

    def __init__(self, reason: str):
        super().__init__(f"bad measure table: {reason}")


def deserialize(text: str) -> DiscreteMeasure:
    """Read a table written by `serialize`; MeasureFileError if it is empty,
    lacks the header, disagrees with its own header, or is not a
    probability measure."""
    lines = [(num, ln) for num, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or not lines[0][1].startswith("# mtlab measure"):
        raise MeasureFileError("missing '# mtlab measure' header")
    header = lines[0][1]
    try:
        meta = dict(tok.split("=", 1) for tok in header.split()[3:])
        dims = int(meta["d"])
        grid = CartesianGrid(
            dx=tuple(float(v) for v in meta["dx"].split(",")), dt=float(meta["dt"])
        )
    except (KeyError, ValueError) as exc:
        raise MeasureFileError(f"header {header!r}: {exc}") from exc
    if grid.dims != dims:
        raise MeasureFileError(f"header says d={dims} but gives {grid.dims} cell widths")
    weights: dict[MultiIndex, float] = {}
    for num, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != dims + 1:
            raise MeasureFileError(
                f"line {num}: expected {dims} indices and a weight, got {ln!r}"
            )
        try:
            J = tuple(int(v) for v in parts[:-1])
            w = float(parts[-1])
        except ValueError as exc:
            raise MeasureFileError(f"line {num}: {exc}") from exc
        if not math.isfinite(w):
            raise MeasureFileError(f"line {num}: weight {w!r} is not finite")
        if J in weights:
            raise MeasureFileError(f"line {num}: index {J} listed twice")
        weights[J] = w
    try:
        mu = DiscreteMeasure(grid, weights)
        mu.check_mass()
    except ValueError as exc:
        raise MeasureFileError(f"not a probability measure: {exc}") from exc
    return mu
