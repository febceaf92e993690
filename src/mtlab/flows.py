"""Reference characteristics and exact solutions for the built-in examples.

The example fields are piecewise constant in space, so their generalized
characteristics are piecewise affine and are hard-coded here; the explicit
Euler flow shares the fields' pointwise conventions at jumps so scheme and
reference never disagree about boundary values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import AnalyticMeasure, QuantileFunction, dirac
from .velocity import VelocityField


@dataclass(frozen=True)
class EulerFlow:
    """Explicit Euler approximation of the flow for a batch of seed points."""

    field: VelocityField
    dt: float
    n: int
    positions: np.ndarray  # (m, d)

    @property
    def time(self) -> float:
        return self.n * self.dt


def euler_flow(field: VelocityField, dt: float, seeds: np.ndarray) -> EulerFlow:
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    return EulerFlow(field=field, dt=dt, n=0, positions=seeds)


def euler_step(flow: EulerFlow) -> EulerFlow:
    t0 = flow.time
    t1 = t0 + flow.dt
    vel = flow.field.time_average(t0, t1, flow.positions)
    return replace(flow, n=flow.n + 1, positions=flow.positions + flow.dt * vel)


def quantile_of_analytic(m: AnalyticMeasure) -> QuantileFunction:
    """Generalized inverse CDF of a 1D analytic measure (atoms + densities).

    Atoms give flat pieces and density pieces affine ones of slope 1/height,
    ordered by position (an atom before a density piece at the same point);
    atoms of zero mass and empty or zero-height pieces are left out.
    """
    if m.dims != 1:
        raise ValueError("quantile functions are 1D only")
    parts = [(x, mass, 0.0) for (x,), mass in m.atoms if mass > 0.0]
    parts += [(lo, h * (hi - lo), 1.0 / h) for lo, hi, h in m.pieces
              if hi > lo and h > 0.0]
    parts.sort(key=lambda part: part[0])
    x, mass, slope = np.array(parts).reshape(-1, 3).T
    return QuantileFunction.from_masses(x, mass, slope)


EXACT_KINDS = ("example1", "example2", "example3", "constant-dirac")


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form measure solution, addressable at any time t >= 0."""

    kind: str
    x0: tuple[float, ...] = (-0.5,)
    speed: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        if self.kind not in EXACT_KINDS:
            raise ValueError(f"unknown exact solution {self.kind!r}")

    def initial(self) -> AnalyticMeasure:
        return self.measure(0.0)

    def measure(self, t: float) -> AnalyticMeasure:
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        if self.kind == "constant-dirac":
            return dirac(self.position(t))
        if self.kind == "example1":
            return dirac((self.position(t)[0],))
        if self.kind == "example2":
            # two-speed field acting on the uniform datum on [-1, 1] (mass 1)
            if t <= 1.0:
                pieces = [(-1.0 + t, 0.0, 0.5), (0.0, t / 2, 1.0),
                          (t / 2, 1.0 + t / 2, 0.5)]
            else:
                pieces = [((t - 1.0) / 2, t / 2, 1.0), (t / 2, 1.0 + t / 2, 0.5)]
            pieces = [(a, b, h) for a, b, h in pieces if b > a]
            return AnalyticMeasure(dims=1, pieces=tuple(pieces))
        # example3: uniform datum on [-1, 0], shock collects a growing atom
        if t >= 1.0:
            return dirac((t,))
        atoms = (((t,), t),) if t > 0.0 else ()
        return AnalyticMeasure(dims=1, atoms=atoms,
                               pieces=(((-1.0 + 2.0 * t), t, 1.0),))

    def position(self, t: float) -> tuple[float, ...]:
        """Exact characteristic position for the Dirac-type solutions."""
        if self.kind == "constant-dirac":
            return tuple(x + c * t for x, c in zip(self.x0, self.speed))
        if self.kind == "example1":
            x0 = self.x0[0]
            if t < -x0:
                return (x0 + t,)
            return (0.5 * (t + x0),)
        raise ValueError(f"{self.kind} is not a Dirac-type solution")

    def quantile_fn(self, t: float) -> QuantileFunction:
        if self.kind in ("example1", "constant-dirac"):
            pos = self.position(t)
            if len(pos) != 1:
                raise ValueError("quantile functions are 1D only")
            return QuantileFunction(np.array([0.0, 1.0]), np.array(pos), np.zeros(1))
        return quantile_of_analytic(self.measure(t))


def exact_solution(name: str) -> ExactSolution:
    if name == "binomial":
        return ExactSolution(kind="constant-dirac", x0=(0.0,), speed=(1.0,))
    return ExactSolution(kind=name)


_K_MAX = 10 ** 8


def central_binomial_ratio(k: int) -> float:
    """C(2k, k) / 4^k; multiplicative recurrence, log-space for large k."""
    if k <= 500:
        r = 1.0
        for j in range(1, k + 1):
            r *= (2 * j - 1) / (2 * j)
        return r
    return math.exp(math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1)
                    - 2 * k * math.log(2.0))


def binomial_w1_exact(k: int, dx: float) -> float:
    """Closed-form W_1 error of the constant-speed Dirac run at step 2k.

    Equals k * dx * C(2k, k) * 4^{-k} when dt/dx = 1/2 and the datum is a
    Dirac at a node.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > _K_MAX:
        raise ValueError(f"k={k} out of supported range (max {_K_MAX})")
    if not (dx > 0.0):
        raise ValueError("dx must be positive")
    return k * dx * central_binomial_ratio(k)


def binomial_w1_bruteforce(k: int, dx: float) -> float:
    """Direct sum over the binomial weights; oracle for small k."""
    n = 2 * k
    weights = [math.comb(n, j) * 0.5 ** n for j in range(n + 1)]
    return math.fsum(w * abs(j * dx - k * dx) for j, w in enumerate(weights))
