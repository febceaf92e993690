"""The built-in examples with their exact solutions, and the explicit Euler flow.

`EXAMPLES` is the one table of the examples: each entry holds the field, the
datum and the field's flow together.  An exact solution is the datum pushed
forward by the Filippov flow of the field, rho(t) = Z_t # rho_0 (Poupaud and
Rascle), with quantile Z_t o Q_0 in 1-D (Santambrogio 2015, section 2.1).  The
example fields are piecewise constant, so each flow is affine between kinks,
and one image rule, `push_forward`, serves every entry.  The explicit Euler
flow shares the fields' pointwise conventions at jumps (the right value in x)
so scheme and reference never disagree about boundary values.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .measures import AnalyticMeasure, QuantileFunction, dirac, uniform
from .velocity import VelocityField, constant


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


def _example12_eval(t: float, x: np.ndarray) -> np.ndarray:
    # 1 left of the origin, 1/2 at and right of it
    return np.where(x < 0.0, 1.0, 0.5)


def _two_speed(t: float):
    # example1/2: speed 1 left of the origin, 1/2 from it on.  A point y in
    # [-t, 0) reaches the origin at time -y and moves on at half speed.
    return (-t, 0.0), (1.0, 0.5, 1.0), (t, t / 2, t / 2)


def _example3_eval(t: float, x: np.ndarray) -> np.ndarray:
    # 2 left of the moving front min(t, 1), 1 at and right of it
    front = min(t, 1.0)
    return np.where(x < front, 2.0, 1.0)


def _front(t: float):
    # example3: speed 2 left of the front min(t, 1), 1 from it on.  A point
    # y in [-1, 0) catches the front at time -y <= 1 and moves with it, and
    # on at unit speed after t = 1, so it sits at t; exact on the datum only.
    return (-t,), (1.0, 0.0), (2.0 * t, t)


def _unit_speed(t: float):
    return (), (1.0,), (t,)


class Example(NamedTuple):
    """A built-in example: the field, the datum, and the field's flow on the
    datum, flow(t) -> (kinks, slopes, shifts) as `push_forward` reads it."""

    field: VelocityField
    datum: AnalyticMeasure
    flow: Callable[[float], tuple]


_TWO_SPEED = VelocityField(_example12_eval, a_inf=1.0, name="two-speed")

# name -> (field, datum, flow); the one list of the built-in examples
EXAMPLES = {
    "example1": Example(_TWO_SPEED, dirac((-0.5,)), _two_speed),
    "example2": Example(_TWO_SPEED, uniform(-1.0, 1.0), _two_speed),
    "example3": Example(VelocityField(_example3_eval, a_inf=2.0,
                                      time_regularity="lipschitz", name="front"),
                        uniform(-1.0, 0.0), _front),
    "binomial": Example(constant(1.0), dirac((0.0,)), _unit_speed),
}


def push_forward(datum: AnalyticMeasure, flow) -> list[tuple[float, float, float]]:
    """Rows (lo, hi, mass) of a 1-D datum pushed by a flow (kinks, slopes,
    shifts), which sends y on [kinks[i-1], kinks[i]) to slopes[i] * y +
    shifts[i].  A density piece is cut at the kinks, and each part goes to
    the interval between the images of its ends, or to one atom (lo == hi)
    where the slope is 0.  Parts of no mass are left out; the rows are in
    order of position, an atom before an interval that starts at it."""
    kinks, slopes, shifts = flow
    rows = []
    for (y,), mass in datum.atoms:
        if mass > 0.0:
            i = bisect_right(kinks, y)
            x = slopes[i] * y + shifts[i]
            rows.append((x, x, mass))
    for a, b, h in datum.pieces:
        edges = (-math.inf, *kinks, math.inf)
        for k, s, left, right in zip(slopes, shifts, edges, edges[1:]):
            # max(a, left) and min(b, right) without the cost of the calls
            lo = left if left > a else a
            hi = right if right < b else b
            if not (lo < hi and h > 0.0):
                continue
            x_lo, x_hi = k * lo + s, k * hi + s
            if k == 0.0:
                rows.append((x_lo, x_lo, h * (hi - lo)))
            elif x_hi > x_lo:
                # the mass is the image's height h / k times its length, so
                # that the height reads back as mass / length
                rows.append((x_lo, x_hi, h / k * (x_hi - x_lo)))
    rows.sort()
    return rows


def quantile_of_analytic(m: AnalyticMeasure, flow=((), (1.0,), (0.0,))
                         ) -> QuantileFunction:
    """Generalized inverse CDF of a 1D analytic measure (atoms + densities)
    pushed forward by the flow (the identity by default): flat on an atom
    and affine on an interval of the push_forward rows, with the cumulative
    masses clipped to [0, 1] and the last set to 1 as in `from_masses`."""
    if m.dims != 1:
        raise ValueError("quantile functions are 1D only")
    z, v, s, acc = [0.0], [], [], 0.0
    for lo, hi, mass in push_forward(m, flow):
        acc += mass
        z.append(acc if acc < 1.0 else 1.0)
        v.append(lo)
        s.append((hi - lo) / mass)
    z[-1] = 1.0
    return QuantileFunction(np.array(z), np.array(v), np.array(s))


@dataclass(frozen=True)
class ExactSolution:
    """The measure solution of a built-in example at any time t >= 0."""

    kind: str

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in EXAMPLES:
            raise ValueError(f"unknown exact solution {self.kind!r}")

    def initial(self) -> AnalyticMeasure:
        return EXAMPLES[self.kind].datum

    def _at(self, t: float):
        """The datum and the flow to time t."""
        if t < 0.0:
            raise ValueError("t must be nonnegative")
        _, datum, flow = EXAMPLES[self.kind]
        return datum, flow(t)

    def measure(self, t: float) -> AnalyticMeasure:
        rows = push_forward(*self._at(t))
        return AnalyticMeasure(
            dims=1,
            atoms=tuple([((lo,), m) for lo, hi, m in rows if hi == lo]),
            pieces=tuple([(lo, hi, m / (hi - lo)) for lo, hi, m in rows if hi > lo]),
        )

    def position(self, t: float) -> tuple[float]:
        """Exact characteristic position, while the solution is one atom."""
        rows = push_forward(*self._at(t))
        if len(rows) != 1 or rows[0][0] != rows[0][1]:
            raise ValueError(f"{self.kind} at t={t} is not a Dirac")
        return (rows[0][0],)

    def quantile_fn(self, t: float) -> QuantileFunction:
        return quantile_of_analytic(*self._at(t))


def exact_solution(name: str) -> ExactSolution:
    return ExactSolution(kind=name)


_N_MAX = 10 ** 5


def binomial_w1_exact(n: int, q: float, dx: float) -> float:
    """W_1 error dx E|Bin(n, q) - nq| of the upwind walk from a node's Dirac
    after n steps of move probability q, by de Moivre's closed form
    2 (m+1) C(n, m+1) q^(m+1) (1-q)^(n-m), m = floor(nq) (Diaconis and Zabell,
    Statist. Sci. 1991).  A float q is a dyadic num/den, so the deviation is
    an integer ratio rounded once, before the product by dx; the cost grows
    with n times the bits of den (1 s at n = 10^5, q = 0.3)."""
    if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
            or not 0 <= n <= _N_MAX):
        raise ValueError(f"n must be an integer in [0, {_N_MAX}], not {n!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], not {q!r}")
    if not 0.0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, not {dx!r}")
    n = int(n)
    num, den = float(q).as_integer_ratio()
    m = n * num // den
    if m >= n:
        return 0.0
    mad = (2 * (m + 1) * math.comb(n, m + 1) * num ** (m + 1)
           * (den - num) ** (n - m))
    return dx * (mad / den ** (n + 1))
