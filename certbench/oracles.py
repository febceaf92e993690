"""Checks of mtlab's outputs, computed apart from mtlab.

Each check states a property the method must have, not a copy of a past
output.  Checks take plain numbers and numpy arrays and return a list of
failure messages; an empty list means the output passed.  A discrete measure
is a pair ``(idx, w)``: integer node indices of shape (m, d) and weights of
shape (m,).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

ORDER_HALF = (0.40, 0.60)
ORDER_ONE = (0.85, 1.15)

MASS_TOL = 1e-12
GRID_DRIFT_TOL = 1e-12
NODE_DRIFT_TOL = 1e-10
LAW_TOL = 1e-12
BINOMIAL_REL_TOL = 1e-9
# false-rejection probability of one statistical check on a correct sampler
STAT_DELTA = 1e-6

_KEY_SHIFT = 1 << 20


def fitted_order(ns, errs) -> float:
    """Negated least-squares slope of log(error) against log(N)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(errs, dtype=float))
    xc = x - x.mean()
    return -float(xc @ (y - y.mean()) / (xc @ xc))


def check_order(name: str, ns, errs, window) -> list[str]:
    errs = np.asarray(errs, dtype=float)
    if len(ns) < 2 or not np.all(np.isfinite(errs)) or np.any(errs <= 0.0):
        return [f"{name}: errors must be finite and positive, got {errs.tolist()}"]
    order = fitted_order(ns, errs)
    lo, hi = window
    if not lo <= order <= hi:
        return [f"{name}: fitted order {order:.4f} outside [{lo}, {hi}]"]
    return []


def check_finite(name: str, values) -> list[str]:
    if not all(math.isfinite(v) for v in values):
        return [f"{name}: non-finite value in {list(values)}"]
    return []


def binomial_mad(n: int) -> float:
    """E|S - n/2| for S ~ Bin(n, 1/2), summed exactly over all outcomes."""
    total, c = 0, 1
    for j in range(n + 1):
        total += c * abs(2 * j - n)
        c = c * (n - j) // (j + 1)
    return float(Fraction(total, 2 ** (n + 1)))


def check_binomial(ns, dxs, steps, errs) -> list[str]:
    """The unit-speed upwind run at dt/dx = 1/2 from a Dirac on a node has
    binomial weights, so its W1 error after n steps is dx * E|Bin(n,1/2) - n/2|.
    That mean absolute deviation is nondecreasing in n, so the max over steps
    is reached at the last step."""
    out = []
    for N, dx, n, err in zip(ns, dxs, steps, errs):
        ref = dx * binomial_mad(n)
        if not abs(err - ref) <= BINOMIAL_REL_TOL * ref:
            out.append(f"binomial N={N}: error {err!r} != dx E|Bin-n/2| = {ref!r}")
    return out


def check_w1_le_w2(ns_w1, w1, ns_w2, w2) -> list[str]:
    """W1 <= W2 for every pair of measures, hence for their max over steps
    (up to a relative 1e-12 of rounding)."""
    by_n = dict(zip(ns_w1, w1))
    shared = [(n, e2) for n, e2 in zip(ns_w2, w2) if n in by_n]
    if not shared:
        return ["W1 <= W2: the two studies share no resolution"]
    return [f"W1 <= W2 fails at N={n}: {by_n[n]!r} > {e2!r}"
            for n, e2 in shared if by_n[n] > e2 * (1.0 + 1e-12)]


def _keys(idx: np.ndarray) -> np.ndarray:
    """One int64 per multi-index (|index| < 2^19 per axis, d <= 3)."""
    idx = np.asarray(idx, dtype=np.int64)
    key = np.zeros(len(idx), dtype=np.int64)
    for i in range(idx.shape[1]):
        key = key * (2 * _KEY_SHIFT) + (idx[:, i] + _KEY_SHIFT)
    return key


def first_moment(pos: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.array([math.fsum(w * pos[:, i]) for i in range(pos.shape[1])])


def _mass_and_sign(tag: str, w: np.ndarray) -> list[str]:
    out = []
    if len(w) and w.min() < 0.0:
        out.append(f"{tag}: negative weight {w.min()!r}")
    defect = abs(math.fsum(w) - 1.0)
    if not defect <= MASS_TOL:
        out.append(f"{tag}: mass defect {defect:.3e} > {MASS_TOL}")
    return out


def _drift(tag, pos0, w0, pos1, w1, velocity, dt, tol) -> list[str]:
    """First moment advances by dt * sum_J w_J a(x_J)."""
    moved = first_moment(pos1, w1) - first_moment(pos0, w0)
    a = np.asarray(velocity(pos0), dtype=float).reshape(pos0.shape)
    expect = dt * first_moment(a, w0)
    dev = float(np.max(np.abs(moved - expect)))
    if not dev <= tol:
        return [f"{tag}: first-moment drift off by {dev:.3e} > {tol}"]
    return []


def check_grid_run(history, dx, dt, velocity) -> list[str]:
    """Mass, positivity, one-ring support growth and the drift identity of a
    grid-scheme run.  history: list of (idx, w); velocity maps node positions
    (m, d) to node velocities (m, d).  Fields here do not depend on time."""
    dx = np.asarray(dx, dtype=float)
    d = len(dx)
    out = []
    for n, (idx, w) in enumerate(history):
        out += _mass_and_sign(f"step {n}", w)
        if n == 0:
            continue
        idx0, w0 = history[n - 1]
        reach = [idx0] + [idx0 + s * np.eye(d, dtype=np.int64)[i]
                          for i in range(d) for s in (1, -1)]
        inside = np.isin(_keys(idx), _keys(np.concatenate(reach)))
        if not inside.all():
            out.append(f"step {n}: node {idx[~inside][0].tolist()} is more "
                       "than one axis move from the previous support")
        out += _drift(f"step {n}", idx0 * dx, w0, idx * dx, w, velocity, dt,
                      GRID_DRIFT_TOL)
    return out


def check_node_run(history, nodes, dt, velocity) -> list[str]:
    """Mass, positivity and the drift identity of a semi-Lagrangian run on
    mesh nodes (barycentric splitting keeps the displaced point's mean).
    history: list of (node ids, w)."""
    out = []
    for n, (ids, w) in enumerate(history):
        out += _mass_and_sign(f"step {n}", w)
        if n:
            ids0, w0 = history[n - 1]
            out += _drift(f"step {n}", nodes[ids0], w0, nodes[ids], w,
                          velocity, dt, NODE_DRIFT_TOL)
    return out


def check_same_law(law: dict, ref: dict) -> list[str]:
    """Chain law and scheme weights agree node by node."""
    keys = set(law) | set(ref)
    dev = max((abs(law.get(k, 0.0) - ref.get(k, 0.0)) for k in keys), default=0.0)
    if not dev <= LAW_TOL:
        return [f"chain law differs from scheme weights by {dev:.3e} > {LAW_TOL}"]
    return []


def move_probabilities(kind: str, a: np.ndarray, a_inf: float, lam: np.ndarray):
    """Per-axis probabilities (right, left) of one grid-scheme step."""
    if kind == "upwind":
        return lam * np.maximum(a, 0.0), lam * np.maximum(-a, 0.0)
    return lam * 0.5 * (a + a_inf), lam * 0.5 * (a_inf - a)


def bernstein_radius(visits, sigma, bound, tests: int) -> np.ndarray:
    """Half-width of a Bernstein interval for the mean of `visits` i.i.d.
    increments with standard deviation sigma and |increment| <= bound, at
    level STAT_DELTA / tests (Bonferroni over `tests` intervals)."""
    ell = math.log(2.0 * tests / STAT_DELTA)
    b = 2.0 * bound * ell / 3.0
    return (b + np.sqrt(b * b + 8.0 * visits * sigma * sigma * ell)) / (2.0 * visits)


def check_increments(per_step, max_abs_h, dx_max: float, tests: int) -> list[str]:
    """Martingale property of the sampled chain.

    per_step[n] is a list of (state, visits, mean, sigma, bound): the empirical
    mean of h = X^{n+1} - X^n - dt a(X^n) over the paths in `state`, with the
    exact per-axis standard deviation and bound of h there.  Given the state,
    increments are i.i.d. with mean 0, so each |mean| must lie within its
    Bernstein radius; `tests` counts every (state, step, axis) the exact law
    can reach, which makes the union bound hold before sampling.
    """
    out = []
    for n, rows in enumerate(per_step):
        for state, visits, mean, sigma, bound in rows:
            radius = bernstein_radius(visits, sigma, bound, tests)
            if np.any(np.abs(mean) > radius):
                out.append(f"step {n} state {list(state)}: mean increment "
                           f"{np.asarray(mean).tolist()} beyond {radius.tolist()}")
        if not max_abs_h[n] <= 2.0 * dx_max + 1e-14:
            out.append(f"step {n}: |h| = {max_abs_h[n]!r} > 2 dx")
    return out


def check_empirical_law(emp: dict, law: dict, count: int) -> list[str]:
    """Empirical law of `count` i.i.d. paths against the exact law.

    E TV <= 1/2 sum_J sqrt(p_J (1 - p_J) / count), and TV moves by at most
    1/count per path, so McDiarmid bounds the excess at level STAT_DELTA.
    """
    out = []
    outside = [k for k in emp if law.get(k, 0.0) == 0.0]
    if outside:
        out.append(f"empirical law visits {outside[0]}, outside the exact law")
    bad = [k for k, v in emp.items() if abs(v * count - round(v * count)) > 1e-6]
    if bad:
        out.append(f"empirical weight at {bad[0]} is not a path count / {count}")
    p = np.array(list(law.values()))
    bound = 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) / count))) \
        + math.sqrt(math.log(1.0 / STAT_DELTA) / (2.0 * count))
    keys = set(emp) | set(law)
    tv = 0.5 * math.fsum(abs(emp.get(k, 0.0) - law.get(k, 0.0)) for k in keys)
    if not tv <= bound:
        out.append(f"empirical law TV {tv:.4f} > {bound:.4f}")
    return out


def check_report_echo(config: dict, expected: dict) -> list[str]:
    """A written report must repeat the configuration that produced it."""
    out = []
    for key, value in expected.items():
        got = config.get(key)
        if got != value:
            out.append(f"report config {key}={got!r}, study ran {value!r}")
    return out
