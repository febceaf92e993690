"""Exact Wasserstein distances, L1/BV utilities, interpolation inequality.

1D W_p is the L^p distance between quantile functions (Santambrogio 2015,
2.2; Peyre & Cuturi 2019, 2.6).  `wp_1d` is the one kernel for it, for any
finite p >= 1: quantile functions are held as arrays, the breakpoints of one
side are inserted into the other's in O(m + k log m), and |u|^p of the
affine difference is integrated in closed form on all merged intervals at
once, in a form that does not cancel when the endpoint magnitudes are
close.  `l1_grid_vs_pieces` is the one 1D L1 distance.  In d >= 2 the
discrete-discrete distance is an exact optimal-transport linear program on
the bipartite support graph (`wp_discrete`), solved with scipy's HiGHS; that
function imports scipy on its first call, so importing mtlab and every 1D
distance run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    AnalyticMeasure,
    CartesianGrid,
    DiscreteMeasure,
    QuantileFunction,
    quantile,
)

_MAX_SUPPORT = 5000
_MAX_L1_CELLS = 2 ** 22
_TINY = np.finfo(float).tiny


class ScaleError(RuntimeError):
    """Problem too large for the exact solver."""


def check_order(p: float) -> None:
    """ValueError unless the order p of a W_p distance is finite and >= 1."""
    if not (math.isfinite(p) and p >= 1.0):
        raise ValueError(f"p must be finite and at least 1, got {p!r}")


def _insert_sorted(
    base: np.ndarray, extra: np.ndarray, pos: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted base with sorted extra[i] inserted before base[pos[i]], in
    O(len(base) + len(extra)).

    Returns the merged array, the index of the last base entry at or before
    each merged entry (-1 before base[0]), and the merged position of each
    inserted entry.
    """
    at = pos + np.arange(len(extra))
    count = np.zeros(len(base) + len(extra), dtype=np.intp)
    count[at] = 1
    idx = np.arange(len(count)) - count.cumsum()
    merged = base[idx]
    merged[at] = extra
    return merged, idx, at


def _mean_abs_pow(u0: np.ndarray, u1: np.ndarray, p: float) -> np.ndarray:
    """Mean of |u|^p over each segment on which u runs affinely from u0 to u1.

    For p = 2 it is (u0^2 + u0 u1 + u1^2) / 3, and for p = 1 it is
    (|u0| + |u1|) / 2 less |u0 u1| / (|u0| + |u1|) when u crosses 0.  For
    other p, with lo <= hi the endpoint magnitudes, it is (lo^(p+1) +
    hi^(p+1)) / ((p+1)(lo + hi)) when u crosses 0 and (hi^(p+1) - lo^(p+1)) /
    ((p+1)(hi - lo)) when it keeps its sign; the latter cancels as lo -> hi,
    so it is written with log1p/expm1 of the relative gap (hi - lo)/hi.
    """
    if p == 2.0:
        return (u0 * u0 + u0 * u1 + u1 * u1) / 3.0
    a0, a1 = np.abs(u0), np.abs(u1)
    if p == 1.0:
        total = a0 + a1
        # tiny floor: where both ends are 0 the product is 0 too
        return 0.5 * total + np.minimum(u0 * u1, 0.0) / np.maximum(total, _TINY)
    lo, hi = np.minimum(a0, a1), np.maximum(a0, a1)
    q = p + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # unselected 0/0
        gap = (hi - lo) / hi
        keep = hi ** p * np.where(gap > 0.0, -np.expm1(q * np.log1p(-gap)) / (q * gap),
                                  1.0)
        flip = (lo ** q + hi ** q) / (q * (lo + hi))
    return np.where(u0 * u1 < 0.0, flip, keep)


def wp_1d(mu_q: QuantileFunction, nu_q: QuantileFunction, p: float = 1.0) -> float:
    """W_p between two 1D measures given by their quantile functions, for any
    finite p >= 1.

    W_p^p is the integral over [0, 1] of |F^-1 - G^-1|^p (Santambrogio,
    Optimal Transport for Applied Mathematicians, 2015, 2.2).  The
    breakpoints of the side with fewer pieces (k) are inserted into the
    other side's (m), which costs O(m + k log m), and the insert gives each
    merged interval its piece on both sides.  The difference is affine on
    every interval; its p-th power is integrated in closed form.
    """
    check_order(p)
    big, small = (mu_q, nu_q) if len(mu_q.v) >= len(nu_q.v) else (nu_q, mu_q)
    if len(small.v) == 1:  # a Dirac or one density piece: nothing to insert
        kb, ks, z = slice(None), 0, big.z
    else:
        # an inner breakpoint at 1 goes before the final 1, so that every
        # merged interval lies in a piece of both sides
        inner = small.z[1:-1]
        z, kb, _ = _insert_sorted(big.z, inner,
                                  big.z[:-1].searchsorted(inner, side="right"))
        kb = kb[:-1]
        ks = np.arange(len(kb)) - kb
    a, w = z[:-1], z[1:] - z[:-1]
    flat_b, flat_s = not np.count_nonzero(big.s), not np.count_nonzero(small.s)
    A = ((big.v[kb] if flat_b else big.v[kb] + big.s[kb] * (a - big.z[:-1][kb]))
         - (small.v[ks] if flat_s else
            small.v[ks] + small.s[ks] * (a - small.z[:-1][ks])))
    if flat_b and flat_s:  # two step functions
        d = np.abs(A)
        return float(np.dot(w, d if p == 1.0 else d ** p)) ** (1.0 / p)
    S = (0.0 if flat_b else big.s[kb]) - (0.0 if flat_s else small.s[ks])
    return float(np.dot(w, _mean_abs_pow(A, A + S * w, p))) ** (1.0 / p)


def wp_discrete(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """Exact W_p between discrete measures via the transport linear program."""
    check_order(p)
    xm, wm = mu.positions(), mu.weight_array()
    xn, wn = nu.positions(), nu.weight_array()
    m, n = len(wm), len(wn)
    if m + n > _MAX_SUPPORT:
        raise ScaleError(
            f"combined support {m + n} exceeds {_MAX_SUPPORT}; "
            "use wp_1d for one-dimensional inputs"
        )
    # imported here, after the checks, so that only an LP that runs pays for
    # scipy (0.5 s, 48 MB)
    import scipy.sparse as sp
    from scipy.optimize import linprog

    cost = np.linalg.norm(xm[:, None, :] - xn[None, :, :], axis=2) ** p
    rows_mu = sp.kron(sp.eye(m), np.ones((1, n)), format="csr")
    rows_nu = sp.kron(np.ones((1, m)), sp.eye(n), format="csr")
    # drop one redundant marginal constraint to keep A_eq full rank
    A_eq = sp.vstack([rows_mu, rows_nu[:-1]], format="csr")
    b_eq = np.concatenate([wm, wn[:-1]])
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return max(res.fun, 0.0) ** (1.0 / p)


def w1_pair(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """W_p between two discrete measures, quantile route when 1D."""
    if mu.grid.dims == 1 and nu.grid.dims == 1:
        return wp_1d(quantile(mu), quantile(nu), p)
    return wp_discrete(mu, nu, p)


@dataclass(frozen=True)
class PiecewiseConstantDensity:
    """Compactly supported piecewise-constant density: values between
    consecutive breakpoints, zero outside."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breaks) - 1:
            raise ValueError("need one value per interval")
        if any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    def mass(self) -> float:
        return math.fsum(
            v * (b - a) for a, b, v in zip(self.breaks, self.breaks[1:], self.values)
        )

    def __call__(self, x: float) -> float:
        for a, b, v in zip(self.breaks, self.breaks[1:], self.values):
            if a <= x < b:
                return v
        return 0.0

    def as_measure(self) -> AnalyticMeasure:
        pieces = tuple(
            (a, b, v)
            for a, b, v in zip(self.breaks, self.breaks[1:], self.values)
            if v != 0.0
        )
        return AnalyticMeasure(dims=1, pieces=pieces)


def indicator(lo: float, hi: float, height: float = 1.0) -> PiecewiseConstantDensity:
    return PiecewiseConstantDensity((lo, hi), (height,))


def _merge_densities(
    f: PiecewiseConstantDensity, g: PiecewiseConstantDensity
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.array(sorted(set(f.breaks) | set(g.breaks)))
    mids = 0.5 * (xs[:-1] + xs[1:])
    fv = np.array([f(x) for x in mids])
    gv = np.array([g(x) for x in mids])
    return xs, fv, gv


def l1_densities(f: PiecewiseConstantDensity, g: PiecewiseConstantDensity) -> float:
    xs, fv, gv = _merge_densities(f, g)
    return float(np.abs(fv - gv) @ np.diff(xs))


def bv_seminorm(f: PiecewiseConstantDensity) -> float:
    """Total variation: sum of absolute jumps, boundary drops to 0 included."""
    padded = np.concatenate([[0.0], np.asarray(f.values), [0.0]])
    return float(np.abs(np.diff(padded)).sum())


def bv_of_difference(
    f: PiecewiseConstantDensity, g: PiecewiseConstantDensity
) -> float:
    xs, fv, gv = _merge_densities(f, g)
    padded = np.concatenate([[0.0], fv - gv, [0.0]])
    return float(np.abs(np.diff(padded)).sum())


def w1_densities(f: PiecewiseConstantDensity, g: PiecewiseConstantDensity) -> float:
    from .flows import quantile_of_analytic

    return wp_1d(quantile_of_analytic(f.as_measure()),
                 quantile_of_analytic(g.as_measure()), 1.0)


def interpolation_check(
    f: PiecewiseConstantDensity, g: PiecewiseConstantDensity, c: float
) -> tuple[float, bool]:
    """Ratio ||f-g||_L1 / (|f-g|_BV^(1/2) W_1(f,g)^(1/2)) and whether <= c.

    Both inputs must be nonnegative probability densities; the ratio is 0
    when f == g.
    """
    for dens in (f, g):
        if any(v < 0.0 for v in dens.values):
            raise ValueError("densities must be nonnegative")
        if abs(dens.mass() - 1.0) > 1e-10:
            raise ValueError("densities must have mass 1")
    l1 = l1_densities(f, g)
    if l1 == 0.0:
        return 0.0, True
    bv = bv_of_difference(f, g)
    if bv == 0.0:
        # unreachable for distinct piecewise constants; guarded anyway
        return math.inf, False
    w1 = w1_densities(f, g)
    ratio = l1 / math.sqrt(bv * w1)
    return ratio, ratio <= c


def l1_distance(
    mu: DiscreteMeasure, nu: AnalyticMeasure, grid: CartesianGrid
) -> float:
    """L1 distance between the cellwise-constant numerical density and an
    absolutely continuous exact density (1D).

    The weights are laid out on the contiguous index window from the
    smallest to the largest support index, so time and memory grow with that
    span, not with the number of support nodes; a span over _MAX_L1_CELLS
    cells raises ScaleError.
    """
    if grid.dims != 1:
        raise ValueError("L1 comparison is 1D only")
    if nu.atoms:
        raise ValueError("L1 distance against atoms is undefined")
    js = [j for (j,) in mu.weights]
    jmin = min(js, default=0)
    span = max(js, default=0) - jmin + 1
    if span > _MAX_L1_CELLS:
        raise ScaleError(
            f"support spans {span} cells; the L1 window holds at most "
            f"{_MAX_L1_CELLS}"
        )
    window = np.zeros(span)
    window[np.array(js, dtype=np.int64) - jmin] = list(mu.weights.values())
    return l1_grid_vs_pieces(jmin, window, grid.dx[0], nu.pieces)


def l1_grid_vs_pieces(
    jmin: int, ws: np.ndarray, dx: float, pieces
) -> float:
    """L1 distance between the cellwise density ws/dx on the contiguous index
    window starting at jmin and a short list of (lo, hi, height) pieces.

    The piece edges are inserted into the cell edges; the exact density on a
    merged interval is the sum of the height jumps at or before its left end.
    """
    m = len(ws)
    cell_edges = (jmin - 0.5 + np.arange(m + 1)) * dx
    lo, hi, h = np.array(pieces, dtype=float).reshape(-1, 3).T
    # upper edges first, so adjacent pieces cancel exactly at a shared edge
    edges = np.concatenate([hi, lo])
    order = np.argsort(edges, kind="stable")
    edges = edges[order]
    xs, cell, at = _insert_sorted(cell_edges, edges, cell_edges.searchsorted(edges))
    jumps = np.zeros(len(xs))
    jumps[at] = np.concatenate([-h, h])[order]
    exact = jumps.cumsum()[:-1]
    num = np.concatenate([[0.0], ws / dx, [0.0]])[cell[:-1] + 1]
    return float(np.dot(np.abs(num - exact), xs[1:] - xs[:-1]))
