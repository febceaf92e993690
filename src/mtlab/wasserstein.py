"""Exact Wasserstein distances, L1/BV utilities, interpolation inequality.

1D W_p is the L^p distance between quantile functions (Santambrogio 2015,
2.2; Peyre & Cuturi 2019, 2.6).  `wp_1d` is the one kernel for it, for any
finite p >= 1: quantile functions are held as arrays, the breakpoints of one
side are inserted into the other's in O(m + k log m), and |u|^p of the
affine difference is integrated in closed form on all merged intervals at
once, in a form that does not cancel when the endpoint magnitudes are
close.  1D densities are `AnalyticMeasure` pieces (lo, hi, height), and
there are two L1 rules on them: `l1_grid_vs_pieces` compares a grid window
with pieces (the studies), and `_difference` merges two piece lists into
one step function, which gives the L1 distance and the BV seminorm of the
interpolation check ||f-g||_L1 <= |f-g|_BV^(1/2) W_1(f,g)^(1/2).  In d >= 2
the discrete-discrete distance is an exact optimal-transport linear program
on the bipartite support graph (`wp_discrete`), solved with scipy's HiGHS;
that function imports scipy on its first call, so importing mtlab and every
1D distance run without it.
"""

from __future__ import annotations

import math

import numpy as np

from .flows import quantile_of_analytic
from .measures import (
    AnalyticMeasure,
    CartesianGrid,
    DimensionError,
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
    # W_inf is refused because the schemes do not converge in it: a chain's
    # support spreads a distance of order t from the exact solution, with
    # tiny mass out there, and W_inf sees that spread whatever its mass
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
    """Exact W_p between discrete measures via the transport linear program;
    DimensionError unless both live in the same dimension."""
    _check_same_dims(mu, nu)
    check_order(p)
    xm, wm = mu.positions(), mu.weight_array()
    xn, wn = nu.positions(), nu.weight_array()
    m, n = len(wm), len(wn)
    if m + n > _MAX_SUPPORT:
        raise ScaleError(
            f"combined support {m + n} exceeds {_MAX_SUPPORT}, the most nodes "
            "the exact transport LP takes"
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


def _check_same_dims(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if mu.grid.dims != nu.grid.dims:
        raise DimensionError(f"cannot compare a d={mu.grid.dims} measure with "
                             f"a d={nu.grid.dims} measure")


def w1_pair(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """W_p between two discrete measures of the same dimension, quantile
    route when 1D."""
    _check_same_dims(mu, nu)
    if mu.grid.dims == 1:
        return wp_1d(quantile(mu), quantile(nu), p)
    return wp_discrete(mu, nu, p)


def _density_pieces(m: AnalyticMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lo, hi and height arrays of a 1-D density; ValueError unless it has
    no atoms and its pieces are finite, nonempty, in order, disjoint and of
    nonnegative height."""
    if m.dims != 1 or m.atoms:
        raise ValueError("need a 1-D density without atoms")
    lo, hi, h = np.array(m.pieces, dtype=float).reshape(-1, 3).T
    if not (np.isfinite([lo, hi]).all() and (lo < hi).all()):
        raise ValueError("each piece needs finite ends lo < hi")
    if not (h >= 0.0).all():
        raise ValueError("densities must be nonnegative")
    if (lo[1:] < hi[:-1]).any():
        raise ValueError("pieces must be in order and disjoint")
    return lo, hi, h


def _difference(f, g) -> tuple[np.ndarray, np.ndarray]:
    """Merged breakpoints xs of two densities given as lo, hi and height
    arrays, and f - g on each interval [xs[i], xs[i+1]).

    Each side's height is read at the interval's left end, which lies in the
    same half-open piece as the whole interval, so f == g gives exact zeros.
    """
    xs = np.unique(np.concatenate([f[0], f[1], g[0], g[1]]))
    a = xs[:-1]

    def height(lo, hi, h):
        k = lo.searchsorted(a, side="right") - 1
        # k = -1 (left of every piece) reads the appended empty piece
        return np.where(a < np.append(hi, -np.inf)[k], np.append(h, 0.0)[k], 0.0)

    return xs, height(*f) - height(*g)


def _variation(d: np.ndarray) -> float:
    """Sum of the absolute jumps of a step function with values d, the jumps
    from and to 0 at its two ends included."""
    return float(np.abs(np.diff(d, prepend=0.0, append=0.0)).sum())


def bv_seminorm(m: AnalyticMeasure) -> float:
    """Total variation of a 1-D density: the sum of its absolute jumps, the
    drops to 0 at the ends of its pieces included."""
    return _variation(_difference(_density_pieces(m), (np.empty(0),) * 3)[1])


def interpolation_check(
    f: AnalyticMeasure, g: AnalyticMeasure, c: float
) -> tuple[float, bool]:
    """Ratio ||f-g||_L1 / (|f-g|_BV^(1/2) W_1(f,g)^(1/2)) and whether <= c.

    Both inputs must be 1-D probability densities (see `_density_pieces`;
    mass 1 within 1e-10), else ValueError; the ratio is 0 when f == g.
    """
    sides = [_density_pieces(f), _density_pieces(g)]
    if abs(f.mass() - 1.0) > 1e-10 or abs(g.mass() - 1.0) > 1e-10:
        raise ValueError("densities must have mass 1")
    xs, d = _difference(*sides)
    l1 = float(np.abs(d) @ np.diff(xs))
    if l1 == 0.0:
        return 0.0, True
    bv = _variation(d)
    if bv == 0.0:
        # unreachable for distinct piecewise constants; guarded anyway
        return math.inf, False
    w1 = wp_1d(quantile_of_analytic(f), quantile_of_analytic(g), 1.0)
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
    cells raises ScaleError.  A malformed density (`_density_pieces`) raises
    ValueError.
    """
    if grid.dims != 1:
        raise ValueError("L1 comparison is 1D only")
    if nu.atoms:
        raise ValueError("L1 distance against atoms is undefined")
    _density_pieces(nu)
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
