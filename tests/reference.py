"""Loop references for the array engine of the grid schemes and the chain,
and for the 1D distance kernels.

`reference_step` is the per-node form of one scheme step: each support node
calls the field on its own and every target sums its contributions with
`math.fsum` in a dict.  The sampling references group paths by state with
`np.unique(..., axis=0)` and read kernel rows one state at a time.  The
array code in `mtlab.schemes` and `mtlab.stochastic` is tested against them.

`reference_wp_1d` integrates interval by interval over the merged
breakpoints (found by a linear scan per interval), `reference_w1_grid` is the
earlier vectorized W_1 of a grid window against a quantile function, and
`reference_l1_distance` sums cell by cell; `mtlab.wasserstein` is tested
against them.

`reference_interpolation` reads two 1D densities at the midpoints of their
merged breakpoints, one point at a time, and gives the L1 distance, the BV
seminorm of the difference and the interpolation ratio; `reference_bv` is
the same rule for one density.  `mtlab.wasserstein`'s interpolation check
and BV seminorm are tested against them.

`reference_grid_error` is the grid study's resolution loop on dicts: a
`reference_step` per step, and the distance to the closed form of the exact
solution by `reference_w1_grid`, `reference_wp_1d` or `reference_l1_distance`;
`reference_tri_error` is the triangulated study's resolution loop on node
measures: a `sl_step` per step, the pruned weights dropped by a dict
comprehension, and W_1 to the Dirac summed over a weight list rebuilt from
the dict.  The window steppers of `mtlab.harness` are tested against them.

`reference_exact_measure` is the closed form of each example's exact
solution, written out per example as piece tables, and
`reference_quantile` the earlier quantile of such a measure, its parts
sorted by position and built by `QuantileFunction.from_masses`; the flow
maps and the image rule of `mtlab.flows` are tested against them.

The oracles at the end are used by tests only: `binomial_w1_bruteforce` sums
the binomial law term by term in exact fractions, `measure_from_quantile`
pushes a step quantile back to a grid measure, and `parse_mesh` /
`format_mesh` are a mesh text format.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mtlab.harness import step_count
from mtlab.measures import (
    AnalyticMeasure,
    DiscreteMeasure,
    QuantileFunction,
    dirac,
    project_initial,
)
from mtlab.schemes import SchemeSpec
from mtlab.simplex import NodeMeasure, TriMesh, node_nearest, sl_step, structured_mesh
from mtlab.velocity import constant


def reference_coefficients(spec, field, n, J, grid):
    """(zeta, beta) of node J from one field call at x_J (two per axis for
    the interface control)."""
    x = grid.node_array(J)
    t0, t1 = grid.time(n), grid.time(n + 1)
    if spec.kind in ("upwind", "rusanov"):
        a = np.atleast_1d(field.time_average(t0, t1, x))
        if spec.kind == "upwind":
            return np.maximum(a, 0.0), np.maximum(-a, 0.0)
        return 0.5 * (a + field.a_inf), 0.5 * (field.a_inf - a)
    zeta = np.empty(grid.dims)
    beta = np.empty(grid.dims)
    for i in range(grid.dims):
        xr = x.copy()
        xr[i] += 0.5 * grid.dx[i]
        xl = x.copy()
        xl[i] -= 0.5 * grid.dx[i]
        ar = np.atleast_1d(field.time_average(t0, t1, xr))[i if grid.dims > 1 else 0]
        al = np.atleast_1d(field.time_average(t0, t1, xl))[i if grid.dims > 1 else 0]
        zeta[i] = max(ar, 0.0)
        beta[i] = max(-al, 0.0)
    return zeta, beta


def reference_step(mu, spec, field, n):
    """One scheme step, node by node, with fsum accumulation per target."""
    grid = mu.grid
    lam = np.array([grid.dt / h for h in grid.dx])
    contrib: dict = {}
    for J in mu.support():
        w = mu.weights[J]
        zeta, beta = reference_coefficients(spec, field, n, J, grid)
        stay = max(0.0, 1.0 - float(lam @ (zeta + beta)))
        contrib.setdefault(J, []).append(stay * w)
        for i in range(grid.dims):
            if zeta[i] != 0.0:
                R = J[:i] + (J[i] + 1,) + J[i + 1:]
                contrib.setdefault(R, []).append(lam[i] * zeta[i] * w)
            if beta[i] != 0.0:
                L = J[:i] + (J[i] - 1,) + J[i + 1:]
                contrib.setdefault(L, []).append(lam[i] * beta[i] * w)
    weights = {J: math.fsum(contrib[J]) for J in sorted(contrib)}
    return DiscreteMeasure(grid, weights)


def reference_sample_paths(mu0, kernels, count, seed):
    """Paths array of the sampler, states grouped by row-unique."""
    d = mu0.grid.dims
    sup = mu0.support()
    cdf = np.cumsum(mu0.weight_array())
    cdf[-1] = 1.0
    u0 = np.random.Generator(np.random.Philox(key=[seed, 0])).random(count)
    paths = np.empty((count, len(kernels) + 1, d), dtype=np.int64)
    paths[:, 0, :] = np.array(sup, dtype=np.int64)[np.searchsorted(cdf, u0, side="right")]
    for n, kernel in enumerate(kernels):
        states, inv = np.unique(paths[:, n, :], axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        rows = [kernel.row(tuple(int(v) for v in s)) for s in states]
        cdfs = np.array([np.cumsum([p for _, p in row]) for row in rows])
        cdfs[:, -1] = 1.0
        u = np.random.Generator(np.random.Philox(key=[seed, n + 1])).random(count)
        choice = (cdfs[inv] < u[:, None]).sum(axis=1)
        targets = np.array([[t for t, _ in row] for row in rows], dtype=np.int64)
        paths[:, n + 1, :] = targets[inv, choice]
    return paths


def reference_increments(batch, field, grid, min_visits):
    """[(per_state, skipped, max|h|, mean|h|, mean|h|^2)] per step, with a
    boolean mask and one field call per state."""
    dx = np.array(grid.dx)
    out = []
    paths = batch.paths.astype(np.int64)
    for n in range(paths.shape[1] - 1):
        cur, nxt = paths[:, n, :], paths[:, n + 1, :]
        incr = (nxt - cur) * dx
        states, inv = np.unique(cur, axis=0, return_inverse=True)
        inv = inv.reshape(-1)
        t0, t1 = grid.time(n), grid.time(n + 1)
        drift = np.array([np.atleast_1d(field.time_average(t0, t1, s * dx)) * grid.dt
                          for s in states])
        h = incr - drift[inv]
        habs = np.sqrt((h * h).sum(axis=1))
        per_state, skipped = {}, {}
        for s_idx, s in enumerate(states):
            mask = inv == s_idx
            visits = int(mask.sum())
            J = tuple(int(v) for v in s)
            if visits < min_visits:
                skipped[J] = visits
                continue
            hs = h[mask]
            stderr = float(hs.std(axis=0, ddof=1).max() / math.sqrt(visits)) \
                if visits > 1 else 0.0
            per_state[J] = (visits, hs.mean(axis=0), stderr)
        out.append((per_state, skipped, float(habs.max()), float(habs.mean()),
                    float((habs * habs).mean())))
    return out


def reference_empirical_law(batch, n):
    states, counts = np.unique(batch.paths[:, n, :], axis=0, return_counts=True)
    return {tuple(int(v) for v in s): c / batch.count for s, c in zip(states, counts)}


def _pieces(q):
    """(z_lo, z_hi, value_at_z_lo, slope) tuples of a quantile function."""
    return list(zip(q.z[:-1].tolist(), q.z[1:].tolist(), q.v.tolist(), q.s.tolist()))


def _piece_at(pieces, z):
    for piece in pieces:
        if piece[0] <= z < piece[1]:
            return piece
    return pieces[-1]


def _abs_pow_integral(A, S, w, p):
    """Integral of |A + S z|^p over [0, w], as G(u1) - G(u0)."""
    if w <= 0.0:
        return 0.0
    if S == 0.0:
        return abs(A) ** p * w
    u0, u1 = A, A + S * w

    def G(u):
        return math.copysign(abs(u) ** (p + 1.0), u) / ((p + 1.0) * S)

    return G(u1) - G(u0)


def reference_wp_1d(mu_q, nu_q, p=1.0):
    """W_p over the merged breakpoints (those closer than 1e-14 merged), one
    interval at a time, each side's piece found at the interval's midpoint."""
    pm, pn = _pieces(mu_q), _pieces(nu_q)
    zs = sorted({piece[0] for piece in pm + pn} | {1.0})
    merged = [zs[0]]
    for z in zs[1:]:
        if z - merged[-1] > 1e-14:
            merged.append(z)
    merged[0], merged[-1] = 0.0, 1.0
    acc = []
    for a, b in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (a + b)
        z0m, _, vm, sm = _piece_at(pm, mid)
        z0n, _, vn, sn = _piece_at(pn, mid)
        A = (vm + sm * (a - z0m)) - (vn + sn * (a - z0n))
        acc.append(_abs_pow_integral(A, sm - sn, b - a, p))
    return math.fsum(acc) ** (1.0 / p)


def reference_w1_grid(xs, ws, exact):
    """W_1 between weights ws at sorted nodes xs and a quantile function,
    over np.unique of all breakpoints, pieces found by midpoint search."""
    keep = ws > 0.0
    xs, ws = xs[keep], ws[keep]
    u = np.cumsum(ws)
    u[-1] = 1.0
    q_z0, q_v, q_s = exact.z[:-1], exact.v, exact.s
    zb = np.unique(np.concatenate([[0.0], u, q_z0, [1.0]]))
    zb = zb[(zb >= 0.0) & (zb <= 1.0)]
    zl, zr = zb[:-1], zb[1:]
    wdt = zr - zl
    mid = 0.5 * (zl + zr)
    atom = xs[np.minimum(np.searchsorted(u, mid, side="right"), len(xs) - 1)]
    pidx = np.maximum(np.searchsorted(q_z0, mid, side="right") - 1, 0)
    dl = atom - (q_v[pidx] + q_s[pidx] * (zl - q_z0[pidx]))
    dr = atom - (q_v[pidx] + q_s[pidx] * (zr - q_z0[pidx]))
    adl, adr = np.abs(dl), np.abs(dr)
    area_same = 0.5 * (adl + adr) * wdt
    denom = np.where(adl + adr > 0.0, adl + adr, 1.0)
    area_cross = 0.5 * (adl * adl + adr * adr) / denom * wdt
    return float(np.where(dl * dr >= 0.0, area_same, area_cross).sum())


def reference_l1_distance(mu, nu, grid):
    """L1 distance of the cellwise density of mu and the pieces of nu, one
    merged interval at a time."""
    dx = grid.dx[0]
    edges = set()
    for (j,) in mu.support():
        edges.add((j - 0.5) * dx)
        edges.add((j + 0.5) * dx)
    for lo, hi, _ in nu.pieces:
        edges.add(lo)
        edges.add(hi)
    xs = sorted(edges)
    acc = []
    for a, b in zip(xs[:-1], xs[1:]):
        mid = 0.5 * (a + b)
        j = math.floor(mid / dx + 0.5)
        num = mu.weights.get((j,), 0.0) / dx
        exact = sum(h for lo, hi, h in nu.pieces if lo <= mid < hi)
        acc.append(abs(num - exact) * (b - a))
    return math.fsum(acc)


def _density_at(m, x):
    for lo, hi, h in m.pieces:
        if lo <= x < hi:
            return h
    return 0.0


def _merged_difference(f, g):
    """Merged breakpoints of two densities and f - g at each interval's
    midpoint."""
    xs = sorted({x for lo, hi, _ in f.pieces + g.pieces for x in (lo, hi)})
    mids = [0.5 * (a + b) for a, b in zip(xs[:-1], xs[1:])]
    return xs, [_density_at(f, x) - _density_at(g, x) for x in mids]


def _jumps(d):
    return math.fsum(abs(b - a) for a, b in zip([0.0, *d], [*d, 0.0]))


def reference_bv(m):
    """Total variation of a 1D density, its drops to 0 included."""
    return _jumps(_merged_difference(m, AnalyticMeasure(dims=1))[1])


def reference_interpolation(f, g):
    """(L1, BV of f - g, ratio L1 / sqrt(BV W_1)) of two 1D densities; the
    ratio is 0 when L1 is."""
    xs, d = _merged_difference(f, g)
    l1 = math.fsum(abs(v) * (b - a) for v, a, b in zip(d, xs[:-1], xs[1:]))
    bv = _jumps(d)
    if l1 == 0.0:
        return l1, bv, 0.0
    w1 = reference_wp_1d(reference_quantile(f), reference_quantile(g))
    return l1, bv, l1 / math.sqrt(bv * w1)


def reference_grid_error(cfg, N):
    """Max-over-steps error of the grid study `cfg` at resolution N, stepping
    the projected datum's dict by `reference_step` and measuring each law
    against `reference_exact_measure` of the example at that time."""
    grid = cfg.grid_for(N)
    spec, field = SchemeSpec(cfg.scheme), cfg.field()

    def distance(mu, t):
        exact = reference_exact_measure(cfg.example, t)
        if cfg.order is None:
            return reference_l1_distance(mu, exact, grid)
        sup = mu.support()
        xs = np.array([j for (j,) in sup]) * grid.dx[0]
        ws = np.array([mu.weights[J] for J in sup])
        if cfg.order == 1.0:
            return reference_w1_grid(xs, ws, reference_quantile(exact))
        atoms = AnalyticMeasure(dims=1, atoms=tuple(((x,), w) for x, w in zip(xs, ws)))
        return reference_wp_1d(reference_quantile(atoms), reference_quantile(exact),
                               cfg.order)

    mu = project_initial(cfg.initial(), grid)
    worst = distance(mu, 0.0)
    for n in range(step_count(cfg.T, grid.dt)):
        mu = reference_step(mu, spec, field, n)
        worst = max(worst, distance(mu, (n + 1) * grid.dt))
    return worst


def reference_tri_error(cfg, N):
    """Max-over-steps W_1 error of the triangulated study `cfg` at
    resolution N, stepping a `NodeMeasure`; RuntimeError when the pruned
    mass exceeds 1e-10."""
    def w1_to_point(mu, y):
        sup = mu.support()
        dist = np.linalg.norm(mu.mesh.nodes[sup] - np.asarray(y), axis=1)
        return float(dist @ np.array([mu.weights[i] for i in sup]))

    fld = constant(list(cfg.speed))
    mesh = structured_mesh(cfg.domain[0], cfg.domain[1], (N, N))
    dt = cfg.cfl * mesh.hbar / fld.a_inf
    mu = NodeMeasure(mesh, {node_nearest(mesh, cfg.x0): 1.0})
    speed, x0 = np.asarray(cfg.speed), np.asarray(cfg.x0)
    worst = w1_to_point(mu, x0)
    dropped = 0.0
    for n in range(step_count(cfg.T, dt)):
        mu = sl_step(mu, fld, n, dt)
        if cfg.prune > 0.0:
            kept = {i: w for i, w in mu.weights.items() if w >= cfg.prune}
            if len(kept) != len(mu.weights):
                dropped += math.fsum(
                    w for i, w in sorted(mu.weights.items()) if i not in kept
                )
                mu = NodeMeasure(mu.mesh, kept)
        worst = max(worst, w1_to_point(mu, x0 + (n + 1) * dt * speed))
    if dropped > 1e-10:
        raise RuntimeError(f"pruned mass {dropped:.3e} exceeds budget")
    return worst


def reference_exact_measure(kind, t):
    """The exact solution of example `kind` at time t >= 0, from its table."""
    if kind == "binomial":  # unit speed on a Dirac at the origin
        return dirac((0.0 + 1.0 * t,))
    if kind == "example1":  # two-speed field on a Dirac at -0.5
        return dirac((-0.5 + t,) if t < 0.5 else (0.5 * (t - 0.5),))
    if kind == "example2":
        # two-speed field acting on the uniform datum on [-1, 1] (mass 1)
        if t <= 1.0:
            pieces = [(-1.0 + t, 0.0, 0.5), (0.0, t / 2, 1.0),
                      (t / 2, 1.0 + t / 2, 0.5)]
        else:
            pieces = [((t - 1.0) / 2, t / 2, 1.0), (t / 2, 1.0 + t / 2, 0.5)]
        pieces = [(a, b, h) for a, b, h in pieces if b > a]
        return AnalyticMeasure(dims=1, pieces=tuple(pieces))
    assert kind == "example3"
    # uniform datum on [-1, 0], the front collects a growing atom
    if t >= 1.0:
        return dirac((t,))
    atoms = (((t,), t),) if t > 0.0 else ()
    return AnalyticMeasure(dims=1, atoms=atoms, pieces=(((-1.0 + 2.0 * t), t, 1.0),))


def reference_quantile(m):
    """Quantile function of a 1-D analytic measure: a flat part per atom and
    an affine one of slope 1 / height per density piece, by position."""
    parts = [(x, mass, 0.0) for (x,), mass in m.atoms if mass > 0.0]
    parts += [(lo, h * (hi - lo), 1.0 / h) for lo, hi, h in m.pieces
              if hi > lo and h > 0.0]
    parts.sort(key=lambda part: part[0])
    x, mass, slope = np.array(parts).reshape(-1, 3).T
    return QuantileFunction.from_masses(x, mass, slope)


def binomial_w1_bruteforce(n, q, dx):
    """dx E|Bin(n, q) - nq| as an exact Fraction sum over the binomial
    weights, rounded once at the end."""
    q = Fraction(q)
    mad = sum(math.comb(n, j) * q ** j * (1 - q) ** (n - j) * abs(j - n * q)
              for j in range(n + 1))
    return dx * float(mad)


def measure_from_quantile(q, grid):
    """Push Lebesgue on [0,1) through a step quantile back to a measure.

    Only valid for step quantiles whose values are grid nodes; coinciding
    support points merge their weights.
    """
    if q.s.any():
        raise ValueError("only step quantiles can be pushed back to a grid")
    weights = {}
    for z0, z1, v in zip(q.z[:-1].tolist(), q.z[1:].tolist(), q.v.tolist()):
        J = grid.cell_of((v,))
        weights[J] = weights.get(J, 0.0) + (z1 - z0)
    return DiscreteMeasure(grid, weights)


def parse_mesh(text):
    """Plain-text mesh: `v x y` lines then `t i j k` lines (1-based)."""
    nodes, tris = [], []
    for ln in text.splitlines():
        parts = ln.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            nodes.append((float(parts[1]), float(parts[2])))
        elif parts[0] == "t":
            tris.append(tuple(int(p) - 1 for p in parts[1:4]))
        else:
            raise ValueError(f"bad mesh line: {ln!r}")
    return TriMesh(nodes=np.array(nodes), triangles=np.array(tris))


def format_mesh(mesh):
    """The text of a mesh in the format `parse_mesh` reads."""
    lines = [f"v {float(x)!r} {float(y)!r}" for x, y in mesh.nodes]
    lines += [f"t {i + 1} {j + 1} {k + 1}" for i, j, k in mesh.triangles]
    return "\n".join(lines) + "\n"
