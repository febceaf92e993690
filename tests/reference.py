"""Loop references for the array engine of the grid schemes and the chain.

`reference_step` is the per-node form of one scheme step: each support node
calls the field on its own and every target sums its contributions with
`math.fsum` in a dict.  The sampling references group paths by state with
`np.unique(..., axis=0)` and read kernel rows one state at a time.  The
array code in `mtlab.schemes` and `mtlab.stochastic` is tested against them.
"""

from __future__ import annotations

import math

import numpy as np

from mtlab.measures import DiscreteMeasure


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
