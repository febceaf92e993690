"""The benchmark's checks accept exact outputs and reject perturbed ones.

Exact outputs come from small reference computations here, apart from
mtlab; each perturbation is one that a faulty program could produce.

    python3 -m pytest certbench/test_checks.py
"""

import itertools
import json
import math
import os

import numpy as np
import pytest

import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def upwind_history(field, J0, dx, dt, steps):
    """Reference upwind run on a dict of multi-indices."""
    d = len(J0)
    lam = dt / dx
    mu = {tuple(J0): 1.0}
    out = []
    for _ in range(steps + 1):
        keys = sorted(mu)
        out.append((np.array(keys, dtype=np.int64), np.array([mu[k] for k in keys])))
        nxt = {}
        for J, w in mu.items():
            a = np.atleast_1d(field(np.array(J, dtype=float) * dx))
            moves = [(J, 1.0 - lam * float(np.abs(a).sum()))]
            for i in range(d):
                step = 1 if a[i] > 0 else -1
                moves.append((J[:i] + (J[i] + step,) + J[i + 1:], lam * abs(a[i])))
            for K, p in moves:
                nxt[K] = nxt.get(K, 0.0) + p * w
        mu = nxt
    return out


@pytest.fixture
def grid_case():
    rng = np.random.default_rng(3)
    field = workloads.step_field(rng, 2, one_signed=True)
    dx = 0.0625
    dt = 0.9 * dx / (0.8 * math.sqrt(2) * 2)
    return field, dx, dt, upwind_history(field, (1, -2), dx, dt, 6)


def test_grid_run_accepts_reference(grid_case):
    field, dx, dt, hist = grid_case
    assert oracles.check_grid_run(hist, (dx, dx), dt, field) == []


def test_grid_run_rejects_mass_off(grid_case):
    field, dx, dt, hist = grid_case
    idx, w = hist[3]
    hist[3] = (idx, w + np.eye(1, len(w))[0] * 1e-9)
    fails = oracles.check_grid_run(hist, (dx, dx), dt, field)
    assert any("mass defect" in f for f in fails)


def test_grid_run_rejects_mean_shifted_one_cell(grid_case):
    field, dx, dt, hist = grid_case
    idx, w = hist[4]
    hist[4] = (idx + np.array([1, 0]), w)
    fails = oracles.check_grid_run(hist, (dx, dx), dt, field)
    assert any("drift" in f for f in fails)


def test_grid_run_rejects_jump_beyond_one_ring(grid_case):
    field, dx, dt, hist = grid_case
    idx, w = hist[2]
    idx = idx.copy()
    idx[0] += np.array([5, 0])
    hist[2] = (idx, w)
    fails = oracles.check_grid_run(hist, (dx, dx), dt, field)
    assert any("axis move" in f for f in fails)


def node_history(shift):
    """Translation by exactly one node per step on a line of nodes in 2-D."""
    nodes = np.column_stack([np.arange(20) * 0.5, np.zeros(20)])
    w = np.array([0.25, 0.5, 0.25])
    hist = [(np.arange(3) + n + (shift if n == 3 else 0), w) for n in range(6)]
    return nodes, hist


def velocity_half(x):
    return np.tile([1.0, 0.0], (len(x), 1))


def test_node_run_accepts_and_rejects():
    nodes, hist = node_history(0)
    assert oracles.check_node_run(hist, nodes, 0.5, velocity_half) == []
    nodes, hist = node_history(1)
    assert any("drift" in f for f in
               oracles.check_node_run(hist, nodes, 0.5, velocity_half))
    nodes, hist = node_history(0)
    hist[2] = (hist[2][0], hist[2][1] + np.array([1e-9, 0.0, 0.0]))
    assert any("mass defect" in f for f in
               oracles.check_node_run(hist, nodes, 0.5, velocity_half))


def test_binomial_mad_matches_enumeration():
    for n in range(1, 13):
        outcomes = itertools.product((0, 1), repeat=n)
        mad = sum(abs(sum(o) - n / 2) for o in outcomes) / 2 ** n
        assert oracles.binomial_mad(n) == pytest.approx(mad, rel=1e-15)


def test_binomial_check_accepts_closed_form_and_rejects_1e8():
    ns = (100, 200, 400)
    dxs = [5.0 / N for N in ns]
    steps = [4 * N // 5 for N in ns]
    # E|Bin(n,1/2) - n/2| = ceil(n/2) C(n, ceil(n/2)) / 2^n
    errs = [dx * math.ceil(n / 2) * math.comb(n, math.ceil(n / 2)) / 2 ** n
            for dx, n in zip(dxs, steps)]
    assert oracles.check_binomial(ns, dxs, steps, errs) == []
    errs[1] *= 1.0 + 1e-8
    assert len(oracles.check_binomial(ns, dxs, steps, errs)) == 1


@pytest.mark.parametrize("order,window,ok", [
    (0.5, oracles.ORDER_HALF, True),
    (0.35, oracles.ORDER_HALF, False),
    (0.65, oracles.ORDER_HALF, False),
    (1.0, oracles.ORDER_ONE, True),
    (0.8, oracles.ORDER_ONE, False),
    (1.2, oracles.ORDER_ONE, False),
])
def test_order_windows(order, window, ok):
    ns = np.array([100, 200, 400, 800, 1600, 3200])
    errs = 3.0 * ns ** -order * (1.0 + 0.01 * np.cos(ns))
    assert (oracles.check_order("study", ns, errs, window) == []) is ok


def test_w1_le_w2():
    assert oracles.check_w1_le_w2([100, 200, 400], [0.3, 0.2, 0.1],
                                  [100, 200], [0.31, 0.2]) == []
    assert len(oracles.check_w1_le_w2([100, 200], [0.3, 0.21],
                                      [100, 200], [0.31, 0.2])) == 1


def test_same_law():
    law = {(0,): 0.5, (1,): 0.5}
    assert oracles.check_same_law(law, dict(law)) == []
    assert oracles.check_same_law(law, {(0,): 0.5, (1,): 0.5 - 1e-11})


def sampled_increments(rng, shift):
    """Per-state increment means of an exact upwind/Rusanov step, sampled."""
    dx, dt, a_inf = 0.1, 0.05, 1.0
    lam = np.array([dt / dx])
    rows, hmax = [], 0.0
    for j in range(-3, 4):
        a = np.array([0.3 * j / 3])
        right, left = oracles.move_probabilities("rusanov", a, a_inf, lam)
        visits = 5000
        u = rng.random(visits)
        move = np.where(u < right[0], 1, np.where(u < right[0] + left[0], -1, 0))
        h = move * dx - dt * a[0] + shift
        var = dx * dx * ((right + left) - (right - left) ** 2)
        rows.append(((j,), visits, np.array([h.mean()]), np.sqrt(var),
                     dx + dt * np.abs(a)))
        hmax = max(hmax, float(np.abs(h).max()))
    return [rows], [hmax], dx


def test_increments_accept_exact_sampler():
    per_step, hmax, dx = sampled_increments(np.random.default_rng(11), 0.0)
    assert oracles.check_increments(per_step, hmax, dx, tests=7) == []


def test_increments_reject_mean_shifted_one_cell():
    per_step, hmax, dx = sampled_increments(np.random.default_rng(11), 0.1)
    fails = oracles.check_increments(per_step, hmax, dx, tests=7)
    assert any("mean increment" in f for f in fails)
    assert any("> 2 dx" in f for f in fails)


def test_empirical_law():
    rng = np.random.default_rng(5)
    law = {(j,): p for j, p in enumerate([0.1, 0.2, 0.4, 0.2, 0.1])}
    count = 100_000
    draws = rng.multinomial(count, list(law.values()))
    emp = {k: c / count for k, c in zip(law, draws)}
    assert oracles.check_empirical_law(emp, law, count) == []
    moved = dict(emp)
    moved[(0,)] += 0.05
    moved[(4,)] -= 0.05
    assert oracles.check_empirical_law(moved, law, count)
    assert oracles.check_empirical_law({(9,): 1.0}, law, count)


def test_report_echo():
    expected = {"ladder": [32, 64, 128, 256], "speed": [1.0, 0.5]}
    assert oracles.check_report_echo(dict(expected, extra=1), expected) == []
    placeholder = {"ladder": [100, 200, 400, 800, 1600, 3200], "example": "example1"}
    assert len(oracles.check_report_echo(placeholder, expected)) == 2


def test_split_square_mesh_is_conformal():
    nodes, tris, h = workloads.split_square_mesh(np.random.default_rng(2))
    p = nodes[tris]
    area = 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))
    assert np.allclose(area, 0.5 * h * h)
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                                    tris[:, [2, 0]]]), axis=1)
    _, uses = np.unique(edges, axis=0, return_counts=True)
    assert uses.max() == 2


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s",
                                                      "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
