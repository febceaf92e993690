import math

import numpy as np
import pytest

from mtlab.flows import (
    _N_MAX,
    EXAMPLES,
    ExactSolution,
    binomial_w1_exact,
    euler_flow,
    euler_step,
    exact_solution,
    push_forward,
    quantile_of_analytic,
)
from mtlab.measures import dirac
from mtlab.velocity import constant
from reference import binomial_w1_bruteforce, reference_exact_measure, reference_quantile
from test_wasserstein import random_analytic_1d

TIMES = (0.0, 0.25, 0.5, 0.77, 1.0, 1.5, 2.0, 2.5)  # kinks cross at 0.5 and 1


def advance(flow, steps):
    for _ in range(steps):
        flow = euler_step(flow)
    return flow


def test_euler_constant_field():
    flow = euler_flow(constant(1.0), 0.1, np.array([[0.3]]))
    out = advance(flow, 7)
    assert out.positions[0, 0] == pytest.approx(1.0, abs=1e-14)


def test_euler_two_speed_hand_steps():
    flow = euler_flow(EXAMPLES["example1"].field, 0.25, np.array([[-0.5]]))
    expect = [-0.25, 0.0, 0.125]
    for x in expect:
        flow = euler_step(flow)
        assert flow.positions[0, 0] == pytest.approx(x, abs=1e-15)


def test_euler_step_bounded_by_a_inf():
    f = EXAMPLES["example1"].field
    flow = euler_flow(f, 0.2, np.array([[-1.0], [0.4]]))
    for _ in range(10):
        nxt = euler_step(flow)
        assert np.max(np.abs(nxt.positions - flow.positions)) <= f.a_inf * 0.2
        flow = nxt


def test_exact_positions_two_speed():
    sol = exact_solution("example1")
    assert sol.position(0.0) == (-0.5,)
    assert sol.position(0.25) == (-0.25,)
    assert sol.position(0.5) == (0.0,)
    assert sol.position(2.0) == (0.75,)  # (t + x0)/2 after the crossing


def test_euler_flow_error_bound_vs_exact():
    sol = exact_solution("example1")
    for dt in (1e-2, 1e-3):
        steps = int(round(2.0 / dt))
        flow = euler_flow(EXAMPLES["example1"].field, dt, np.array([[-0.5]]))
        for n in range(1, steps + 1):
            flow = euler_step(flow)
            t = n * dt
            err = abs(flow.positions[0, 0] - sol.position(t)[0])
            assert err <= 3.0 * 1.0 * math.sqrt(t * dt) + 1e-14


def seeds_across(datum):
    """17 points across each piece of a 1-D datum, and its atoms."""
    pieces = [np.linspace(a, b, 17) for a, b, _ in datum.pieces]
    return np.concatenate(pieces + [np.array([x for (x,), _ in datum.atoms])])


@pytest.mark.parametrize("example", list(EXAMPLES))
def test_euler_flow_error_bound_vs_flow_map(example):
    # the flow map of each datum, one seed at a time, against Euler under
    # the entry's own field: the field and the flow must describe one motion
    field, datum, flow = EXAMPLES[example]
    seeds = seeds_across(datum)
    for dt in (1e-2, 1e-3):
        euler = euler_flow(field, dt, seeds[:, None])
        for n in range(1, int(round(2.5 / dt)) + 1):
            euler = euler_step(euler)
            t = n * dt
            exact = [push_forward(dirac((y,)), flow(t))[0][0] for y in seeds]
            err = np.max(np.abs(euler.positions[:, 0] - exact))
            assert err <= 3.0 * field.a_inf * math.sqrt(t * dt) + 1e-14


def test_flow_lipschitz_pairs():
    # flows of OSL fields with modulus 0 are (1+eps)-Lipschitz for small dt
    dt = 1e-3
    seeds = np.array([[-1.0], [-0.6], [-0.1], [0.2], [0.9]])
    flow = euler_flow(EXAMPLES["example1"].field, dt, seeds)
    out = advance(flow, int(round(2.0 / dt)))
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            gap0 = abs(seeds[i, 0] - seeds[j, 0])
            gap = abs(out.positions[i, 0] - out.positions[j, 0])
            assert gap <= (1.0 + 1e-2) * gap0


@pytest.mark.parametrize("example", list(EXAMPLES))
def test_exact_solution_matches_reference_tables(example):
    # random times too: where the image rule rounds differently from the
    # tables (a mass taken from the preimage, say) only some t show it
    sol = exact_solution(example)
    for t in TIMES + tuple(np.random.default_rng(7).uniform(0.0, 3.0, 300).tolist()):
        ref = reference_exact_measure(example, t)
        assert sol.measure(t) == ref
        got, want = sol.quantile_fn(t), reference_quantile(ref)
        for a, b in ((got.z, want.z), (got.v, want.v), (got.s, want.s)):
            assert a.tolist() == b.tolist()
        if not ref.pieces and len(ref.atoms) == 1:
            assert sol.position(t) == ref.atoms[0][0]
        else:
            with pytest.raises(ValueError, match="not a Dirac"):
                sol.position(t)


def test_quantile_of_analytic_matches_reference():
    # the identity flow keeps positions and masses; a slope is length / mass
    # instead of 1 / height, equal up to rounding
    rng = np.random.default_rng(18)
    for _ in range(300):
        m = random_analytic_1d(rng)
        got, want = quantile_of_analytic(m), reference_quantile(m)
        assert got.z.tolist() == want.z.tolist()
        assert got.v.tolist() == want.v.tolist()
        np.testing.assert_allclose(got.s, want.s, rtol=4e-16, atol=0.0)


def test_slope_zero_collapses_a_piece_into_an_atom():
    # example3's front at t = 0.25: [-1, -0.25) moves at speed 2, [-0.25, 0)
    # has met the front and sits at t in one atom of its mass
    _, datum, flow = EXAMPLES["example3"]
    rows = push_forward(datum, flow(0.25))
    assert rows == [(-0.5, 0.25, 0.75), (0.25, 0.25, 0.25)]
    with pytest.raises(ValueError, match="nonnegative"):
        exact_solution("example3").measure(-0.1)


def test_exact_measures():
    e1 = exact_solution("example1")
    m = e1.measure(0.0)
    assert m.atoms == (((-0.5,), 1.0),) and not m.pieces

    e3 = exact_solution("example3")
    assert e3.measure(1.0).atoms == (((1.0,), 1.0),)
    assert e3.measure(2.5).atoms == (((2.5,), 1.0),)
    m = e3.measure(0.25)
    assert m.pieces == ((-0.5, 0.25, 1.0),)
    assert m.atoms == (((0.25,), 0.25),)

    e2 = exact_solution("example2")
    m = e2.measure(2.0)
    # normalized uniform datum: heights are half the unnormalized display
    assert m.pieces == ((0.5, 1.0, 1.0), (1.0, 2.0, 0.5))


def test_exact_mass_is_one():
    for name in ("example1", "example2", "example3", "binomial"):
        sol = exact_solution(name)
        for t in (0.0, 0.3, 0.77, 1.0, 1.5, 2.0):
            assert sol.measure(t).mass() == pytest.approx(1.0, abs=1e-14)


def test_exact_quantiles():
    e1 = exact_solution("example1")
    q = e1.quantile_fn(0.0)
    assert q(0.0) == q(0.7) == -0.5

    e3 = exact_solution("example3")
    q = e3.quantile_fn(0.5)
    assert q(0.0) == pytest.approx(0.0, abs=1e-15)
    assert q(0.25) == pytest.approx(0.25, abs=1e-15)
    assert q(0.75) == pytest.approx(0.5, abs=1e-15)
    q = e3.quantile_fn(1.5)
    assert q(0.2) == 1.5

    e2 = exact_solution("example2")
    q = e2.quantile_fn(2.0)
    assert q(0.0) == pytest.approx(0.5)
    assert q(0.5) == pytest.approx(1.0)
    assert q(0.75) == pytest.approx(1.5)


def test_quantile_of_analytic_mixed():
    m = exact_solution("example3").measure(0.5)
    q = quantile_of_analytic(m)
    assert q(0.1) == pytest.approx(0.1, abs=1e-15)
    assert q(0.6) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        quantile_of_analytic(
            type(m)(dims=2, atoms=(((0.0, 0.0), 1.0),))
        )


def test_binomial_w1_closed_form():
    assert binomial_w1_exact(2, 0.5, 0.5) == 0.25
    assert binomial_w1_exact(4, 0.5, 1.0) == 0.75
    assert binomial_w1_exact(np.int64(4), 0.5, 1.0) == 0.75
    for q in (0.0, 0.1, 0.25, 0.3, 1 / 3, 0.5, 0.9, 1.0):
        for n in range(81):
            exact = binomial_w1_exact(n, q, 0.05)
            brute = binomial_w1_bruteforce(n, q, 0.05)
            assert abs(exact - brute) <= 1e-15 * brute, (n, q)


def test_binomial_w1_asymptote():
    # W1 / sqrt(t dx) -> sqrt(2 (1 - q) / pi) with t = n q dx
    n, dx = 10 ** 4, 0.01
    for q in (0.5, 0.25):
        ratio = binomial_w1_exact(n, q, dx) / math.sqrt(n * q * dx * dx)
        assert abs(ratio - math.sqrt(2.0 * (1.0 - q) / math.pi)) <= 1e-4, q


def test_binomial_w1_range_errors():
    assert binomial_w1_exact(0, 0.5, 0.5) == 0.0
    assert binomial_w1_exact(_N_MAX, 0.5, 1.0) > 0.0
    for n, q, dx in [
        (-1, 0.5, 0.5), (True, 0.5, 0.5), (2.0, 0.5, 0.5), (_N_MAX + 1, 0.5, 0.5),
        (3, math.nan, 0.5), (3, -0.1, 0.5), (3, 1.5, 0.5),
        (3, 0.5, 0.0), (3, 0.5, -1.0), (3, 0.5, math.inf),
    ]:
        with pytest.raises(ValueError):
            binomial_w1_exact(n, q, dx)


def test_unknown_exact_solution():
    for kind in ("example9", "constant-dirac", ["example1"]):
        with pytest.raises(ValueError):
            ExactSolution(kind=kind)
