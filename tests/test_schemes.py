import math

import numpy as np
import pytest

from conftest import grid_for, random_measure, random_osl_field
from mtlab.measures import CartesianGrid, DiscreteMeasure, moment
from mtlab.schemes import CflError, SchemeSpec, check_cfl, node_coefficients, run, step
from mtlab.velocity import constant


def binomial_setup(steps=0):
    g = CartesianGrid(dx=(0.5,), dt=0.25)  # dt/dx = 1/2
    mu = DiscreteMeasure(g, {(0,): 1.0})
    return g, mu, constant(1.0)


def test_check_cfl_examples():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    rep = check_cfl(SchemeSpec("upwind"), constant(1.0), g)
    assert rep.lhs == pytest.approx(0.5) and rep.satisfied

    rep0 = check_cfl(SchemeSpec("upwind"), constant(0.0), g)
    assert rep0.lhs == 0.0 and rep0.satisfied

    g6 = CartesianGrid(dx=(0.5,), dt=0.3)  # dt/dx = 0.6
    rep_r = check_cfl(SchemeSpec("rusanov"), constant(1.0), g6)
    assert rep_r.lhs == pytest.approx(1.2) and not rep_r.satisfied


def test_zero_field_is_identity():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(-1,): 0.25, (2,): 0.75})
    out = step(mu, SchemeSpec("upwind"), constant(0.0), 0)
    assert out.weights == mu.weights


def test_binomial_weights_two_steps():
    g, mu, f = binomial_setup()
    hist = run(mu, SchemeSpec("upwind"), f, 2)
    assert hist[2].weights == pytest.approx(
        {(0,): 0.25, (1,): 0.5, (2,): 0.25}, abs=1e-15
    )


def test_binomial_weights_four_steps():
    g, mu, f = binomial_setup()
    final = run(mu, SchemeSpec("upwind"), f, 4)[-1]
    expect = {(j,): math.comb(4, j) / 16.0 for j in range(5)}
    assert final.weights == pytest.approx(expect, abs=1e-15)


def test_fractional_speed_splitting():
    # one step of a Dirac with node velocity 0.3 and dt/dx = 1/2:
    # mass a*dt/dx = 0.15 moves right
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    out = step(mu, SchemeSpec("upwind"), constant(0.3), 0)
    assert out.weights == pytest.approx({(0,): 0.85, (1,): 0.15}, abs=1e-15)


def test_rusanov_at_full_speed_equals_upwind():
    g, mu, f = binomial_setup()
    up = step(mu, SchemeSpec("upwind"), f, 0)
    ru = step(mu, SchemeSpec("rusanov"), f, 0)
    assert ru.weights == up.weights


def test_rusanov_artificial_diffusion():
    # a field that vanishes but carries a declared bound 1: the two-sided
    # fluxes then move mass both ways even though the velocity is zero
    from mtlab.velocity import VelocityField

    zero_with_bound = VelocityField(
        eval_fn=lambda t, x: np.zeros_like(x), a_inf=1.0
    )
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    out = step(mu, SchemeSpec("rusanov"), zero_with_bound, 0)
    assert out.weights == pytest.approx(
        {(-1,): 0.25, (0,): 0.5, (1,): 0.25}, abs=1e-15
    )


def test_cfl_violation_refused():
    g = CartesianGrid(dx=(0.5,), dt=0.3)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    with pytest.raises(CflError) as err:
        step(mu, SchemeSpec("rusanov"), constant(1.0), 0)
    assert not err.value.report.satisfied


def test_run_zero_steps():
    g, mu, f = binomial_setup()
    assert run(mu, SchemeSpec("upwind"), f, 0) == [mu]


def test_relbeta_consistency_for_all_schemes():
    rng = np.random.default_rng(5)
    f = random_osl_field(rng, 1)
    g = grid_for(f, 1)
    for kind in ("upwind", "rusanov"):
        spec = SchemeSpec(kind)
        for j in range(-6, 7):
            a = np.atleast_1d(
                f.time_average(0.0, g.dt, g.node_array((j,)))
            )
            (zeta,), (beta,) = node_coefficients(spec, f, 0, np.array([[j]]), g)
            assert zeta.min() >= 0.0 and beta.min() >= 0.0
            np.testing.assert_allclose(zeta - beta, a, rtol=4e-16, atol=1e-15)


def test_interface_variant_breaks_consistency():
    # negative control: interface-sampled velocities violate the per-node
    # consistency relation when a velocity jump falls strictly between a node
    # and its right interface
    from mtlab.velocity import VelocityField

    f = VelocityField(
        eval_fn=lambda t, x: np.where(np.asarray(x) < 0.1, 1.0, 0.0),
        a_inf=1.0,
    )
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    spec = SchemeSpec("interface_upwind")
    (zeta,), (beta,) = node_coefficients(spec, f, 0, np.array([[0]]), g)
    a0 = float(f(0.0, np.array(0.0)))
    assert a0 == 1.0
    # right interface sits at 0.25, past the jump: zeta - beta = 0 there
    assert abs(float(zeta[0] - beta[0]) - a0) > 0.1
    # the audited upwind rule stays consistent at the same node
    (zu,), (bu,) = node_coefficients(SchemeSpec("upwind"), f, 0, np.array([[0]]), g)
    assert float(zu[0] - bu[0]) == pytest.approx(a0, abs=1e-15)


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        SchemeSpec("lax")


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_property_suite_random_osl_fields(dims):
    rng = np.random.default_rng(100 + dims)
    spec = SchemeSpec("upwind")
    for _ in range(8):
        f = random_osl_field(rng, dims)
        g = grid_for(f, dims)
        mu = random_measure(rng, g)
        hist = run(mu, spec, f, 15)
        sup_prev = set(mu.support())
        for n, out in enumerate(hist[1:], start=1):
            assert min(out.weights.values()) >= 0.0
            assert abs(out.mass() - 1.0) <= 1e-13
            # support dilation: at most one cell per axis per step
            dilated = set()
            for J in sup_prev:
                for i in range(dims):
                    for s in (-1, 0, 1):
                        dilated.add(J[:i] + (J[i] + s,) + J[i + 1:])
            assert set(out.support()) <= dilated
            sup_prev = set(out.support())


@pytest.mark.parametrize("kind", ["upwind", "rusanov"])
def test_moment_bounds(kind):
    rng = np.random.default_rng(17)
    spec = SchemeSpec(kind)
    for dims in (1, 2):
        f = constant([0.8] * dims) if dims > 1 else constant(0.8)
        g = grid_for(f, dims, safety=0.5 if kind == "rusanov" else 1.0)
        mu = random_measure(rng, g)
        hist = run(mu, spec, f, 40)
        m1_0 = moment(mu, 1.0)
        m2_0 = moment(mu, 2.0)
        c1 = 2.0 * dims * f.a_inf
        c2 = 8.0 * dims * f.a_inf
        for n, out in enumerate(hist):
            t = n * g.dt
            assert moment(out, 1.0) <= m1_0 + c1 * t + 1e-12
            assert moment(out, 2.0) <= math.exp(c2 * t) * (m2_0 + c2) + 1e-12
