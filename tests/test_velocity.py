import math

import numpy as np
import pytest

from conftest import grid_for, random_osl_field
from mtlab.flows import EXAMPLES
from mtlab.measures import CartesianGrid
from mtlab.schemes import node_velocity
from mtlab.velocity import VelocityField, constant, osl_probe


def velocity_at(f, n, J, g):
    """Node velocity of the single node J through the batched engine."""
    return node_velocity(f, n, np.array([J]), g)[0]


def test_averaged_velocity_constant_field():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    f = constant(1.0)
    for n in (0, 3):
        a = node_velocity(f, n, np.array([[-2], [0], [5]]), g)
        assert a.shape == (3, 1)
        assert a[:, 0] == pytest.approx([1.0, 1.0, 1.0])


def test_averaged_velocity_two_speed_field():
    g = CartesianGrid(dx=(0.25,), dt=0.1)
    f = EXAMPLES["example1"].field
    # x = -0.5, x = 0.25, and the right value at the jump x = 0
    a = node_velocity(f, 0, np.array([[-2], [1], [0]]), g)
    assert a[:, 0].tolist() == [1.0, 0.5, 0.5]


def test_averaged_velocity_time_affine_quadrature():
    def ev(t, x):
        return np.full_like(np.asarray(x, dtype=float), t)

    f = VelocityField(ev, a_inf=2.0, time_regularity="quadrature")
    g = CartesianGrid(dx=(0.5,), dt=0.2)
    # exact average of an affine function is the midpoint value
    got = velocity_at(f, 3, (0,), g)
    assert got == pytest.approx(0.5 * (0.6 + 0.8), abs=1e-14)
    f_aff = VelocityField(ev, a_inf=2.0, time_regularity="affine")
    assert velocity_at(f_aff, 3, (0,), g) == pytest.approx(0.7, abs=1e-15)


def test_time_lipschitz_uses_left_endpoint():
    f = EXAMPLES["example3"].field
    g = CartesianGrid(dx=(0.25,), dt=0.25)
    # at t^n = 0.5 the front sits at 0.5; node 0.25 is left of it -> speed 2
    assert velocity_at(f, 2, (1,), g) == 2.0


def test_osl_probe_signs():
    box = (np.array([-2.0]), np.array([2.0]))
    assert osl_probe(constant(0.7), 2000, box, rng_seed=1) <= 0.0
    assert osl_probe(EXAMPLES["example1"].field, 2000, box, rng_seed=2) <= 0.0

    increasing = VelocityField(lambda t, x: np.asarray(x, dtype=float),
                               a_inf=2.0)
    assert osl_probe(increasing, 2000, box, rng_seed=3) > 0.0
    with pytest.raises(ValueError):
        osl_probe(constant(1.0), 1, box, rng_seed=4)


def test_osl_probe_matches_a_per_pair_reference():
    # d = 2, with a field and a modulus that depend on t; then a one-point
    # box, where every pair has x == y and is skipped
    f = VelocityField(lambda t, x: -np.asarray(x) ** 3 + math.sin(t),
                      a_inf=3.0, dims=2, alpha=lambda t: 0.1 * t)
    box = (np.array([-1.0, -1.0]), np.array([1.0, 2.0]))
    rng = np.random.default_rng(9)
    xs = rng.uniform(box[0], box[1], size=(300, 2))
    ys = rng.uniform(box[0], box[1], size=(300, 2))
    ts = rng.uniform(0.0, 2.0, size=300)
    worst = max(float((f(t, x) - f(t, y)) @ (x - y)) / float((x - y) @ (x - y))
                - f.alpha(t) for t, x, y in zip(ts, xs, ys))
    assert osl_probe(f, 300, box, rng_seed=9) == pytest.approx(worst, rel=1e-14)
    point = (np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert osl_probe(f, 10, point, rng_seed=1) == -math.inf


def test_builtin_fields_pass_osl_probe_at_scale():
    box = (np.array([-2.5]), np.array([2.5]))
    for example in EXAMPLES.values():
        assert osl_probe(example.field, 100_000, box, rng_seed=7) <= 0.0


def test_averaged_velocity_bounded_by_a_inf():
    rng = np.random.default_rng(11)
    for dims in (1, 2, 3):
        f = random_osl_field(rng, dims)
        g = grid_for(f, dims)
        idx = rng.integers(-5, 6, size=(50, dims))
        a = node_velocity(f, 0, idx, g)
        assert a.shape == (50, dims)
        assert float(np.linalg.norm(a, axis=1).max()) <= f.a_inf + 1e-12


def test_constant_field_takes_its_dimension_from_its_values():
    f = constant(0.25)
    assert f.dims == 1 and f.a_inf == 0.25
    assert f(0.0, np.array([1.0]))[0] == 0.25
    f2 = constant([1.0, 1.0])
    assert f2.dims == 2 and f2.a_inf == pytest.approx(math.sqrt(2.0))
    assert f2(0.0, np.zeros((3, 2))).tolist() == [[1.0, 1.0]] * 3
