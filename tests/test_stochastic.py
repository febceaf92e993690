import math

import numpy as np
import pytest

from conftest import grid_for, random_measure, random_osl_field
from mtlab.measures import CartesianGrid, DiscreteMeasure
from mtlab.schemes import CflError, SchemeSpec, run
from mtlab.stochastic import (
    check_rows,
    empirical_law,
    increment_residual,
    kernel_of,
    make_kernels,
    propagate_law,
    sample_paths,
    total_variation,
)
from mtlab.velocity import constant


def test_upwind_kernel_row():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    k = kernel_of(SchemeSpec("upwind"), constant(0.5), 0, {(0,)}, g)
    assert dict(k.row((0,))) == pytest.approx(
        {(0,): 0.75, (1,): 0.25, (-1,): 0.0}
    )


def test_zero_field_identity_kernel():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    k = kernel_of(SchemeSpec("upwind"), constant(0.0), 0, {(2,)}, g)
    assert dict(k.row((2,))) == {(2,): 1.0, (3,): 0.0, (1,): 0.0}


def test_rusanov_kernel_diffusion_row():
    from mtlab.velocity import VelocityField

    zero_with_bound = VelocityField(
        eval_fn=lambda t, x: np.zeros_like(x), a_inf=1.0
    )
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    k = kernel_of(SchemeSpec("rusanov"), zero_with_bound, 0, {(0,)}, g)
    assert dict(k.row((0,))) == pytest.approx(
        {(0,): 0.5, (1,): 0.25, (-1,): 0.25}
    )


def test_kernel_requires_cfl():
    g = CartesianGrid(dx=(0.5,), dt=0.3)
    with pytest.raises(CflError):
        kernel_of(SchemeSpec("rusanov"), constant(1.0), 0, {(0,)}, g)


def test_row_sums_on_random_fields():
    rng = np.random.default_rng(23)
    for dims in (1, 2):
        f = random_osl_field(rng, dims)
        g = grid_for(f, dims)
        support = {tuple(int(v) for v in rng.integers(-4, 5, size=dims))
                   for _ in range(10)}
        k = kernel_of(SchemeSpec("upwind"), f, 0, support, g)
        sources = k.rows.any(axis=0)
        assert sources.sum() == len(support)
        assert np.abs(k.rows[:, sources].sum(axis=0) - 1.0).max() <= 1e-14


def test_check_rows_refuses_a_nan_entry():
    probs = np.array([[1.0, np.nan], [0.0, 0.5], [0.0, 0.5]])
    with pytest.raises(ValueError, match=r"row \[1\]"):
        check_rows(np.array([[0], [1]]), probs)


def test_propagate_law_binomial():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 2)
    law = propagate_law(mu, kernels)
    assert law.weights == pytest.approx(
        {(0,): 0.25, (1,): 0.5, (2,): 0.25}, abs=1e-15
    )


def test_law_equivalence_random_instance():
    rng = np.random.default_rng(31)
    for dims in (1, 2, 3):
        f = random_osl_field(rng, dims)
        g = grid_for(f, dims)
        mu = random_measure(rng, g)
        kernels = make_kernels(mu, SchemeSpec("upwind"), f, 10)
        law = propagate_law(mu, kernels)
        ref = run(mu, SchemeSpec("upwind"), f, 10)[-1]
        assert set(law.weights) == set(ref.weights)
        for J in ref.support():
            assert abs(law.weights[J] - ref.weights[J]) <= 1e-12


def test_sampling_reproducible_and_seed_sensitive():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 0.5, (3,): 0.5})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 5)
    a = sample_paths(mu, kernels, 500, seed=42)
    b = sample_paths(mu, kernels, 500, seed=42)
    c = sample_paths(mu, kernels, 500, seed=43)
    assert np.array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)
    with pytest.raises(ValueError):
        sample_paths(mu, kernels, 0, seed=1)


@pytest.mark.parametrize("count", [True, 10.0, "10", None, -3])
def test_sample_paths_refuses_a_count_that_is_not_a_positive_int(count):
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 2)
    with pytest.raises(ValueError, match="positive int"):
        sample_paths(mu, kernels, count, seed=1)
    assert sample_paths(mu, kernels, np.int64(3), seed=1).paths.shape == (3, 3, 1)


def test_empirical_law_refuses_a_step_outside_the_paths():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    batch = sample_paths(mu, make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 3),
                         50, seed=2)
    for n in (-1, 4, -4, 10 ** 9):
        with pytest.raises(ValueError, match=r"outside 0\.\.3"):
            empirical_law(batch, n)
    assert empirical_law(batch, 0).weights == {(0,): 1.0}
    assert sum(empirical_law(batch, 3).weights.values()) == pytest.approx(1.0)


def test_identity_kernels_freeze_paths():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(1,): 0.3, (4,): 0.7})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(0.0), 4)
    batch = sample_paths(mu, kernels, 200, seed=9)
    assert np.all(batch.paths == batch.paths[:, :1, :])


def test_empirical_law_matches_binomial():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 2)
    M = 100_000
    batch = sample_paths(mu, kernels, M, seed=7)
    law = empirical_law(batch, 2)
    for J, p in {(0,): 0.25, (1,): 0.5, (2,): 0.25}.items():
        bound = 3.0 * math.sqrt(p * (1 - p) / M)
        assert abs(law.weights.get(J, 0.0) - p) <= bound


def test_increment_residual_deterministic_kernel():
    # dt/dx = 1 and speed 1: the chain moves right with probability one
    g = CartesianGrid(dx=(0.5,), dt=0.5)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 3)
    batch = sample_paths(mu, kernels, 50, seed=1)
    for st in increment_residual(batch, constant(1.0), g, min_visits=1):
        for _, mean, stderr in st.per_state.values():
            assert float(np.max(np.abs(mean))) == 0.0
            assert stderr == 0.0
        assert st.max_abs_h == 0.0


def test_increment_bounds_and_stats():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    f = constant(0.5)
    kernels = make_kernels(mu, SchemeSpec("upwind"), f, 6)
    batch = sample_paths(mu, kernels, 20_000, seed=3)
    stats = increment_residual(batch, f, g, min_visits=500)
    dx, d = g.dx[0], 1
    for st in stats:
        assert st.max_abs_h <= 2.0 * dx + 1e-12
        assert st.mean_sq_h <= 4.0 * d * f.a_inf * g.dt * dx * 1.1
        for visits, mean, stderr in st.per_state.values():
            assert visits >= 500
            assert float(np.max(np.abs(mean))) <= 4.0 * stderr + 1e-12


def test_total_variation():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    nu = DiscreteMeasure(g, {(0,): 0.5, (1,): 0.5})
    assert total_variation(mu, nu) == pytest.approx(0.5)
    assert total_variation(mu, mu) == 0.0
