"""The array engine of the grid schemes and the chain against loop references."""

import numpy as np
import pytest

from conftest import grid_for, random_measure, random_osl_field
from mtlab.measures import CartesianGrid, DiscreteMeasure
from mtlab.schemes import (
    SchemeSpec,
    WindowError,
    apply_window,
    step,
    to_window,
    transition_rows,
)
from mtlab.stochastic import (
    empirical_law,
    increment_residual,
    kernel_of,
    make_kernels,
    sample_paths,
)
from mtlab.velocity import constant
from reference import (
    reference_empirical_law,
    reference_increments,
    reference_sample_paths,
    reference_step,
)


@pytest.mark.parametrize("kind", ["upwind", "rusanov", "interface_upwind"])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_step_matches_per_node_reference(kind, dims):
    rng = np.random.default_rng(500 + 10 * dims + len(kind))
    spec = SchemeSpec(kind)
    for _ in range(6):
        f = random_osl_field(rng, dims)
        g = grid_for(f, dims, safety=0.5 if kind == "rusanov" else 1.0)
        mu = random_measure(rng, g, max_points=8, span=5)
        for n in range(8):
            got = step(mu, spec, f, n)
            ref = reference_step(mu, spec, f, n)
            assert list(got.weights) == list(ref.weights)
            for J, w in ref.weights.items():
                assert abs(got.weights[J] - w) <= 1e-15
            mu = ref


def test_step_reuses_surviving_keys():
    g = CartesianGrid(dx=(0.25, 0.25), dt=0.05)
    keys = [(300, -400), (301, -400), (5, 7)]
    mu = DiscreteMeasure(g, {J: 1.0 / 3.0 for J in keys})
    out = step(mu, SchemeSpec("rusanov"), constant([0.5, -0.5]), 0)
    out_keys = {J: J for J in out.weights}
    for J in keys:
        assert out_keys[J] is J
    assert len(out.weights) == 8 + 5  # the first two atoms share two nodes


def test_window_cap_is_a_classified_error():
    g = CartesianGrid(dx=(0.25, 0.25), dt=0.1)
    mu = DiscreteMeasure(g, {(0, 0): 0.5, (3000, 3000): 0.5})
    with pytest.raises(WindowError):
        step(mu, SchemeSpec("upwind"), constant([0.5, 0.5]), 0)
    with pytest.raises(WindowError):
        make_kernels(mu, SchemeSpec("upwind"), constant([0.5, 0.5]), 1)
    assert issubclass(WindowError, ValueError)


def test_apply_window_checks_mass_and_positivity():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    idx = np.array([[0], [3]])
    probs = transition_rows(SchemeSpec("upwind"), constant(1.0), 0, idx, g)
    lo, weights, rows = to_window(idx, np.array([0.5, 0.5]), probs)
    assert lo.tolist() == [0] and weights.tolist() == [0.5, 0.0, 0.0, 0.5]
    lo, box = apply_window(lo, weights, rows)
    assert lo.tolist() == [-1]
    assert box.tolist() == [0.0, 0.25, 0.25, 0.0, 0.25, 0.25]
    with pytest.raises(ValueError, match="mass defect"):
        apply_window(*to_window(idx, np.array([0.5, 0.4]), probs))
    leaky = probs.copy()
    leaky[:, 0] = [1.5, 0.0, -0.5]
    with pytest.raises(ValueError, match="negative weight"):
        apply_window(*to_window(idx, np.array([0.5, 0.5]), leaky))


def test_kernel_support_forms_agree():
    rng = np.random.default_rng(8)
    f = random_osl_field(rng, 2)
    g = grid_for(f, 2)
    support = [tuple(int(v) for v in rng.integers(-4, 5, size=2)) for _ in range(12)]
    a = kernel_of(SchemeSpec("upwind"), f, 0, set(support), g)
    b = kernel_of(SchemeSpec("upwind"), f, 0, np.array(support[::-1]), g)
    assert np.array_equal(a.idx, b.idx)
    assert np.array_equal(a.probs, b.probs)
    J = support[0]
    row = a.row(J)
    assert [t for t, _ in row] == [J, (J[0] + 1, J[1]), (J[0] - 1, J[1]),
                                   (J[0], J[1] + 1), (J[0], J[1] - 1)]
    assert [tuple(J) for J in a.idx.tolist()] == sorted(set(support))
    with pytest.raises(KeyError):
        a.row((99, 99))


def _chain(rng, kind, dims, steps, points):
    f = random_osl_field(rng, dims)
    g = grid_for(f, dims, safety=0.5 if kind == "rusanov" else 1.0)
    mu = random_measure(rng, g, max_points=points, span=3)
    return f, g, mu, make_kernels(mu, SchemeSpec(kind), f, steps)


@pytest.mark.parametrize("kind,dims", [("upwind", 1), ("rusanov", 2), ("upwind", 3)])
def test_sampling_matches_row_unique_reference(kind, dims):
    rng = np.random.default_rng(70 + dims)
    f, g, mu, kernels = _chain(rng, kind, dims, 6, 5)
    batch = sample_paths(mu, kernels, 20_000, seed=11)
    assert np.array_equal(batch.paths, reference_sample_paths(mu, kernels, 20_000, 11))
    for st, (per_state, skipped, hmax, habs, hsq) in zip(
            increment_residual(batch, f, g, min_visits=50),
            reference_increments(batch, f, g, 50)):
        assert st.skipped == skipped
        assert list(st.per_state) == list(per_state)
        for J, (visits, mean, stderr) in per_state.items():
            got = st.per_state[J]
            assert got[0] == visits and got[2] == stderr
            assert np.array_equal(got[1], mean)
        assert (st.max_abs_h, st.mean_abs_h, st.mean_sq_h) == (hmax, habs, hsq)
    for n in range(len(kernels) + 1):
        law = empirical_law(batch, n)
        ref = reference_empirical_law(batch, n)
        assert list(law.weights) == list(ref)
        assert all(law.weights[J] == p for J, p in ref.items())


def test_path_dtype_follows_the_reach():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    f = constant(1.0)
    top = 2 ** 31 - 3
    for steps, dtype in ((2, np.int32), (3, np.int64)):
        mu = DiscreteMeasure(g, {(top,): 1.0})
        batch = sample_paths(mu, make_kernels(mu, SchemeSpec("upwind"), f, steps),
                             200, seed=4)
        assert batch.paths.dtype == dtype
        assert batch.paths[:, -1, 0].min() >= top
        assert batch.paths[:, -1, 0].max() <= top + steps
        np.testing.assert_array_equal(np.diff(batch.paths[:, :, 0], axis=1) >= 0, True)
    small = DiscreteMeasure(g, {(-5,): 1.0})
    kernels = make_kernels(small, SchemeSpec("upwind"), f, 4)
    assert sample_paths(small, kernels, 10, seed=1).paths.dtype == np.int32
