import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import grid_for, random_measure, random_osl_field
from mtlab import stochastic
from mtlab.measures import CartesianGrid, DiscreteMeasure
from mtlab.schemes import CflError, SchemeSpec, node_velocity, run
from mtlab.simplex import kuhn_moves, kuhn_rows
from mtlab.stochastic import (
    TransitionKernel,
    check_rows,
    empirical_law,
    increment_residual,
    kernel_of,
    make_kernels,
    propagate_law,
    sample_paths,
    total_variation,
)
from mtlab.velocity import VelocityField, constant


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


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1.0), "1", None, -1, 2 ** 64,
                                  2 ** 70])
def test_sample_paths_refuses_a_seed_that_is_not_a_philox_key_word(seed):
    # a float or a bool would alias the paths of an int seed, and Philox
    # keys are unsigned 64-bit words
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 0.5, (3,): 0.5})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 2)
    with pytest.raises(ValueError, match="seed must be a nonnegative int below 2"):
        sample_paths(mu, kernels, 10, seed)
    top = sample_paths(mu, kernels, 10, 2 ** 64 - 1).paths
    assert np.array_equal(top, sample_paths(mu, kernels, 10, np.uint64(2 ** 64 - 1)).paths)
    # every seed of the range has its own key, not one rounded through float64
    high = [sample_paths(mu, kernels, 50, 2 ** 63 + k).paths for k in range(3)]
    assert not np.array_equal(high[0], high[1]) and not np.array_equal(high[1], high[2])
    assert np.array_equal(sample_paths(mu, kernels, 10, np.int64(5)).paths,
                          sample_paths(mu, kernels, 10, 5).paths)


@pytest.mark.parametrize("min_visits", [float("nan"), -3, 0, 2.5, "x", True, None])
def test_increment_residual_refuses_a_min_visits_that_is_not_a_positive_int(min_visits):
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    kernels = make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 2)
    batch = sample_paths(mu, kernels, 50, seed=1)
    with pytest.raises(ValueError, match="min_visits must be a positive int"):
        increment_residual(batch, constant(1.0), g, min_visits)
    got = increment_residual(batch, constant(1.0), g, np.int64(60))
    assert [st.skipped for st in got] == [
        st.skipped for st in increment_residual(batch, constant(1.0), g, 60)]
    assert all(not st.per_state for st in got)


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


# ---------------------------------------------------------------------------
# the two lanes: a batch's passes give the serial loop's bytes and errors

def _lanes(monkeypatch, lanes):
    """Force one or two lanes for every batch, whatever the host's CPUs."""
    monkeypatch.setattr(stochastic, "_LANE_MIN_PATHS", 1)
    monkeypatch.setattr(stochastic.os, "sched_getaffinity",
                        lambda pid: set(range(lanes)))


def _kuhn_kernels(mu, field, steps):
    """Semi-Lagrangian kernels on the Kuhn moves, from `from_sources`, each on
    the support of the law the previous ones push mu to."""
    grid, kernels, law = mu.grid, [], mu
    for n in range(steps):
        idx = np.array(law.support())
        xi = node_velocity(field, n, idx, grid) * (grid.dt / np.asarray(grid.dx))
        kernels.append(TransitionKernel.from_sources(n, grid, idx, kuhn_rows(xi),
                                                     kuhn_moves(grid.dims)))
        law = propagate_law(law, kernels[-1:])
    return kernels


def _chain_case(case):
    kind, dims = case
    rng = np.random.default_rng({"upwind": 70, "rusanov": 80, "kuhn": 90}[kind] + dims)
    f = constant([0.6, -0.3]) if kind == "kuhn" else random_osl_field(rng, dims)
    g = grid_for(f, dims, safety=0.5 if kind == "rusanov" else 1.0)
    mu = random_measure(rng, g, max_points=4, span=3)
    kernels = (_kuhn_kernels(mu, f, 5) if kind == "kuhn"
               else make_kernels(mu, SchemeSpec(kind), f, 5))
    return mu, kernels, f, g


def _unsplit_paths(mu, kernels, count, seed):
    """The batch's paths by one pass per step over all paths, each step's
    draws taken from the start of its Philox stream."""
    cdf = np.cumsum(mu.weight_array())
    cdf[-1] = 1.0
    u = stochastic._uniforms(seed, 0, count)
    states = [np.array(mu.support())[np.searchsorted(cdf, u, side="right")]]
    for n, kernel in enumerate(kernels):
        cells = kernel.locate(states[-1])
        cdfs = np.cumsum(kernel.rows, axis=0).reshape(len(kernel.rows), -1)[:, cells]
        below = cdfs[:-1] < stochastic._uniforms(seed, n + 1, count)
        states.append(states[-1] + kernel.moves[below.sum(axis=0)])
    return np.stack(states, axis=1)


def _chain_outputs(mu, kernels, field, grid, count, seed=11):
    """Every output of a batch's passes, as bytes and plain values."""
    batch = sample_paths(mu, kernels, count, seed)
    paths = batch.paths
    out = [paths.dtype.str, paths.shape, paths.strides, paths.T.tobytes()]
    for min_visits in (1, 100):
        for st in increment_residual(batch, field, grid, min_visits):
            out.append((st.n, list(st.skipped.items()), st.max_abs_h, st.mean_abs_h,
                        st.mean_sq_h))
            out += [(J, v, mean.tobytes(), se) for J, (v, mean, se) in st.per_state.items()]
    for n in range(len(kernels) + 1):
        out.append(list(empirical_law(batch, n).weights.items()))
    return out


@pytest.mark.parametrize("case", [("upwind", 1), ("upwind", 2), ("upwind", 3),
                                  ("rusanov", 2), ("kuhn", 2)])
def test_two_lanes_give_the_serial_bytes(monkeypatch, case):
    mu, kernels, f, g = _chain_case(case)
    for count in (2 ** 14 - 1, 2 ** 14, 10 ** 5 + 3):
        got = {}
        for lanes in (1, 2):
            _lanes(monkeypatch, lanes)
            threads = threading.active_count()
            got[lanes] = _chain_outputs(mu, kernels, f, g, count)
            assert threading.active_count() == threads
        assert got[1] == got[2], count
        paths = sample_paths(mu, kernels, count, 11).paths
        assert np.array_equal(paths, _unsplit_paths(mu, kernels, count, 11))


def test_the_lane_rule_counts_paths_and_cpus(monkeypatch):
    least = stochastic._LANE_MIN_PATHS
    assert least <= 10 ** 5  # certbench's batches run in two lanes on two CPUs
    for cpus, count, threaded in [({0, 1}, least, True), ({0, 1}, least - 1, False),
                                  ({0}, 10 ** 6, False), ({0, 1, 2}, 10 ** 5, True)]:
        monkeypatch.setattr(stochastic.os, "sched_getaffinity", lambda pid: cpus)
        with stochastic._second_lane(count) as lane:
            assert isinstance(lane, ThreadPoolExecutor) == threaded


@pytest.mark.parametrize("start", [0, 4, 6, 40_000])
def test_uniforms_skip_ahead_to_the_tail_of_the_unsplit_stream(start):
    # pins numpy's Philox skip-ahead: four draws per counter block
    for seed, n in [(3, 1), (2 ** 64 - 1, 7)]:
        whole = stochastic._uniforms(seed, n, 50_000)
        tail = stochastic._uniforms(seed, n, 50_000 - start, start)
        assert tail.tobytes() == whole[start:].tobytes()
        out = np.empty(50_000 - start)
        assert stochastic._uniforms(seed, n, len(out), start, out) is out
        assert out.tobytes() == tail.tobytes()


def _rare_atoms_case():
    """A frozen chain (zero field) from a law with two rare atoms: in the
    batch of 2^14 + 5 paths at seed 5, atom (50,) starts only in the first
    of the four path ranges and atom (90,) only in the last."""
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0 - 2e-4, (50,): 1e-4, (90,): 1e-4})
    count, seed = 2 ** 14 + 5, 5
    paths = sample_paths(mu, make_kernels(mu, SchemeSpec("upwind"), constant(0.0), 3),
                         count, seed).paths[:, 0, 0]
    edges = [4 * (count * c // 16) for c in range(4)] + [count]
    at = {J: np.flatnonzero(paths == J) for J in (50, 90)}
    assert at[50].size and at[50].max() < edges[1], at[50]
    assert at[90].size and at[90].min() >= edges[3], at[90]
    return g, mu, count, seed


def _frozen_kernel(n, g, sources):
    """Kernel n that keeps each 1-D source in place and has no other row."""
    idx = np.array([[J] for J in sources])
    probs = np.zeros((3, len(idx)))
    probs[0] = 1.0
    return TransitionKernel.from_sources(n, g, idx, probs)


@pytest.mark.parametrize("lanes", [1, 2])
def test_sample_paths_raises_the_serial_error_across_ranges(monkeypatch, lanes):
    g, mu, count, seed = _rare_atoms_case()
    _lanes(monkeypatch, lanes)
    every = (0, 50, 90)
    cases = [
        # (90,) lacks a row at step 1 and (50,) at step 2: the earliest step
        ([every, (0, 50), (0,)], (90,)),
        # both lack one at step 1: the lowest path, in the first range
        ([every, (0,), (0,)], (50,)),
        # the reverse of the first: (50,) at step 1
        ([every, (0, 90), (0,)], (50,)),
    ]
    for sources, state in cases:
        kernels = [_frozen_kernel(n, g, s) for n, s in enumerate(sources)]
        threads = threading.active_count()
        with pytest.raises(KeyError) as err:
            sample_paths(mu, kernels, count, seed)
        assert err.value.args == (state,)
        assert threading.active_count() == threads


def _within(seconds, fn, *args):
    """fn(*args) in a thread joined with a timeout: its value, or its
    exception raised here."""
    out = {}

    def call():
        try:
            out["value"] = fn(*args)
        except Exception as exc:
            out["error"] = exc

    thread = threading.Thread(target=call)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{fn.__name__} still running after {seconds} s"
    if "error" in out:
        raise out["error"]
    return out["value"]


def _failing_field(step):
    """A field that raises when it is called at step `step`."""
    def ev(t, x):
        n = round(t / 0.25)  # called at t_n, dt = 0.25
        if n == step:
            raise RuntimeError(f"field at step {step}")
        return np.full(np.shape(x), 0.5)
    return VelocityField(eval_fn=ev, a_inf=1.0)


@pytest.mark.parametrize("lanes", [1, 2])
def test_increment_residual_raises_in_the_order_of_its_stages(monkeypatch, lanes):
    # stage A(n) groups step n and calls the field, stage B(n) computes its
    # statistics; the serial order is A(0), B(0), A(1), ...
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 0.5, (4,): 0.5})
    batch = sample_paths(mu, make_kernels(mu, SchemeSpec("upwind"), constant(0.5), 6),
                         2 ** 14, 3)
    _lanes(monkeypatch, lanes)
    stats = stochastic._increment_stats

    def lane_fails_at(step):
        def failing(paths, n, *args):
            if n == step:
                raise ArithmeticError(f"lane at step {n}")
            return stats(paths, n, *args)
        monkeypatch.setattr(stochastic, "_increment_stats", failing)

    # (field step, lane step, the error)
    for field_at, lane_at, error in [(3, None, "field at step 3"),
                                     (0, None, "field at step 0"),
                                     (None, 2, "lane at step 2"),
                                     (None, 5, "lane at step 5"),
                                     (3, 2, "lane at step 2"),  # B(2) before A(3)
                                     (3, 3, "field at step 3"),  # A(3) before B(3)
                                     (4, 3, "lane at step 3")]:  # B(3) before A(4)
        monkeypatch.setattr(stochastic, "_increment_stats", stats)
        if lane_at is not None:
            lane_fails_at(lane_at)
        threads = threading.active_count()
        field = _failing_field(-1 if field_at is None else field_at)
        # a failing lane never leaves the calling thread waiting for it
        with pytest.raises((RuntimeError, ArithmeticError)) as err:
            _within(60, increment_residual, batch, field, g, 10)
        assert str(err.value) == error
        assert threading.active_count() == threads
    monkeypatch.setattr(stochastic, "_increment_stats", stats)
    threads = threading.active_count()
    assert len(increment_residual(batch, constant(0.5), g, 10)) == 6
    assert threading.active_count() == threads


def test_concurrent_calls_under_a_short_switch_interval_keep_their_paths(monkeypatch):
    # four calls at once, each with its own lane: eight threads, each lane
    # writing its own ranges of its own batch's paths
    _lanes(monkeypatch, 2)
    g = CartesianGrid(dx=(0.25, 0.25), dt=0.0625)
    mu = DiscreteMeasure(g, {(0, 0): 0.5, (2, -1): 0.5})
    field = constant([0.6, -0.4])
    kernels = make_kernels(mu, SchemeSpec("rusanov"), field, 5)
    count = 20_003
    want = {seed: _unsplit_paths(mu, kernels, count, seed) for seed in range(4)}
    got, interval = {}, sys.getswitchinterval()

    def one(seed):
        got[seed] = sample_paths(mu, kernels, count, seed).paths

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=one, args=(seed,)) for seed in want]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(np.array_equal(got[seed], want[seed]) for seed in want)
