"""The array engine of the grid schemes and the chain against loop references."""

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import grid_for, random_measure, random_osl_field
from mtlab.measures import CartesianGrid, DiscreteMeasure
from mtlab.schemes import (
    _MAX_WINDOW_CELLS,
    SchemeSpec,
    WindowError,
    _scatter,
    apply_window,
    neighbor_moves,
    run,
    run_last,
    step,
    transition_rows,
)
from mtlab.stochastic import (
    TransitionKernel,
    empirical_law,
    increment_residual,
    kernel_of,
    make_kernels,
    sample_paths,
)
from mtlab.velocity import VelocityField, constant
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


# sha1 of repr(list(mu.weights.items())) over the run histories below, as
# the per-step engine that rebuilt its window from the dict at every step
# recorded them; a run that keeps its window must reproduce them bit for bit
RUN_HISTORY_SHA1 = {
    ("upwind", 1): "401a3f9b7a6df9f872de957e76cd33817db86f70",
    ("upwind", 2): "a4ac4cc76b0fadadea6d966c489df1deaf8346ad",
    ("upwind", 3): "02a476195473e7c889c31780ee3f9a60465d6fcc",
    ("rusanov", 1): "61fd9858efdb228c98392bf479cdd09675da7c6f",
    ("rusanov", 2): "c9c54bb7c3c904fdc8b923de7b96fd326c2bdd12",
    ("rusanov", 3): "f270f4814fde0e5843e82ad0193744b8fc7f9191",
}


@pytest.mark.parametrize("kind,dims", list(RUN_HISTORY_SHA1))
def test_run_histories_match_their_recorded_hashes(kind, dims):
    rng = np.random.default_rng(600 + 10 * dims + len(kind))
    f = random_osl_field(rng, dims)
    g = grid_for(f, dims, safety=0.5 if kind == "rusanov" else 1.0)
    steps = {1: 40, 2: 15, 3: 8}[dims]
    digest = hashlib.sha1()
    for _ in range(3):
        mu = random_measure(rng, g, max_points=8, span=4)
        hist = run(mu, SchemeSpec(kind), f, steps)
        assert len(hist) == steps + 1 and hist[0] is mu
        for m in hist:
            digest.update(repr(list(m.weights.items())).encode())
        last = run_last(mu, SchemeSpec(kind), f, steps)
        assert list(last.weights.items()) == list(hist[-1].weights.items())
    assert digest.hexdigest() == RUN_HISTORY_SHA1[kind, dims]


@pytest.mark.parametrize("dims", [2, 3])
def test_run_history_shares_the_keys_of_surviving_nodes(dims):
    # a node in the support of two consecutive measures has one key object
    # in both: fresh tuples per step cost peak memory (see schemes._walk)
    rng = np.random.default_rng(30 + dims)
    f = random_osl_field(rng, dims)
    g = grid_for(f, dims, safety=0.5)
    mu = random_measure(rng, g, max_points=5, span=3)
    hist = run(mu, SchemeSpec("rusanov"), f, 6)
    for before, after in zip(hist, hist[1:]):
        keys = {J: J for J in after.weights}
        shared = [J for J in before.weights if J in keys]
        assert shared
        assert all(keys[J] is J for J in shared)


def test_run_follows_a_dirac_that_leaves_its_window():
    # at CFL 1 upwind moves all the weight one cell a step, so each window
    # shares no node with the one before it
    g = CartesianGrid(dx=(0.5,), dt=0.5)
    hist = run(DiscreteMeasure(g, {(3,): 1.0}), SchemeSpec("upwind"), constant(1.0), 4)
    assert [list(mu.weights.items()) for mu in hist] == [[((3 + n,), 1.0)]
                                                         for n in range(5)]


def test_scheme_refuses_an_empty_measure():
    g = CartesianGrid(dx=(0.25, 0.25), dt=0.05)
    empty = DiscreteMeasure(g, {})
    for call in (lambda: run(empty, SchemeSpec("upwind"), constant([0.5, 0.5]), 3),
                 lambda: run_last(empty, SchemeSpec("upwind"), constant([0.5, 0.5]), 3),
                 lambda: step(empty, SchemeSpec("upwind"), constant([0.5, 0.5]), 0)):
        with pytest.raises(ValueError, match="empty"):
            call()


@pytest.mark.parametrize("steps", [-1, True, 2.0, "3", None])
def test_runs_refuse_a_step_count_that_is_not_a_nonnegative_int(steps):
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 1.0})
    for call in (run, run_last, make_kernels):
        with pytest.raises(ValueError, match="steps must be a nonnegative int"):
            call(mu, SchemeSpec("upwind"), constant(1.0), steps)
    # zero steps and numpy integers are counts
    assert run(mu, SchemeSpec("upwind"), constant(1.0), 0) == [mu]
    assert run_last(mu, SchemeSpec("upwind"), constant(1.0), 0) is mu
    assert len(run(mu, SchemeSpec("upwind"), constant(1.0), np.int64(2))) == 3
    assert make_kernels(mu, SchemeSpec("upwind"), constant(1.0), 0) == []


def test_window_cap_is_a_classified_error():
    g = CartesianGrid(dx=(0.25, 0.25), dt=0.1)
    mu = DiscreteMeasure(g, {(0, 0): 0.5, (3000, 3000): 0.5})
    with pytest.raises(WindowError):
        step(mu, SchemeSpec("upwind"), constant([0.5, 0.5]), 0)
    with pytest.raises(WindowError):
        make_kernels(mu, SchemeSpec("upwind"), constant([0.5, 0.5]), 1)
    assert issubclass(WindowError, ValueError)


def test_runs_check_the_window_cap_before_allocating():
    # a box of 5001^3 cells: allocated, it would be a MemoryError, not a WindowError
    g = CartesianGrid(dx=(0.25, 0.25, 0.25), dt=0.05)
    mu = DiscreteMeasure(g, {(0, 0, 0): 0.5, (5000, 5000, 5000): 0.5})
    field, spec = constant([0.5, 0.5, 0.5]), SchemeSpec("upwind")
    for call in (lambda: run(mu, spec, field, 3), lambda: run_last(mu, spec, field, 3),
                 lambda: step(mu, spec, field, 0)):
        with pytest.raises(WindowError):
            call()
    # zero steps build no window
    assert run(mu, spec, field, 0) == [mu]


def _window(idx, w, probs):
    """(lo, weights, rows) of the nodes idx (m, d) in their dense window."""
    lo, weights, _ = _scatter(idx, w)
    return lo, weights, _scatter(idx, probs)[1]


def test_apply_window_checks_mass_and_positivity():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    idx = np.array([[0], [3]])
    probs = transition_rows(SchemeSpec("upwind"), constant(1.0), 0, idx, g)
    lo, weights, rows = _window(idx, np.array([0.5, 0.5]), probs)
    assert lo.tolist() == [0] and weights.tolist() == [0.5, 0.0, 0.0, 0.5]
    lo, box = apply_window(lo, weights, rows)
    assert lo.tolist() == [-1]
    assert box.tolist() == [0.0, 0.25, 0.25, 0.0, 0.25, 0.25]
    # the step conserves the 0.9 it is given; the cumulative check (mass 0.9,
    # nothing pruned) refuses it
    with pytest.raises(ValueError, match="mass defect 1.000e-01"):
        apply_window(*_window(idx, np.array([0.5, 0.4]), probs))
    leaky = probs.copy()
    leaky[:, 0] = [1.5, 0.0, -0.5]
    with pytest.raises(ValueError, match="negative weight"):
        apply_window(*_window(idx, np.array([0.5, 0.5]), leaky))


def test_apply_window_counts_the_pruned_mass():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    idx = np.array([[0], [3]])
    probs = transition_rows(SchemeSpec("upwind"), constant(1.0), 0, idx, g)
    # a window that lost 0.1 to pruning earlier in the run passes ...
    window = _window(idx, np.array([0.5, 0.4]), probs)
    _, box = apply_window(*window, pruned=0.1)
    assert box.sum() == pytest.approx(0.9, abs=1e-15)
    # ... and a step that leaks mass still fails
    with pytest.raises(ValueError, match="mass defect"):
        apply_window(*_window(idx, np.array([0.5, 0.4]), probs * (1.0 + 1e-9)),
                     pruned=0.1)
    with pytest.raises(ValueError, match="mass defect"):
        apply_window(*window, pruned=0.2)


def test_apply_window_checks_each_step_against_its_incoming_mass():
    # the window holds 1 + 1e-9 and its rows leak exactly the excess, so the
    # box's mass is 1: the cumulative check passes, the per-step one refuses
    weights = np.array([0.5, 0.5 + 1e-9])
    rows = np.zeros((3, 2))
    rows[0] = [1.0, 0.5 / weights[1]]
    assert abs((rows * weights).sum() - 1.0) <= 1e-16
    with pytest.raises(ValueError, match="mass defect 1.000e-09"):
        apply_window(np.array([0]), weights, rows)


def test_apply_window_refuses_a_nan_weight():
    rows = np.zeros((3, 2))
    rows[0] = 1.0
    with pytest.raises(ValueError, match="nan"):
        apply_window(np.array([0]), np.array([0.5, np.nan]), rows)


# NaN at the node x = 0.5 (J = 1 on a grid with dx = 0.5), 1/2 elsewhere
NAN_AT_ONE_NODE = VelocityField(eval_fn=lambda t, x: np.where(x == 0.5, np.nan, 0.5),
                                a_inf=1.0)


def test_step_refuses_a_field_that_is_nan_at_one_node():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 0.5, (1,): 0.5})
    with pytest.raises(ValueError, match="nan"):
        step(mu, SchemeSpec("upwind"), NAN_AT_ONE_NODE, 0)


@pytest.mark.parametrize("kind", ["upwind", "rusanov"])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_run_refuses_a_nan_field_in_the_step_before_any_measure(monkeypatch, kind, dims):
    # the history measures skip `DiscreteMeasure.__post_init__`: the step
    # itself must refuse a NaN before a measure is built from its window
    built = []
    monkeypatch.setattr(DiscreteMeasure, "_of_window",
                        classmethod(lambda cls, grid, weights: built.append(weights)))
    nan = VelocityField(eval_fn=lambda t, x: np.full(np.shape(x), np.nan),
                        a_inf=1.0, dims=dims)
    g = CartesianGrid(dx=(0.5,) * dims, dt=0.05)
    mu = DiscreteMeasure(g, {(0,) * dims: 0.5, (1,) * dims: 0.5})
    for call in (run, run_last):
        with pytest.raises(ValueError) as err:
            call(mu, SchemeSpec(kind), nan, 3)
        assert str(err.value) == "negative weight nan after the step"
    assert built == []


@pytest.mark.parametrize("kind", ["upwind", "rusanov"])
@pytest.mark.parametrize("dims", [1, 2, 3])
def test_run_history_measures_pass_the_measure_checks(kind, dims):
    # what `DiscreteMeasure.__post_init__` would do to a history measure:
    # drop zero weights, refuse keys of another length, refuse a negative or
    # NaN weight; the step leaves it nothing to do
    rng = np.random.default_rng(80 + dims)
    f = random_osl_field(rng, dims)
    g = grid_for(f, dims, safety=0.5 if kind == "rusanov" else 1.0)
    mu = random_measure(rng, g, max_points=6, span=4)
    for m in run(mu, SchemeSpec(kind), f, {1: 30, 2: 12, 3: 6}[dims])[1:]:
        assert all(len(J) == dims for J in m.weights)
        assert all(w > 0.0 for w in m.weights.values())
        checked = DiscreteMeasure(g, dict(m.weights))
        assert list(checked.weights.items()) == list(m.weights.items())


def test_kernel_refuses_a_field_that_is_nan_at_one_node():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    with pytest.raises(ValueError, match=r"row \[1\]"):
        kernel_of(SchemeSpec("upwind"), NAN_AT_ONE_NODE, 0, [(0,), (1,)], g)


def test_kernels_check_their_rows_when_built():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    mu = DiscreteMeasure(g, {(0,): 0.5, (1,): 0.5})
    with pytest.raises(ValueError, match=r"row \[1\]"):
        make_kernels(mu, SchemeSpec("upwind"), NAN_AT_ONE_NODE, 2)
    probs = np.array([[0.5, 0.5], [0.5, 0.25], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"row \[3\] does not sum to 1"):
        TransitionKernel.from_sources(0, g, np.array([[1], [3]]), probs)
    # a source with a zero row is refused, not read as no source
    with pytest.raises(ValueError, match=r"row \[3\] does not sum to 1"):
        TransitionKernel.from_sources(0, g, np.array([[1], [3]]), probs * [1, 0])
    # a repeated source keeps one row only if both rows agree
    twice = np.array([[1], [1]])
    kernel = TransitionKernel.from_sources(0, g, twice, np.full((3, 2), 1 / 3))
    assert kernel.locate(twice).tolist() == [0, 0]
    with pytest.raises(ValueError, match="two different rows"):
        TransitionKernel.from_sources(0, g, twice, np.eye(3)[:, :2])


def test_apply_window_sums_moves_in_list_order():
    rng = np.random.default_rng(9)
    weights = rng.uniform(size=(5, 4))
    weights /= weights.sum()
    rows = rng.dirichlet(np.ones(5), size=(5, 4)).transpose(2, 0, 1)
    lo = np.array([3, -2])
    default = apply_window(lo, weights, rows)
    given = apply_window(lo, weights, rows, neighbor_moves(2))
    assert default[0].tolist() == given[0].tolist() == [2, -3]
    assert default[1].tobytes() == given[1].tobytes()
    # a move of the list sends its share one cell along it
    moves = np.array([[0, 0], [1, 1], [-1, 1], [0, -1], [1, 0]])
    _, box = apply_window(lo, weights, rows, moves)
    for move, share in zip(moves, rows * weights):
        target = tuple(slice(1 + m, 1 + m + s) for m, s in zip(move, weights.shape))
        box[target] -= share
    assert np.max(np.abs(box)) <= 1e-15


def _sources(kernel):
    """The kernel's source nodes (m, d), in lexicographic order."""
    return np.argwhere(kernel.rows.any(axis=0)) + kernel.lo


def test_kernel_support_forms_agree():
    rng = np.random.default_rng(8)
    f = random_osl_field(rng, 2)
    g = grid_for(f, 2)
    support = [tuple(int(v) for v in rng.integers(-4, 5, size=2)) for _ in range(12)]
    a = kernel_of(SchemeSpec("upwind"), f, 0, set(support), g)
    b = kernel_of(SchemeSpec("upwind"), f, 0, np.array(support[::-1]), g)
    assert np.array_equal(a.lo, b.lo)
    assert a.rows.shape == b.rows.shape and a.rows.tobytes() == b.rows.tobytes()
    J = support[0]
    row = a.row(J)
    assert [t for t, _ in row] == [J, (J[0] + 1, J[1]), (J[0] - 1, J[1]),
                                   (J[0], J[1] + 1), (J[0], J[1] - 1)]
    assert [tuple(J) for J in _sources(a).tolist()] == sorted(set(support))
    with pytest.raises(KeyError):
        a.row((99, 99))


def test_locate_reads_the_window_across_gaps_and_faces():
    rng = np.random.default_rng(12)
    f = random_osl_field(rng, 2)
    g = grid_for(f, 2, safety=0.5)
    mu = DiscreteMeasure(g, {(-4, -5): 1.0})
    kernel = make_kernels(mu, SchemeSpec("rusanov"), f, 4)[-1]
    sources = [tuple(J) for J in _sources(kernel).tolist()]
    have = set(sources)
    lo, shape = kernel.lo, kernel.rows.shape[1:]
    hi = lo + shape - 1
    # negative coordinates, and gaps: the ball's box has empty corners
    assert (hi < 0).all() and len(sources) < np.prod(shape)
    # every cell of the box and of a ring beyond each face
    cells = [(x, y) for x in range(lo[0] - 1, hi[0] + 2)
             for y in range(lo[1] - 1, hi[1] + 2)]
    present = [J for J in cells if J in have]
    missing = [J for J in cells if J not in have]
    assert len(present) == len(sources)
    order = rng.permutation(len(present))
    states = np.array(present)[order]
    want = [(J[0] - lo[0]) * shape[1] + J[1] - lo[1] for J in states.tolist()]
    assert kernel.locate(states).tolist() == want
    flat = kernel.rows.reshape(len(kernel.rows), -1)
    for J, k in zip(states.tolist(), want):
        assert [p for _, p in kernel.row(tuple(J))] == flat[:, k].tolist()
        assert flat[:, k].sum() == pytest.approx(1.0, abs=1e-14)
    for J in missing:
        with pytest.raises(KeyError) as err:
            kernel.locate(np.array([present[0], J, present[1]]))
        assert err.value.args[0] == J
    with pytest.raises(KeyError) as err:
        kernel.locate(np.array([present[0], missing[3], missing[0]]))
    assert err.value.args[0] == missing[3]


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_cell_keys_are_ravel_multi_index_on_both_layouts(dims):
    from mtlab.stochastic import _cell_keys

    rng = np.random.default_rng(40 + dims)
    lo = rng.integers(-50, 50, size=dims)
    shape = tuple(int(s) for s in rng.integers(1, 12, size=dims))
    # states inside the box and up to three cells beyond each face
    rows = rng.integers(lo - 3, lo + np.array(shape) + 3, size=(2000, dims))
    for states in (rows, np.asfortranarray(rows)):  # row-major, axis-major
        inside = np.empty(len(states), dtype=bool)
        keys = _cell_keys(states, lo, shape, inside=inside)
        assert np.array_equal(_cell_keys(states, lo, shape), keys)
        out = np.empty(len(states), dtype=np.intp)
        assert _cell_keys(states, lo, shape, out) is out and np.array_equal(out, keys)
        want = ((states >= lo) & (states < lo + shape)).all(axis=1)
        assert inside.tolist() == want.tolist() and 0 < want.sum() < len(want)
        ref = np.ravel_multi_index(tuple((states[want] - lo).T), shape)
        assert keys.dtype == np.intp and np.array_equal(keys[want], ref)
    # int32 states whose flat keys pass 2^31, as per-axis offsets or by the
    # product of the shape
    far = [(np.array([[-2 ** 31 + 1], [2 ** 31 - 1], [0]], dtype=np.int32),
            np.array([-2 ** 31]), (2 ** 32,)),
           (np.array([[2 ** 20, 7], [3, 2 ** 20 - 1]], dtype=np.int32),
            np.array([0, 0]), (2 ** 21, 2 ** 20)),
           (np.array([[-2 ** 31, 2 ** 31 - 1, 5]], dtype=np.int32),
            np.array([-2 ** 31, 0, 0]), (2, 2 ** 31, 6))]
    for states, lo, shape in far:
        inside = np.zeros(len(states), dtype=bool)
        keys = _cell_keys(states, lo, shape, inside=inside)
        assert inside.all()
        ref = np.ravel_multi_index(tuple((states.astype(np.int64) - lo).T), shape)
        assert ref.max() >= 2 ** 31 and np.array_equal(keys, ref)


def test_locate_names_the_first_state_outside_the_window():
    # every cell of the 3 x 4 window has a row, so a state past one face
    # whose flat key lands on a source must still be refused, as must int32
    # states far outside
    g = CartesianGrid(dx=(0.5, 0.5), dt=0.1)
    idx = np.argwhere(np.ones((3, 4), dtype=bool)) + [-1, 2]
    kernel = TransitionKernel.from_sources(0, g, idx, np.full((5, len(idx)), 0.2))
    assert kernel.locate(idx[::-1]).tolist() == list(range(12))[::-1]
    outside = [(-1, 6), (-2, 4), (2, 1), (3, 2), (-2 ** 31, 2 ** 31 - 1),
               (2 ** 31 - 1, -2 ** 31)]
    for J in outside:
        for dtype in (np.int32, np.int64):
            states = np.array([idx[0], J, idx[5], J[::-1]], dtype=dtype)
            with pytest.raises(KeyError) as err:
                kernel.locate(states)
            assert err.value.args[0] == J


def test_kernel_box_above_the_window_cap_is_a_window_error():
    g = CartesianGrid(dx=(0.5,), dt=0.25)
    idx = np.array([[0], [2 ** 23]])
    assert 2 ** 23 + 1 > _MAX_WINDOW_CELLS
    probs = transition_rows(SchemeSpec("upwind"), constant(1.0), 0, idx, g)
    with pytest.raises(WindowError):
        TransitionKernel.from_sources(0, g, idx, probs)
    with pytest.raises(WindowError):
        kernel_of(SchemeSpec("upwind"), constant(1.0), 0, idx, g)


def _chain(rng, kind, dims, steps, points):
    f = random_osl_field(rng, dims)
    g = grid_for(f, dims, safety=0.5 if kind == "rusanov" else 1.0)
    mu = random_measure(rng, g, max_points=points, span=3)
    return f, g, mu, make_kernels(mu, SchemeSpec(kind), f, steps)


@pytest.mark.parametrize("kind,dims", [("upwind", 1), ("rusanov", 2), ("upwind", 3)])
def test_kernels_are_kernel_of_on_the_law_support(kind, dims):
    # make_kernels steps the run's window; kernel_of builds each step's
    # kernel apart, from the support of the run's measure at that step
    rng = np.random.default_rng(50 + dims)
    f, g, mu, kernels = _chain(rng, kind, dims, 6, 5)
    hist = run(mu, SchemeSpec(kind), f, len(kernels))
    for n, (kernel, law) in enumerate(zip(kernels, hist)):
        ref = kernel_of(SchemeSpec(kind), f, n, law.support(), g)
        assert kernel.n == ref.n == n
        assert np.array_equal(kernel.lo, ref.lo)
        assert np.array_equal(_sources(kernel), np.array(law.support()))
        assert kernel.rows.shape == ref.rows.shape
        assert kernel.rows.tobytes() == ref.rows.tobytes()


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


@pytest.mark.parametrize("kind,dims", [("upwind", 1), ("rusanov", 2), ("upwind", 3)])
def test_path_axes_are_contiguous_and_layout_does_not_change_results(kind, dims):
    rng = np.random.default_rng(90 + dims)
    f, g, mu, kernels = _chain(rng, kind, dims, 5, 4)
    batch = sample_paths(mu, kernels, 3000, seed=13)
    assert batch.paths.shape == (3000, len(kernels) + 1, dims)
    for n in range(len(kernels) + 1):
        for i in range(dims):
            assert batch.paths[:, n, i].flags.c_contiguous
    # a batch built by a caller may hold its paths row-major
    rows = dataclasses.replace(batch, paths=np.ascontiguousarray(batch.paths))
    assert rows.paths.flags.c_contiguous and np.array_equal(rows.paths, batch.paths)
    for got, want in zip(increment_residual(batch, f, g, min_visits=20),
                         increment_residual(rows, f, g, min_visits=20)):
        assert (got.n, got.skipped) == (want.n, want.skipped)
        assert (got.max_abs_h, got.mean_abs_h, got.mean_sq_h) == \
            (want.max_abs_h, want.mean_abs_h, want.mean_sq_h)
        assert list(got.per_state) == list(want.per_state)
        for J, (visits, mean, stderr) in want.per_state.items():
            assert got.per_state[J][0] == visits and got.per_state[J][2] == stderr
            assert np.array_equal(got.per_state[J][1], mean)
    for n in range(len(kernels) + 1):
        law, want = empirical_law(batch, n), empirical_law(rows, n)
        assert law == want and list(law.weights.items()) == list(want.weights.items())


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


def test_grouping_matches_unique_and_a_stable_sort_of_the_inverse():
    from mtlab.stochastic import _group

    rng = np.random.default_rng(9)
    cases = {
        np.uint8: rng.integers(-3, 4, size=(500, 2)),
        np.uint16: rng.integers(-100, 100, size=(4000, 2)),
        np.uint32: rng.integers(-2 ** 19, 2 ** 19, size=(3000, 1)),
        np.uint64: np.array([[2 ** 61], [0], [2 ** 61], [5], [0]]),
    }
    for key_type, states in cases.items():
        cells = int(np.prod(np.ptp(states, axis=0) + 1))
        assert np.min_scalar_type(cells - 1) == key_type
        got, counts, order = _group(states)
        want, inv, want_counts = np.unique(states, axis=0, return_inverse=True,
                                           return_counts=True)
        assert np.array_equal(got, want) and np.array_equal(counts, want_counts)
        assert np.array_equal(order, np.argsort(inv.reshape(-1), kind="stable"))
