import importlib.util
import json
import math
import multiprocessing
import os
import pathlib
import shlex
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

from mtlab.harness import (
    CERTIFIED,
    ConfigError,
    ResolutionRow,
    StudyConfig,
    TriStudyConfig,
    config_from_mapping,
    emit_report,
    fit_order,
    report_csv,
    run_resolution,
    run_study,
    step_count,
)
from mtlab import harness
from mtlab.flows import EXAMPLES, binomial_w1_exact
from mtlab.measures import dirac, project_initial, serialize, uniform
from mtlab.schemes import SchemeSpec, apply_window, run as run_scheme, transition_rows
from mtlab.stochastic import increment_residual, make_kernels, sample_paths
from mtlab import cli
from reference import (
    reference_exact_measure,
    reference_grid_error,
    reference_step,
    reference_tri_error,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(ladder=())
    with pytest.raises(ConfigError):
        StudyConfig(ladder=(100, 100))
    with pytest.raises(ConfigError):
        StudyConfig(ladder=(200, 100))
    with pytest.raises(ConfigError):
        StudyConfig(scheme="lax")
    with pytest.raises(ConfigError):
        StudyConfig(example="example9")
    with pytest.raises(ConfigError):
        StudyConfig(T=0.0)
    with pytest.raises(ConfigError, match="final time"):
        StudyConfig(T=math.inf)
    with pytest.raises(ConfigError):
        StudyConfig(distance="w3")
    with pytest.raises(ConfigError):
        StudyConfig(example="example3", cfl=0.75)  # 2 * 0.75 > 1
    StudyConfig(distance="wp(2)")
    with pytest.raises(ConfigError):
        config_from_mapping({"bogus": 1})
    # the keys are the config's fields: all of them, and not the derived order
    assert config_from_mapping(asdict(StudyConfig(seed=3))) == StudyConfig(seed=3)
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_mapping({"order": 1.0})


@pytest.mark.parametrize("make, field, value", [
    (StudyConfig, "T", "x"), (StudyConfig, "T", None), (StudyConfig, "T", True),
    (StudyConfig, "T", 10 ** 400), (StudyConfig, "cfl", None),
    (StudyConfig, "cfl", "0.5"), (StudyConfig, "cfl", False),
    (StudyConfig, "distance", 5), (StudyConfig, "example", ["example1"]),
    (StudyConfig, "domain", (False, True)), (StudyConfig, "domain", ("-1", "1")),
    (TriStudyConfig, "prune", "x"), (TriStudyConfig, "prune", True),
    (TriStudyConfig, "T", None), (TriStudyConfig, "T", True),
    (TriStudyConfig, "cfl", "0.25"), (TriStudyConfig, "speed", ("1", "0.5")),
], ids=lambda v: getattr(v, "__name__", repr(v)[:12]))
def test_config_refuses_a_value_of_the_wrong_type(make, field, value):
    with pytest.raises(ConfigError):
        make(**{field: value})


def test_config_stores_times_and_ratios_as_floats():
    cfg = StudyConfig(T=np.int64(2), cfl=np.float32(0.5), seed=np.int64(3))
    tri = TriStudyConfig(T=1, cfl=1, prune=0)
    for x in (cfg.T, cfg.cfl, tri.T, tri.cfl, tri.prune):
        assert type(x) is float
    assert type(cfg.seed) is int
    assert (cfg.T, cfg.cfl, cfg.seed, tri.T, tri.cfl, tri.prune) == (
        2.0, 0.5, 3, 1.0, 1.0, 0.0)


def test_distance_order_is_parsed_once_and_classified():
    assert StudyConfig(distance="w1").order == 1.0
    assert StudyConfig(distance="l1").order is None
    assert StudyConfig(distance="wp(3.5)").order == 3.5
    assert "order" not in asdict(StudyConfig(distance="wp(2)"))
    for bad in ("wp(inf)", "wp(nan)", "wp(0.5)", "wp(abc)", "wp(-1)", "wp()"):
        with pytest.raises(ConfigError, match="distance"):
            StudyConfig(distance=bad)
    # wp(1) runs the same kernel as w1
    cfg = StudyConfig(example="example2", ladder=(50,), T=0.5)
    assert (run_resolution(replace(cfg, distance="wp(1)"), 50).error
            == run_resolution(cfg, 50).error)


@pytest.mark.parametrize("mapping", [
    pytest.param({"distance": d}, id=d)
    for d in ("wp(inf)", "wp(nan)", "wp(0.5)", "wp(abc)")
] + [
    pytest.param({"ladder": 5}, id="ladder-not-a-list"),
    pytest.param({"ladder": ["a"]}, id="ladder-not-numbers"),
    pytest.param({"ladder": [50.7, 100]}, id="ladder-not-whole"),
    pytest.param({"domain": [1]}, id="domain-one-end"),
    pytest.param({"domain": [0, "x"]}, id="domain-not-numbers"),
    pytest.param({"seed": "x"}, id="seed-not-an-integer"),
    pytest.param({"out": 5}, id="out-not-a-path"),
    pytest.param({"T": "2"}, id="T-a-string"),
    pytest.param({"cfl": None}, id="cfl-null"),
    pytest.param({"distance": 5}, id="distance-a-number"),
    pytest.param({"example": ["example1"]}, id="example-a-list"),
])
def test_cli_config_with_a_bad_order_exits_2(tmp_path, capsys, mapping):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ladder": [50, 100], **mapping}))
    assert cli.main(["convergence", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "Traceback" not in captured.err


def test_fit_order():
    ns = np.array([100, 200, 400, 800])
    errs = 3.0 / np.sqrt(ns)
    slope, resid = fit_order(ns, errs)
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)
    # two points define the line exactly
    slope2, resid2 = fit_order(ns[:2], errs[:2] * np.array([1.0, 0.9]))
    assert resid2 == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_order(ns[:1], errs[:1])


@pytest.mark.parametrize("example,datum", [
    ("example1", dirac((-0.5,))), ("example2", uniform(-1.0, 1.0)),
    ("example3", uniform(-1.0, 0.0)), ("binomial", dirac((0.0,))),
])
def test_initial_datum_is_the_exact_solution_at_zero(example, datum):
    cfg = StudyConfig(example=example)
    for N in (37, 51, 99, 100, 333, 3200):
        grid = cfg.grid_for(N)
        assert (project_initial(cfg.initial(), grid).weights
                == project_initial(datum, grid).weights)


def test_window_step_matches_sparse_scheme():
    # the study's dense window, zero cells included, advanced by the engine
    # must replicate the audited per-node sparse step
    cfg = StudyConfig(example="example1")
    grid = cfg.grid_for(40)
    spec = SchemeSpec("upwind")
    fld = cfg.field()
    mu = project_initial(cfg.initial(), grid)
    (jmin,), = mu.support()
    window = np.array([0.0, 1.0, 0.0])
    jmin -= 1
    for n in range(30):
        mu = reference_step(mu, spec, fld, n)
        idx = (jmin + np.arange(len(window)))[:, None]
        probs = transition_rows(spec, fld, n, idx, grid)
        lo, window = apply_window(idx[0], window, probs)
        jmin = int(lo[0])
        dense = {(jmin + k,): w for k, w in enumerate(window) if w != 0.0}
        assert set(dense) == set(mu.weights)
        for J, w in mu.weights.items():
            assert abs(dense[J] - w) <= 1e-14


@pytest.mark.parametrize("distance", ["w1", "wp(2)", "l1"])
@pytest.mark.parametrize("scheme", ["upwind", "rusanov"])
@pytest.mark.parametrize("example", sorted(EXAMPLES))
def test_grid_stepper_matches_dict_loop(example, scheme, distance):
    # the window stepper against the per-node dict loop and the closed-form
    # exact solutions; Rusanov doubles the coefficient bound, so it runs at
    # half the CFL ratio
    cfg = StudyConfig(example=example, scheme=scheme, distance=distance,
                      cfl=0.25 if scheme == "rusanov" else 0.5, ladder=(20, 40))
    if distance == "l1" and any(reference_exact_measure(example, t).atoms
                                for t in (0.0, cfg.T)):
        with pytest.raises(ConfigError, match="atom-free"):
            run_resolution(cfg, 20)
        return
    for N in cfg.ladder:
        ref = reference_grid_error(cfg, N)
        assert abs(run_resolution(cfg, N).error - ref) <= 1e-12 * ref


def test_window_advance_trims_a_2d_box_to_its_nonzero_cells():
    # stay-only rows leave the weights in place: the step pads the box by one
    # cell per side, and the trim drops the pad, the zero border rows and
    # columns, and the corner weight pruned below 1e-12; the first row's
    # cells neither start nor end the kept columns
    box = np.zeros((5, 6))
    box[1, 3:5] = box[2, 2:4] = (1.0 - 1e-13) / 4
    box[0, 0] = 1e-13
    advance = harness._advance(lambda n, lo, box: np.ones((1, 1, 1)),
                               np.zeros((1, 2), dtype=np.int64), 1e-12)
    lo, out = advance(0, (np.array([10, -3]), box))
    assert lo.tolist() == [11, -1]
    assert out.tobytes() == box[1:3, 2:5].tobytes()
    lo, out = advance(1, (lo, out))  # nothing left to trim
    assert lo.tolist() == [11, -1] and out.shape == (2, 3)


@pytest.mark.parametrize("example,scheme", [
    ("example1", "upwind"), ("example1", "rusanov"),
    ("example2", "upwind"), ("binomial", "upwind"),
])
def test_rows_of_a_constant_field_are_computed_once(monkeypatch, example, scheme):
    # a field constant in time gets its rows once per resolution; re-declared
    # "lipschitz", the same field is evaluated at every step, and the two
    # paths must give the same numbers to the bit
    builtin = StudyConfig.field
    calls = []

    def counted(regularity):
        def field(self):
            f = builtin(self)

            def ev(t, x):
                calls.append(t)
                return f.eval_fn(t, x)

            return replace(f, eval_fn=ev, time_regularity=regularity)
        return field

    cfg = StudyConfig(example=example, scheme=scheme, ladder=(100, 200))
    rows = {}
    for regularity in ("constant", "lipschitz"):
        monkeypatch.setattr(StudyConfig, "field", counted(regularity))
        for N in cfg.ladder:
            calls.clear()
            rows[regularity, N] = run_resolution(cfg, N)
            steps = step_count(cfg.T, cfg.grid_for(N).dt)
            assert len(calls) == (1 if regularity == "constant" else steps)
    for N in cfg.ladder:
        cached, stepped = rows["constant", N], rows["lipschitz", N]
        assert cached.error == stepped.error
        assert cached.envelope_c == stepped.envelope_c


@pytest.mark.parametrize("N", [400, 1600])
@pytest.mark.parametrize("q, w2_rel", [(0.5, 1e-12), (0.25, 1e-11)])
def test_binomial_study_errors_are_the_closed_forms(N, q, w2_rel):
    # under the unit field at cfl q (a power of two, so dt/dx is q exactly)
    # the walk after n steps is dx Bin(n, q) from the start node, so the W1
    # error is dx E|Bin(n, q) - nq| and the W2 error dx sqrt(n q (1 - q))
    for distance, rel, exact in (
        ("w1", 1e-12, lambda n, h: binomial_w1_exact(n, q, h)),
        ("wp(2)", w2_rel, lambda n, h: h * math.sqrt(n * q * (1.0 - q))),
    ):
        cfg = StudyConfig(example="binomial", cfl=q, distance=distance)
        steps, dt, h, state, advance, error = cfg.resolution(N)
        worst = 0.0
        for n in range(steps):
            state = advance(n, state)
            ref = exact(n + 1, h)
            worst = max(worst, abs(error((n + 1) * dt, state) - ref) / ref)
        assert worst <= rel, (distance, worst)


def test_error_decreases_with_resolution():
    cfg = StudyConfig(example="example1", ladder=(50, 100, 200))
    report = run_study(cfg)
    errors = [r.error for r in report.rows]
    assert errors[-1] < errors[0]
    assert report.slope == pytest.approx(0.5, abs=0.15)


def _affinity(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _cpus(monkeypatch, count=2):
    # `count` processes on any machine, and a pool for any study, so that the
    # pool workers are exercised on small ladders
    _affinity(monkeypatch, count)
    monkeypatch.setattr(harness, "_POOL_MIN_STEPS", 0)


def _no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)


def test_small_study_runs_in_process(monkeypatch):
    # the default triangulated study's coarser resolutions run 87 steps, too
    # few to repay a worker, so it starts no process even with two CPUs
    cfg = TriStudyConfig()
    assert sum(cfg.steps(N) for N in cfg.ladder[:-1]) == 12 + 25 + 50
    serial = [run_resolution(cfg, N) for N in cfg.ladder]
    _affinity(monkeypatch, 2)
    _no_pool(monkeypatch)
    rows = run_study(cfg).rows
    assert [(r.N, r.error, r.envelope_c) for r in rows] == [
        (r.N, r.error, r.envelope_c) for r in serial]
    assert not multiprocessing.active_children()


def test_default_ladder_hands_its_coarser_resolutions_to_the_pool(monkeypatch):
    _affinity(monkeypatch, 2)
    submit, handed = ProcessPoolExecutor.submit, []

    def recorded(pool, fn, cfg, N):
        handed.append(N)
        return submit(pool, fn, cfg, N)

    def stub(cfg, N):  # the lane choice, not the runs, is under test here
        return ResolutionRow(N=N, dx=1.0 / N, error=N ** -0.5, runtime_s=0.0,
                             envelope_c=1.0)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recorded)
    monkeypatch.setattr(harness, "run_resolution", stub)
    report = run_study(StudyConfig())
    assert handed == [1600, 800, 400, 200, 100]
    assert [r.N for r in report.rows] == list(StudyConfig().ladder)
    assert report.slope == pytest.approx(0.5)


def test_uncountable_steps_run_serially_and_raise_the_smallest_n(monkeypatch):
    # T = 0.03 is shorter than N=50's step (dt = 0.05), so counting the
    # coarser steps fails and the serial loop raises N=50's error
    _cpus(monkeypatch)
    _no_pool(monkeypatch)
    with pytest.raises(ConfigError, match=r"N=50: T=0\.03 is shorter than one step"):
        run_study(StudyConfig(T=0.03, ladder=(50, 100, 200)))


def test_step_count_failure_defers_to_the_serial_loop(monkeypatch):
    # the loop, not the step count, names the error: N=50 fails to run
    # before N=100 fails to count its steps
    _cpus(monkeypatch)
    _no_pool(monkeypatch)
    builtin = StudyConfig.steps

    def steps(cfg, N):
        if N == 100:
            raise ConfigError("counting N=100")
        return builtin(cfg, N)

    def run(cfg, N):
        raise ConfigError(f"running N={N}")

    monkeypatch.setattr(StudyConfig, "steps", steps)
    monkeypatch.setattr(harness, "run_resolution", run)
    with pytest.raises(ConfigError, match="running N=50"):
        run_study(StudyConfig(ladder=(50, 100, 200)))


def test_tri_runner_is_the_one_runner():
    # certbench's tri-sl workload still calls and traces this name
    assert harness.run_tri_study is harness.run_study


def test_pool_is_handed_the_coarser_resolutions_largest_first(monkeypatch):
    _cpus(monkeypatch)
    submit, handed = ProcessPoolExecutor.submit, []

    def recorded(pool, fn, cfg, N):
        handed.append(N)
        return submit(pool, fn, cfg, N)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recorded)
    cfg = StudyConfig(example="example1", ladder=(25, 50, 100, 200))
    assert [r.N for r in run_study(cfg).rows] == [25, 50, 100, 200]
    assert handed == [100, 50, 25]


@pytest.mark.parametrize("params", [
    dict(example="example1"),
    dict(example="example2", distance="w1"),
    dict(example="example2", distance="l1"),
    dict(example="example3"),
    dict(example="binomial"),
    dict(example="example1", scheme="rusanov"),
])
def test_lanes_give_the_serial_rows(monkeypatch, params):
    cfg = StudyConfig(ladder=(50, 100, 200), **params)
    serial = [run_resolution(cfg, N) for N in cfg.ladder]
    for cpus in (2, 3):  # one pool worker, then two
        _cpus(monkeypatch, cpus)
        rows = run_study(cfg).rows
        assert [(r.N, r.dx, r.error, r.envelope_c) for r in rows] == [
            (r.N, r.dx, r.error, r.envelope_c) for r in serial]
        assert not multiprocessing.active_children()


@pytest.mark.parametrize("failing,message", [
    ({200}, "N=200"),            # the calling process (finest N) alone fails
    ({100, 200}, "N=100"),       # both fail; the worker's N is smaller
    ({50, 100}, "N=50"),         # two worker resolutions fail
    ({100}, "N=100"),            # one worker resolution alone fails
])
def test_lanes_raise_the_serial_error(monkeypatch, failing, message):
    _cpus(monkeypatch)
    builtin = harness.run_resolution

    def run(cfg, N):
        if N in failing:
            raise ConfigError(f"N={N}")
        return builtin(cfg, N)

    monkeypatch.setattr(harness, "run_resolution", run)
    with pytest.raises(ConfigError) as exc:
        run_study(StudyConfig(example="example1", ladder=(50, 100, 200)))
    assert str(exc.value) == message
    assert not multiprocessing.active_children()
    # a worker's traceback comes back as the cause; the calling process's
    # own traceback needs none
    if message == "N=200":
        assert exc.value.__cause__ is None
    else:
        assert 'raise ConfigError(f"N={N}")' in str(exc.value.__cause__)


@pytest.mark.parametrize("why", ["one CPU", "another thread"])
def test_one_lane_runs_in_process(monkeypatch, why):
    cfg = StudyConfig(example="example1", ladder=(50, 100, 200))
    serial = [run_resolution(cfg, N) for N in cfg.ladder]

    _no_pool(monkeypatch)
    if why == "one CPU":
        _cpus(monkeypatch, 1)
        rows = run_study(cfg).rows
    else:
        # a forked child would inherit the locks this thread may hold
        _cpus(monkeypatch)
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            rows = run_study(cfg).rows
        finally:
            stop.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
    assert [(r.N, r.dx, r.error, r.envelope_c) for r in rows] == [
        (r.N, r.dx, r.error, r.envelope_c) for r in serial]


def test_emit_report_and_determinism(tmp_path):
    cfg = StudyConfig(example="example1", ladder=(50, 100))
    rep1 = run_study(cfg)
    rep2 = run_study(cfg)
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    csv1, json1 = emit_report(rep1, p1)
    csv2, json2 = emit_report(rep2, p2)

    def strip_runtime(path):
        with open(path) as fh:
            return [",".join(ln.split(",")[:3]) for ln in fh]

    assert strip_runtime(csv1) == strip_runtime(csv2)
    with open(json1) as fh:
        d1 = json.load(fh)
    with open(json2) as fh:
        d2 = json.load(fh)
    assert d1 == d2
    assert d1["slope"] == rep1.slope
    assert d1["config"]["example"] == "example1"


def test_emit_report_unwritable_leaves_nothing(tmp_path):
    cfg = StudyConfig(example="example1", ladder=(50, 100))
    rep = run_study(cfg)
    bad = str(tmp_path / "missing-dir" / "out")
    with pytest.raises(OSError):
        emit_report(rep, bad)
    assert not os.path.exists(bad + ".csv")
    assert not os.path.exists(bad + ".csv.tmp")


def test_emit_report_renders_both_texts_before_writing(tmp_path, monkeypatch):
    rep = run_study(StudyConfig(example="example1", ladder=(50, 100)))

    def broken(report):
        raise TypeError("unrenderable report")

    monkeypatch.setattr(harness, "report_json", broken)
    with pytest.raises(TypeError):
        emit_report(rep, str(tmp_path / "out"))
    assert list(tmp_path.iterdir()) == []


def test_tri_config_validation():
    with pytest.raises(ConfigError):
        TriStudyConfig(ladder=(64, 32))
    with pytest.raises(ConfigError):
        TriStudyConfig(cfl=1.5)
    for T in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="final time"):
            TriStudyConfig(T=T)
    with pytest.raises(ConfigError, match="positive"):
        TriStudyConfig(ladder=(0, 8))
    with pytest.raises(ConfigError, match="whole"):
        TriStudyConfig(ladder=(16, 32.5))
    # the start node must be at least `steps` cells from every edge
    cfg = TriStudyConfig(ladder=(16,), T=1.0, domain=((-2.0, -2.0), (2.0, 2.0)))
    with pytest.raises(ConfigError, match="domain"):
        run_resolution(cfg, 16)


@pytest.mark.parametrize("field, value, match", [
    ("prune", math.nan, "prune"),
    ("prune", math.inf, "prune"),
    ("prune", -1e-16, "prune"),
    ("speed", (math.nan, 0.5), "speed"),
    ("speed", (1.0, math.inf), "speed"),
    ("speed", (1.0,), "speed"),
    ("speed", "fast", "speed"),
    ("speed", (0.0, 0.0), "speed"),
    ("x0", (math.nan, 0.0), "x0"),
    ("x0", (0.0, 0.0, 0.0), "x0"),
    ("x0", None, "x0"),
    ("domain", ((-8.0, -8.0), (8.0, math.inf)), "domain"),
    ("domain", ((-8.0, -8.0), (8.0, -8.0)), "domain"),
    ("domain", ((8.0, -8.0), (-8.0, 8.0)), "domain"),
    ("domain", ((-8.0, -8.0),), "domain"),
    ("domain", ((-8.0, -8.0), (8.0,)), "domain"),
    ("domain", (-8.0, 8.0), "domain"),
    ("domain", None, "domain"),
])
def test_tri_config_rejects_bad_field(field, value, match):
    with pytest.raises(ConfigError, match=match):
        TriStudyConfig(**{field: value})


def test_tri_config_normalizes_pairs_to_floats():
    cfg = TriStudyConfig(speed=[1, 0], x0=[0, 0], domain=[[-8, -8], [8, 8]],
                         prune=0)
    assert cfg.speed == (1.0, 0.0) and cfg.x0 == (0.0, 0.0)
    assert cfg.domain == ((-8.0, -8.0), (8.0, 8.0))
    assert all(type(v) is float for v in cfg.speed + cfg.x0 + sum(cfg.domain, ()))


@pytest.mark.parametrize("prune", [1e-16, 1e-12])
def test_tri_stepper_matches_node_measure_loop(prune):
    # 1e-12 drops mass at both resolutions, under the 1e-10 budget; the
    # stepper splits by sorted cell fractions and the loop by sub-area
    # ratios on a mesh, so the two agree to rounding, not bit for bit
    cfg = TriStudyConfig(ladder=(32, 64), T=1.0, prune=prune)
    for N in cfg.ladder:
        ref = reference_tri_error(cfg, N)
        assert abs(run_resolution(cfg, N).error - ref) <= 1e-12 * ref


@pytest.mark.parametrize("speed", [(1.0, 0.5), (1.0, -1.0)])
def test_tri_study_runs_at_cfl_one(speed):
    # at cfl = 1 the time step attains the CFL bound up to rounding; under
    # (1, -1) the displaced point lies on a diagonal edge of its node's star
    cfg = TriStudyConfig(speed=speed, cfl=1.0, ladder=(32, 47, 64, 94, 97))
    rep = run_study(cfg)
    assert [r.N for r in rep.rows] == list(cfg.ladder)
    assert all(math.isfinite(r.error) and r.error > 0.0 for r in rep.rows)
    ref = reference_tri_error(cfg, 47)
    assert abs(rep.rows[1].error - ref) <= 1e-12 * ref


def test_tri_pruned_mass_over_budget_raises():
    cfg = TriStudyConfig(ladder=(32, 64), T=1.0, prune=1e-11)  # drops 5.7e-10
    with pytest.raises(RuntimeError, match="pruned mass"):
        reference_tri_error(cfg, 64)
    with pytest.raises(RuntimeError, match="pruned mass"):
        run_resolution(cfg, 64)


def test_csv_format():
    cfg = StudyConfig(example="example1", ladder=(50, 100))
    rep = run_study(cfg)
    lines = report_csv(rep).strip().splitlines()
    assert lines[0] == "N,dx,error,runtime_s"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "50" and float(first[1]) == 0.1


# ---------------------------------------------------------------------------
# CLI


def test_cli_convergence_and_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "rep")
    code = cli.main([
        "convergence", "--example", "example1", "--ladder", "50,100",
        "--out", out,
    ])
    assert code == 0
    assert os.path.exists(out + ".csv") and os.path.exists(out + ".json")

    # config error -> 2
    assert cli.main(["convergence", "--example", "nope"]) == 2
    assert cli.main(["convergence", "--ladder", "100,100"]) == 2

    # CFL violation at run time (Rusanov doubles the coefficient bound) -> 3
    assert cli.main([
        "convergence", "--example", "example1", "--scheme", "rusanov",
        "--cfl", "0.75", "--ladder", "50,100",
    ]) == 3

    # I/O error -> 4
    assert cli.main(["distance", "/nonexistent/a", "/nonexistent/b"]) == 4


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"example": "example1", "ladder": [50, 100], "T": 1.0}
    ))
    code = cli.main(["convergence", "--config", str(cfg_path), "--T", "0.5"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "slope" in captured

    bad = tmp_path / "bad.json"
    bad.write_text("[1,2]")
    assert cli.main(["convergence", "--config", str(bad)]) == 2


def test_cli_run_writes_measure(tmp_path):
    out = tmp_path / "final.txt"
    code = cli.main([
        "run", "--example", "binomial", "--N", "50", "--T", "1.0",
        "--out", str(out),
    ])
    assert code == 0
    from mtlab.measures import deserialize

    mu = deserialize(out.read_text())
    assert abs(mu.mass() - 1.0) < 1e-12


@pytest.mark.parametrize("scheme", ["upwind", "rusanov"])
@pytest.mark.parametrize("example", list(EXAMPLES))
def test_cli_run_writes_the_last_measure_of_the_scheme_run(tmp_path, example, scheme):
    out = tmp_path / "final.txt"
    assert cli.main(["run", "--example", example, "--scheme", scheme, "--N", "40",
                     "--T", "0.5", "--cfl", "0.25", "--out", str(out)]) == 0
    cfg = StudyConfig(example=example, scheme=scheme, T=0.5, cfl=0.25)
    grid = cfg.grid_for(40)
    history = run_scheme(project_initial(cfg.initial(), grid), SchemeSpec(scheme),
                         cfg.field(), step_count(cfg.T, grid.dt))
    assert out.read_text() == serialize(history[-1])


def test_readme_cli_lines_parse():
    # every documented command must parse, so the README cannot drift from
    # the parser
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("mtlab ")]
    assert "mtlab mc-compare   --example example1 --T 1 --paths 100000" in lines
    parser = cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_cli_run_classifies_a_bad_resolution(capsys):
    # N = 3 on the default box gives dx = 5/3 > 1: a configuration error
    assert cli.main(["run", "--example", "example1", "--N", "3"]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        StudyConfig().grid_for(3)
    with pytest.raises(ConfigError, match="positive"):
        StudyConfig().grid_for(0)


def test_step_count_rule():
    assert step_count(0.3, 0.1) == 3       # 0.3 / 0.1 = 2.9999999999999996
    assert step_count(0.25, 0.1) == 2      # round() would give 3
    assert step_count(2.0, 0.5 * 5.0 / 3200) == 2560


def test_step_count_refusals_name_the_resolution():
    with pytest.raises(ConfigError, match=r"N=100: 4e\+301 steps can reach 8e\+301 nodes"):
        StudyConfig(cfl=1e-300).resolution(100)
    with pytest.raises(ConfigError, match=r"N=100: T=1e\+308 over dt=0\.025 is not a finite"):
        StudyConfig(T=1e308).resolution(100)
    # 2e6 steps reach 4.0e6 nodes, under the window cap, but take too long
    with pytest.raises(ConfigError, match=r"N=100: 2e\+06 steps, above the bound of 10000"):
        StudyConfig(T=5e4).resolution(100)
    # the triangulated study's dt is a numpy scalar; the message shows a float
    with pytest.raises(ConfigError, match=r"\(dt=2\.529822128134703\)"):
        TriStudyConfig().resolution(1)


@pytest.mark.parametrize("text", [
    "",
    "0 1.0\n",
    "# mtlab measure d=2 dx=0.5 dt=0.25\n0 1.0\n",
    "# mtlab measure d=1 dx=0.5 dt=0.25\n0 0.5\n",
])
def test_cli_distance_rejects_bad_tables(tmp_path, capsys, text):
    from mtlab.measures import CartesianGrid, DiscreteMeasure, serialize

    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text(serialize(DiscreteMeasure(CartesianGrid(dx=(0.5,), dt=0.25),
                                              {(0,): 1.0})))
    bad.write_text(text)
    assert cli.main(["distance", str(good), str(bad)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "measure" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("nodes", [((0,), (0, 0)), ((3,), (0, 0)), ((0, 0), (0, 0, 0))])
def test_cli_distance_refuses_tables_of_different_dimensions(tmp_path, capsys, nodes):
    # one Dirac per table, of the dimension of its node
    from mtlab.measures import CartesianGrid, DiscreteMeasure, serialize

    paths = [tmp_path / "left.txt", tmp_path / "right.txt"]
    for path, node in zip(paths, nodes):
        grid = CartesianGrid(dx=(0.5,) * len(node), dt=0.25)
        path.write_text(serialize(DiscreteMeasure(grid, {node: 1.0})))
    assert cli.main(["distance", *map(str, paths)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"I/O error: cannot compare a d={len(nodes[0])} measure "
                            f"with a d={len(nodes[1])} measure\n")


def test_cli_distance_refuses_tables_too_large_for_the_lp(tmp_path, capsys):
    # two d = 2 tables of 2,601 nodes each: 5,202 > the LP's 5,000
    from mtlab.measures import CartesianGrid, DiscreteMeasure, serialize

    g = CartesianGrid(dx=(0.5, 0.5), dt=0.25)
    paths = []
    for shift in (0, 3):
        mu = DiscreteMeasure(g, {(i + shift, j): 1.0 / 2601
                                 for i in range(51) for j in range(51)})
        paths.append(tmp_path / f"m{shift}.txt")
        paths[-1].write_text(serialize(mu))
    assert cli.main(["distance", *map(str, paths)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("I/O error: combined support 5202 exceeds")
    assert "wp_1d" not in captured.err  # both tables are 2-D
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cli_distance(tmp_path, capsys):
    from mtlab.measures import CartesianGrid, DiscreteMeasure, serialize

    g = CartesianGrid(dx=(0.5,), dt=0.25)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(serialize(DiscreteMeasure(g, {(0,): 1.0})))
    b.write_text(serialize(DiscreteMeasure(g, {(2,): 1.0})))
    assert cli.main(["distance", str(a), str(b)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)
    for bad in ("inf", "nan", "0.5"):
        assert cli.main(["distance", str(a), str(b), "--p", bad]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "config error" in captured.err


def test_cli_mc_compare(capsys):
    code = cli.main([
        "mc-compare", "--example", "binomial", "--N", "30", "--T", "0.5",
        "--paths", "2000", "--seed", "5",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("step tv_distance")
    # the last two columns, recomputed from the increments of the same batch
    cfg = StudyConfig(example="binomial", T=0.5, seed=5)
    grid = cfg.grid_for(30)
    mu0 = project_initial(cfg.initial(), grid)
    kernels = make_kernels(mu0, SchemeSpec("upwind"), cfg.field(),
                           step_count(cfg.T, grid.dt))
    stats = increment_residual(sample_paths(mu0, kernels, 2000, 5), cfg.field(), grid)
    assert len(lines) == len(stats) + 2
    for line, st in zip(lines[1:], stats):
        per_se = [float(np.max(np.abs(mean))) / se
                  for _, mean, se in st.per_state.values() if se > 0.0]
        assert per_se
        assert line.split()[3:] == [f"{max(per_se):.6e}",
                                    f"{st.max_abs_h / (2 * grid.dx[0]):.6e}"]
    assert lines[-1].split()[2:] == ["-", "-", "-"]


def test_cli_tri_run(capsys):
    code = cli.main(["tri-run", "--ladder", "16,32", "--T", "0.5"])
    assert code == 0
    assert "slope" in capsys.readouterr().out


def test_cli_tri_run_at_cfl_one(capsys):
    assert cli.main(["tri-run", "--ladder", "47", "--cfl", "1"]) == 0
    assert capsys.readouterr().out.startswith("N,dx,error,runtime_s\n47,")


@pytest.mark.parametrize("argv", [
    ["convergence", "--example", "example1", "--ladder", "100"],
    ["tri-run", "--ladder", "16", "--T", "0.5"],
])
def test_one_resolution_fits_no_slope(capsys, argv):
    # both studies fit their report in one place: a one-entry ladder has rows
    # but no slope, and is not an error
    assert cli.main(argv) == 0
    assert "slope nan (rms residual nan)" in capsys.readouterr().out
    report = (run_study(StudyConfig(ladder=(100,))) if argv[0] == "convergence"
              else run_study(TriStudyConfig(ladder=(16,), T=0.5)))
    assert len(report.rows) == 1
    assert math.isnan(report.slope) and math.isnan(report.residual)


@pytest.mark.parametrize("argv", [
    ["tri-run", "--T", "-1"],
    ["tri-run", "--T", "0"],
    ["tri-run", "--T", "nan"],
    ["tri-run", "--ladder", "0,8"],
    ["tri-run", "--T", "3"],  # the support would reach the domain edge
    ["convergence", "--T", "inf"],
    ["convergence", "--ladder", "100,abc"],
    ["convergence", "--ladder", "50.7,100"],
    ["tri-run", "--ladder", "16,x"],
    ["interp-check", "--eps", "abc"],
    ["interp-check", "--eps", "nan"],
    ["interp-check", "--eps", "0.5,inf"],
    ["tri-run", "--ladder", "1,2"],  # no step at either resolution
    ["convergence", "--T", "0.001", "--ladder", "100,200"],
    ["mc-compare", "--paths", "0"],
    ["run", "--N", "0"],
    ["interp-check", "--bound", "nan"],
    ["interp-check", "--bound", "inf"],
    ["run", "--T", "0.001", "--N", "100"],  # no step
    ["mc-compare", "--T", "0.001"],
    ["interp-check", "--eps", "0.5,1e17"],  # [eps, 1 + eps) is empty
    ["interp-check", "--eps", "9007199254740994"],  # [eps, 1 + eps) has width 2
    ["run", "--T", "1e308"],  # T/dt is infinite
    ["convergence", "--T", "1e308"],
    ["mc-compare", "--T", "1e308"],
    ["tri-run", "--T", "1e308"],
    ["convergence", "--cfl", "1e-300", "--ladder", "100,200"],  # above the window cap
    ["run", "--T", "1e12", "--N", "100"],  # 4e13 steps: above the window cap
    ["mc-compare", "--T", "1e12"],
    ["run", "--T", "5e4", "--N", "100"],  # 2e6 steps: above the step bound
    ["mc-compare", "--T", "5e4"],  # 1e6 steps
    ["mc-compare", "--seed", str(2 ** 70)],  # above a Philox key word
    ["mc-compare", "--seed", "-1"],
])
def test_cli_bad_study_config_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "Traceback" not in captured.err


def test_certified_entries_are_config_window_claim():
    # the entries carry no runner: `run_study` runs every config
    assert harness.Certified._fields == ("config", "window", "claim")
    for name, (config, (lo, hi), claim) in CERTIFIED.items():
        assert isinstance(config, (StudyConfig, TriStudyConfig)), name
        assert 0.0 < lo < hi, name
        assert isinstance(claim, str) and claim, name


def _study_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts/convergence_study.py"
    spec = importlib.util.spec_from_file_location("convergence_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("ladder", ["100,x", "200,100", "0,100", "50.5,100"])
def test_study_script_bad_ladder_exits_2(capsys, ladder):
    assert _study_script().main(["--ladder", ladder]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --ladder")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_study_script_unwritable_out_exits_4(capsys, monkeypatch, tmp_path):
    small = run_study(TriStudyConfig(ladder=(16,), T=0.5))
    script = _study_script()
    monkeypatch.setattr(script, "run_study", lambda cfg: small)
    out = tmp_path / "missing" / "study"
    assert script.main(["--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith(next(iter(CERTIFIED)))
    assert captured.err.startswith("I/O error:") and str(out.parent) in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_study_script_ladder_replaces_the_grid_ladders_only(capsys, monkeypatch):
    ladders = []

    def run(cfg):
        ladders.append(cfg.ladder)
        return SimpleNamespace(slope=0.5, residual=0.0,
                               rows=[SimpleNamespace(error=1.0)])

    script = _study_script()
    monkeypatch.setattr(script, "run_study", run)
    assert script.main(["--ladder", "50,100"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == list(CERTIFIED)
    assert ladders == [(50, 100) if isinstance(entry.config, StudyConfig)
                       else entry.config.ladder for entry in CERTIFIED.values()]


def test_tri_report_echoes_its_config(tmp_path, capsys):
    cfg = TriStudyConfig(ladder=(16, 32), T=0.5)
    expected = json.loads(json.dumps(asdict(cfg)))
    _, api_json = emit_report(run_study(cfg), str(tmp_path / "api"))
    assert cli.main(["tri-run", "--ladder", "16,32", "--T", "0.5",
                     "--out", str(tmp_path / "cli")]) == 0
    for path in (api_json, str(tmp_path / "cli.json")):
        with open(path) as fh:
            assert json.load(fh)["config"] == expected


@pytest.mark.parametrize("argv", [
    ["convergence", "--example", "example1", "--ladder", "50,100"],
    ["convergence", "--example", "example1", "--ladder", "100"],
    ["tri-run", "--ladder", "16,32", "--T", "0.5"],
    ["tri-run", "--ladder", "16", "--T", "0.5"],
])
def test_report_json_is_strict_json(tmp_path, capsys, argv):
    # RFC 8259 has no NaN or Infinity: a one-entry ladder's slope is null
    def no_constant(name):
        raise ValueError(f"non-finite number {name} in the report")

    assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 0
    with open(tmp_path / "r.json") as fh:
        data = json.loads(fh.read(), parse_constant=no_constant)
    one_entry = len(data["rows"]) == 1
    assert (data["slope"] is None) == one_entry
    assert (data["residual"] is None) == one_entry
    assert all(math.isfinite(c) for c in data["envelope_c"])


def test_tri_runtime_includes_row_building(monkeypatch):
    build = harness.kuhn_rows

    def slow_build(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(harness, "kuhn_rows", slow_build)
    # T = 0.5 is one step at N = 8 (dt ~ 0.447); a run with no step is refused
    row = run_resolution(TriStudyConfig(ladder=(8,), T=0.5), 8)
    assert row.runtime_s >= 0.05


def test_cli_interp_check(capsys):
    assert cli.main(["interp-check", "--eps", "0.25,0.0625"]) == 0
    out = capsys.readouterr().out
    assert "max ratio" in out
