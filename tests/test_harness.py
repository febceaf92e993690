import json
import math
import os
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from mtlab.harness import (
    ConfigError,
    StudyConfig,
    TriStudyConfig,
    config_from_mapping,
    emit_report,
    fit_order,
    report_csv,
    run_resolution,
    run_study,
    run_tri_resolution,
    run_tri_study,
    step_count,
)
from mtlab import harness
from mtlab.measures import project_initial
from mtlab.schemes import SchemeSpec, apply_window, transition_rows
from mtlab import cli
from reference import reference_step


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


@pytest.mark.parametrize("distance", ["wp(inf)", "wp(nan)", "wp(0.5)", "wp(abc)"])
def test_cli_config_with_a_bad_order_exits_2(tmp_path, capsys, distance):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ladder": [50, 100], "distance": distance}))
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


def test_error_decreases_with_resolution():
    cfg = StudyConfig(example="example1", ladder=(50, 100, 200))
    report = run_study(cfg)
    errors = [r.error for r in report.rows]
    assert errors[-1] < errors[0]
    assert report.slope == pytest.approx(0.5, abs=0.15)


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
    # the start node must be at least `steps` cells from every edge
    cfg = TriStudyConfig(ladder=(16,), T=1.0, domain=((-2.0, -2.0), (2.0, 2.0)))
    with pytest.raises(ConfigError, match="domain"):
        run_tri_resolution(cfg, 16)


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


def test_cli_run_classifies_a_bad_resolution(capsys):
    # N = 3 on the default box gives dx = 5/3 > 1: a configuration error
    assert cli.main(["run", "--example", "example1", "--N", "3"]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        StudyConfig().grid_for(3)


def test_step_count_rule():
    assert step_count(0.3, 0.1) == 3       # 0.3 / 0.1 = 2.9999999999999996
    assert step_count(0.25, 0.1) == 2      # round() would give 3
    assert step_count(2.0, 0.5 * 5.0 / 3200) == 2560


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
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("step tv_distance")


def test_cli_tri_run(capsys):
    code = cli.main(["tri-run", "--ladder", "16,32", "--T", "0.5"])
    assert code == 0
    assert "slope" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["tri-run", "--T", "-1"],
    ["tri-run", "--T", "0"],
    ["tri-run", "--T", "nan"],
    ["tri-run", "--ladder", "0,8"],
    ["tri-run", "--T", "3"],  # the support would reach the domain edge
    ["convergence", "--T", "inf"],
])
def test_cli_bad_study_config_exits_2(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "Traceback" not in captured.err


def test_tri_report_echoes_its_config(tmp_path, capsys):
    cfg = TriStudyConfig(ladder=(16, 32), T=0.5)
    expected = json.loads(json.dumps(asdict(cfg)))
    _, api_json = emit_report(run_tri_study(cfg), str(tmp_path / "api"))
    assert cli.main(["tri-run", "--ladder", "16,32", "--T", "0.5",
                     "--out", str(tmp_path / "cli")]) == 0
    for path in (api_json, str(tmp_path / "cli.json")):
        with open(path) as fh:
            assert json.load(fh)["config"] == expected


def test_tri_runtime_includes_mesh_building(monkeypatch):
    build = harness.structured_mesh

    def slow_build(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(harness, "structured_mesh", slow_build)
    row = run_tri_resolution(TriStudyConfig(ladder=(8,), T=0.1), 8)
    assert row.runtime_s >= 0.05


def test_cli_interp_check(capsys):
    assert cli.main(["interp-check", "--eps", "0.25,0.0625"]) == 0
    out = capsys.readouterr().out
    assert "max ratio" in out
