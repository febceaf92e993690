import json
import math
import os
import time
from dataclasses import asdict

import numpy as np
import pytest

from mtlab.harness import (
    ConfigError,
    StudyConfig,
    TriStudyConfig,
    _step_window,
    _window_of,
    config_from_mapping,
    emit_report,
    fit_order,
    report_csv,
    run_resolution,
    run_study,
    run_tri_resolution,
    run_tri_study,
)
from mtlab import harness
from mtlab.measures import project_initial
from mtlab.schemes import SchemeSpec, step
from mtlab import cli


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
    with pytest.raises(ConfigError):
        StudyConfig(distance="w3")
    with pytest.raises(ConfigError):
        StudyConfig(example="example3", cfl=0.75)  # 2 * 0.75 > 1
    StudyConfig(distance="wp(2)")
    with pytest.raises(ConfigError):
        config_from_mapping({"bogus": 1})


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
    # the vectorized ladder runner must replicate the audited sparse step
    cfg = StudyConfig(example="example1")
    grid = cfg.grid_for(40)
    spec = SchemeSpec("upwind")
    fld = cfg.field()
    mu = project_initial(cfg.initial(), grid)
    win = _window_of(mu)
    for n in range(30):
        mu = step(mu, spec, fld, n)
        win = _step_window(win, spec, fld, n, grid)
        dense = {(win.jmin + k,): w for k, w in enumerate(win.ws) if w != 0.0}
        assert set(dense) == set(mu.weights)
        for J, w in mu.weights.items():
            assert abs(dense[J] - w) <= 1e-14


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


def test_cli_distance(tmp_path, capsys):
    from mtlab.measures import CartesianGrid, DiscreteMeasure, serialize

    g = CartesianGrid(dx=(0.5,), dt=0.25)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(serialize(DiscreteMeasure(g, {(0,): 1.0})))
    b.write_text(serialize(DiscreteMeasure(g, {(2,): 1.0})))
    assert cli.main(["distance", str(a), str(b)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


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
