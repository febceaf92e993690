"""scripts/bench.py with subprocess.run faked, so that no interpreter
starts: how runs alternate, how a record is built from the children's
outputs, and that an existing record is never rewritten."""

import importlib.util
import json
import os
import pathlib
from types import SimpleNamespace

import pytest


def _bench_script():
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts/bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeRun:
    """Stands in for subprocess.run: logs (job, label) per call and answers
    as a child would, with seconds[label][k] for the k-th run of the label
    in a job."""

    def __init__(self, bench, seconds):
        self.bench, self.seconds, self.calls = bench, seconds, []

    def __call__(self, args, env, **kwargs):
        label = os.path.basename(env["PYTHONPATH"])
        child = args[1:3] == ["-c", self.bench.CHILD]
        job = tuple(args[4:]) if child else tuple(args[1:])
        k = self.calls.count((job, label))
        self.calls.append((job, label))
        if child:
            out = json.dumps({"cases": {f"{' '.join(job)} case": self.seconds[label][k]},
                              "peak_rss_mb": 40.0 + k, "children_peak_rss_mb": 0.0})
        elif job == ("-c", self.bench.COLD_IMPORT):
            out = "30720\n"
        else:
            out = "the study table\n"
        return SimpleNamespace(stdout=out)


@pytest.fixture
def bench():
    return _bench_script()


def _run(bench, monkeypatch, tmp_path, seconds):
    fake = FakeRun(bench, seconds)
    monkeypatch.setattr(bench.subprocess, "run", fake)
    out = tmp_path / "bench.json"
    assert bench.main(["--base", str(tmp_path / "before"), "--src",
                       str(tmp_path / "after"), "--out", str(out)]) == 0
    with open(out) as fh:
        return fake, json.load(fh)


def _seconds(bench):
    return {"before": [2.0 + 0.1 * k for k in range(bench.K)][::-1],
            "after": [1.0 + 0.3 * k for k in range(bench.K)]}


def test_labels_alternate_each_first_in_turn(bench, monkeypatch, tmp_path):
    fake, _ = _run(bench, monkeypatch, tmp_path, _seconds(bench))
    n = 2 * bench.K
    blocks = [fake.calls[i:i + n] for i in range(0, len(fake.calls), n)]
    script = os.path.join(bench.HERE, "convergence_study.py")
    assert [block[0][0] for block in blocks] == [
        *bench.JOBS, ("-c", bench.COLD_IMPORT), (script,)]
    for block in blocks:
        assert len({job for job, _ in block}) == 1
        assert [label for _, label in block] == (
            ["before", "after", "after", "before"] * (bench.K // 2))


def test_record_reads_min_median_and_speedup(bench, monkeypatch, tmp_path):
    seconds = _seconds(bench)
    _, record = _run(bench, monkeypatch, tmp_path, seconds)
    case = "runs case"
    before, after = (record["runs"][label]["cases"][case] for label in ("before", "after"))
    assert before["runs_s"] == seconds["before"] and after["runs_s"] == seconds["after"]
    assert before["min_s"] == 2.0 and after["min_s"] == 1.0
    assert after["median_s"] == pytest.approx(1.0 + 0.3 * 4.5)
    assert before["median_s"] == pytest.approx(2.0 + 0.1 * 4.5)
    assert record["speedup"][case] == 2.0
    cases = record["runs"]["after"]["cases"]
    assert len(cases[bench.COLD_CASE]["runs_s"]) == bench.K
    assert len(cases[bench.END_TO_END]["runs_s"]) == bench.K
    assert set(record["speedup"]) == set(cases)
    rss = record["runs"]["after"]["peak_rss_mb"]
    assert rss["studies"] == [40.0 + k for k in range(bench.K)]
    assert rss[bench.COLD_CASE] == [30.0] * bench.K


def test_existing_out_is_refused(bench, monkeypatch, tmp_path, capsys):
    fake = FakeRun(bench, _seconds(bench))
    monkeypatch.setattr(bench.subprocess, "run", fake)
    out = tmp_path / "bench.json"
    out.write_text("an earlier record\n")
    assert bench.main(["--out", str(out)]) == 2
    assert out.read_text() == "an earlier record\n"
    assert fake.calls == []
    assert str(out) in capsys.readouterr().err
