"""Smoke tests of the scripts in ``scripts/`` and of the package's exported names.

The scripts are the library's only callers outside the tests, so a change
that removes a name one of them uses fails here. Each script's ``run`` is
called at a small size and must return 0.
"""
import importlib.util
import json
import os
import tempfile

import numpy as np
import pytest

import srrw
from srrw.cli import build_envelope_model
from srrw.config import resolve_config

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}",
                                                  os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_envelope_report(capsys):
    assert load("envelope_report").run("complete", 4, 0.5, 2000, 7) == 0
    assert "looseness ordering holds: True" in capsys.readouterr().out


@pytest.mark.parametrize("laziness", [0.5, 0.3])
def test_envelope_report_fits_as_the_cli_does(laziness):
    # the exact draw at laziness 1/2, the walk at 0.3; the report used to walk at both
    kernel, _, fitted = load("envelope_report").models("cycle", 6, laziness, 2000, 7)
    cli_model = build_envelope_model(resolve_config({
        "graph": {"generator": {"kind": "cycle", "n": 6}}, "laziness": laziness,
        "policy": {"A_l": 3, "q_fork": 0.3},
        "envelope": {"mode": "fit", "n_samples": 2000, "seed": 7}}))
    assert np.array_equal(fitted.c_minus, cli_model.c_minus)
    assert np.array_equal(fitted.c_plus, cli_model.c_plus)


@pytest.fixture
def scratch_tempdir(tmp_path, monkeypatch):
    """Point the temporary directory at ``tmp_path``, so a test sees any
    temporary file a script leaves behind there."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


def test_feasibility_frontier(scratch_tempdir):
    assert load("feasibility_frontier").run(str(scratch_tempdir / "out")) == 0
    assert os.listdir(scratch_tempdir) == ["out"]


def test_corridor_experiment(scratch_tempdir):
    assert load("corridor_experiment").run(str(scratch_tempdir / "out"), 2000, 1) == 0
    assert os.listdir(scratch_tempdir) == ["out"]


def test_step_timing_imports():
    assert callable(load("step_timing").main)


def test_step_timing_tail_draw(capsys):
    # the fit's sampling of the corridor graph, this package on both sides
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    assert load("step_timing").main(["--case", "tail_draw", "--baseline", src]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:4] for row in rows] == [["tail_draw", "-", "3", "-"]]
    assert rows[0][5] == "ms/call" and float(rows[0][6]) > 0


def test_step_timing_mixing_profile(capsys):
    # ER(30)'s profile, this package on both sides
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    assert load("step_timing").main(["--case", "profile_er30", "--baseline", src]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:4] for row in rows] == [["profile_er30", "-", "1", "-"]]
    assert rows[0][5] == "ms/prof" and float(rows[0][6]) > 0


def test_step_timing_fresh(capsys):
    # one whole er1000 run per side and prior profile, each in a new interpreter
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    assert load("step_timing").main(["--fresh", "1", "--baseline", src]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[0] for row in rows] == ["none", "target"]
    assert all(float(row[-4]) > 0 and row[-1] in ("0/1", "1/1") for row in rows)


def test_bench_record(tmp_path):
    # one tiny explode_k4 run per side, this checkout against itself as the baseline
    root = os.path.dirname(SCRIPTS)
    assert load("bench_record").main(["--label", "t", "--baseline", root, "--runs", "1",
                                      "--seconds", "1", "--size", "tiny", "--workload",
                                      "explode_k4", "--out", str(tmp_path)]) == 0
    record = json.load(open(tmp_path / "BENCH_t.json"))
    assert set(record["sides"]) == {"change", "parent"}
    assert record["sides"]["change"]["sha"] == record["sides"]["parent"]["sha"]
    assert record["machine"]["numpy"] and record["machine"]["python"]
    entry = record["workloads"]["explode_k4"]
    metrics = {"wall_s", "setup_s", "token_steps_per_s", "peak_rss_mb"}
    for side in ("change", "parent"):
        assert entry[side]["failed"] == entry[side]["runs_without_result"] == 0
        assert entry[side]["attempted"] >= 3
        assert set(entry[side]["metrics"]) == metrics
        for row in entry[side]["metrics"].values():
            assert row["n"] == 1 and row["q1"] == row["median"] == row["q3"] > 0
    assert set(entry["change_won"]) == metrics
    assert all(won in ("0/1", "1/1") for won in entry["change_won"].values())


def test_bench_record_step_timing_rows(tmp_path):
    # the explode_k4 step timing of this checkout against itself, stored as per-layer rows
    root = os.path.dirname(SCRIPTS)
    assert load("bench_record").main(["--label", "t", "--baseline", root, "--runs", "1",
                                      "--seconds", "1", "--size", "tiny", "--workload",
                                      "explode_k4", "--out", str(tmp_path),
                                      "--step-timing", "explode_k4"]) == 0
    layer = json.load(open(tmp_path / "BENCH_t.json"))["per_layer"]["step_timing"]
    assert layer["command"] == ("scripts/step_timing.py --baseline <parent>/src "
                                "--case explode_k4")
    assert [(row["case"], row["order"]) for row in layer["rows"]] == [
        ("explode_k4", "trap_first"), ("explode_k4", "policy_first")]
    for row in layer["rows"]:
        assert row["folded"] == 1.0 and row["us_per_step_p50"] > 0
        assert row["round_ratio_min"] <= row["ratio"] <= row["round_ratio_max"]


def test_every_exported_name_resolves():
    assert [name for name in srrw.__all__ if not hasattr(srrw, name)] == []


def test_artifact_digests(capsys):
    script = load("artifact_digests")
    src = os.path.join(os.path.dirname(SCRIPTS), "src")
    assert script.run(src) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split(" ")[0].split("/") for line in lines]
    assert all(len(key) == 3 for key in keys)
    assert {name for name, _, file in keys if file != "exit_code"} == {
        "stationary", "envelopes", "simulate", "check", "check-traces", "sweep"}
    assert [line for line in lines if "/exit_code " in line and not line.endswith(" 0")] == []
    assert len({line.split(" ")[0] for line in lines}) == len(lines)


def test_artifact_digests_compare(capsys, monkeypatch):
    script = load("artifact_digests")
    monkeypatch.setattr(script, "digests", lambda root: {
        "a": ["check/x/exit_code 0", "check/x/f.json 01"],
        "b": ["check/x/exit_code 0", "check/x/f.json 02"]}[root])
    assert script.run("a", "a") == 0
    assert script.run("a", "b") == 1
    assert capsys.readouterr().out.splitlines() == [
        "2 lines, no difference", "- check/x/f.json 01", "+ check/x/f.json 02"]
