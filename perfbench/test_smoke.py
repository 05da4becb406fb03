"""Smoke test of the benchmark harness at tiny size.

Not part of Tier-1: pytest's ``testpaths`` is ``tests/``. Run it with

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload once untraced and once traced at ``--size tiny`` and
checks the result line, that the seed reaches srrw only through the
generated inputs, and that traced and untraced repetitions do the same work.
"""
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_tiny(workload: str, trace: int) -> tuple[dict, list[dict], list[dict]]:
    """(result line, per-rep results, per-rep inputs) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    work = os.path.join(HERE, ".work", f"tiny-{workload}")
    reps, inputs = [], []
    for rep in sorted(os.listdir(work)):
        with open(os.path.join(work, rep, "result.json")) as fh:
            reps.append(json.load(fh))
        with open(os.path.join(work, rep, "inputs.json")) as fh:
            inputs.append(json.load(fh))
    return result, reps, inputs


@pytest.fixture(scope="module", params=workloads.NAMES)
def tiny_runs(request):
    return request.param, run_tiny(request.param, 0), run_tiny(request.param, 1)


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert unit, name


def test_result_line(tiny_runs):
    _, (plain, _, _), (traced, _, _) = tiny_runs
    for result, table in ((plain, run.END_TO_END), (traced, run.PER_LAYER)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(table)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == table[name]
            assert isinstance(metric["value"], (int, float))


def test_seed_reaches_srrw_only_through_inputs(tiny_runs):
    workload, (_, _, inputs), _ = tiny_runs
    for i, got in enumerate(inputs):
        want = workloads.make_inputs(workload, workloads.derive_seed(workload, SEED, i // 2),
                                     "tiny")
        assert got == json.loads(json.dumps(want))
    other = workloads.make_inputs(workload, workloads.derive_seed(workload, SEED + 1, 0), "tiny")
    assert json.dumps(other, sort_keys=True) != json.dumps(inputs[0], sort_keys=True)
    argv = run.child_command("rep00/inputs.json", 0.0, True)
    assert str(SEED) not in argv and "--seed" not in argv


def test_traced_and_untraced_do_the_same_work(tiny_runs):
    workload, (_, plain_reps, _), (_, traced_reps, _) = tiny_runs
    assert not plain_reps[0]["trace"] and traced_reps[0]["trace"]
    assert not traced_reps[1]["trace"]
    assert "population.token_steps" in plain_reps[0]["counts"]
    if workload == "corridor_check":
        assert plain_reps[0]["counts"]["return_time.walk_steps"] > 0
    assert plain_reps[0]["counts"] == traced_reps[0]["counts"] == traced_reps[1]["counts"]
