#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in a ``BENCH_<label>.json`` file.

    python scripts/bench_record.py --label L [--baseline DIR] [--runs N] [--seconds S]
                                   [--workload W ...] [--size full|tiny] [--out DIR]
                                   [--step-timing [CASE ...]]

Runs ``perfbench/run.py --trace 0`` of this checkout ``--runs`` times on each
workload of ``BENCHMARK.json`` (or on each ``--workload`` given). With
``--baseline DIR``, DIR is the root of a second checkout, for example one
made by ``git worktree add DIR <parent>``: its own ``perfbench/run.py`` then
runs on the same seeds (run k has seed 1 + k), alternating with this
checkout run by run, and the two take turns going first. Each run of ``run.py`` prints one median per
end-to-end metric over its repetitions; the file holds, per workload and
side, every run's median, their median, quartiles and count, and the
repetitions attempted and failed. With a baseline it also counts, per metric,
the pairs of runs the change won, by the direction ``BENCHMARK.json`` gives.
The git SHA of each side (and whether its tree had uncommitted changes) and
the machine fingerprint that ``run.py`` prints are recorded with them.

With ``--step-timing [CASE ...]`` it also runs ``scripts/step_timing.py``
(``--baseline DIR/src`` when a baseline is given) on the named cases, or on
all, and stores its rows as the file's per-layer rows, under
``per_layer.step_timing``: per case and event order, the median
microseconds per step of each side, the median of the per-round ratios and
their lowest and highest, the round-to-round spread.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MACHINE = "# machine: "


def git_state(root: str) -> dict:
    """The checkout's HEAD SHA and whether its tree differs from it; nulls outside git."""
    def git(*args):
        proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": sha, "dirty": None if status is None else bool(status)}


def run_once(root: str, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One ``run.py`` of the checkout at ``root``: its JSON result and machine fingerprint."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--size", size]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    machine = next((line[len(MACHINE):] for line in lines if line.startswith(MACHINE)), "")
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"error": f"exit {proc.returncode}: {tail[0][:200]}"}
    result["machine"] = dict(item.split("=", 1) for item in machine.split(", ") if "=" in item)
    return result


def summarize(runs: list[dict], units: dict) -> dict:
    """Per metric: every run's median, their median, quartiles and count; repetitions
    attempted and failed, and runs that gave no result."""
    out = {"metrics": {}, "attempted": sum(r.get("attempted", 0) for r in runs),
           "failed": sum(r.get("failed", 0) for r in runs),
           "runs_without_result": sum("error" in r for r in runs)}
    for name, unit in units.items():
        values = [r["metrics"][name]["value"] for r in runs if "metrics" in r]
        row = {"unit": unit, "n": len(values), "values": values}
        if values:
            q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                         if len(values) > 1 else values * 3)
            row.update(median=statistics.median(values), q1=q1, q3=q3)
        out["metrics"][name] = row
    return out


def wins(change: list[dict], parent: list[dict], better: dict) -> dict:
    """Per metric, the pairs of runs in which the change's median was better."""
    out = {}
    for name, direction in better.items():
        pairs = [(c["metrics"][name]["value"], p["metrics"][name]["value"])
                 for c, p in zip(change, parent) if "metrics" in c and "metrics" in p]
        won = sum(c > p if direction == "higher" else c < p for c, p in pairs)
        out[name] = f"{won}/{len(pairs)}"
    return out


def step_timing(root: str, baseline: str | None, cases: list[str]) -> dict:
    """The rows of ``scripts/step_timing.py`` run on this checkout's ``src`` (against
    ``baseline/src`` when given), with the command that made them."""
    args = [*(["--baseline", os.path.join(baseline, "src")] if baseline else []),
            *(arg for case in cases for arg in ("--case", case))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.json")
        subprocess.run([sys.executable, os.path.join(root, "scripts", "step_timing.py"), *args,
                        "--json", path], env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
                       check=True)
        with open(path) as fh:
            rows = json.load(fh)
    command = " ".join(["scripts/step_timing.py", *(["--baseline", "<parent>/src"] if baseline
                                                     else []), *args[2 if baseline else 0:]])
    return {"command": command, "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--baseline", help="root of a second checkout, run alternately")
    parser.add_argument("--runs", type=int, default=5, help="runs of run.py per side")
    parser.add_argument("--seconds", type=float, default=15.0, help="run.py --seconds")
    parser.add_argument("--workload", action="append", help="a workload (default: all)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", default=ROOT, help="directory of the BENCH file")
    parser.add_argument("--step-timing", nargs="*", metavar="CASE",
                        help="also store scripts/step_timing.py rows of these cases (default: "
                             "all) as per-layer rows")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs needs N >= 1")
    if args.baseline and not os.path.isfile(os.path.join(args.baseline, "perfbench", "run.py")):
        parser.error(f"no perfbench/run.py under {args.baseline}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    sides = {"change": ROOT} if not args.baseline else {"change": ROOT, "parent": args.baseline}
    record = {
        "label": args.label,
        "command": f"perfbench/run.py --seconds {args.seconds:g} --trace 0 --size {args.size}",
        "runs_per_side": args.runs,
        "sides": {name: git_state(root) for name, root in sides.items()},
        "workloads": {},
    }
    machine = {}
    for workload in workloads:
        runs = {name: [] for name in sides}
        for k in range(args.runs):
            order = list(sides) if k % 2 == 0 else list(sides)[::-1]
            for name in order:
                result = run_once(sides[name], workload, 1 + k, args.seconds, args.size)
                machine = machine or result["machine"]
                runs[name].append(result)
                print(f"{workload} run {k} {name}: "
                      + json.dumps(result.get("metrics") or result.get("error")), flush=True)
        entry = {name: summarize(r, units) for name, r in runs.items()}
        if args.baseline:
            entry["change_won"] = wins(runs["change"], runs["parent"], better)
        record["workloads"][workload] = entry
    record["machine"] = machine
    if args.step_timing is not None:
        record["per_layer"] = {"step_timing": step_timing(ROOT, args.baseline, args.step_timing)}
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
