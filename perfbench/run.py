"""srrw benchmark: run one workload for a fixed time and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload corridor_check --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``child.py``) with
``SRRW_THREADS=1`` and single-threaded BLAS. Repetitions come in pairs that
share one input seed: the second of a pair must reproduce the first exactly
(engine counters, and artifact bodies for ``corridor_check``). With
``--trace 0`` every repetition is untraced and the end-to-end metrics are
printed. With ``--trace 1`` the first of each pair is traced and the second
is not; the per-layer metrics come from the traced ones and the tracing
overhead is their wall-time difference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the srrw
sources under ``src/`` the script exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from child import high_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_REPS = 3
TIME_LIMIT_S = 170.0   # the whole run, repetitions included, ends before this

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "token_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "config.resolve_s": "s",
    "graphs.kernel_build_s": "s",
    "graphs.kernel_bytes": "bytes",
    "graphs.mixing_profile_s": "s",
    "graphs.mixing_profile_calls": "count",
    "return_time.sample_s": "s",
    "return_time.calls": "count",
    "return_time.walk_steps": "count",
    "return_time.ns_per_walk_step": "ns",
    "envelopes.fit_s": "s",
    "policy.age_law_record_s": "s",
    "population.run_s": "s",
    "population.step_s": "s",
    "population.step_calls": "count",
    "population.us_per_step_p50": "us",
    "population.us_per_step_hi": "us",
    "population.loop_s": "s",
    "population.ns_per_token_step": "ns",
    "population.token_steps": "count",
    "population.forks": "count",
    "population.trap_dels": "count",
    "population.terms": "count",
    "population.capped": "count",
    "population.extinct": "count",
    "population.block_drift_s": "s",
    "analysis.corridor_stats_s": "s",
    "analysis.lyapunov_drift_s": "s",
    "analysis.feasibility_s": "s",
    "cli.build_envelope_model_s": "s",
    "cli.run_replicas_s": "s",
    "cli.check_payloads_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
# why a per-layer metric reads zero on a workload; layers a workload never
# calls fall back to its "*" entry
ABSENT = {
    "corridor_check": {
        "population.block_drift_s": "`srrw check` never calls block_drift; `simulate` and "
                                    "`sweep` do",
        "population.capped": "the corridor keeps Z far below Z_cap",
        "population.extinct": "the low regime forks whenever Z < 20",
        "*": "not reached",
    },
    "explode_k4": {
        "population.terms": "the policy has q_term = 0",
        "population.extinct": "no replica died out before its cap",
        "*": "the workload calls run_population only",
    },
    "er1000_motion": {
        "population.terms": "the policy has q_term = 0",
        "population.capped": "Z stays near 10k, far below Z_cap",
        "population.extinct": "Z stays near 10k",
        "*": "the workload calls mixing_profile and run_population only",
    },
}

ROADMAP_AIM1 = [
    ("Tier-1 suite wall time (194 s)", None,
     "too long to repeat 22 times per workload; corridor_check and explode_k4 stand in"),
    ("`srrw check` on the corridor config", "wall_s", "corridor_check"),
    ("acceptance 08 (500 K4 replicas, 66 s)", "wall_s, token_steps_per_s",
     "explode_k4 at 40 replicas"),
    ("acceptance 09 (10 x 100k-step corridor runs, 108 s)", "wall_s, population.us_per_step_*",
     "corridor_check at 3 x 20k steps"),
    ("motion sampler, ns per token-step, small n", "population.ns_per_token_step",
     "explode_k4 (n = 4), corridor_check (n = 30)"),
    ("motion sampler, ns per token-step, large n", "population.ns_per_token_step",
     "er1000_motion (n = 1000, Z = 10k)"),
    ("engine overhead, us per step", "population.us_per_step_p50/_hi, population.loop_s",
     "corridor_check"),
    ("return-time sampling, samples per second",
     "return_time.ns_per_walk_step, return_time.sample_s / calls", "corridor_check"),
    ("mixing_profile against n", "graphs.mixing_profile_s",
     "corridor_check (n = 30), er1000_motion (n = 1000)"),
    ("doeblin_constants against n", None,
     "left out: the fitted envelope is what users run; no workload uses mode doeblin"),
    ("envelope fit", "envelopes.fit_s, cli.build_envelope_model_s", "corridor_check"),
    ("block_drift", "population.block_drift_s",
     "reads 0: `check` does not call it; corridor_stats carries the analysis cost"),
    ("corridor_stats", "analysis.corridor_stats_s", "corridor_check"),
]


def pin_threads() -> None:
    """Serial replicas and single-threaded BLAS here and in every child."""
    for var in ("SRRW_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def fingerprint() -> dict:
    """Machine and library facts; call after the thread pins are in os.environ."""
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "cpu": platform.processor() or platform.machine(),
    }


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or the pinned variable."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"


def child_command(inputs_path: str, t0: float, traced: bool) -> list[str]:
    """The child's argv: it names the inputs file, never the benchmark seed."""
    return [sys.executable, os.path.join(HERE, "child.py"), "--inputs", inputs_path,
            "--t0", repr(t0), "--trace", "1" if traced else "0"]


def run_rep(work: str, index: int, inputs: dict, traced: bool, timeout: float) -> dict:
    rep_dir = os.path.join(work, f"rep{index:02d}")
    os.makedirs(rep_dir)
    inputs_path = os.path.join(rep_dir, "inputs.json")
    with open(inputs_path, "w") as fh:
        json.dump(inputs, fh, sort_keys=True)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(child_command(inputs_path, t0, traced), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
        error = proc.stderr.strip().splitlines()[-1:] if proc.returncode else []
    except subprocess.TimeoutExpired:
        error = [f"timed out after {timeout:.0f} s"]
    rep = {"index": index, "traced": traced, "elapsed": time.monotonic() - t0}
    result_path = os.path.join(rep_dir, "result.json")
    if error or not os.path.exists(result_path):
        rep["error"] = error[0] if error else "no result written"
        return rep
    with open(result_path) as fh:
        rep.update(json.load(fh))
    return rep


def run_reps(workload: str, seed: int, seconds: float, trace: bool, size: str) -> list[dict]:
    work = os.path.join(HERE, ".work", f"{size}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        longest = max((r["elapsed"] for r in reps), default=0.0)
        if len(reps) >= MIN_REPS and elapsed + longest > seconds:
            break
        if reps and elapsed + longest > TIME_LIMIT_S:
            break
        inputs = workloads.make_inputs(workload, workloads.derive_seed(workload, seed,
                                                                       len(reps) // 2), size)
        traced = trace and len(reps) % 2 == 0
        reps.append(run_rep(work, len(reps), inputs, traced, TIME_LIMIT_S - elapsed))
    check_pairs(reps)
    return reps


def check_pairs(reps: list[dict]) -> None:
    """Fail the second of a same-seed pair when it does not reproduce the first."""
    for first, second in zip(reps[0::2], reps[1::2]):
        if "error" in first or "error" in second:
            continue
        # every counter is exact: engine tallies and return-time walk steps
        same = (first["counts"] == second["counts"]
                and first["artifact_digests"] == second["artifact_digests"])
        second["gates"]["same_seed_reproduces"] = same


def failed(rep: dict) -> bool:
    return "error" in rep or not all(rep["gates"].values())


def median(values):
    return statistics.median(values) if values else None


def spread_text(values: list[float]) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    p, value = high_percentile(values)
    hi = f"p{p:g} {value:.6g}" if p else "no percentile has 10 samples beyond it"
    return f"median {statistics.median(values):.6g}; {hi}; n={len(values)}"


def end_to_end(reps: list[dict]) -> dict:
    plain = [r for r in reps if "error" not in r and not r["traced"]]
    if not plain:
        return {}
    return {
        "wall_s": [r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "token_steps_per_s": [r["counts"].get("population.token_steps", 0)
                              / r["run_population_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def per_layer(reps: list[dict]) -> tuple[dict, list[dict]]:
    traced = [r for r in reps if "error" not in r and r["traced"]]
    if not traced:
        return {}, []
    values = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        per_rep = [r["layers"][name] if name in r["layers"] else r["counts"].get(name, 0)
                   for r in traced]
        # counts and sizes are exact for the seed: take the first pair's, not a median
        values[name] = per_rep[0] if unit in ("count", "bytes") else median(per_rep)
    # the traced first and the untraced second of a pair run the same inputs
    values["trace.overhead_s"] = median([a["wall_s"] - b["wall_s"]
                                         for a, b in zip(reps[0::2], reps[1::2])
                                         if "error" not in a and "error" not in b])
    return values, traced


def print_report(workload: str, seed: int, size: str, reps: list[dict], e2e: dict,
                 layers: dict, traced: list[dict], fp: dict) -> None:
    print(f"# srrw benchmark: workload={workload} seed={seed} size={size}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in fp.items()))
    for r in reps:
        kind = "traced" if r["traced"] else "untraced"
        if "error" in r:
            print(f"rep {r['index']:2d} {kind:8s} ERROR {r['error']}")
            continue
        bad = [k for k, ok in r["gates"].items() if not ok]
        print(f"rep {r['index']:2d} {kind:8s} setup {r['setup_s']:.3f} s  wall "
              f"{r['wall_s']:.3f} s  rss {r['peak_rss_mb']:.1f} MB  gates "
              f"{'FAILED ' + ','.join(bad) if bad else 'ok'}")
    n_failed = sum(failed(r) for r in reps)
    print(f"failed_frac {n_failed}/{len(reps)} = {n_failed / len(reps):.3f}")
    if e2e:
        print("\n## end to end (untraced repetitions)")
        for name, vals in e2e.items():
            print(f"{name:20s} [{END_TO_END[name]}] {spread_text(vals)}")
    if layers:
        print("\n## per layer (traced repetitions, medians)")
        hi_pct = traced[0]["layers"].get("population.us_per_step_hi_pct")
        absent = ABSENT[workload]
        for name, value in layers.items():
            note = ""
            if name == "population.us_per_step_hi":
                note = f"(p{hi_pct:g})" if hi_pct else "(too few steps for a percentile)"
            elif name.endswith("_bytes") and name.startswith("graphs."):
                note = "(computed from array sizes)"
            elif value == 0:
                note = f"(absent: {absent.get(name, absent['*'])})"
            print(f"{name:30s} {value:>14.6g} {PER_LAYER[name]:5s} {note}")
        print("\n## reconciliation: self seconds by layer inside the body, per traced repetition")
        print(f"{'layer':14s}" + "".join(f"{'rep ' + str(r['index']):>10s}" for r in traced))
        for layer in sorted({k for r in traced for k in r["self_by_layer"]}):
            print(f"{layer:14s}" + "".join(f"{r['self_by_layer'].get(layer, 0.0):10.4f}"
                                           for r in traced))
        print(f"{'sum':14s}" + "".join(f"{sum(r['self_by_layer'].values()):10.4f}" for r in traced))
        print(f"{'wall_s':14s}" + "".join(f"{r['wall_s']:10.4f}" for r in traced))
        print("(unattributed = body time outside every wrapped call)")
        setup_spans = median([sum(r["setup_self_by_layer"].values()) for r in traced])
        setup_s = median([r["setup_s"] for r in traced])
        print(f"set-up: spans cover {setup_spans:.4f} s of traced setup_s {setup_s:.4f} s; "
              f"the rest is interpreter start and imports")
        print(f"tracing overhead: traced wall_s - untraced wall_s on the same inputs = "
              f"{layers['trace.overhead_s']:.4f} s (median over pairs)")
    print("\n## ROADMAP aim 1 -> metric")
    for row, metric, where in ROADMAP_AIM1:
        print(f"- {row}: {metric or 'not measured'} [{where}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="'tiny' shrinks every workload for the harness smoke test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "srrw", "__init__.py")):
        print(f"error: srrw sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    pin_threads()

    reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    e2e = end_to_end(reps)
    layers, traced = per_layer(reps) if args.trace else ({}, [])
    print_report(args.workload, args.seed, args.size, reps, e2e, layers, traced, fingerprint())

    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": median(v), "unit": END_TO_END[k]} for k, v in e2e.items()}
    wanted = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(wanted) or any(m["value"] is None for m in metrics.values()):
        errors = [r["error"] for r in reps if "error" in r]
        print(f"error: no complete measurement; child errors: {errors}", file=sys.stderr)
        return 1
    n_failed = sum(failed(r) for r in reps)
    print(json.dumps({"correct": n_failed == 0, "attempted": len(reps), "failed": n_failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
