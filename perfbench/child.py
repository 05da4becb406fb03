"""One repetition of a workload in a fresh interpreter; started by run.py.

Usage: python3 child.py --inputs REP_DIR/inputs.json --t0 MONOTONIC --trace 0|1

Reads only the inputs file, imports srrw from the checkout's ``src``,
installs the coarse or full wrappers, runs set-up, the timed body and the
correctness gates, and writes ``result.json`` (and, when traced,
``spans.json``) next to the inputs. ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports and set-up.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# percentiles tried from the top; the first with at least ten samples beyond it is reported
PERCENTILE_LADDER = (99.9, 99.0, 90.0)


def high_percentile(values: list[float]) -> tuple[float | None, float | None]:
    """(p, value) for the highest ladder percentile with >= 10 samples above it."""
    n = len(values)
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            ordered = sorted(values)
            return p, ordered[min(n - 1, int(n * p / 100.0))]
    return None, None


def layer_metrics(rec, kernel_bytes: int, artifact_bytes: int) -> dict:
    """Per-layer numbers from one traced repetition's spans and counters."""
    incl, own, calls = rec.totals()
    counts = rec.counts
    step_us = [d * 1e6 for d in rec.durations("population.step")]
    p_hi, us_hi = high_percentile(step_us)
    run_s = incl["population.run"]
    walk = counts.get("return_time.walk_steps", 0)
    token_steps = counts.get("population.token_steps", 0)
    return {
        "config.resolve_s": incl["config.resolve"],
        "graphs.kernel_build_s": incl["graphs.kernel_build"],
        "graphs.kernel_bytes": kernel_bytes,
        "graphs.mixing_profile_s": incl["graphs.mixing_profile"],
        "graphs.mixing_profile_calls": calls["graphs.mixing_profile"],
        "return_time.sample_s": incl["return_time.sample"],
        "return_time.calls": counts.get("return_time.calls", 0),
        "return_time.walk_steps": walk,
        "return_time.ns_per_walk_step": incl["return_time.sample"] / walk * 1e9 if walk else 0.0,
        "envelopes.fit_s": incl["envelopes.fit"],
        "policy.age_law_record_s": incl["policy.age_law_record"],
        "population.run_s": run_s,
        "population.step_s": own["population.step"],
        "population.step_calls": calls["population.step"],
        "population.us_per_step_p50": statistics.median(step_us) if step_us else 0.0,
        "population.us_per_step_hi": us_hi if us_hi is not None else 0.0,
        "population.us_per_step_hi_pct": p_hi,
        "population.loop_s": own["population.run"],
        "population.ns_per_token_step": run_s / token_steps * 1e9 if token_steps else 0.0,
        "population.block_drift_s": incl["population.block_drift"],
        "analysis.corridor_stats_s": incl["analysis.corridor_stats"],
        "analysis.lyapunov_drift_s": incl["analysis.lyapunov_drift"],
        "analysis.feasibility_s": incl["analysis.feasibility"],
        "cli.build_envelope_model_s": incl["cli.build_envelope_model"],
        "cli.run_replicas_s": incl["cli.run_replicas"],
        "cli.check_payloads_s": incl["cli.check_payloads"],
        "cli.write_s": incl["cli.write"],
        "cli.artifact_bytes": artifact_bytes,
        "trace.unattributed_s": own["bench.body"],
    }


def self_time_by_layer(rec, root: str) -> dict:
    """Self seconds per layer (span-name prefix) over the subtree of span ``root``."""
    spans = rec.spans
    inside = [False] * len(spans)
    out: dict[str, float] = {}
    for i, ((name, _, _, parent), s) in enumerate(zip(spans, rec.self_times())):
        inside[i] = name == root or (parent >= 0 and inside[parent])
        if inside[i]:
            layer = name.split(".")[0] if name != root else "unattributed"
            out[layer] = out.get(layer, 0.0) + s
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    rep_dir = os.path.dirname(os.path.abspath(args.inputs))

    sys.path.insert(0, SRC)
    import srrw

    if os.path.dirname(os.path.abspath(srrw.__file__)) != os.path.join(SRC, "srrw"):
        raise SystemExit(f"srrw imported from {srrw.__file__}, not from {SRC}")
    import tracing
    import workloads

    rec = tracing.Recorder()
    rec.install(full=bool(args.trace))
    with rec.span("bench.setup"):
        ctx = workloads.setup(inputs, rep_dir, rec)
    setup_s = time.monotonic() - args.t0
    kbytes = workloads.kernel_bytes(ctx["resolved"].kernel)

    start = time.perf_counter()
    with rec.span("bench.body"):
        out = workloads.body(ctx)
    wall_s = time.perf_counter() - start

    gate_results, extras = workloads.gates(ctx, out)
    incl, _, _ = rec.totals()
    result = {
        "trace": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "run_population_s": incl["population.run"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": dict(sorted(rec.counts.items())),
        "gates": gate_results,
        "artifact_digests": extras.get("artifact_digests", {}),
    }
    if args.trace:
        result["layers"] = layer_metrics(rec, kbytes, extras.get("artifact_bytes", 0))
        result["self_by_layer"] = self_time_by_layer(rec, "bench.body")
        result["setup_self_by_layer"] = self_time_by_layer(rec, "bench.setup")
        with open(os.path.join(rep_dir, "spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": rec.spans}, fh)
    with open(os.path.join(rep_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
