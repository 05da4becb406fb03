"""The three benchmark workloads: inputs from a seed, set-up, body and gates.

``make_inputs`` is pure and imports nothing from srrw; the parent process
calls it and writes the result to ``inputs.json``. That file is all a child
process sees: the benchmark seed reaches srrw only through the configs and
replica seeds inside it. ``setup``, ``body`` and ``gates`` run in the child.

Why these workloads:

- ``corridor_check`` is ``srrw check`` on the regime-switching corridor config
  of ``scripts/corridor_experiment.py`` with the age law collected. It is the
  pipeline users run and touches every module: return-time sampling for the
  envelope fit and the overhead-bound engine at Z of about 20-200 dominate.
- ``explode_k4`` is acceptance criterion 08's parameters through
  ``run_population``: throughput-bound and fork-heavy on four nodes, where
  per-token cost and a count-based engine show, and where a sparse sampler
  should change nothing.
- ``er1000_motion`` is ER(1000, 0.01): a large-n graph where dense O(n)
  inverse-CDF motion, the 32 n^2 bytes of kernel, the n x Z temporaries and
  the dense matrix powers of the mixing profile dominate. It uses the same
  engine as ``explode_k4`` with many nodes and few forks instead of few
  nodes and many forks.
"""
from __future__ import annotations

import hashlib
import json
import os

NAMES = ("corridor_check", "explode_k4", "er1000_motion")
SIZES = ("full", "tiny")


def derive_seed(*parts) -> int:
    """A 63-bit seed that depends only on ``parts``."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Everything one repetition needs, as JSON-ready data."""
    tiny = size == "tiny"
    if workload == "corridor_check":
        config = {
            "graph": {"generator": {"kind": "erdos_renyi", "n": 30, "p": 0.15, "seed": 1}},
            "laziness": 0.5,
            "traps": {"nodes": "all", "zeta": 0.05},
            "policy": {"regime": {
                "Z_low": 20, "Z_high": 200,
                "low": {"A_l": 1, "q_fork": 0.15},
                "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.10},
            }},
            "simulation": {"Z_0": 60, "horizon": 2_000 if tiny else 20_000,
                           "replicas": 1 if tiny else 3, "seed": seed,
                           "collect_age_law": True},
            "envelope": {"mode": "fit", "n_samples": 1_000 if tiny else 20_000},
            "corridor": {"Z_low": 20, "Z_high": 200},
        }
        return {"workload": workload, "config": config}
    if workload == "explode_k4":
        config = {
            "graph": {"generator": {"kind": "complete", "n": 4}},
            "laziness": 0.5,
            "traps": {"nodes": "all", "zeta": 0.02},
            "policy": {"A_l": 1, "q_fork": 0.15},
            "simulation": {"Z_0": 20, "horizon": 10_000,
                           "Z_cap": 2_000 if tiny else 100_000},
        }
        replicas = 2 if tiny else 40
        return {"workload": workload, "config": config,
                "replica_seeds": [derive_seed(seed, r) for r in range(replicas)]}
    if workload == "er1000_motion":
        config = {
            "graph": {"generator": {"kind": "erdos_renyi", "n": 1000, "p": 0.01, "seed": 0}},
            "laziness": 0.5,
            "traps": {"nodes": "all", "zeta": 0.02},
            "policy": {"A_l": 1, "q_fork": 0.02},
            "simulation": {"Z_0": 500 if tiny else 10_000, "horizon": 3 if tiny else 100},
        }
        return {"workload": workload, "config": config, "mixing_target": 0.125,
                "replica_seeds": [derive_seed(seed, 0)]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# child-side phases; srrw is imported by the caller before these run

def kernel_bytes(kernel) -> int:
    """Bytes held by the kernel's dense arrays, computed from their sizes."""
    return int(kernel.matrix.nbytes + kernel.base.nbytes + kernel.cumulative_rows().nbytes
               + kernel.base_cumulative_rows().nbytes)


def setup(inputs: dict, rep_dir: str, recorder) -> dict:
    """Resolve the config and build the graph, the kernel and its lazy tables."""
    import srrw.config

    resolved = srrw.config.resolve_config(inputs["config"])
    with recorder.span("graphs.kernel_build"):
        resolved.kernel.cumulative_rows()
        resolved.kernel.base_cumulative_rows()
    ctx = {"inputs": inputs, "resolved": resolved, "rep_dir": rep_dir}
    if inputs["workload"] == "corridor_check":
        ctx["config_path"] = os.path.join(rep_dir, "config.json")
        ctx["out_dir"] = os.path.join(rep_dir, "out")
        with open(ctx["config_path"], "w") as fh:
            json.dump(inputs["config"], fh)
    return ctx


def body(ctx: dict) -> dict:
    """The timed work. Calls go through module attributes so wrappers apply."""
    import srrw.cli
    import srrw.graphs
    import srrw.population

    inputs = ctx["inputs"]
    if inputs["workload"] == "corridor_check":
        code = srrw.cli.main(["check", "--config", ctx["config_path"], "--out", ctx["out_dir"]])
        return {"exit_code": code}
    r = ctx["resolved"]
    sim = r.simulation
    out = {}
    if "mixing_target" in inputs:
        out["profile"] = srrw.graphs.mixing_profile(r.kernel, target=inputs["mixing_target"])
    out["traces"] = [
        srrw.population.run_population(r.kernel, r.policy, r.traps, z0=sim["Z_0"],
                                       horizon=sim["horizon"], rng_seed=s, z_cap=sim["Z_cap"])
        for s in inputs["replica_seeds"]
    ]
    return out


def gates(ctx: dict, out: dict) -> tuple[dict, dict]:
    """(gate name -> passed, extras) for one repetition's outputs."""
    workload = ctx["inputs"]["workload"]
    if workload == "corridor_check":
        return _corridor_gates(ctx, out)
    traces = out["traces"]
    result = {"conservation": all(tr.conservation_violations() == 0 for tr in traces)}
    if workload == "explode_k4":
        cap_fraction = sum(tr.capped for tr in traces) / len(traces)
        result["cap_fraction_at_least_half"] = cap_fraction >= 0.5
    else:
        result["mixing_reached"] = not out["profile"].unreached
    return result, {}


def _corridor_gates(ctx: dict, out: dict) -> tuple[dict, dict]:
    from srrw.population import PopulationTrace

    result = {"exit_code_0": out["exit_code"] == 0}
    runs = os.listdir(ctx["out_dir"]) if os.path.isdir(ctx["out_dir"]) else []
    if len(runs) != 1:
        result["one_run_dir"] = False
        return result, {}
    run_dir = os.path.join(ctx["out_dir"], runs[0])
    names = sorted(os.listdir(run_dir))
    digests, total = {}, 0
    for name in names:
        with open(os.path.join(run_dir, name), "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        total += len(data)
    with open(os.path.join(run_dir, "feasibility.json")) as fh:
        feas = json.load(fh)["feasibility"]
    result["low_viability"] = bool(feas["low_regime"]["viability_holds"])
    result["high_safety"] = bool(feas["high_regime"]["safety_holds"])
    replicas = [n for n in names if n.startswith("replica_") and n.endswith(".csv")]
    expected = ctx["inputs"]["config"]["simulation"]["replicas"]
    result["conservation"] = len(replicas) == expected and all(
        PopulationTrace.from_csv(os.path.join(run_dir, n)).conservation_violations() == 0
        for n in replicas)
    return result, {"artifact_digests": digests, "artifact_bytes": total}
