"""Experiment runner CLI.

Subcommands: stationary, envelopes, simulate, check, sweep. Each run writes
into a fresh directory under --out named by the config hash prefix plus a
timestamp; artifact bodies embed (config hash, seed, version) and the full
resolved config, and are byte-identical across reruns of the same inputs.

Replica simulation parallelism is capped by the SRRW_THREADS environment
variable (serial by default). Exit codes: 0 ok, 1 config error, 2 runtime
error, 3 insufficient data.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .analysis import check_corridor_feasibility, check_feasibility, corridor_stats, lyapunov_drift
from .config import (SWEEP_AXES, ResolvedConfig, load_config, replica_seeds, resolve_config,
                     resolve_on_kernel)
from .envelopes import (
    EnvelopeModel,
    MatchingAgeInterval,
    decay_age,
    doeblin_constants,
    envelope_curve_rows,
    fit_constants,
    solve_matching_age,
)
from .errors import ConfigError, InsufficientDataError, ParameterError, SrrwError
from .graphs import mixing_profile
from .policy import AGE_LAW_CAP, AgeLaw, RegimePolicy, mean_termination_rate
from .population import BlockPlan, PopulationTrace, block_drift, run_population
from .return_time import sample_return_times

TMIX_LADDER = (0.25, 0.125, 1e-2, 1e-3, 1e-4)


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header: str, rows, meta: dict) -> None:
    lines = [f"# {k}={v}" for k, v in sorted(meta.items())]
    lines.append(header)
    lines.extend(rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _meta(resolved: ResolvedConfig) -> dict:
    return {"config_hash": resolved.hash, "seed": resolved.simulation["seed"],
            "version": __version__}


def _run_dir(out: str, resolved: ResolvedConfig) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = os.path.join(out, f"{resolved.hash[:12]}-{stamp}")
    path = base
    counter = 1
    while os.path.exists(path):
        path = f"{base}-{counter}"
        counter += 1
    os.makedirs(path)
    return path


def _thread_cap() -> int:
    raw = os.environ.get("SRRW_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError("SRRW_THREADS", f"expected an integer >= 1, got {raw[:40]!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# shared pipeline pieces

def build_envelope_model(resolved: ResolvedConfig) -> EnvelopeModel:
    env = resolved.envelope
    if env["mode"] == "doeblin":
        return doeblin_constants(resolved.kernel)
    samples = [
        sample_return_times(resolved.kernel, u, env["n_samples"], rng_seed=env["seed"] + u)
        for u in range(resolved.graph.node_count)
    ]
    return fit_constants(samples, resolved.kernel.pi, delta_fit=env["delta_fit"])


def _run_replica(resolved: ResolvedConfig, burn_in: int, seed: int) -> PopulationTrace:
    sim = resolved.simulation
    return run_population(
        resolved.kernel, resolved.policy, resolved.traps,
        z0=sim["Z_0"], horizon=sim["horizon"], rng_seed=seed, z_cap=sim["Z_cap"],
        placement=sim["placement"], order=sim["order"],
        collect_age_law=sim["collect_age_law"], age_law_burn_in=burn_in,
        config_hash=resolved.hash,
    )


_pool_args = None  # (resolved, burn_in) of the run, set once in each pool process


def _init_pool(resolved: ResolvedConfig, burn_in: int) -> None:
    global _pool_args
    _pool_args = (resolved, burn_in)


def _pool_run(seed: int) -> PopulationTrace:
    return _run_replica(*_pool_args, seed)


def run_replicas(resolved: ResolvedConfig) -> list[PopulationTrace]:
    """One trace per replica seed on the resolved objects; a pool gets them once per worker."""
    sim = resolved.simulation
    seeds = replica_seeds(sim["seed"], sim["replicas"])
    workers = min(_thread_cap(), sim["replicas"])
    burn_in = resolved.t_mix if sim["collect_age_law"] else 0
    if workers <= 1:
        return [_run_replica(resolved, burn_in, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_pool,
                             initargs=(resolved, burn_in)) as pool:
        return list(pool.map(_pool_run, seeds))


def effective_age_interval(resolved: ResolvedConfig, model: EnvelopeModel,
                           traces: list[PopulationTrace] | None):
    """Effective-age interval(s) for the configured policy.

    Uniform specs use the exact identity (effective age equals the common
    trigger); non-uniform specs invert the envelopes at the fork rate measured
    from the supplied traces.
    """
    policy = resolved.policy

    def for_spec(spec):
        if spec.is_uniform:
            a = float(spec.a_long[0])
            return MatchingAgeInterval(a, a), "uniform_identity"
        if not traces:
            raise InsufficientDataError("non-uniform policy needs traces to measure the fork rate")
        p_hat = measured_rate(resolved, traces, "forks")
        return solve_matching_age(model, spec.fork_cap, min(p_hat, spec.fork_cap)), "measured"

    if isinstance(policy, RegimePolicy):
        low, low_mode = for_spec(policy.low)
        high, high_mode = for_spec(policy.high) if policy.high.fork_cap > 0 else (
            MatchingAgeInterval(math.inf, math.inf), "no_forking")
        return {"low": (low, low_mode), "high": (high, high_mode)}
    iv, mode = for_spec(policy)
    return {"single": (iv, mode)}


def measured_rate(resolved: ResolvedConfig, traces: list[PopulationTrace], column: str) -> float:
    """Events per token-step after the t_mix burn-in, from trace column ``forks`` or ``terms``."""
    burn_in = resolved.t_mix
    events = steps = 0
    for tr in traces:
        if tr.horizon <= burn_in:
            continue
        events += int(getattr(tr, column)[burn_in + 1:].sum())
        steps += tr.token_steps(burn_in + 1, tr.horizon)
    if steps == 0:
        raise InsufficientDataError("no token-steps beyond the mixing burn-in")
    return events / steps


def block_plan_for(resolved: ResolvedConfig, intervals: dict) -> BlockPlan:
    key = "low" if "low" in intervals else "single"
    iv = intervals[key][0]
    a_eff = 0.5 * (iv.lo + iv.hi) if iv.finite else 0.0
    return BlockPlan(t_mix_part=resolved.t_mix, kappa=resolved.block_plan["kappa"], a_eff=a_eff)


# ---------------------------------------------------------------------------
# subcommands

def cmd_stationary(resolved: ResolvedConfig, outdir: str) -> None:
    kernel = resolved.kernel
    prof = mixing_profile(kernel, target=min(TMIX_LADDER))
    meta = _meta(resolved)
    pi_rows = [f"{u},{_fmt(kernel.pi[u])}" for u in range(kernel.node_count)]
    _write_csv(os.path.join(outdir, "pi.csv"), "node,pi", pi_rows, meta)
    tmix_rows = [
        f"{_fmt(eps)},{prof.t_mix_of(eps)},{prof.spectral_bound(eps)}"
        for eps in TMIX_LADDER
    ]
    _write_csv(os.path.join(outdir, "tmix.csv"), "epsilon,t_mix,spectral_bound", tmix_rows, meta)
    _write_json(os.path.join(outdir, "stationary.json"), {
        "meta": meta,
        "pi": [kernel.pi[u] for u in range(kernel.node_count)],
        "spectral_gap": prof.spectral_gap,
        "t_mix": {str(eps): prof.t_mix_of(eps) for eps in TMIX_LADDER},
        "spectral_bound": {str(eps): prof.spectral_bound(eps) for eps in TMIX_LADDER},
        "config": resolved.raw,
    })


def cmd_envelopes(resolved: ResolvedConfig, outdir: str) -> None:
    model = build_envelope_model(resolved)
    meta = _meta(resolved)
    payload = {"meta": meta, "config": resolved.raw}
    payload.update(model.to_json_dict())
    _write_json(os.path.join(outdir, "envelopes.json"), payload)
    a_max = decay_age(model, "minus")
    grid = np.concatenate([[0.0], np.geomspace(a_max * 1e-4, a_max, 64)])
    rows = [f"{_fmt(a)},{_fmt(p)},{_fmt(m)}" for a, p, m in envelope_curve_rows(model, grid)]
    _write_csv(os.path.join(outdir, "envelope_curves.csv"), "A,L_plus,L_minus", rows, meta)


def _trace_summary(tr: PopulationTrace, plan: BlockPlan | None) -> dict:
    out = {
        "seed": tr.seed,
        "extinct": tr.extinct,
        "capped": tr.capped,
        "final_z": int(tr.z[-1]),
        "steps_recorded": tr.horizon,
        "horizon_requested": tr.horizon_requested,
    }
    if plan is not None:
        try:
            rep = block_drift(tr, plan, min_blocks=1)
            out["block_table"] = [
                {"k": k, "z_start": int(z), "drift_per_token": d, "predicted_per_token": p}
                for k, (z, d, p) in enumerate(zip(rep.z_start, rep.drift_per_token,
                                                  rep.predicted_per_token))
            ]
        except SrrwError:
            out["block_table"] = None
    return out


def cmd_simulate(resolved: ResolvedConfig, outdir: str) -> None:
    traces = run_replicas(resolved)
    meta = _meta(resolved)
    model = None
    intervals = None
    plan = None
    try:
        model = build_envelope_model(resolved)
        intervals = effective_age_interval(resolved, model, traces)
        plan = block_plan_for(resolved, intervals)
    except SrrwError:
        plan = None
    for i, tr in enumerate(traces):
        tr.to_csv(os.path.join(outdir, f"replica_{i:03d}.csv"), version=__version__)
    _write_json(os.path.join(outdir, "summary.json"), {
        "meta": meta,
        "replicas": [_trace_summary(tr, plan) for tr in traces],
        "extinction_fraction": float(np.mean([tr.extinct for tr in traces])),
        "cap_fraction": float(np.mean([tr.capped for tr in traces])),
        "block_length": None if plan is None else plan.block_length,
        "config": resolved.raw,
    })


def _load_traces(trace_dir: str, resolved: ResolvedConfig) -> list[PopulationTrace]:
    names = sorted(f for f in os.listdir(trace_dir)
                   if f.startswith("replica_") and f.endswith(".csv"))
    if not names:
        raise InsufficientDataError(f"no replica_*.csv traces under {trace_dir}")
    traces = []
    n = resolved.kernel.node_count
    for name in names:
        try:
            tr = PopulationTrace.from_csv(os.path.join(trace_dir, name))
        except ParameterError as exc:
            raise ConfigError("traces", f"{name}: {exc}") from None
        if tr.config_hash != resolved.hash:
            raise ConfigError("traces", f"{name} was written for config {tr.config_hash}, "
                                        f"not {resolved.hash}")
        law = tr.age_law
        if law is not None and (law.counts.shape[0], law.age_cap) != (n, AGE_LAW_CAP):
            raise ConfigError("traces", f"{name} holds an age law over {law.counts.shape[0]} nodes "
                                        f"with cap {law.age_cap}, not {n} with cap {AGE_LAW_CAP}")
        tr.lambda_del = resolved.traps.absorption_pressure(resolved.kernel.pi)
        traces.append(tr)
    return traces


def check_payloads(resolved: ResolvedConfig, traces: list[PopulationTrace],
                   model: EnvelopeModel | None = None) -> dict:
    """Feasibility plus corridor statistics; the shared core of check and sweep."""
    if model is None:
        model = build_envelope_model(resolved)
    intervals = effective_age_interval(resolved, model, traces)
    plan = block_plan_for(resolved, intervals)
    k_term_measured = measured_rate(resolved, traces, "terms")
    k_term_plugin = None
    law_traces = [tr for tr in traces if tr.age_law is not None]
    if law_traces:
        first = law_traces[0].age_law
        law = AgeLaw(first.counts.shape[0], first.age_cap)
        for tr in law_traces:
            law.merge(tr.age_law)
        spec = resolved.policy.high if isinstance(resolved.policy, RegimePolicy) else resolved.policy
        try:
            k_term_plugin = mean_termination_rate(spec, resolved.kernel.pi, law)
        except SrrwError:
            k_term_plugin = None

    if isinstance(resolved.policy, RegimePolicy):
        bundle = check_corridor_feasibility(
            model, resolved.traps,
            low=(resolved.policy.low.fork_cap, intervals["low"][0]),
            high=(resolved.policy.high.fork_cap, intervals["high"][0], k_term_measured),
        )
        feasibility = bundle.to_json_dict()
        feasibility["kind"] = "corridor"
    else:
        iv = intervals["single"][0]
        rep = check_feasibility(model, resolved.policy.fork_cap, iv, resolved.traps,
                                k_term_measured)
        feasibility = rep.to_json_dict()
        feasibility["kind"] = "single"
    feasibility["a_eff_mode"] = {k: v[1] for k, v in intervals.items()}
    feasibility["k_term_measured"] = k_term_measured
    feasibility["k_term_plugin"] = k_term_plugin
    feasibility["p_fork_measured"] = measured_rate(resolved, traces, "forks")
    feasibility["envelope_source"] = model.source

    corridor_payload = None
    excursion_rows = []
    if resolved.corridor is not None:
        z_low, z_high = resolved.corridor["Z_low"], resolved.corridor["Z_high"]
        stats_list = []
        for i, tr in enumerate(traces):
            try:
                st = corridor_stats(tr, z_low, z_high, plan, min_blocks=1)
            except SrrwError:
                continue
            stats_list.append(st)
            for j, rt in enumerate(st.return_times):
                excursion_rows.append(f"{i},{j},{int(rt)}")
        drift_reports = []
        for tr in traces:
            try:
                drift_reports.append(lyapunov_drift(tr, z_low, z_high, plan).to_json_dict())
            except SrrwError:
                drift_reports.append(None)
        corridor_payload = {
            "per_replica": [st.to_json_dict() for st in stats_list],
            "mean_inside_fraction": (float(np.mean([st.inside_fraction for st in stats_list]))
                                     if stats_list else None),
            "lyapunov_drift": drift_reports,
        }
    return {
        "feasibility": feasibility,
        "corridor": corridor_payload,
        "excursion_rows": excursion_rows,
        "plan": plan,
        "model": model,
    }


def cmd_check(resolved: ResolvedConfig, outdir: str, trace_dir: str | None = None) -> None:
    traces = _load_traces(trace_dir, resolved) if trace_dir else run_replicas(resolved)
    meta = _meta(resolved)
    payloads = check_payloads(resolved, traces)
    for i, tr in enumerate(traces):
        if trace_dir is None:
            tr.to_csv(os.path.join(outdir, f"replica_{i:03d}.csv"), version=__version__)
    _write_json(os.path.join(outdir, "feasibility.json"), {
        "meta": meta,
        "block_length": payloads["plan"].block_length,
        **{"feasibility": payloads["feasibility"]},
        "config": resolved.raw,
    })
    if payloads["corridor"] is not None:
        _write_json(os.path.join(outdir, "corridor.json"), {
            "meta": meta,
            "corridor": payloads["corridor"],
            "config": resolved.raw,
        })
        _write_csv(os.path.join(outdir, "excursions.csv"),
                   "replica,excursion,return_time_blocks", payloads["excursion_rows"], meta)


def _apply_sweep_point(raw: dict, point: dict) -> dict:
    import copy
    mod = copy.deepcopy(raw)
    mod.pop("sweep", None)
    if "q" in point or "A_l" in point:
        if "regime" in mod["policy"]:
            raise ConfigError("sweep", "q/A_l sweeps need a flat (non-regime) policy block")
        if "q" in point:
            mod["policy"]["q_fork"] = point["q"]
        if "A_l" in point:
            mod["policy"]["A_l"] = point["A_l"]
    if "zeta_scale" in point:
        traps = mod.get("traps")
        if traps is None:
            raise ConfigError("sweep", "zeta_scale sweep needs a traps block")
        zeta = traps["zeta"]
        if isinstance(zeta, dict):
            traps["zeta"] = {k: min(1.0, float(v) * point["zeta_scale"]) for k, v in zeta.items()}
        else:
            traps["zeta"] = min(1.0, float(zeta) * point["zeta_scale"])
    if "kappa" in point:
        mod.setdefault("block_plan", {})["kappa"] = point["kappa"]
    return mod


def cmd_sweep(resolved: ResolvedConfig, outdir: str) -> None:
    sweep = resolved.sweep
    if not sweep:
        raise ConfigError("sweep", "config has no sweep block")
    axes = [(k, sweep[k]) for k in SWEEP_AXES if k in sweep]
    meta = _meta(resolved)
    header = ",".join([k for k, _ in axes] + [
        "lambda_del", "a_eff_lo", "a_eff_hi", "viability_lhs", "safety_lhs",
        "viability", "safety", "margin_in", "margin_out",
        "k_term_measured", "p_fork_measured", "mean_drift_per_token", "c1_proxy",
    ])
    rows = []
    # no sweep axis touches the graph, the kernel or the envelope parameters,
    # so every grid point shares the base run's kernel and envelope model
    shared_model = build_envelope_model(resolved)
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = dict(zip((k for k, _ in axes), combo))
        mod = resolve_on_kernel(_apply_sweep_point(resolved.raw, point), resolved.kernel)
        traces = run_replicas(mod)
        payloads = check_payloads(mod, traces, model=shared_model)
        feas = payloads["feasibility"]
        drift_mean = c1 = float("nan")
        try:
            rep = block_drift(traces[0], payloads["plan"], min_blocks=1)
            drift_mean = float(np.mean(rep.drift_per_token))
            c1 = rep.c1_proxy
        except SrrwError:
            pass
        # a corridor's viability (and the block plan's interval) is the low
        # regime's, its safety the high regime's
        low, high = ((feas["low_regime"], feas["high_regime"]) if feas["kind"] == "corridor"
                     else (feas, feas))
        iv = low["a_eff_interval"]
        rows.append(",".join(
            [_fmt(point[k]) for k, _ in axes] + [
                _fmt(low["lambda_del"]), _fmt(iv[0]), _fmt(iv[1]),
                _fmt(low["viability_lhs"]), _fmt(high["safety_lhs"]),
                str(int(low["viability_holds"])), str(int(high["safety_holds"])),
                _fmt(low["margin_in"]), _fmt(high["margin_out"]),
                _fmt(feas["k_term_measured"]), _fmt(feas["p_fork_measured"]),
                _fmt(drift_mean), _fmt(c1),
            ]))
    _write_csv(os.path.join(outdir, "sweep.csv"), header, rows, meta)
    _write_json(os.path.join(outdir, "sweep.json"), {
        "meta": meta, "rows": len(rows), "axes": {k: v for k, v in axes},
        "config": resolved.raw,
    })


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="srrw",
                                     description="Self-regulating random walk toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("stationary", "envelopes", "simulate", "check", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the experiment JSON config")
        p.add_argument("--out", required=True, help="parent directory for run outputs")
        p.add_argument("--seed", type=int, default=None, help="override simulation seed")
        p.add_argument("--replicas", type=int, default=None, help="override replica count")
        if name == "check":
            p.add_argument("--traces", default=None,
                           help="reuse replica_*.csv traces from a previous run directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = load_config(args.config)
        if args.seed is not None:
            raw.setdefault("simulation", {})["seed"] = args.seed
        if args.replicas is not None:
            raw.setdefault("simulation", {})["replicas"] = args.replicas
        resolved = resolve_config(raw)
        outdir = _run_dir(args.out, resolved)
        if args.command == "stationary":
            cmd_stationary(resolved, outdir)
        elif args.command == "envelopes":
            cmd_envelopes(resolved, outdir)
        elif args.command == "simulate":
            cmd_simulate(resolved, outdir)
        elif args.command == "check":
            cmd_check(resolved, outdir, trace_dir=args.traces)
        elif args.command == "sweep":
            cmd_sweep(resolved, outdir)
        print(outdir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 3
    except SrrwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
