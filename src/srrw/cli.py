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
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import check_corridor_feasibility, check_feasibility, corridor_stats, lyapunov_drift
from .config import ResolvedConfig, _cannot_read, _clip, load_config, replica_seeds, resolve_config
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
from .graphs import DENSE_NODE_CAP, TransitionKernel, mixing_profile
from .policy import AgeLaw, RegimePolicy, mean_termination_rate
from .population import BlockPlan, DriftReport, PopulationTrace, block_drift, run_population
from .return_time import ReturnTimeSample, sample_return_times
from .tails import TailSpectrum

TMIX_LADDER = (0.25, 0.125, 1e-2, 1e-3, 1e-4)


def _finite_or_null(x):
    """``x`` with each non-finite float (+inf in srrw's payloads) replaced by JSON null."""
    if isinstance(x, dict):
        return {k: _finite_or_null(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite_or_null(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_finite_or_null(payload), fh, sort_keys=True, indent=2, allow_nan=False)
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

def return_time_samples(kernel: TransitionKernel, n_samples: int,
                        seed: int) -> list[ReturnTimeSample]:
    """``n_samples`` return times to each node u, with the generator seeded ``seed`` + u. With
    laziness at least 1/2, up to ``DENSE_NODE_CAP`` nodes, they are drawn from the exact law
    (``TailSpectrum.draw``); otherwise the walk ``sample_return_times`` samples them."""
    if kernel.laziness >= 0.5 and kernel.node_count <= DENSE_NODE_CAP:
        draw = TailSpectrum(kernel).draw
    else:
        draw = functools.partial(sample_return_times, kernel)
    return [draw(u, n_samples, rng_seed=seed + u) for u in range(kernel.node_count)]


def build_envelope_model(resolved: ResolvedConfig) -> EnvelopeModel:
    env = resolved.envelope
    if env["mode"] == "doeblin":
        return doeblin_constants(resolved.kernel)
    samples = return_time_samples(resolved.kernel, env["n_samples"], env["seed"])
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
    # imported here: the pool costs serial runs about 20 ms and 2 MB of RSS at import
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_pool,
                             initargs=(resolved, burn_in)) as pool:
        return list(pool.map(_pool_run, seeds))


def measured_rates(resolved: ResolvedConfig,
                   traces: list[PopulationTrace]) -> dict[str, tuple[float, float]]:
    """(forks, terminations) per token-step after the t_mix burn-in, by spec key: ``single``,
    or ``low`` and ``high``, each over the steps its regime ran, in one pass over the traces.
    A step's regime is replayed from the trace's Z history as the engine set it:
    ``RegimePolicy.next_regime`` from ``initial_regime(Z_0)``. A regime that ran no step after
    the burn-in observed no event, and both its rates read 0."""
    burn_in = resolved.t_mix
    policy = resolved.policy
    keys = ("low", "high") if isinstance(policy, RegimePolicy) else ("single",)
    counts = np.zeros((len(keys), 3), dtype=np.int64)  # forks, terminations, token-steps
    for tr in traces:
        if tr.horizon <= burn_in:
            continue
        # each step after the burn-in: its events and the tokens it handled
        forks, terms, z = tr.forks[burn_in + 1:], tr.terms[burn_in + 1:], tr.z[burn_in:-1]
        high = np.zeros(z.size, dtype=bool)
        if len(keys) == 2:
            regime, seen = policy.initial_regime(int(tr.z[0])), []
            for zt in tr.z[:-1].tolist():
                regime = policy.next_regime(regime, zt)
                seen.append(regime == "high")
            high = np.array(seen[burn_in:])
        for k, mask in enumerate((~high, high)[:len(keys)]):
            counts[k] += forks[mask].sum(), terms[mask].sum(), z[mask].sum()
    if counts[:, 2].sum() == 0:
        raise InsufficientDataError("no token-steps beyond the mixing burn-in")
    return {k: (f / s, m / s) if s else (0.0, 0.0) for k, (f, m, s) in zip(keys, counts.tolist())}


def effective_age_interval(resolved: ResolvedConfig, traces: list[PopulationTrace],
                           model: EnvelopeModel | None = None,
                           rates: dict | None = None) -> dict:
    """(effective-age interval, mode) by key, ``single`` or ``low`` and ``high``:
    ``uniform_identity`` (the common trigger), ``no_forking`` ([inf, inf], for a
    spec that never forks and any high regime that never forks) or ``measured``
    (the envelope model inverted at the spec's own fork rate in ``measured_rates``).
    The model and the rates, unless given, are derived once and only for a measured spec."""
    policy = resolved.policy
    specs = ({"low": policy.low, "high": policy.high} if isinstance(policy, RegimePolicy)
             else {"single": policy})
    out = {}
    for key, spec in specs.items():
        if spec.is_uniform and (key != "high" or spec.fork_cap > 0):
            a = float(spec.a_long[0])
            out[key] = MatchingAgeInterval(a, a), "uniform_identity"
        elif spec.fork_cap <= 0:
            out[key] = MatchingAgeInterval(math.inf, math.inf), "no_forking"
        else:
            model = build_envelope_model(resolved) if model is None else model
            rates = measured_rates(resolved, traces) if rates is None else rates
            iv = solve_matching_age(model, spec.fork_cap, min(rates[key][0], spec.fork_cap))
            out[key] = iv, "measured"
    return out


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


def _drift_or_none(tr: PopulationTrace, plan: BlockPlan, lambda_del: float) -> DriftReport | None:
    """``block_drift`` over the trace's whole blocks, or None when it has no usable block."""
    try:
        return block_drift(tr, plan, lambda_del, min_blocks=1)
    except SrrwError:
        return None


def _trace_summary(tr: PopulationTrace, plan: BlockPlan | None, lambda_del: float) -> dict:
    out = {
        "seed": tr.seed,
        "extinct": tr.extinct,
        "capped": tr.capped,
        "final_z": int(tr.z[-1]),
        "steps_recorded": tr.horizon,
        "horizon_requested": tr.horizon_requested,
    }
    if plan is not None:
        rep = _drift_or_none(tr, plan, lambda_del)
        out["block_table"] = None if rep is None else [
            {"k": k, "z_start": int(z), "drift_per_token": d, "predicted_per_token": p}
            for k, (z, d, p) in enumerate(zip(rep.z_start, rep.drift_per_token,
                                              rep.predicted_per_token))
        ]
    return out


def _check_dense_analysis(resolved: ResolvedConfig, command: str) -> None:
    """ConfigError when the command reads the dense kernel past ``DENSE_NODE_CAP``: its mixing
    profile in ``stationary``, ``check`` and ``sweep`` (t_mix), ``envelopes`` in Doeblin mode
    and ``simulate`` with the age law (its t_mix burn-in). Raised before any replica runs or
    the run directory exists."""
    n = resolved.kernel.node_count
    needs = {"envelopes": resolved.envelope["mode"] == "doeblin",
             "simulate": resolved.simulation["collect_age_law"]}.get(command, True)
    if needs and n > DENSE_NODE_CAP:
        raise ConfigError("graph", f"{command} reads the mixing profile of the dense n x n "
                                   f"kernel, which is capped at {DENSE_NODE_CAP} nodes, got {n}; "
                                   "simulate without collect_age_law runs without it")


def cmd_simulate(resolved: ResolvedConfig, outdir: str) -> None:
    traces = run_replicas(resolved)
    meta = _meta(resolved)
    try:
        plan, missing = block_plan_for(resolved, effective_age_interval(resolved, traces)), None
    except SrrwError as exc:
        plan, missing = None, str(exc)
    for i, tr in enumerate(traces):
        tr.to_csv(os.path.join(outdir, f"replica_{i:03d}.csv"), version=__version__)
    lam = resolved.traps.absorption_pressure(resolved.kernel.pi)
    _write_json(os.path.join(outdir, "summary.json"), {
        "meta": meta,
        "replicas": [_trace_summary(tr, plan, lam) for tr in traces],
        "extinction_fraction": float(np.mean([tr.extinct for tr in traces])),
        "cap_fraction": float(np.mean([tr.capped for tr in traces])),
        "block_length": None if plan is None else plan.block_length,
        "block_plan_missing": missing,
        "config": resolved.raw,
    })


def _load_traces(trace_dir: str, resolved: ResolvedConfig) -> list[PopulationTrace]:
    try:
        names = sorted(f for f in os.listdir(trace_dir)
                       if f.startswith("replica_") and f.endswith(".csv"))
    except OSError as exc:
        raise ConfigError("traces", _cannot_read(trace_dir, exc)) from None
    if not names:
        raise InsufficientDataError(f"no replica_*.csv traces under {_clip(trace_dir, 200)}")
    traces = []
    for name in names:
        try:
            tr = PopulationTrace.from_csv(os.path.join(trace_dir, name),
                                          node_count=resolved.kernel.node_count)
        except OSError as exc:
            raise ConfigError("traces", f"{name}: {exc.strerror or type(exc).__name__}") from None
        except ParameterError as exc:
            raise ConfigError("traces", f"{name}: {exc}") from None
        if tr.config_hash != resolved.hash:
            raise ConfigError("traces", f"{name} was written for config {_clip(tr.config_hash)}, "
                                        f"not {resolved.hash}")
        z_cap = resolved.simulation["Z_cap"]
        if tr.capped != (tr.z[-1] >= z_cap):
            raise ConfigError("traces", f"{name}: capped={int(tr.capped)} disagrees with the "
                                        f"final Z={tr.z[-1]} and Z_cap={z_cap}")
        traces.append(tr)
    return traces


def check_payloads(resolved: ResolvedConfig, traces: list[PopulationTrace],
                   model: EnvelopeModel | None = None) -> dict:
    """Feasibility plus corridor statistics; the shared core of check and sweep."""
    if model is None:
        model = build_envelope_model(resolved)
    rates = measured_rates(resolved, traces)
    intervals = effective_age_interval(resolved, traces, model, rates)
    plan = block_plan_for(resolved, intervals)
    k_term_plugin = None
    laws = [tr.age_law for tr in traces if tr.age_law is not None]
    if laws:
        law = AgeLaw(resolved.kernel.node_count)
        for other in laws:
            law.merge(other)
        spec = resolved.policy.high if isinstance(resolved.policy, RegimePolicy) else resolved.policy
        try:
            k_term_plugin = mean_termination_rate(spec, resolved.kernel.pi, law)
        except SrrwError:
            k_term_plugin = None

    # viability reads the low regime's interval (its p_hat when measured), safety the high
    # regime's k_hat; a flat policy's one spec serves both
    if isinstance(resolved.policy, RegimePolicy):
        viable, safe = "low", "high"
        bundle = check_corridor_feasibility(
            model, resolved.traps,
            low=(resolved.policy.low.fork_cap, intervals["low"][0]),
            high=(resolved.policy.high.fork_cap, intervals["high"][0], rates["high"][1]),
        )
        feasibility = bundle.to_json_dict()
        feasibility["kind"] = "corridor"
    else:
        viable = safe = "single"
        iv = intervals["single"][0]
        rep = check_feasibility(model, resolved.policy.fork_cap, iv, resolved.traps,
                                rates["single"][1])
        feasibility = rep.to_json_dict()
        feasibility["kind"] = "single"
    feasibility["a_eff_mode"] = {k: v[1] for k, v in intervals.items()}
    feasibility["k_term_measured"] = rates[safe][1]
    feasibility["k_term_plugin"] = k_term_plugin
    feasibility["p_fork_measured"] = rates[viable][0]
    feasibility["measured_rates"] = {k: {"p_fork": p, "k_term": m} for k, (p, m) in rates.items()}
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
        corridor_payload = {
            "per_replica": [st.to_json_dict() for st in stats_list],
            "mean_inside_fraction": (float(np.mean([st.inside_fraction for st in stats_list]))
                                     if stats_list else None),
            "lyapunov_drift": [lyapunov_drift(tr, z_low, z_high, plan).to_json_dict()
                               for tr in traces],
        }
    return {
        "feasibility": feasibility,
        "corridor": corridor_payload,
        "excursion_rows": excursion_rows,
        "plan": plan,
    }


def cmd_check(resolved: ResolvedConfig, outdir: str,
              traces: list[PopulationTrace] | None = None) -> None:
    """Check the traces of an earlier run, or fresh replicas, which are written before the
    analysis so that an analysis error leaves them in the run directory."""
    fresh = [] if traces else run_replicas(resolved)
    for i, tr in enumerate(fresh):
        tr.to_csv(os.path.join(outdir, f"replica_{i:03d}.csv"), version=__version__)
    traces = traces or fresh
    meta = _meta(resolved)
    payloads = check_payloads(resolved, traces)
    _write_json(os.path.join(outdir, "feasibility.json"), {
        "meta": meta,
        "block_length": payloads["plan"].block_length,
        "feasibility": payloads["feasibility"],
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


def cmd_sweep(resolved: ResolvedConfig, outdir: str) -> None:
    axes = resolved.raw["sweep"]
    meta = _meta(resolved)
    header = ",".join(list(axes) + [
        "lambda_del", "a_eff_lo", "a_eff_hi", "viability_lhs", "safety_lhs",
        "viability", "safety", "margin_in", "margin_out",
        "k_term_measured", "p_fork_measured", "mean_drift_per_token", "c1_proxy",
    ])
    rows = []
    # no sweep axis touches the graph, the kernel or the envelope parameters,
    # so every grid point shares the base run's kernel and envelope model
    shared_model = build_envelope_model(resolved)
    for point, mod in resolved.points:
        traces = run_replicas(mod)
        payloads = check_payloads(mod, traces, model=shared_model)
        feas = payloads["feasibility"]
        rep = _drift_or_none(traces[0], payloads["plan"],
                             mod.traps.absorption_pressure(mod.kernel.pi))
        drift_mean = float("nan") if rep is None else float(np.mean(rep.drift_per_token))
        c1 = float("nan") if rep is None else rep.c1_proxy
        # a corridor's viability (and the block plan's interval) is the low
        # regime's, its safety the high regime's
        low, high = ((feas["low_regime"], feas["high_regime"]) if feas["kind"] == "corridor"
                     else (feas, feas))
        iv = low["a_eff_interval"]
        rows.append(",".join(
            [_fmt(v) for v in point.values()] + [
                _fmt(low["lambda_del"]), _fmt(iv[0]), _fmt(iv[1]),
                _fmt(low["viability_lhs"]), _fmt(high["safety_lhs"]),
                str(int(low["viability_holds"])), str(int(high["safety_holds"])),
                _fmt(low["margin_in"]), _fmt(high["margin_out"]),
                _fmt(feas["k_term_measured"]), _fmt(feas["p_fork_measured"]),
                _fmt(drift_mean), _fmt(c1),
            ]))
    _write_csv(os.path.join(outdir, "sweep.csv"), header, rows, meta)
    _write_json(os.path.join(outdir, "sweep.json"), {
        "meta": meta, "rows": len(rows), "axes": axes,
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
        overrides = {k: v for k, v in (("seed", args.seed), ("replicas", args.replicas))
                     if v is not None}
        sim = raw.get("simulation", {}) if isinstance(raw, dict) else None
        if overrides and isinstance(sim, dict):  # else resolve_config names the bad block
            raw = dict(raw, simulation=dict(sim, **overrides))
        resolved = resolve_config(raw)
        # every input is checked before the run directory exists
        _thread_cap()
        traces = _load_traces(args.traces, resolved) if getattr(args, "traces", None) else None
        if args.command == "sweep" and not resolved.points:
            raise ConfigError("sweep", "config has no sweep block")
        _check_dense_analysis(resolved, args.command)
        outdir = _run_dir(args.out, resolved)
        if args.command == "stationary":
            cmd_stationary(resolved, outdir)
        elif args.command == "envelopes":
            cmd_envelopes(resolved, outdir)
        elif args.command == "simulate":
            cmd_simulate(resolved, outdir)
        elif args.command == "check":
            cmd_check(resolved, outdir, traces)
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
