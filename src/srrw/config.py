"""Experiment configuration: JSON schema, validation, resolution, hashing.

A raw config dict is resolved into concrete objects (graph, kernel, traps,
policy) plus a fully-defaulted copy of itself. The resolved copy is what gets
hashed and embedded into every output artifact, so identical inputs always
reproduce identical outputs.
"""
from __future__ import annotations

import hashlib
import json
import reprlib
from dataclasses import dataclass

import numpy as np

from .envelopes import FIT_MIN_SAMPLES
from .errors import ConfigError, SrrwError
from .graphs import (
    GENERATORS,
    Graph,
    TransitionKernel,
    graph_from_edge_entries,
    lazy_kernel,
    parse_edge_list,
    parse_graph_json,
)
from .policy import PolicySpec, RegimePolicy
from .population import DEFAULT_POPULATION_CAP, TrapProfile

SCHEMA_VERSION = 1
SWEEP_AXES = ("q", "A_l", "zeta_scale", "kappa")

AGE_CONVENTION = "zero_start"   # clocks start at 0: a never-visited node has age t
BOUNDARY_PRIORITY = "fork"      # tie at a_short == a_long == age resolves to the fork branch


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(canonical_json(resolved).encode()).hexdigest()


def _require(cond: bool, fieldpath: str, message: str):
    if not cond:
        raise ConfigError(fieldpath, message)


def _clip(text, limit: int = 40) -> str:
    """``str(text)`` cut to ``limit`` characters, for input echoed into a field path."""
    text = str(text)
    return text if len(text) <= limit else text[:limit] + "..."


def _cannot_read(path, exc: OSError) -> str:
    """An OSError's reason with a bounded copy of the path, not the whole file name."""
    return f"cannot read {_clip(path, 200)}: {exc.strerror or type(exc).__name__}"


def _convert(kind, val, label: str):
    """``kind(val)``, or a ConfigError naming ``label`` when ``val`` is not a number."""
    _require(not isinstance(val, bool), label, f"expected a number, got {reprlib.repr(val)}")
    try:
        return kind(val)
    except (TypeError, ValueError) as exc:
        raise ConfigError(label, f"expected a number, got {reprlib.repr(val)}") from exc


def _get_number(obj, key, label=None, default=None, lo=None, hi=None, integer=False,
                lo_strict=False, hi_strict=False):
    label = label or key
    val = obj.get(key, default)
    _require(val is not None, label, "required field missing")
    _require(isinstance(val, (int, float)) and not isinstance(val, bool), label,
             f"expected a number, got {reprlib.repr(val)}")
    if integer:
        _require(float(val).is_integer(), label, f"expected an integer, got {reprlib.repr(val)}")
        val = int(val)
    if lo is not None:
        _require(val > lo if lo_strict else val >= lo, label,
                 f"must be {'>' if lo_strict else '>='} {lo}, got {reprlib.repr(val)}")
    if hi is not None:
        _require(val < hi if hi_strict else val <= hi, label,
                 f"must be {'<' if hi_strict else '<='} {hi}, got {reprlib.repr(val)}")
    return val


@dataclass
class ResolvedConfig:
    raw: dict                 # fully-defaulted config, the hashing source
    graph: Graph
    kernel: TransitionKernel
    traps: TrapProfile
    policy: PolicySpec | RegimePolicy

    @property
    def hash(self) -> str:
        return config_hash(self.raw)

    @property
    def simulation(self) -> dict:
        return self.raw["simulation"]

    @property
    def envelope(self) -> dict:
        return self.raw["envelope"]

    @property
    def block_plan(self) -> dict:
        return self.raw["block_plan"]

    @property
    def t_mix(self) -> int:
        """t_mix(eps_mix): the blocks' mixing part and the burn-in before rates are measured."""
        return self.kernel.t_mix(self.block_plan["eps_mix"])

    @property
    def corridor(self) -> dict | None:
        return self.raw.get("corridor")

    @property
    def sweep(self) -> dict | None:
        return self.raw.get("sweep")


def _resolve_graph(cfg: dict) -> Graph:
    g = cfg.get("graph")
    _require(isinstance(g, dict), "graph", "required object missing")
    sources = [k for k in ("generator", "edges", "path") if k in g]
    _require(len(sources) == 1, "graph",
             f"exactly one of generator/edges/path required, got {sources}")
    try:
        if "generator" in g:
            spec = g["generator"]
            kind = spec.get("kind")
            _require(kind in GENERATORS, "graph.generator.kind",
                     f"unknown generator {reprlib.repr(kind)}; choose from {sorted(GENERATORS)}")
            n = _get_number(spec, "n", "graph.generator.n", lo=2, integer=True)
            if kind == "erdos_renyi":
                p = _get_number(spec, "p", "graph.generator.p", lo=0.0, hi=1.0, lo_strict=True)
                seed = _get_number(spec, "seed", "graph.generator.seed", integer=True)
                return GENERATORS[kind](n, p, seed)
            return GENERATORS[kind](n)
        if "edges" in g:
            return graph_from_edge_entries(g["edges"], g.get("nodes") or None)
        path = g["path"]
        _require(isinstance(path, str), "graph.path",
                 f"expected a file name, got {reprlib.repr(path)}")
        fmt = g.get("format", "json" if path.endswith(".json") else "edgelist")
        with open(path) as fh:
            text = fh.read()
        return parse_graph_json(text) if fmt == "json" else parse_edge_list(text)
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError("graph", _cannot_read(g["path"], exc)) from exc
    except (SrrwError, ValueError) as exc:
        raise ConfigError("graph", str(exc)) from exc


def _resolve_traps(cfg: dict, n: int) -> tuple[TrapProfile, dict]:
    t = cfg.get("traps")
    if t is None:
        return TrapProfile.none(n), {"nodes": [], "zeta": 0.0}
    _require(isinstance(t, dict), "traps", "expected an object")
    zeta = t.get("zeta")
    _require(zeta is not None, "traps.zeta", "required field missing")
    if isinstance(zeta, dict):
        for u, v in zeta.items():
            label = f"traps.zeta.{_clip(u)}"
            _require(0 <= _convert(int, u, label) < n, label, f"node out of range for n={n}")
            _require(0.0 <= _convert(float, v, label) <= 1.0, label, "must lie in [0, 1]")
        profile = TrapProfile.from_map(n, zeta)
        resolved = {"nodes": sorted(int(u) for u in zeta), "zeta": {str(u): float(v) for u, v in zeta.items()}}
        return profile, resolved
    value = _get_number(t, "zeta", "traps.zeta", lo=0.0, hi=1.0)
    nodes = t.get("nodes", "all")
    if nodes == "all":
        return TrapProfile.uniform(n, value), {"nodes": "all", "zeta": value}
    _require(isinstance(nodes, list), "traps.nodes", 'expected "all" or a list of node ids')
    for u in nodes:
        _require(0 <= _convert(int, u, "traps.nodes") < n, "traps.nodes",
                 f"node {u} out of range for n={n}")
    profile = TrapProfile.from_map(n, {int(u): value for u in nodes})
    return profile, {"nodes": sorted(int(u) for u in nodes), "zeta": value}


def _spec_from_block(block: dict, n: int, fieldpath: str) -> tuple[PolicySpec, dict]:
    _require(isinstance(block, dict), fieldpath, "expected an object")
    out = {}

    def field(name, default, lo, hi):
        val = block.get(name, default)
        _require(val is not None, f"{fieldpath}.{name}", "required field missing")
        if isinstance(val, list):
            _require(len(val) == n, f"{fieldpath}.{name}", f"per-node array must have length {n}")
            vals = [_convert(float, x, f"{fieldpath}.{name}") for x in val]
        else:
            _require(isinstance(val, (int, float)) and not isinstance(val, bool),
                     f"{fieldpath}.{name}", f"expected number or array, got {reprlib.repr(val)}")
            vals = float(val)
        arr = np.asarray(vals if isinstance(vals, list) else [vals])
        _require(bool(np.all(arr >= lo)) and bool(np.all(arr <= hi)),
                 f"{fieldpath}.{name}", f"values must lie in [{lo}, {hi}]")
        out[name] = vals
        return vals

    a_l = field("A_l", None, 0.0, float("inf"))
    a_s = field("A_s", 0.0, 0.0, float("inf"))
    q_fork = field("q_fork", None, 0.0, 1.0)
    q_term = field("q_term", 0.0, 0.0, 1.0)
    try:
        spec = PolicySpec(n, a_l, a_s, q_fork, q_term)
    except SrrwError as exc:
        raise ConfigError(fieldpath, str(exc)) from exc
    return spec, out


def _resolve_policy(cfg: dict, n: int):
    p = cfg.get("policy")
    _require(isinstance(p, dict), "policy", "required object missing")
    if "regime" in p:
        r = p["regime"]
        _require(isinstance(r, dict), "policy.regime", "expected an object")
        z_low = _get_number(r, "Z_low", "policy.regime.Z_low", lo=1, integer=True)
        z_high = _get_number(r, "Z_high", "policy.regime.Z_high", lo=1, integer=True)
        _require(z_low < z_high, "policy.regime", f"need Z_low < Z_high, got {z_low} >= {z_high}")
        low, low_raw = _spec_from_block(r.get("low"), n, "policy.regime.low")
        high, high_raw = _spec_from_block(r.get("high"), n, "policy.regime.high")
        policy = RegimePolicy(low, high, z_low, z_high)
        return policy, {"regime": {"Z_low": z_low, "Z_high": z_high, "low": low_raw, "high": high_raw}}
    spec, raw = _spec_from_block(p, n, "policy")
    return spec, raw


def resolve_config(cfg: dict) -> ResolvedConfig:
    """Validate a raw config dict and build the concrete experiment objects."""
    _require(isinstance(cfg, dict), "config", "top-level JSON must be an object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "schema_version",
             f"unsupported version {reprlib.repr(version)}, expected {SCHEMA_VERSION}")

    graph = _resolve_graph(cfg)
    laziness = _get_number(cfg, "laziness", default=0.5, lo=0.0, hi=1.0,
                           lo_strict=True, hi_strict=True)
    return resolve_on_kernel(cfg, lazy_kernel(graph, laziness))


def resolve_on_kernel(cfg: dict, kernel: TransitionKernel) -> ResolvedConfig:
    """Resolve ``cfg`` on an already built kernel; its graph and laziness must be the kernel's.

    A sweep resolves its grid points on the base run's kernel this way.
    """
    graph = kernel.graph
    n = graph.node_count
    traps, traps_raw = _resolve_traps(cfg, n)
    policy, policy_raw = _resolve_policy(cfg, n)

    sim = cfg.get("simulation", {})
    _require(isinstance(sim, dict), "simulation", "expected an object")
    sim_raw = {
        "Z_0": _get_number(sim, "Z_0", "simulation.Z_0", default=10, lo=1, integer=True),
        "horizon": _get_number(sim, "horizon", "simulation.horizon", default=1000, lo=1, integer=True),
        "replicas": _get_number(sim, "replicas", "simulation.replicas", default=1, lo=1, integer=True),
        "seed": _get_number(sim, "seed", "simulation.seed", default=0, lo=0, integer=True),
        "Z_cap": _get_number(sim, "Z_cap", "simulation.Z_cap", default=DEFAULT_POPULATION_CAP, lo=1, integer=True),
        "placement": sim.get("placement", "pi"),
        "order": sim.get("order", "trap_first"),
        "collect_age_law": sim.get("collect_age_law", False),
        "age_convention": sim.get("age_convention", AGE_CONVENTION),
        "boundary_priority": sim.get("boundary_priority", BOUNDARY_PRIORITY),
    }
    _require(sim_raw["order"] in ("trap_first", "policy_first"), "simulation.order",
             'expected "trap_first" or "policy_first"')
    placement = sim_raw["placement"]
    _require(placement in ("pi", "uniform") or (type(placement) is int and 0 <= placement < n),
             "simulation.placement", f'expected "pi", "uniform", or a node id in 0..{n - 1}, '
             f"got {reprlib.repr(placement)}")
    _require(isinstance(sim_raw["collect_age_law"], bool), "simulation.collect_age_law",
             f"expected true or false, got {reprlib.repr(sim_raw['collect_age_law'])}")
    _require(sim_raw["age_convention"] == AGE_CONVENTION, "simulation.age_convention",
             f"only {AGE_CONVENTION!r} is supported")
    _require(sim_raw["boundary_priority"] == BOUNDARY_PRIORITY, "simulation.boundary_priority",
             f"only {BOUNDARY_PRIORITY!r} is supported")

    env = cfg.get("envelope", {})
    _require(isinstance(env, dict), "envelope", "expected an object")
    env_raw = {
        "mode": env.get("mode", "fit"),
        "n_samples": _get_number(env, "n_samples", "envelope.n_samples", default=20000, lo=FIT_MIN_SAMPLES, integer=True),
        "delta_fit": _get_number(env, "delta_fit", "envelope.delta_fit", default=0.1, lo=0.0, hi=1.0),
        "seed": _get_number(env, "seed", "envelope.seed", default=int(sim_raw["seed"]) + 1_000_003, lo=0, integer=True),
    }
    _require(env_raw["mode"] in ("doeblin", "fit"), "envelope.mode",
             'expected "doeblin" or "fit"')

    plan = cfg.get("block_plan", {})
    _require(isinstance(plan, dict), "block_plan", "expected an object")
    plan_raw = {
        "kappa": _get_number(plan, "kappa", "block_plan.kappa", default=4.0, lo=4.0),
        "eps_mix": _get_number(plan, "eps_mix", "block_plan.eps_mix", default=0.125, lo=0.0, hi=0.125, lo_strict=True),
    }

    corridor = cfg.get("corridor")
    corridor_raw = None
    if corridor is not None:
        _require(isinstance(corridor, dict), "corridor", "expected an object")
        z_low = _get_number(corridor, "Z_low", "corridor.Z_low", lo=1, integer=True)
        z_high = _get_number(corridor, "Z_high", "corridor.Z_high", lo=1, integer=True)
        _require(z_low < z_high, "corridor", f"need Z_low < Z_high, got {z_low} >= {z_high}")
        corridor_raw = {"Z_low": z_low, "Z_high": z_high}

    sweep = cfg.get("sweep")
    sweep_raw = None
    if sweep is not None:
        _require(isinstance(sweep, dict), "sweep", "expected an object")
        sweep_raw = {}
        for key in SWEEP_AXES:
            if key in sweep:
                vals = sweep[key]
                _require(isinstance(vals, list) and vals, f"sweep.{key}", "expected a non-empty list")
                sweep_raw[key] = [_convert(float, v, f"sweep.{key}") for v in vals]
        _require(bool(sweep_raw), "sweep", f"no recognized sweep axes ({', '.join(SWEEP_AXES)})")

    graph_raw = cfg["graph"]
    if "edges" in graph_raw:
        edges = graph.edges.tolist()
        if graph.weights is not None:
            edges = [[u, v, w] for (u, v), w in zip(edges, graph.weights.tolist())]
        graph_raw = {"nodes": graph.node_count, "edges": edges}
    raw = {
        "schema_version": SCHEMA_VERSION,
        "graph": graph_raw,
        "laziness": kernel.laziness,
        "traps": traps_raw,
        "policy": policy_raw,
        "simulation": sim_raw,
        "envelope": env_raw,
        "block_plan": plan_raw,
    }
    if corridor_raw is not None:
        raw["corridor"] = corridor_raw
    if sweep_raw is not None:
        raw["sweep"] = sweep_raw
    return ResolvedConfig(raw=raw, graph=graph, kernel=kernel, traps=traps, policy=policy)


def load_config(path) -> dict:
    """The JSON value in ``path``; any failure to read or parse it is a ConfigError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("config", _cannot_read(path, exc)) from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bad UTF-8, an integer literal over Python's digit limit, deep nesting
        raise ConfigError("config", f"invalid JSON in {_clip(path, 200)}: {exc}") from exc


def replica_seeds(seed: int, replicas: int) -> list[int]:
    """Deterministic per-replica seeds derived from the run seed."""
    state = np.random.SeedSequence(seed).generate_state(replicas, dtype=np.uint64)
    return [int(s) for s in state]
