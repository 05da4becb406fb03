"""Experiment configuration: JSON schema, validation, resolution, hashing.

A raw config dict is resolved into concrete objects (graph, kernel, traps,
policy) plus a fully-defaulted copy of itself. The resolved copy is what gets
hashed and embedded into every output artifact, so identical inputs always
reproduce identical outputs.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
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
from .population import DEFAULT_POPULATION_CAP, KAPPA_MAX, TrapProfile

SCHEMA_VERSION = 1
SWEEP_AXES = ("q", "A_l", "zeta_scale", "kappa")

AGE_CONVENTION = "zero_start"   # clocks start at 0: a never-visited node has age t
BOUNDARY_PRIORITY = "fork"      # tie at a_short == a_long == age resolves to the fork branch


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(resolved: dict) -> str:
    """sha256 of ``canonical_json(resolved)``."""
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


def _number(val, label: str, lo=None, hi=None, integer=False, lo_strict=False, hi_strict=False):
    """``val`` if it is a finite float or an int within int64 in bounds, else a ConfigError naming
    ``label``; never a string or a bool. Under ``integer`` an integral float is read as an int."""
    _require(val is not None, label, "required field missing")
    _require(isinstance(val, int) and not isinstance(val, bool)
             or isinstance(val, float) and math.isfinite(val), label,
             f"expected a number, got {reprlib.repr(val)}")
    if integer:
        _require(isinstance(val, int) or val.is_integer(), label,
                 f"expected an integer, got {reprlib.repr(val)}")
        val = int(val)
    _require(not isinstance(val, int) or -2**63 <= val < 2**63, label,
             f"must lie within int64, got {reprlib.repr(val)}")
    if lo is not None:
        _require(val > lo if lo_strict else val >= lo, label,
                 f"must be {'>' if lo_strict else '>='} {lo}, got {reprlib.repr(val)}")
    if hi is not None:
        _require(val < hi if hi_strict else val <= hi, label,
                 f"must be {'<' if hi_strict else '<='} {hi}, got {reprlib.repr(val)}")
    return val


def _choice(val, choices, label: str):
    """``val`` if it is one of the strings ``choices`` (by equality, so any JSON value is safe)."""
    _require(isinstance(val, str) and val in choices, label,
             f"expected {' or '.join(map(json.dumps, choices))}, got {reprlib.repr(val)}")
    return val


def _node_key(key, n: int, label: str) -> int:
    """The node id a ``traps.zeta`` key spells in plain ASCII decimal, so "0" and "00" never alias."""
    _require(isinstance(key, str) and key.isascii() and key.isdigit() and len(key) < 20
             and key == str(int(key)), label,
             f"expected a node id in decimal digits, got {reprlib.repr(key)}")
    return _number(int(key), label, lo=0, hi=n - 1)


@dataclass
class ResolvedConfig:
    raw: dict                 # fully-defaulted config, the hashing source
    graph: Graph
    kernel: TransitionKernel
    traps: TrapProfile
    policy: PolicySpec | RegimePolicy
    points: tuple = ()  # (point, config) per sweep grid point, in row order

    def __getstate__(self):
        # a replica pool gets this config alone, never the sweep grid it heads
        return dict(self.__dict__, points=())

    @functools.cached_property
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


def _resolve_graph(cfg: dict) -> Graph:
    g = cfg.get("graph")
    _require(isinstance(g, dict), "graph", "required object missing")
    sources = [k for k in ("generator", "edges", "path") if k in g]
    _require(len(sources) == 1, "graph",
             f"exactly one of generator/edges/path required, got {sources}")
    try:
        if "generator" in g:
            spec = g["generator"]
            _require(isinstance(spec, dict), "graph.generator", "expected an object")
            kind = _choice(spec.get("kind"), sorted(GENERATORS), "graph.generator.kind")
            n = _number(spec.get("n"), "graph.generator.n", lo=2, integer=True)
            if kind == "erdos_renyi":
                p = _number(spec.get("p"), "graph.generator.p", lo=0.0, hi=1.0, lo_strict=True)
                seed = _number(spec.get("seed"), "graph.generator.seed", lo=0, integer=True)
                return GENERATORS[kind](n, p, seed)
            return GENERATORS[kind](n)
        if "edges" in g:
            nodes = g.get("nodes")
            if nodes is not None:
                nodes = _number(nodes, "graph.nodes", integer=True)
            return graph_from_edge_entries(g["edges"], nodes)
        path = g["path"]
        _require(isinstance(path, str), "graph.path",
                 f"expected a file name, got {reprlib.repr(path)}")
        fmt = _choice(g.get("format", "json" if path.endswith(".json") else "edgelist"),
                      ("json", "edgelist"), "graph.format")
        with open(path) as fh:
            text = fh.read()
        return parse_graph_json(text) if fmt == "json" else parse_edge_list(text)
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError("graph", _cannot_read(g["path"], exc)) from exc
    except (SrrwError, ValueError) as exc:
        raise ConfigError("graph", str(exc)) from exc


def _resolve_traps(t, n: int) -> tuple[TrapProfile, dict]:
    if t is None:
        return TrapProfile.none(n), {"nodes": [], "zeta": 0.0}
    _require(isinstance(t, dict), "traps", "expected an object")
    zeta = t.get("zeta")
    if isinstance(zeta, dict):
        by_node = {}
        for key, v in zeta.items():
            label = f"traps.zeta.{_clip(key)}"
            by_node[_node_key(key, n, label)] = float(_number(v, label, lo=0.0, hi=1.0))
        resolved = {"nodes": sorted(by_node), "zeta": {str(u): v for u, v in by_node.items()}}
        return TrapProfile.from_map(n, by_node), resolved
    value = _number(zeta, "traps.zeta", lo=0.0, hi=1.0)
    nodes = t.get("nodes", "all")
    if nodes == "all":
        return TrapProfile.uniform(n, value), {"nodes": "all", "zeta": value}
    _require(isinstance(nodes, list), "traps.nodes", 'expected "all" or a list of node ids')
    ids = [_number(u, "traps.nodes", lo=0, hi=n - 1, integer=True) for u in nodes]
    return TrapProfile.from_map(n, dict.fromkeys(ids, value)), {"nodes": sorted(ids), "zeta": value}


def _spec_from_block(block: dict, n: int, fieldpath: str) -> tuple[PolicySpec, dict]:
    _require(isinstance(block, dict), fieldpath, "expected an object")
    out = {}

    def field(name, default, lo, hi):
        label = f"{fieldpath}.{name}"
        val = block.get(name, default)
        if isinstance(val, list):
            _require(len(val) == n, label, f"per-node array must have length {n}")
            vals = [float(_number(x, label, lo, hi)) for x in val]
        else:
            vals = float(_number(val, label, lo, hi))
        out[name] = vals
        return vals

    a_l = field("A_l", None, 0.0, None)
    a_s = field("A_s", 0.0, 0.0, None)
    q_fork = field("q_fork", None, 0.0, 1.0)
    q_term = field("q_term", 0.0, 0.0, 1.0)
    try:
        spec = PolicySpec(n, a_l, a_s, q_fork, q_term)
    except SrrwError as exc:
        raise ConfigError(fieldpath, str(exc)) from exc
    return spec, out


def _resolve_policy(p, n: int):
    _require(isinstance(p, dict), "policy", "required object missing")
    if "regime" in p:
        r = p["regime"]
        _require(isinstance(r, dict), "policy.regime", "expected an object")
        z_low = _number(r.get("Z_low"), "policy.regime.Z_low", lo=1, integer=True)
        z_high = _number(r.get("Z_high"), "policy.regime.Z_high", lo=1, integer=True)
        _require(z_low < z_high, "policy.regime", f"need Z_low < Z_high, got {z_low} >= {z_high}")
        low, low_raw = _spec_from_block(r.get("low"), n, "policy.regime.low")
        high, high_raw = _spec_from_block(r.get("high"), n, "policy.regime.high")
        policy = RegimePolicy(low, high, z_low, z_high)
        return policy, {"regime": {"Z_low": z_low, "Z_high": z_high, "low": low_raw, "high": high_raw}}
    spec, raw = _spec_from_block(p, n, "policy")
    return spec, raw


def _resolve_block_plan(plan) -> dict:
    _require(isinstance(plan, dict), "block_plan", "expected an object")
    return {
        "kappa": _number(plan.get("kappa", 4.0), "block_plan.kappa", lo=4.0, hi=KAPPA_MAX),
        "eps_mix": _number(plan.get("eps_mix", 0.125), "block_plan.eps_mix", lo=0.0, hi=0.125, lo_strict=True),
    }


def _sweep_points(base: ResolvedConfig, sweep) -> tuple:
    """Read the ``sweep`` block into ``base.raw`` and resolve its grid: (point, config) per grid
    point, in row order. A point's config is the base's resolved sections with the swept fields
    replaced and read by their own readers; it shares the base's graph entry and kernel, and
    points with the same swept values share one policy or trap profile."""
    _require(isinstance(sweep, dict), "sweep", "expected an object")
    axes = {}
    for key in SWEEP_AXES:
        if key in sweep:
            _require(isinstance(sweep[key], list) and sweep[key], f"sweep.{key}", "expected a non-empty list")
            axes[key] = [float(_number(v, f"sweep.{key}")) for v in sweep[key]]
    _require(bool(axes), "sweep", f"no recognized sweep axes ({', '.join(SWEEP_AXES)})")
    raw, n = base.raw, base.graph.node_count
    _require("regime" not in raw["policy"] or not {"q", "A_l"} & axes.keys(), "sweep",
             "q/A_l sweeps need a flat (non-regime) policy block")
    head, raw["sweep"] = dict(raw), axes
    policies, profiles = {(): (base.policy, raw["policy"])}, {None: (base.traps, raw["traps"])}
    points = []
    for combo in itertools.product(*axes.values()):
        point = dict(zip(axes, combo))
        fields = {f: point[a] for a, f in (("q", "q_fork"), ("A_l", "A_l")) if a in point}
        key, scale, zeta = tuple(fields.values()), point.get("zeta_scale"), raw["traps"]["zeta"]
        try:
            if key not in policies:
                policies[key] = _resolve_policy(dict(raw["policy"], **fields), n)
            if scale not in profiles:
                zeta = ({u: min(1.0, v * scale) for u, v in zeta.items()} if isinstance(zeta, dict)
                        else min(1.0, zeta * scale))
                profiles[scale] = _resolve_traps(dict(raw["traps"], zeta=zeta), n)
            plan = (_resolve_block_plan(dict(raw["block_plan"], kappa=point["kappa"]))
                    if "kappa" in point else raw["block_plan"])
        except ConfigError as exc:
            raise ConfigError("sweep", ", ".join(f"{k}={v!r}" for k, v in point.items())
                              + f": {exc}") from None
        (policy, policy_raw), (traps, traps_raw) = policies[key], profiles[scale]
        point_raw = dict(head, policy=policy_raw, traps=traps_raw, block_plan=plan)
        points.append((point, ResolvedConfig(point_raw, base.graph, base.kernel, traps, policy)))
    return tuple(points)


def resolve_config(cfg: dict) -> ResolvedConfig:
    """Validate a raw config dict and build the concrete experiment objects."""
    _require(isinstance(cfg, dict), "config", "top-level JSON must be an object")
    version = cfg.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION, "schema_version",
             f"unsupported version {reprlib.repr(version)}, expected {SCHEMA_VERSION}")

    graph = _resolve_graph(cfg)
    laziness = _number(cfg.get("laziness", 0.5), "laziness", lo=0.0, hi=1.0, lo_strict=True, hi_strict=True)
    kernel = lazy_kernel(graph, laziness)
    n = graph.node_count
    traps, traps_raw = _resolve_traps(cfg.get("traps"), n)
    policy, policy_raw = _resolve_policy(cfg.get("policy"), n)

    sim = cfg.get("simulation", {})
    _require(isinstance(sim, dict), "simulation", "expected an object")
    placement = sim.get("placement", "pi")
    sim_raw = {
        "Z_0": _number(sim.get("Z_0", 10), "simulation.Z_0", lo=1, integer=True),
        "horizon": _number(sim.get("horizon", 1000), "simulation.horizon", lo=1, integer=True),
        "replicas": _number(sim.get("replicas", 1), "simulation.replicas", lo=1, integer=True),
        "seed": _number(sim.get("seed", 0), "simulation.seed", lo=0, integer=True),
        "Z_cap": _number(sim.get("Z_cap", DEFAULT_POPULATION_CAP), "simulation.Z_cap", lo=1, integer=True),
        "placement": (_choice(placement, ("pi", "uniform"), "simulation.placement")
                      if isinstance(placement, str) else  # a node id
                      _number(placement, "simulation.placement", lo=0, hi=n - 1, integer=True)),
        "order": _choice(sim.get("order", "trap_first"), ("trap_first", "policy_first"),
                         "simulation.order"),
        "collect_age_law": sim.get("collect_age_law", False),
        "age_convention": _choice(sim.get("age_convention", AGE_CONVENTION), (AGE_CONVENTION,),
                                  "simulation.age_convention"),
        "boundary_priority": _choice(sim.get("boundary_priority", BOUNDARY_PRIORITY),
                                     (BOUNDARY_PRIORITY,), "simulation.boundary_priority"),
    }
    _require(isinstance(sim_raw["collect_age_law"], bool), "simulation.collect_age_law",
             f"expected true or false, got {reprlib.repr(sim_raw['collect_age_law'])}")

    env = cfg.get("envelope", {})
    _require(isinstance(env, dict), "envelope", "expected an object")
    env_raw = {
        "mode": _choice(env.get("mode", "fit"), ("doeblin", "fit"), "envelope.mode"),
        "n_samples": _number(env.get("n_samples", 20000), "envelope.n_samples", lo=FIT_MIN_SAMPLES, integer=True),
        "delta_fit": _number(env.get("delta_fit", 0.1), "envelope.delta_fit", lo=0.0, hi=1.0),
        "seed": _number(env.get("seed", sim_raw["seed"] + 1_000_003), "envelope.seed", lo=0, integer=True),
    }

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
        "block_plan": _resolve_block_plan(cfg.get("block_plan", {})),
    }

    corridor = cfg.get("corridor")
    if corridor is not None:
        _require(isinstance(corridor, dict), "corridor", "expected an object")
        z_low = _number(corridor.get("Z_low"), "corridor.Z_low", lo=1, integer=True)
        z_high = _number(corridor.get("Z_high"), "corridor.Z_high", lo=1, integer=True)
        _require(z_low < z_high, "corridor", f"need Z_low < Z_high, got {z_low} >= {z_high}")
        raw["corridor"] = {"Z_low": z_low, "Z_high": z_high}
    resolved = ResolvedConfig(raw=raw, graph=graph, kernel=kernel, traps=traps, policy=policy)
    if cfg.get("sweep") is not None:
        resolved.points = _sweep_points(resolved, cfg["sweep"])
    return resolved


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
