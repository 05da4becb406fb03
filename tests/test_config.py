import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import srrw.config
from srrw.config import (
    config_hash,
    load_config,
    replica_seeds,
    resolve_config,
)
from srrw.errors import ConfigError
from srrw.policy import PolicySpec, RegimePolicy


def base_config(**overrides):
    cfg = {
        "graph": {"generator": {"kind": "complete", "n": 4}},
        "laziness": 0.5,
        "traps": {"nodes": "all", "zeta": 0.1},
        "policy": {"A_l": 5, "q_fork": 0.3},
        "simulation": {"Z_0": 10, "horizon": 100, "replicas": 2, "seed": 7},
        "envelope": {"mode": "fit", "n_samples": 2000},
    }
    cfg.update(overrides)
    return cfg


class TestResolution:
    def test_basic_resolution(self):
        r = resolve_config(base_config())
        assert r.graph.node_count == 4
        assert r.kernel.laziness == 0.5
        assert r.traps.absorption_pressure(r.kernel.pi) == pytest.approx(0.1)
        assert isinstance(r.policy, PolicySpec)
        assert r.policy.fork_cap == 0.3
        assert r.simulation["Z_cap"] == 10**6

    def test_defaults_are_recorded(self):
        r = resolve_config({"graph": {"generator": {"kind": "path", "n": 3}},
                            "policy": {"A_l": 1, "q_fork": 0.1}})
        assert r.raw["laziness"] == 0.5
        assert r.raw["block_plan"] == {"kappa": 4.0, "eps_mix": 0.125}
        assert r.raw["simulation"]["age_convention"] == "zero_start"
        assert r.raw["simulation"]["boundary_priority"] == "fork"

    def test_regime_policy(self):
        cfg = base_config(policy={"regime": {
            "Z_low": 20, "Z_high": 200,
            "low": {"A_l": 1, "q_fork": 0.2},
            "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.1},
        }})
        r = resolve_config(cfg)
        assert isinstance(r.policy, RegimePolicy)
        assert r.policy.z_low == 20

    def test_per_node_arrays(self):
        cfg = base_config(policy={"A_l": [1, 2, 3, 4], "q_fork": [0.1, 0.2, 0.3, 0.4]})
        r = resolve_config(cfg)
        assert r.policy.fork_cap == 0.4
        assert not r.policy.is_uniform

    def test_inline_edges(self):
        cfg = base_config(graph={"edges": [[0, 1], [1, 2, 2.5]], "nodes": 3},
                          traps=None, policy={"A_l": 1, "q_fork": 0.1})
        cfg.pop("traps")
        r = resolve_config(cfg)
        assert r.graph.weights is not None
        assert r.graph.node_count == 3

    def test_graph_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        cfg = base_config(graph={"path": str(path)})
        r = resolve_config(cfg)
        assert r.graph.node_count == 3

    def test_trap_node_list(self):
        r = resolve_config(base_config(traps={"zeta": 0.1, "nodes": [2, 0]}))
        assert r.traps.zeta.tolist() == [0.1, 0.0, 0.1, 0.0]
        assert r.raw["traps"] == {"nodes": [0, 2], "zeta": 0.1}

    def test_trap_map(self):
        cfg = base_config(traps={"zeta": {"2": 1.0}})
        r = resolve_config(cfg)
        assert r.traps.zeta[2] == 1.0
        assert r.traps.zeta[0] == 0.0


class TestValidationErrors:
    @pytest.mark.parametrize("mutate,field", [
        (lambda c: c.update(laziness=0.0), "laziness"),
        (lambda c: c.update(laziness=1.5), "laziness"),
        (lambda c: c.update(schema_version=99), "schema_version"),
        (lambda c: c.update(graph={}), "graph"),
        (lambda c: c["policy"].update(q_fork=1.5), "policy.q_fork"),
        (lambda c: c["policy"].update(A_s=9, A_l=3), "policy"),
        (lambda c: c["traps"].update(zeta=-0.1), "traps.zeta"),
        (lambda c: c["simulation"].update(Z_0=0), "simulation.Z_0"),
        (lambda c: c["simulation"].update(order="weird"), "simulation.order"),
        (lambda c: c["envelope"].update(mode="magic"), "envelope.mode"),
        (lambda c: c["envelope"].update(n_samples=10), "envelope.n_samples"),
    ])
    def test_field_level_messages(self, mutate, field):
        cfg = base_config()
        mutate(cfg)
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field.startswith(field)

    @pytest.mark.parametrize("mutate,field", [
        (lambda c: c.update(traps={"zeta": {"a": 0.1}}), "traps.zeta.a"),
        (lambda c: c.update(traps={"zeta": {"0": "x"}}), "traps.zeta.0"),
        (lambda c: c.update(traps={"zeta": 0.1, "nodes": [0, "b"]}), "traps.nodes"),
        (lambda c: c["policy"].update(A_l=[1, 2, "x", 4]), "policy.A_l"),
        (lambda c: c.update(sweep={"q": ["x"]}), "sweep.q"),
        # booleans are not numbers or node ids, a string is not a flag, and K4 has no node 4
        pytest.param(lambda c: c.update(traps={"zeta": 0.1, "nodes": [True]}), "traps.nodes",
                     id="bool-node"),
        pytest.param(lambda c: c.update(traps={"zeta": {"0": True}}), "traps.zeta.0",
                     id="bool-zeta"),
        pytest.param(lambda c: c["policy"].update(A_l=[True, 1, 1, 1]), "policy.A_l",
                     id="bool-per-node-A_l"),
        pytest.param(lambda c: c.update(sweep={"q": [True]}), "sweep.q", id="bool-sweep-q"),
        pytest.param(lambda c: c["simulation"].update(placement=True), "simulation.placement",
                     id="bool-placement"),
        pytest.param(lambda c: c["simulation"].update(placement=4), "simulation.placement",
                     id="placement-outside-graph"),
        pytest.param(lambda c: c["simulation"].update(collect_age_law="no"),
                     "simulation.collect_age_law", id="string-collect_age_law"),
    ])
    def test_malformed_values_name_their_field(self, mutate, field):
        cfg = base_config()
        mutate(cfg)
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == field

    def test_disconnected_generator_names_components(self):
        cfg = base_config(graph={"generator": {"kind": "erdos_renyi", "n": 20,
                                               "p": 0.02, "seed": 1}})
        with pytest.raises(ConfigError, match="components"):
            resolve_config(cfg)

    def test_bad_corridor(self):
        cfg = base_config(corridor={"Z_low": 100, "Z_high": 20})
        with pytest.raises(ConfigError) as err:
            resolve_config(cfg)
        assert err.value.field == "corridor"

    def test_empty_sweep(self):
        cfg = base_config(sweep={"nonsense": [1]})
        with pytest.raises(ConfigError):
            resolve_config(cfg)


class TestHashing:
    def test_hash_deterministic(self):
        a = resolve_config(base_config())
        b = resolve_config(base_config())
        assert a.hash == b.hash

    def test_hash_sensitive_to_values(self):
        a = resolve_config(base_config())
        b = resolve_config(base_config(laziness=0.25))
        assert a.hash != b.hash

    def test_defaults_fill_before_hash(self):
        explicit = base_config()
        explicit["block_plan"] = {"kappa": 4.0, "eps_mix": 0.125}
        assert resolve_config(base_config()).hash == resolve_config(explicit).hash

    def test_generator_reproducible(self):
        cfg = base_config(graph={"generator": {"kind": "erdos_renyi", "n": 20,
                                               "p": 0.3, "seed": 0}})
        a = resolve_config(cfg)
        b = resolve_config(cfg)
        assert np.array_equal(a.graph.edges, b.graph.edges)

    def test_canonical_hash_ignores_key_order(self):
        r = resolve_config(base_config())
        shuffled = json.loads(json.dumps(r.raw))
        assert config_hash(shuffled) == r.hash

    def test_hash_is_computed_once(self, monkeypatch):
        r = resolve_config(base_config())
        calls = []
        monkeypatch.setattr(srrw.config, "config_hash",
                            lambda raw: calls.append(raw) or config_hash(raw))
        assert r.hash == r.hash == config_hash(r.raw)
        assert len(calls) == 1


# any JSON value: ints up to 400 digits, floats with the non-finite ones, short strings,
# small lists and objects
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**400, 10**400), st.floats(),
    st.text(max_size=4), st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)
# a size is small or refused without allocating: never an integer in 51 .. int64
SIZES = JSON_VALUES.filter(lambda v: not ((type(v) is int or type(v) is float and v.is_integer())
                                          and 50 < v < 2**63))
K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def _put(path, value):
    """A setter placing ``value`` at the dotted ``path`` of a config."""
    *blocks, key = path.split(".")

    def put(cfg):
        for block in blocks:
            cfg = cfg.setdefault(block, {})
        cfg[key] = value
    return put


SCALAR_FIELDS = [
    "schema_version", "laziness", "traps.zeta", "policy.A_l", "policy.A_s", "policy.q_fork",
    "policy.q_term", "simulation.Z_0", "simulation.horizon", "simulation.replicas",
    "simulation.seed", "simulation.Z_cap", "simulation.placement", "simulation.collect_age_law",
    "envelope.n_samples", "envelope.delta_fit", "envelope.seed", "block_plan.kappa",
    "block_plan.eps_mix", "corridor.Z_low", "corridor.Z_high", "graph.generator.kind",
    "simulation.order", "envelope.mode", "simulation.age_convention",
    "simulation.boundary_priority", "graph.generator",
]


def placements(v, graph_file):
    """Every config place a value ``v`` can take, as (name, setter) pairs."""
    out = [(f, _put(f, v)) for f in SCALAR_FIELDS]
    out += [
        ("A_l item", _put("policy.A_l", [5, v, 5, 5])),
        ("q_fork item", _put("policy.q_fork", [0.1, 0.2, v, 0.3])),
        ("trap id", _put("traps.nodes", [0, v])),
        ("trap value", _put("traps.zeta", {"1": v})),
        ("trap key", _put("traps.zeta", {str(v): 0.1})),
        ("sweep value", _put("sweep", {"q": [0.1, v]})),
        ("A_l sweep value", _put("sweep", {"A_l": [v]})),
        ("graph.format", _put("graph", {"path": graph_file, "format": v})),
    ]
    return out


def size_placements(v):
    return [
        ("generator n", _put("graph.generator", {"kind": "path", "n": v})),
        ("graph.nodes", _put("graph", {"edges": K4_EDGES, "nodes": v})),
        ("edge endpoint", _put("graph", {"edges": K4_EDGES + [[3, v]]})),
    ]


class TestAnyValue:
    """Whatever JSON value a field holds, resolution returns or raises a short ConfigError."""

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("graph") / "k4.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in K4_EDGES))
        return str(path)

    def resolves_or_refuses(self, place, setter):
        cfg = base_config()
        setter(cfg)
        try:
            r = resolve_config(cfg)
        except ConfigError as exc:
            assert len(f"config error: {exc}".encode()) < 300, (place, str(exc)[:400])
        else:
            assert len(r.hash) == 64, place  # the resolved config is canonical JSON

    @given(value=JSON_VALUES, key=st.text(max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_any_value_in_any_field(self, graph_file, value, key):
        for place, setter in placements(value, graph_file):
            self.resolves_or_refuses(place, setter)
        self.resolves_or_refuses("any trap key", _put("traps.zeta", {key: 0.5}))

    @given(value=SIZES)
    @settings(max_examples=150, deadline=None)
    def test_any_size(self, value):
        for place, setter in size_placements(value):
            self.resolves_or_refuses(place, setter)


class TestReplicaSeeds:
    def test_deterministic_and_distinct(self):
        a = replica_seeds(7, 8)
        b = replica_seeds(7, 8)
        assert a == b
        assert len(set(a)) == 8
        assert replica_seeds(8, 8) != a


class TestLoad:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)
