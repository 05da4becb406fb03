import collections
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import srrw
import srrw.cli
import srrw.config
import srrw.graphs
from srrw.cli import (_thread_cap, build_envelope_model, check_payloads, main, measured_rates,
                      run_replicas)
from srrw.config import config_hash, load_config, resolve_config
from srrw.errors import ConfigError, InsufficientDataError
from srrw.population import PopulationTrace

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "graph": {"generator": {"kind": "complete", "n": 4}},
        "laziness": 0.5,
        "traps": {"nodes": "all", "zeta": 0.1},
        "policy": {"A_l": 5, "q_fork": 0.3},
        "simulation": {"Z_0": 20, "horizon": 120, "replicas": 2, "seed": 7},
        "envelope": {"mode": "fit", "n_samples": 2000},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_dirs(out):
    return sorted(p for p in os.listdir(out) if os.path.isdir(os.path.join(out, p)))


def only_run_dir(out, before=()):
    dirs = [d for d in run_dirs(out) if d not in before]
    assert len(dirs) == 1
    return os.path.join(out, dirs[0])


def sweep_rows(run):
    lines = [l.strip() for l in open(os.path.join(run, "sweep.csv"))
             if l.strip() and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestStationary:
    def test_path3_pi_file(self, tmp_path):
        cfg = write_config(tmp_path, graph={"generator": {"kind": "path", "n": 3}},
                           traps=None, policy={"A_l": 1, "q_fork": 0.1})
        out = tmp_path / "out"
        assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == 0
        run = only_run_dir(out)
        pi_lines = [l for l in open(os.path.join(run, "pi.csv")) if not l.startswith("#")]
        values = [float(l.split(",")[1]) for l in pi_lines[1:]]
        assert values == [0.25, 0.5, 0.25]
        payload = json.load(open(os.path.join(run, "stationary.json")))
        assert payload["spectral_gap"] > 0
        assert payload["config"]["laziness"] == 0.5
        for eps in payload["t_mix"]:
            assert payload["t_mix"][eps] <= payload["spectral_bound"][eps]

    def test_disconnected_generator_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, graph={"generator": {"kind": "erdos_renyi", "n": 20,
                                                          "p": 0.02, "seed": 1}})
        assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "components" in capsys.readouterr().err

    @pytest.mark.parametrize("edges,named", [
        ([[0, 1.5], [1, 2]], "edges[0] = [0, 1.5]"),  # 0.3.0 truncated it to edge (0, 1)
        ([[0, 1], 5], "edges[1] = 5"),
        ([[0, "a"], [1, 2]], "edges[0] = [0, 'a']"),
    ])
    def test_malformed_edge_entry_is_a_config_error(self, tmp_path, capsys, edges, named):
        cfg = write_config(tmp_path, graph={"edges": edges})
        assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: graph: {named}: expected ")

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["stationary", "--config", str(cfg), "--out", str(out)])
        first = only_run_dir(out)
        bodies1 = {f: open(os.path.join(first, f), "rb").read() for f in os.listdir(first)}
        main(["stationary", "--config", str(cfg), "--out", str(out)])
        second = only_run_dir(out, before={os.path.basename(first)})
        for f, body in bodies1.items():
            assert open(os.path.join(second, f), "rb").read() == body


HUGE = "x" * 200_000
K4_EDGES = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


class TestBoundedErrors:
    """A huge bad value prints cut short, however large it is."""

    @pytest.mark.parametrize("field,override", [
        ("graph.generator.n", lambda c: c["graph"]["generator"].update(n=HUGE)),
        ("graph.generator.kind", lambda c: c["graph"]["generator"].update(kind=HUGE)),
        ("traps.zeta", lambda c: c["traps"].update(zeta=HUGE)),
        ("laziness", lambda c: c.update(laziness=HUGE)),
        ("schema_version", lambda c: c.update(schema_version=HUGE)),
        ("simulation.placement", lambda c: c["simulation"].update(placement=HUGE)),
        ("simulation.collect_age_law", lambda c: c["simulation"].update(collect_age_law=HUGE)),
        ("policy.A_l", lambda c: c["policy"].update(A_l={HUGE: 1})),
        ("policy.q_fork", lambda c: c["policy"].update(q_fork=[HUGE] * 4)),
        ("sweep.q", lambda c: c.update(sweep={"q": [HUGE]})),
        ("graph", lambda c: c.update(graph={"path": c["edge_list"]})),
    ])
    def test_config_error_stays_short(self, tmp_path, capsys, field, override):
        edge_list = tmp_path / "graph.txt"
        edge_list.write_text(f"0 1\n1 2 1.0 {HUGE}\n")
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["edge_list"] = str(edge_list)
        override(cfg)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["stationary", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and len(err.encode()) < 300, err[:400]

    @pytest.mark.parametrize("prefix,override", [
        ("traps.zeta.xxx", lambda c: c["traps"].update(zeta={HUGE: 0.1})),  # key in the field path
        ("graph: cannot read xxx", lambda c: c.update(graph={"path": HUGE})),  # name in the OSError
    ])
    def test_echoed_key_or_file_name_stays_short(self, tmp_path, capsys, prefix, override):
        cfg = json.loads(write_config(tmp_path).read_text())
        override(cfg)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["stationary", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {prefix}") and len(err.encode()) < 300, err[:400]

    def test_integer_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys):
        # Python's json raises a plain ValueError for an int literal over 4300 digits
        path = tmp_path / "long_int.json"
        path.write_text('{"laziness": ' + "1" * 5000 + "}")
        assert main(["stationary", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config: invalid JSON") and len(err.encode()) < 600

    @pytest.mark.parametrize("command,field,args,override", [
        ("simulate", "simulation.seed", [], lambda c: c["simulation"].update(seed=-3)),
        ("envelopes", "envelope.seed", [], lambda c: c["envelope"].update(seed=-5)),
        ("check", "simulation.seed", ["--seed", "-1"], lambda c: None),
    ], ids=["simulation", "envelope", "check_flag"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, command, field, args,
                                             override):
        # numpy's SeedSequence takes no negative seed; it is refused before any run directory
        cfg = json.loads(write_config(tmp_path).read_text())
        override(cfg)
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)] + args) == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}: must be >= 0")
        assert not out.exists() or run_dirs(out) == []

    @pytest.mark.parametrize("command,field,override", [
        # 0.3.3 read a string item as a number, though it refused a string scalar
        ("simulate", "policy.A_l", lambda c: c["policy"].update(A_l=["3", 3, 3, 3])),
        ("simulate", "traps.nodes", lambda c: c["traps"].update(nodes=[1.7])),  # 0.3.3: node 1
        ("simulate", "traps.nodes", lambda c: c["traps"].update(nodes=["2"])),
        # 0.3.3 gave node 0 the later value of two keys that name it
        ("simulate", "traps.zeta.00", lambda c: c["traps"].update(zeta={"0": 0.1, "00": 0.5})),
        ("simulate", "traps.zeta. 1", lambda c: c["traps"].update(zeta={" 1": 0.2})),
        ("sweep", "sweep.q", lambda c: c.update(sweep={"q": ["0.1"]})),
        ("simulate", "graph.nodes", lambda c: c.update(
            graph={"edges": K4_EDGES, "nodes": 4.9})),  # 0.3.3: 4 nodes
        ("simulate", "graph.nodes", lambda c: c.update(
            graph={"edges": K4_EDGES, "nodes": "4"})),
        # integers past int64 ended in OverflowError tracebacks
        ("simulate", "simulation.Z_0", lambda c: c["simulation"].update(Z_0=10**20)),
        ("envelopes", "envelope.n_samples", lambda c: c["envelope"].update(n_samples=10**20)),
        ("simulate", "simulation.horizon", lambda c: c["simulation"].update(horizon=10**400)),
        ("simulate", "policy.A_l", lambda c: c["policy"].update(A_l=[10**400, 5, 5, 5])),
        ("simulate", "graph.generator.kind",
         lambda c: c["graph"]["generator"].update(kind=[1])),  # 0.3.3: TypeError
        ("simulate", "graph.generator", lambda c: c["graph"].update(generator="path")),
        # an unbounded kappa ended in an OverflowError traceback after writing replica_000.csv
        ("check", "block_plan.kappa", lambda c: c.update(block_plan={"kappa": 1e308})),
        # 0.3.3 parsed a file of any other format name as an edge list
        ("simulate", "graph.format", lambda c: c.update(graph={"path": c["graph_file"],
                                                                "format": "JSON"})),
    ], ids=["string-A_l-item", "fractional-trap-node", "string-trap-node", "aliased-zeta-key",
            "spaced-zeta-key", "string-sweep-value", "fractional-graph-nodes",
            "string-graph-nodes", "huge-Z_0", "huge-n_samples", "401-digit-horizon",
            "401-digit-A_l-item", "list-generator-kind", "string-generator", "huge-kappa",
            "format-JSON"])
    def test_malformed_value_is_a_bounded_config_error(self, tmp_path, capsys, command, field,
                                                        override):
        graph_file = tmp_path / "k4.txt"
        graph_file.write_text("".join(f"{u} {v}\n" for u, v in K4_EDGES))
        cfg = json.loads(write_config(tmp_path).read_text())
        cfg["graph_file"] = str(graph_file)
        override(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: ") and len(err.encode()) < 300, err[:400]
        assert not out.exists()


class TestEnvelopes:
    def test_fit_curves(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["envelopes", "--config", str(cfg), "--out", str(out)]) == 0
        run = only_run_dir(out)
        payload = json.load(open(os.path.join(run, "envelopes.json")))
        assert payload["source"] == "empirical_fit"
        assert len(payload["per_node"]) == 4
        rows = [l.strip().split(",") for l in open(os.path.join(run, "envelope_curves.csv"))
                if not l.startswith("#") and not l.startswith("A,")]
        assert float(rows[0][1]) == 1.0 and float(rows[0][2]) == 1.0
        for _, plus, minus in rows:
            assert float(plus) <= float(minus) + 1e-15

    def test_doeblin_mode_and_ordering(self, tmp_path):
        out = tmp_path / "out"
        cfg_fit = write_config(tmp_path, "fit.json")
        cfg_doe = write_config(tmp_path, "doe.json",
                               envelope={"mode": "doeblin", "n_samples": 2000})
        main(["envelopes", "--config", str(cfg_fit), "--out", str(out)])
        main(["envelopes", "--config", str(cfg_doe), "--out", str(out)])
        runs = [os.path.join(out, d) for d in run_dirs(out)]
        payloads = [json.load(open(os.path.join(r, "envelopes.json"))) for r in runs]
        fit = next(p for p in payloads if p["source"] == "empirical_fit")
        doe = next(p for p in payloads if p["source"] == "doeblin_theoretical")
        assert doe["t0"] >= 1 and doe["eps0"] > 0
        for fit_node, doe_node in zip(fit["per_node"], doe["per_node"]):
            assert doe_node["c_minus"] <= fit_node["c_minus"]
            assert doe_node["c_plus"] >= fit_node["c_plus"]


class TestSimulate:
    def test_trap_decay_run(self, tmp_path):
        cfg = write_config(tmp_path, policy={"A_l": 1, "q_fork": 0.0},
                           simulation={"Z_0": 50, "horizon": 200, "replicas": 3, "seed": 1})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        run = only_run_dir(out)
        summary = json.load(open(os.path.join(run, "summary.json")))
        assert len(summary["replicas"]) == 3
        assert summary["extinction_fraction"] == 1.0
        assert os.path.exists(os.path.join(run, "replica_002.csv"))
        assert summary["config"]["simulation"]["Z_0"] == 50

    def test_cap_flagged_on_supercritical(self, tmp_path):
        cfg = write_config(tmp_path, traps={"nodes": "all", "zeta": 0.01},
                           policy={"A_l": 1, "q_fork": 0.3},
                           simulation={"Z_0": 10, "horizon": 500, "replicas": 2,
                                       "seed": 2, "Z_cap": 2000})
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        summary = json.load(open(os.path.join(only_run_dir(out), "summary.json")))
        assert summary["cap_fraction"] == 1.0

    def test_placement_outside_the_graph_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 120, "replicas": 2,
                                                 "seed": 7, "placement": 9})
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: simulation.placement: ")
        assert not out.exists()

    def test_seed_and_replica_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "99",
              "--replicas", "1"])
        summary = json.load(open(os.path.join(only_run_dir(out), "summary.json")))
        assert summary["config"]["simulation"]["seed"] == 99
        assert len(summary["replicas"]) == 1

    @pytest.mark.parametrize("config,message", [
        ([1, 2], "config: top-level JSON must be an object"),
        ({"graph": {"generator": {"kind": "complete", "n": 4}}, "policy": {"A_l": 5, "q_fork": 0.3},
          "simulation": 5}, "simulation: expected an object"),
    ], ids=["list-config", "int-simulation"])
    @pytest.mark.parametrize("flag", ["--seed", "--replicas"])
    def test_overrides_on_a_malformed_config(self, tmp_path, capsys, config, message, flag):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out), flag, "3"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.delenv("SRRW_THREADS", raising=False)
        main(["simulate", "--config", str(cfg), "--out", str(out_a)])
        monkeypatch.setenv("SRRW_THREADS", "2")
        main(["simulate", "--config", str(cfg), "--out", str(out_b)])
        ra, rb = only_run_dir(out_a), only_run_dir(out_b)
        for f in ("replica_000.csv", "replica_001.csv", "summary.json"):
            assert open(os.path.join(ra, f), "rb").read() == open(os.path.join(rb, f), "rb").read()


    @pytest.mark.parametrize("a_l,builds", [(5, 0), ([5, 5, 6, 6], 1)])
    def test_envelope_model_built_only_to_invert_a_measured_spec(self, a_l, builds, tmp_path,
                                                                 monkeypatch):
        calls = []
        real = srrw.cli.build_envelope_model
        monkeypatch.setattr(srrw.cli, "build_envelope_model",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        cfg = write_config(tmp_path, policy={"A_l": a_l, "q_fork": 0.3})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = json.load(open(os.path.join(only_run_dir(tmp_path / "out"), "summary.json")))
        assert len(calls) == builds and summary["block_length"] is not None

    def test_burn_in_computed_once_per_run(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, simulation={"Z_0": 10, "horizon": 50, "replicas": 3,
                                                 "seed": 1, "collect_age_law": True})
        resolved = resolve_config(load_config(str(cfg)))
        calls = []
        real = srrw.graphs.mixing_profile
        monkeypatch.setattr(srrw.graphs, "mixing_profile",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        traces = run_replicas(resolved)
        assert len(traces) == 3 and len(calls) == 1


class TestDenseCap:
    """Past ``DENSE_NODE_CAP`` nodes, where no mixing profile is computed, the commands that
    read one fail before they work, and ``simulate`` says why it has no block plan."""

    def config(self, tmp_path, **simulation):
        # cycle(2100) with Doeblin envelopes and 2 replicas
        return write_config(tmp_path, graph={"generator": {"kind": "cycle", "n": 2100}},
                            envelope={"mode": "doeblin"}, policy={"A_l": 1, "q_fork": 0.02},
                            traps={"nodes": "all", "zeta": 0.02}, sweep={"q": [0.01, 0.02]},
                            simulation={"Z_0": 50, "horizon": 20, "replicas": 2, "seed": 1,
                                        **simulation})

    @pytest.mark.parametrize("command,simulation", [
        ("check", {}), ("sweep", {}), ("simulate", {"collect_age_law": True}),
        ("stationary", {}), ("envelopes", {})])
    def test_refused_before_any_replica_runs(self, tmp_path, capsys, monkeypatch, command,
                                             simulation):
        runs = []
        monkeypatch.setattr(srrw.cli, "run_population", lambda *a, **kw: runs.append(1))
        out = tmp_path / "out"
        assert main([command, "--config", str(self.config(tmp_path, **simulation)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: graph: ") and len(err) < 300
        assert "capped at 2000 nodes, got 2100" in err
        assert not out.exists() and runs == []

    def test_simulate_says_why_there_is_no_block_plan(self, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(self.config(tmp_path)), "--out", str(out)]) == 0
        summary = json.load(open(os.path.join(only_run_dir(out), "summary.json")))
        assert summary["block_length"] is None
        assert "capped at 2000 nodes, got 2100" in summary["block_plan_missing"]
        # with a plan there is nothing to explain
        cfg = write_config(tmp_path, name="k4.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "k4")]) == 0
        summary = json.load(open(os.path.join(only_run_dir(tmp_path / "k4"), "summary.json")))
        assert summary["block_length"] is not None and summary["block_plan_missing"] is None


def corridor_config(tmp_path, **kw):
    return write_config(
        tmp_path,
        traps={"nodes": "all", "zeta": 0.05},
        policy={"regime": {
            "Z_low": 10, "Z_high": 60,
            "low": {"A_l": 1, "q_fork": 0.2},
            "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.15},
        }},
        simulation={"Z_0": 30, "horizon": 600, "replicas": 3, "seed": 3,
                    "collect_age_law": True},
        corridor={"Z_low": 10, "Z_high": 60},
        **kw,
    )


class TestDerivedOnce:
    """One config resolve, one kernel and one mixing profile per CLI run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        monkeypatch.delenv("SRRW_THREADS", raising=False)
        counts = collections.Counter()

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return wrapper

        # each name a call site can reach the function through
        for owner, name in ((srrw.config, "resolve_config"), (srrw.cli, "resolve_config"),
                            (srrw.config, "lazy_kernel"),
                            (srrw.graphs, "mixing_profile"), (srrw.cli, "mixing_profile")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        return counts

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_corridor_run(self, command, calls, tmp_path):
        cfg = corridor_config(tmp_path)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"resolve_config": 1, "lazy_kernel": 1, "mixing_profile": 1}

    def test_non_uniform_policy_check(self, calls, tmp_path):
        # a non-uniform policy measures the fork rate after the burn-in
        cfg = write_config(tmp_path, policy={"A_l": [5, 5, 6, 6], "q_fork": 0.3},
                           simulation={"Z_0": 30, "horizon": 300, "replicas": 3, "seed": 5})
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        run = only_run_dir(tmp_path / "out")
        feas = json.load(open(os.path.join(run, "feasibility.json")))["feasibility"]
        assert feas["a_eff_mode"]["single"] == "measured"
        assert calls == {"resolve_config": 1, "lazy_kernel": 1, "mixing_profile": 1}

    def test_doeblin_check(self, calls, tmp_path, monkeypatch):
        # the Doeblin constants and the burn-in read one kept mixing profile; every
        # profile is built by ``MixingProfile``, whatever name its caller reached
        curves = []
        real = srrw.graphs.MixingProfile
        monkeypatch.setattr(srrw.graphs, "MixingProfile", lambda *a: curves.append(1) or real(*a))
        cfg = write_config(tmp_path, envelope={"mode": "doeblin"})
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"resolve_config": 1, "lazy_kernel": 1, "mixing_profile": 1}
        assert len(curves) == 1

    def test_sweep(self, calls, tmp_path):
        cfg = write_config(tmp_path, traps={"nodes": "all", "zeta": 0.05},
                           policy={"A_l": 2, "q_fork": 0.2},
                           simulation={"Z_0": 20, "horizon": 200, "replicas": 3, "seed": 11},
                           sweep={"q": [0.1, 0.2], "zeta_scale": [0.5, 2.0], "kappa": [4, 6]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"resolve_config": 1, "lazy_kernel": 1, "mixing_profile": 1}


BOTH_MEASURED = {"regime": {"Z_low": 10, "Z_high": 60,
                            "low": {"A_l": [1, 1, 2, 2], "q_fork": 0.2},
                            "high": {"A_l": [3, 3, 4, 4], "q_fork": 0.05,
                                     "A_s": 1, "q_term": 0.2}}}


class TestEnvelopeModelBuilds:
    """``simulate`` builds the envelope model only to size a measured spec's
    block table, once however many specs are measured; ``check`` and each
    ``sweep`` run build it once, and ``check`` measures the rates once."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        real = srrw.cli.build_envelope_model
        monkeypatch.setattr(srrw.cli, "build_envelope_model",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        return calls

    # TestSimulate covers a uniform and a measured flat policy
    @pytest.mark.parametrize("policy,count", [
        ({"A_l": [3, 4, 5, 6], "q_fork": 0}, 0),  # never forks
        (BOTH_MEASURED, 1),
    ])
    def test_simulate(self, policy, count, builds, tmp_path):
        cfg = write_config(tmp_path, policy=policy)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        summary = json.load(open(os.path.join(only_run_dir(tmp_path / "out"), "summary.json")))
        assert len(builds) == count and summary["block_length"] is not None

    @pytest.mark.parametrize("policy", [{"A_l": 5, "q_fork": 0.3},
                                        {"A_l": [5, 5, 6, 6], "q_fork": 0.3}, BOTH_MEASURED])
    def test_check(self, policy, builds, tmp_path, monkeypatch):
        # the rates are measured once too, not again for a measured spec
        rates = []
        real = srrw.cli.measured_rates
        monkeypatch.setattr(srrw.cli, "measured_rates",
                            lambda *a, **kw: rates.append(1) or real(*a, **kw))
        cfg = write_config(tmp_path, policy=policy)
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(builds) == 1 and len(rates) == 1

    def test_sweep(self, builds, tmp_path):
        cfg = write_config(tmp_path, policy={"A_l": [2, 2, 3, 3], "q_fork": 0.2},
                           sweep={"q": [0.1, 0.2], "zeta_scale": [0.5, 2.0]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(sweep_rows(only_run_dir(tmp_path / "out"))) == 4 and len(builds) == 1


class TestMeasuredRates:
    """Forks and terminations per token-step after the t_mix burn-in, counted by hand."""

    @staticmethod
    def trace(z, forks, terms, seed=0):
        z, forks, terms = (np.array(c, dtype=np.int64) for c in (z, forks, terms))
        return PopulationTrace(z=z, forks=forks, trap_dels=np.zeros_like(z), terms=terms,
                               seed=seed, horizon_requested=len(z) - 1)

    def test_burn_in_boundary(self, tmp_path):
        resolved = resolve_config(load_config(str(write_config(tmp_path))))
        t = resolved.t_mix
        # as long as the burn-in: skipped, however many events it holds
        skipped = self.trace([5] * (t + 1), [0] + [3] * t, [0] + [2] * t)
        # steps t + 1 and t + 2 count, each handling Z of the step before;
        # the events at step t fall in the burn-in
        z = [5] * (t + 1) + [7, 6]
        forks, terms = [0] * (t + 1) + [2, 1], [0] * (t + 1) + [0, 2]
        forks[t], terms[t] = 4, 4
        counted = self.trace(z, forks, terms)
        assert measured_rates(resolved, [skipped, counted]) == {"single": (3 / 12, 2 / 12)}
        with pytest.raises(InsufficientDataError, match="beyond the mixing burn-in"):
            measured_rates(resolved, [skipped])

    def test_regime_rates_match_a_hand_replay(self, tmp_path):
        # the regime of step t follows Z_(t-1): high above Z_high = 60, low below Z_low = 10,
        # else the last one, from low (Z_0 = 30 is not above 60)
        resolved = resolve_config(load_config(str(corridor_config(tmp_path))))
        traces = run_replicas(resolved)
        burn_in = resolved.t_mix
        sums = {"low": np.zeros(3), "high": np.zeros(3)}
        for tr in traces:
            regime = "low"
            for t in range(1, tr.horizon + 1):
                z = int(tr.z[t - 1])
                regime = "high" if z > 60 else "low" if z < 10 else regime
                if t > burn_in:
                    sums[regime] += (tr.forks[t], tr.terms[t], z)
        assert all(steps > 0 for _, _, steps in sums.values())
        rates = measured_rates(resolved, traces)
        assert rates.keys() == sums.keys()
        for key, (forks, terms, steps) in sums.items():
            assert rates[key] == pytest.approx((forks / steps, terms / steps), rel=1e-12)
        # the high regime's own termination rate, not one pooled over both regimes
        pooled = sum(s[1] for s in sums.values()) / sum(s[2] for s in sums.values())
        assert rates["high"][1] > 1.5 * pooled
        feas = check_payloads(resolved, traces)["feasibility"]
        assert feas["high_regime"]["k_term"] == feas["k_term_measured"] == rates["high"][1]
        assert feas["p_fork_measured"] == rates["low"][0]
        assert feas["measured_rates"] == {k: {"p_fork": p, "k_term": m}
                                          for k, (p, m) in rates.items()}

    def test_regime_without_steps_reads_zero(self, tmp_path):
        # Z_0 = 30 never leaves the low regime when nothing forks or terminates
        cfg = corridor_config(tmp_path)
        raw = load_config(str(cfg))
        raw["policy"]["regime"]["low"]["q_fork"] = 0.0
        raw["traps"]["zeta"] = 0.0
        resolved = resolve_config(raw)
        rates = measured_rates(resolved, run_replicas(resolved))
        assert rates == {"low": (0.0, 0.0), "high": (0.0, 0.0)}


class TestSpectralGapOnRead:
    """The spectral gap's eigensolve runs only in the command that writes the gap."""

    @pytest.fixture
    def gap_calls(self, monkeypatch):
        calls = []
        real = srrw.graphs.spectral_gap
        monkeypatch.setattr(srrw.graphs, "spectral_gap", lambda k: calls.append(k) or real(k))
        return calls

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_corridor_run_skips_it(self, command, gap_calls, tmp_path):
        cfg = corridor_config(tmp_path)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert gap_calls == []

    def test_doeblin_envelopes_skip_it(self, gap_calls, tmp_path):
        cfg = write_config(tmp_path, envelope={"mode": "doeblin"})
        assert main(["envelopes", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert gap_calls == []

    def test_stationary_computes_it_once(self, gap_calls, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(gap_calls) == 1
        payload = json.load(open(os.path.join(only_run_dir(tmp_path / "out"), "stationary.json")))
        kernel = resolve_config(load_config(str(cfg))).kernel
        gap = srrw.graphs.spectral_gap(kernel)
        assert payload["spectral_gap"] == gap
        assert payload["spectral_bound"] == {
            str(eps): math.ceil(math.log(1.0 / (eps * kernel.pi.pi_min)) / gap)
            for eps in srrw.cli.TMIX_LADDER}


def modules_loaded_through_runs(tmp_path, roots, replicas):
    """The loaded modules of the packages ``roots``, printed by one new interpreter
    after ``import srrw.cli`` and after each of a serial ``check`` and ``simulate``."""
    cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 120, "replicas": replicas,
                                             "seed": 7})
    code = ("import sys, srrw.cli\n"
            f"loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})\n"
            "print(loaded())\n"
            "for cmd in ('check', 'simulate'):\n"
            f"    assert srrw.cli.main([cmd, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "    print(loaded())\n")
    src = os.path.dirname(os.path.dirname(srrw.__file__))
    env = dict(os.environ, PYTHONPATH=src, SRRW_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    return [line for line in out.splitlines() if line.startswith("[")]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # importing scipy.sparse alone costs about 0.2 s and 20 MB of RSS; graphs, kernels
    # and a whole check or simulate run need none of scipy
    assert modules_loaded_through_runs(tmp_path, ("scipy",), replicas=1) == ["[]"] * 3


def test_serial_runs_leave_the_process_pool_unloaded(tmp_path):
    # concurrent.futures and multiprocessing cost about 20 ms and 2 MB of RSS at import;
    # only a replica pool (SRRW_THREADS > 1) needs them
    roots = ("concurrent", "multiprocessing")
    assert modules_loaded_through_runs(tmp_path, roots, replicas=2) == ["[]"] * 3


class TestVersion:
    def test_pyproject_matches_package(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        text = open(os.path.join(root, "pyproject.toml")).read()
        found = re.search(r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE)
        assert found and found.group(1) == srrw.__version__


class TestThreadCap:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("SRRW_THREADS", raising=False)
        assert _thread_cap() == 1
        monkeypatch.setenv("SRRW_THREADS", "3")
        assert _thread_cap() == 3

    @pytest.mark.parametrize("raw", ["abc", "1.5", "", "0", "-2"])
    def test_malformed_rejected(self, raw, monkeypatch, tmp_path):
        monkeypatch.setenv("SRRW_THREADS", raw)
        with pytest.raises(ConfigError, match="SRRW_THREADS"):
            _thread_cap()
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()


class TestCheck:
    def check_config(self, tmp_path, **kw):
        return write_config(
            tmp_path,
            traps={"nodes": "all", "zeta": 0.05},
            policy={"regime": {
                "Z_low": 10, "Z_high": 60,
                "low": {"A_l": 1, "q_fork": 0.2},
                "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.15},
            }},
            simulation={"Z_0": 30, "horizon": 2000, "replicas": 2, "seed": 3},
            corridor={"Z_low": 10, "Z_high": 60},
            **kw,
        )

    def test_corridor_check(self, tmp_path):
        cfg = self.check_config(tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        run = only_run_dir(out)
        feas = json.load(open(os.path.join(run, "feasibility.json")))["feasibility"]
        assert feas["kind"] == "corridor"
        assert feas["low_regime"]["viability_holds"]
        assert feas["high_regime"]["safety_holds"]
        corridor = json.load(open(os.path.join(run, "corridor.json")))["corridor"]
        assert corridor["mean_inside_fraction"] > 0.5
        assert os.path.exists(os.path.join(run, "excursions.csv"))

    def test_failed_analysis_keeps_the_replicas(self, tmp_path, capsys):
        # a horizon within the mixing burn-in leaves no step to measure rates on, so the
        # analysis fails after the replicas ran; they stay in the run directory
        cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 2, "replicas": 2,
                                                 "seed": 7})
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 3
        assert "beyond the mixing burn-in" in capsys.readouterr().err
        run = only_run_dir(out)
        names = ["replica_000.csv", "replica_001.csv"]
        assert [name for name in sorted(os.listdir(run)) if name.endswith(".csv")] == names
        kept = [PopulationTrace.from_csv(os.path.join(run, name)) for name in names]
        fresh = run_replicas(resolve_config(load_config(str(cfg))))
        for a, b in zip(kept, fresh):
            assert a.horizon == b.horizon == 2 and np.array_equal(a.z, b.z)

    def test_check_on_referenced_traces(self, tmp_path):
        cfg = self.check_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        sim_run = only_run_dir(out)
        out2 = tmp_path / "out2"
        assert main(["check", "--config", str(cfg), "--out", str(out2),
                     "--traces", sim_run]) == 0
        run = only_run_dir(out2)
        assert os.path.exists(os.path.join(run, "feasibility.json"))

    def test_check_payloads_leaves_traces_untouched(self, tmp_path):
        cfg = write_config(tmp_path, policy={"A_l": 5, "q_fork": 0.3, "A_s": 2, "q_term": 0.1},
                           simulation={"Z_0": 30, "horizon": 300, "replicas": 2, "seed": 5,
                                       "collect_age_law": True})
        resolved = resolve_config(load_config(str(cfg)))
        traces = run_replicas(resolved)
        model = build_envelope_model(resolved)
        counts_before = traces[0].age_law.counts.copy()
        first = check_payloads(resolved, traces, model=model)
        second = check_payloads(resolved, traces, model=model)
        assert first["feasibility"]["k_term_plugin"] is not None
        assert first["feasibility"] == second["feasibility"]
        assert np.array_equal(traces[0].age_law.counts, counts_before)

    def test_corridor_termination_plugin(self, tmp_path):
        # the high regime's short trigger 2^40 - 1 lies beyond the age-law
        # cap, but above every observed age, so the plug-in is q_term itself
        cfg = write_config(
            tmp_path,
            graph={"generator": {"kind": "erdos_renyi", "n": 30, "p": 0.15, "seed": 1}},
            traps={"nodes": "all", "zeta": 0.05},
            policy={"regime": {
                "Z_low": 20, "Z_high": 200,
                "low": {"A_l": 1, "q_fork": 0.15},
                "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.10},
            }},
            simulation={"Z_0": 60, "horizon": 2000, "replicas": 1, "seed": 3,
                        "collect_age_law": True},
            corridor={"Z_low": 20, "Z_high": 200},
        )
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        feas = json.load(open(os.path.join(only_run_dir(out), "feasibility.json")))["feasibility"]
        assert feas["k_term_plugin"] == pytest.approx(0.10)

    def test_check_on_traces_of_capped_run_matches_check(self, tmp_path):
        # the high regime keeps forking, so both replicas run into the cap; with
        # the age law collected the traces carry it, so the termination plug-in
        # read back from them matches too
        for collect in (False, True):
            cfg = write_config(
                tmp_path,
                name=f"cfg_{collect}.json",
                traps={"nodes": "all", "zeta": 0.05},
                policy={"regime": {
                    "Z_low": 10, "Z_high": 60,
                    "low": {"A_l": 1, "q_fork": 0.3},
                    "high": {"A_l": 1, "q_fork": 0.3},
                }},
                simulation={"Z_0": 30, "horizon": 2000, "replicas": 2, "seed": 3, "Z_cap": 400,
                            "collect_age_law": collect},
                corridor={"Z_low": 10, "Z_high": 60},
            )
            sim_out, check_out, reuse_out = (tmp_path / f"{kind}_{collect}"
                                             for kind in ("sim", "check", "reuse"))
            assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
            sim_run = only_run_dir(sim_out)
            summary = json.load(open(os.path.join(sim_run, "summary.json")))
            assert summary["cap_fraction"] == 1.0
            assert main(["check", "--config", str(cfg), "--out", str(check_out)]) == 0
            assert main(["check", "--config", str(cfg), "--out", str(reuse_out),
                         "--traces", sim_run]) == 0
            fresh, reused = only_run_dir(check_out), only_run_dir(reuse_out)
            corridor = json.load(open(os.path.join(fresh, "corridor.json")))["corridor"]
            assert corridor["per_replica"]
            plugin = json.load(open(os.path.join(fresh, "feasibility.json")))["feasibility"]
            assert (plugin["k_term_plugin"] is not None) == collect
            for name in ("feasibility.json", "corridor.json", "excursions.csv"):
                assert open(os.path.join(reused, name), "rb").read() == \
                    open(os.path.join(fresh, name), "rb").read()

    def test_traces_of_another_config_rejected(self, tmp_path, capsys):
        cfg = self.check_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        sim_run = only_run_dir(out)
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "o2"),
                     "--seed", "4", "--traces", sim_run])
        assert code == 1
        assert "replica_000.csv" in capsys.readouterr().err

    def test_traces_with_huge_config_hash_stay_short(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(re.sub(r"# config_hash=\w+", "# config_hash=" + HUGE, text))
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "check"),
                     "--traces", sim_run])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: traces: replica_000.csv was written for config xxx")
        assert len(err) < 300

    def test_traces_with_malformed_age_law_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 300, "replicas": 1,
                                                 "seed": 7, "collect_age_law": True})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        text = open(path).read()
        node_line = next(line for line in text.splitlines() if line.startswith("# age_law_node_"))
        node_key = node_line.split("=")[0]
        over_line = next(line for line in text.splitlines()
                         if line.startswith("# age_law_max_over_cap="))
        edits = [(node_line, "# age_law_node_-1=1:1"),  # node before the first
                 (node_line, "# age_law_node_4=1:1"),  # node past the last of K4
                 (node_line, f"{node_key}=258:1"),  # age past the overflow bucket
                 (node_line, f"{node_key}=1:-1"),  # negative count
                 (node_line, f"{node_key}=x:1"),  # not an integer
                 (over_line, "# age_law_max_over_cap=0 0 0 0 0"),  # five nodes, not four
                 ("# age_law_cap=256", "# age_law_cap=1000000000000000")]  # cap past AGE_LAW_CAP
        for i, (old, new) in enumerate(edits):
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))
            code = main(["check", "--config", str(cfg), "--out", str(tmp_path / f"check_{i}"),
                         "--traces", sim_run])
            assert code == 1, new
            assert "config error: traces: replica_000.csv" in capsys.readouterr().err, new

    def test_age_law_over_too_many_nodes_rejected_before_allocating(self, tmp_path, capsys):
        # a 200 kB header line listing 100k overflow maxima would make a
        # (100000, 258) int64 histogram, about 200 MB, if it were allocated
        cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 300, "replicas": 1,
                                                 "seed": 7, "collect_age_law": True})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        text = open(path).read()
        over_line = next(line for line in text.splitlines()
                         if line.startswith("# age_law_max_over_cap="))
        with open(path, "w") as fh:
            fh.write(text.replace(over_line, "# age_law_max_over_cap=" + " 0" * 100_000))
        tracemalloc.start()
        try:
            code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "check"),
                         "--traces", sim_run])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 20 * 2**20, peak
        assert capsys.readouterr().err.startswith(
            "config error: traces: replica_000.csv: age law over 100000 nodes with cap 256, "
            "not 4 with cap 256")

    def test_missing_trace_directory_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "check"),
                     "--traces", str(tmp_path / "nowhere")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: traces: cannot read ") and "nowhere" in err
        assert err.rstrip().endswith(": No such file or directory")
        assert not (tmp_path / "check").exists()

    def test_trace_entry_that_is_a_directory_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        os.remove(os.path.join(sim_run, "replica_001.csv"))
        os.mkdir(os.path.join(sim_run, "replica_001.csv"))
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "check"),
                     "--traces", sim_run])
        assert code == 1
        assert capsys.readouterr().err == "config error: traces: replica_001.csv: Is a directory\n"

    def test_trace_not_utf8_is_a_config_error(self, tmp_path, capsys):
        # the header is decoded before the rows reach numpy's parser, and a
        # row past the first 8 KiB is decoded inside it
        cfg = self.check_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        data = open(path, "rb").read()
        assert len(data) > 2 * 8192
        for i, edited in enumerate([data.replace(b"# seed=", b"# seed=\xff"),
                                    data[:-2] + b"\xff\n"]):
            with open(path, "wb") as fh:
                fh.write(edited)
            code = main(["check", "--config", str(cfg), "--out", str(tmp_path / f"check_{i}"),
                         "--traces", sim_run])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: traces: replica_000.csv: trace is not UTF-8 "
                                  "text: ") and len(err) < 300, err[:400]

    def test_traces_with_malformed_rows_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 300, "replicas": 1,
                                                 "seed": 7})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        text = open(path).read()
        lines = text.splitlines()
        row = next(line for line in lines if line.startswith("5,"))
        edits = [text.replace(row, "5,abc,0,0,0"),  # a non-integer cell
                 text.replace(row, row.rsplit(",", 1)[0]),  # four columns
                 "".join(line + "\n" for line in lines if not line[0].isdigit())]  # no data rows
        for key in ("seed", "capped", "extinct", "horizon_requested"):
            line = next(line for line in lines if line.startswith(f"# {key}="))
            edits.append(text.replace(line, f"# {key}=x"))  # a non-integer header value
        for i, edited in enumerate(edits):
            with open(path, "w") as fh:
                fh.write(edited)
            code = main(["check", "--config", str(cfg), "--out", str(tmp_path / f"check_{i}"),
                         "--traces", sim_run])
            assert code == 1, edited[-200:]
            assert "config error: traces: replica_000.csv" in capsys.readouterr().err, i

    def test_traces_with_flags_against_counts_rejected(self, tmp_path, capsys):
        # the replica runs its 50 steps and ends with a few tokens, far below Z_cap
        cfg = write_config(tmp_path, policy={"A_l": 1, "q_fork": 0.1},
                           simulation={"Z_0": 5, "horizon": 50, "replicas": 1, "seed": 7})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        text = open(path).read()
        edits = [("# extinct=0", "# extinct=1"), ("# capped=0", "# capped=1"),
                 ("# capped=0", "# capped=7"), ("# horizon_requested=50", "# horizon_requested=500")]
        for i, (old, new) in enumerate(edits):
            assert text.count(old) == 1
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))
            code = main(["check", "--config", str(cfg), "--out", str(tmp_path / f"check_{i}"),
                         "--traces", sim_run])
            assert code == 1, new
            assert "config error: traces: replica_000.csv" in capsys.readouterr().err, new

    def test_traces_with_cell_beyond_int64_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 300, "replicas": 1,
                                                 "seed": 7})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        lines = open(path).read().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("0,"))
        lines[at] = "0,99999999999999999999999,0,0,0"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "check"),
                     "--traces", sim_run])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: traces: replica_000.csv: ") and len(err) < 400

    @pytest.mark.parametrize("step,row,message", [
        (5, "5,-7,0,0,0", "step 5 has a negative count"),
        (9, "9,9,0,0,0", "step 9 breaks Z_t = Z_(t-1) + forks - trap_dels - terms"),
        (7, "8,{z},{forks},{dels},{terms}", "data row 7 has t=8"),
    ])
    def test_traces_with_impossible_counts_rejected(self, tmp_path, capsys, step, row, message):
        cfg = write_config(tmp_path, simulation={"Z_0": 20, "horizon": 300, "replicas": 1,
                                                 "seed": 7})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        sim_run = only_run_dir(tmp_path / "sim")
        path = os.path.join(sim_run, "replica_000.csv")
        lines = open(path).read().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{step},"))
        _, z, forks, dels, terms = lines[at].split(",")
        lines[at] = row.format(z=z, forks=forks, dels=dels, terms=terms)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / "check"),
                     "--traces", sim_run])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: traces: replica_000.csv: ") and message in err

    def test_single_policy_check(self, tmp_path):
        cfg = write_config(tmp_path, simulation={"Z_0": 30, "horizon": 300,
                                                 "replicas": 2, "seed": 5})
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        feas = json.load(open(os.path.join(only_run_dir(out), "feasibility.json")))["feasibility"]
        assert feas["kind"] == "single"
        assert feas["a_eff_mode"]["single"] == "uniform_identity"
        assert feas["a_eff_interval"] == [5.0, 5.0]


class TestNoForking:
    """A non-uniform spec with q_fork 0 at every node has no finite effective age."""

    POLICIES = {
        "flat": {"A_l": [3, 4, 5, 6], "q_fork": 0},
        "low_regime": {"regime": {"Z_low": 10, "Z_high": 60,
                                  "low": {"A_l": [3, 4, 5, 6], "q_fork": 0},
                                  "high": {"A_l": 2, "q_fork": 0.2}}},
    }

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_check(self, name, tmp_path):
        cfg = write_config(tmp_path, policy=self.POLICIES[name])
        assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        feas = json.load(open(os.path.join(only_run_dir(tmp_path / "out"),
                                           "feasibility.json")))["feasibility"]
        key = "single" if name == "flat" else "low"
        assert feas["a_eff_mode"][key] == "no_forking"
        iv = (feas if name == "flat" else feas["low_regime"])["a_eff_interval"]
        assert iv == [None, None]  # JSON null stands for +inf

    def test_sweep_over_q_through_zero(self, tmp_path):
        cfg = write_config(tmp_path, policy={"A_l": [3, 4, 5, 6], "q_fork": 0.2},
                           sweep={"q": [0.0, 0.2]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = sweep_rows(only_run_dir(out))
        assert [(r["q"], r["a_eff_lo"], r["a_eff_hi"]) for r in rows][0] == ("0.0", "inf", "inf")
        assert len(rows) == 2


class TestStrictJson:
    """JSON artifacts are strict JSON: +inf is written as null, never as ``Infinity``."""

    CONFIGS = {
        # the high regime never forks, so its effective-age interval is [inf, inf]
        "corridor": lambda tmp_path: corridor_config(tmp_path, sweep={"zeta_scale": [1.0]}),
        "no_forking": lambda tmp_path: write_config(
            tmp_path, policy=TestNoForking.POLICIES["flat"], sweep={"q": [0.0, 0.2]}),
    }

    @staticmethod
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    @pytest.mark.parametrize("command", ["stationary", "envelopes", "simulate", "check", "sweep"])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_artifacts_parse_strictly(self, name, command, tmp_path):
        cfg = self.CONFIGS[name](tmp_path)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        run = only_run_dir(tmp_path / "out")
        payloads = {f: json.loads(open(os.path.join(run, f)).read(), parse_constant=self.reject)
                    for f in os.listdir(run) if f.endswith(".json")}
        assert payloads
        if command == "check":
            feas = payloads["feasibility.json"]["feasibility"]
            no_forking = feas["high_regime"] if name == "corridor" else feas
            assert no_forking["a_eff_interval"] == [None, None]


class TestSweep:
    def base(self, tmp_path, sweep):
        return write_config(
            tmp_path,
            traps={"nodes": "all", "zeta": 0.05},
            policy={"A_l": 2, "q_fork": 0.2},
            simulation={"Z_0": 20, "horizon": 200, "replicas": 1, "seed": 11},
            sweep=sweep,
        )

    def test_grid_size(self, tmp_path):
        cfg = self.base(tmp_path, {"q": [0.1, 0.2], "zeta_scale": [0.5, 1.0, 2.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = sweep_rows(only_run_dir(out))
        assert len(rows) == 6

    def test_single_point_matches_check(self, tmp_path):
        cfg_sweep = self.base(tmp_path, {"q": [0.2]})
        cfg_check = write_config(
            tmp_path, "check.json",
            traps={"nodes": "all", "zeta": 0.05},
            policy={"A_l": 2, "q_fork": 0.2},
            simulation={"Z_0": 20, "horizon": 200, "replicas": 1, "seed": 11},
        )
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg_sweep), "--out", str(out)])
        row = sweep_rows(only_run_dir(out))[0]
        out2 = tmp_path / "out2"
        main(["check", "--config", str(cfg_check), "--out", str(out2)])
        feas = json.load(open(os.path.join(only_run_dir(out2), "feasibility.json")))["feasibility"]
        assert float(row["viability_lhs"]) == pytest.approx(feas["viability_lhs"])
        assert float(row["safety_lhs"]) == pytest.approx(feas["safety_lhs"])
        assert int(row["viability"]) == int(feas["viability_holds"])

    def test_zeta_frontier_monotone(self, tmp_path):
        cfg = self.base(tmp_path, {"zeta_scale": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]})
        out = tmp_path / "out"
        main(["sweep", "--config", str(cfg), "--out", str(out)])
        rows = sweep_rows(only_run_dir(out))
        verdicts = [int(r["viability"]) for r in rows]
        # pass verdicts may flip to fail at most once along increasing pressure
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips <= 1
        assert all(a >= b for a, b in zip(verdicts, verdicts[1:]))

    def corridor(self, tmp_path, name, **kw):
        return write_config(
            tmp_path, name,
            traps={"nodes": "all", "zeta": 0.05},
            policy={"regime": {
                "Z_low": 10, "Z_high": 60,
                "low": {"A_l": 1, "q_fork": 0.2},
                "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.15},
            }},
            simulation={"Z_0": 30, "horizon": 1000, "replicas": 1, "seed": 3},
            corridor={"Z_low": 10, "Z_high": 60},
            **kw,
        )

    def test_corridor_grid(self, tmp_path):
        cfg = self.corridor(tmp_path, "cfg.json", sweep={"zeta_scale": [0.5, 1.0], "kappa": [4, 8]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(sweep_rows(only_run_dir(out))) == 4

    def test_corridor_single_point_matches_check(self, tmp_path):
        # viability columns come from the low regime, safety ones from the high regime
        out, out2 = tmp_path / "out", tmp_path / "out2"
        cfg_sweep = self.corridor(tmp_path, "cfg.json", sweep={"zeta_scale": [1.0]})
        assert main(["sweep", "--config", str(cfg_sweep), "--out", str(out)]) == 0
        row = sweep_rows(only_run_dir(out))[0]
        assert main(["check", "--config", str(self.corridor(tmp_path, "check.json")),
                     "--out", str(out2)]) == 0
        feas = json.load(open(os.path.join(only_run_dir(out2), "feasibility.json")))["feasibility"]
        low, high = feas["low_regime"], feas["high_regime"]
        expected = {
            "lambda_del": low["lambda_del"],
            "a_eff_lo": low["a_eff_interval"][0], "a_eff_hi": low["a_eff_interval"][1],
            "viability_lhs": low["viability_lhs"], "viability": int(low["viability_holds"]),
            "margin_in": low["margin_in"],
            "safety_lhs": high["safety_lhs"], "safety": int(high["safety_holds"]),
            "margin_out": high["margin_out"],
            "k_term_measured": feas["k_term_measured"], "p_fork_measured": feas["p_fork_measured"],
        }
        assert {k: float(row[k]) for k in expected} == expected

    def test_a_l_by_trap_map_scale(self, tmp_path):
        # K4 has pi = 1/4 at every node; a scale of 20 caps both trap nodes at 1
        cfg = write_config(
            tmp_path,
            traps={"zeta": {"1": 0.1, "3": 0.2}},
            policy={"A_l": 2, "q_fork": 0.2},
            simulation={"Z_0": 400, "horizon": 200, "replicas": 1, "seed": 11},
            sweep={"A_l": [2, 5], "zeta_scale": [0.5, 20]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = sweep_rows(only_run_dir(out))
        grid = [(float(r["A_l"]), float(r["zeta_scale"])) for r in rows]
        assert grid == [(2, 0.5), (2, 20), (5, 0.5), (5, 20)]
        for (a_l, scale), r in zip(grid, rows):
            assert float(r["a_eff_lo"]) == float(r["a_eff_hi"]) == a_l
            assert float(r["lambda_del"]) == (0.5 if scale == 20 else pytest.approx(0.0375))

    def test_sweep_without_block_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


class TestSweepPoints:
    """Grid points are resolved with the config: the base's resolved sections with only the
    swept fields replaced, checked before a run directory exists or a replica runs."""

    BASE = {
        "graph": {"generator": {"kind": "complete", "n": 4}},
        "traps": {"zeta": {"1": 0.1, "3": 0.4}},
        "policy": {"A_l": [2, 2, 3, 3], "q_fork": 0.2, "A_s": 1},
        "simulation": {"Z_0": 20, "horizon": 100, "replicas": 1, "seed": 11},
    }

    @pytest.mark.parametrize("axis,value,edit", [
        ("q", 0.35, lambda c: c["policy"].update(q_fork=0.35)),
        ("A_l", 4.0, lambda c: c["policy"].update(A_l=4.0)),
        # 0.4 x 3 clips at 1.0
        ("zeta_scale", 3.0, lambda c: c["traps"].update(zeta={"1": 0.1 * 3.0, "3": 1.0})),
        ("kappa", 7.5, lambda c: c.update(block_plan={"kappa": 7.5})),
    ])
    def test_point_equals_the_config_edited_by_hand(self, axis, value, edit):
        base = resolve_config(dict(self.BASE, sweep={axis: [value]}))
        (point, got), = base.points
        assert point == {axis: value}
        cfg = json.loads(json.dumps(self.BASE))
        edit(cfg)
        want = resolve_config(cfg)
        for name in ("a_long", "a_short", "q_fork", "q_term"):
            assert np.array_equal(getattr(got.policy, name), getattr(want.policy, name)), name
        assert np.array_equal(got.traps.zeta, want.traps.zeta)
        assert got.block_plan["kappa"] == want.block_plan["kappa"]
        assert got.raw == want.raw and got.hash == want.hash
        assert got.kernel is base.kernel and got.raw["graph"] is base.raw["graph"]

    def test_inline_graph_entry_shared(self):
        cfg = dict(self.BASE, graph={"edges": K4_EDGES}, sweep={"q": [0.1, 0.2]})
        base = resolve_config(cfg)
        assert all(p.raw["graph"] is base.raw["graph"] for _, p in base.points)

    def test_unswept_objects_shared_and_swept_ones_per_value(self):
        base = resolve_config(dict(self.BASE, sweep={"q": [0.1, 0.2], "kappa": [4, 5, 6]}))
        configs = [p for _, p in base.points]
        assert [pt for pt, _ in base.points] == [
            {"q": q, "kappa": k} for q in (0.1, 0.2) for k in (4.0, 5.0, 6.0)]
        assert all(p.traps is base.traps for p in configs)
        assert len({id(p.policy) for p in configs}) == 2

    def test_every_hash_equals_the_hash_of_its_raw(self):
        # spliced from the sections' JSON, each hash is that of the point's whole raw config
        cfg = dict(self.BASE, graph={"edges": [[0, 1, 2.5], [1, 2], [0, 2], [2, 3, 0.5]]},
                   sweep={"q": [0.1, 0.2], "A_l": [2, 3], "zeta_scale": [0.5, 3.0],
                          "kappa": [4, 5]})
        base = resolve_config(cfg)
        assert len(base.points) == 16 and base.hash == config_hash(base.raw)
        assert all(p.hash == config_hash(p.raw) for _, p in base.points)
        assert len({p.hash for _, p in base.points} | {base.hash}) == 17

    def test_pool_pickles_one_config(self):
        base = resolve_config(dict(self.BASE, sweep={"q": [0.1, 0.2]}))
        assert base.points and pickle.loads(pickle.dumps(base)).points == ()
        assert pickle.loads(pickle.dumps(base.points[0][1])).hash == base.points[0][1].hash

    @pytest.mark.parametrize("sweep,policy,message", [
        ({"q": [0.2, 1.5]}, None, "q=1.5: policy.q_fork: must be <= 1.0, got 1.5"),
        ({"zeta_scale": [-1.0]}, None, "zeta_scale=-1.0: traps.zeta.1: must be >= 0.0"),
        ({"kappa": [1e308]}, None, "kappa=1e+308: block_plan.kappa: must be <= 1000000.0"),
        ({"A_l": [2, 3]}, {"regime": {"Z_low": 10, "Z_high": 60, "low": {"A_l": 1, "q_fork": 0.2},
                                      "high": {"A_l": 3, "q_fork": 0.0}}},
         "q/A_l sweeps need a flat (non-regime) policy block"),
    ], ids=["q", "zeta_scale", "kappa", "A_l-on-regime"])
    @pytest.mark.parametrize("command", ["sweep", "stationary"])
    def test_bad_grid_fails_before_anything_runs(self, tmp_path, capsys, monkeypatch, sweep,
                                                 policy, message, command):
        runs = []
        monkeypatch.setattr(srrw.cli, "run_population", lambda *a, **kw: runs.append(1))
        cfg = dict(self.BASE, sweep=sweep, **({"policy": policy} if policy else {}))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep: {message}"), err
        assert not out.exists() and runs == []
