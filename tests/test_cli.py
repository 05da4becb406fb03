import collections
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import srrw
import srrw.cli
import srrw.config
import srrw.graphs
from srrw.cli import _thread_cap, build_envelope_model, check_payloads, main, run_replicas
from srrw.config import load_config, resolve_config
from srrw.errors import ConfigError

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

    def test_seed_and_replica_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "99",
              "--replicas", "1"])
        summary = json.load(open(os.path.join(only_run_dir(out), "summary.json")))
        assert summary["config"]["simulation"]["seed"] == 99
        assert len(summary["replicas"]) == 1

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

    def corridor_config(self, tmp_path):
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
        )

    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_corridor_run(self, command, calls, tmp_path):
        cfg = self.corridor_config(tmp_path)
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

    def test_sweep(self, calls, tmp_path):
        cfg = write_config(tmp_path, traps={"nodes": "all", "zeta": 0.05},
                           policy={"A_l": 2, "q_fork": 0.2},
                           simulation={"Z_0": 20, "horizon": 200, "replicas": 3, "seed": 11},
                           sweep={"q": [0.1, 0.2], "zeta_scale": [0.5, 2.0], "kappa": [4, 6]})
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"resolve_config": 1, "lazy_kernel": 1, "mixing_profile": 1}


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, srrw.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.dirname(os.path.dirname(srrw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


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
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


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
                 (over_line, "# age_law_max_over_cap=0 0 0 0 0")]  # five nodes, not four
        for i, (old, new) in enumerate(edits):
            with open(path, "w") as fh:
                fh.write(text.replace(old, new))
            code = main(["check", "--config", str(cfg), "--out", str(tmp_path / f"check_{i}"),
                         "--traces", sim_run])
            assert code == 1, new
            assert "config error: traces: replica_000.csv" in capsys.readouterr().err, new

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

    def test_single_policy_check(self, tmp_path):
        cfg = write_config(tmp_path, simulation={"Z_0": 30, "horizon": 300,
                                                 "replicas": 2, "seed": 5})
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == 0
        feas = json.load(open(os.path.join(only_run_dir(out), "feasibility.json")))["feasibility"]
        assert feas["kind"] == "single"
        assert feas["a_eff_mode"]["single"] == "uniform_identity"
        assert feas["a_eff_interval"] == [5.0, 5.0]


class TestSweep:
    def base(self, tmp_path, sweep):
        return write_config(
            tmp_path,
            traps={"nodes": "all", "zeta": 0.05},
            policy={"A_l": 2, "q_fork": 0.2},
            simulation={"Z_0": 20, "horizon": 200, "replicas": 1, "seed": 11},
            sweep=sweep,
        )

    def read_rows(self, run):
        lines = [l.strip() for l in open(os.path.join(run, "sweep.csv"))
                 if l.strip() and not l.startswith("#")]
        header = lines[0].split(",")
        return [dict(zip(header, l.split(","))) for l in lines[1:]]

    def test_grid_size(self, tmp_path):
        cfg = self.base(tmp_path, {"q": [0.1, 0.2], "zeta_scale": [0.5, 1.0, 2.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = self.read_rows(only_run_dir(out))
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
        row = self.read_rows(only_run_dir(out))[0]
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
        rows = self.read_rows(only_run_dir(out))
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
        assert len(self.read_rows(only_run_dir(out))) == 4

    def test_corridor_single_point_matches_check(self, tmp_path):
        # viability columns come from the low regime, safety ones from the high regime
        out, out2 = tmp_path / "out", tmp_path / "out2"
        cfg_sweep = self.corridor(tmp_path, "cfg.json", sweep={"zeta_scale": [1.0]})
        assert main(["sweep", "--config", str(cfg_sweep), "--out", str(out)]) == 0
        row = self.read_rows(only_run_dir(out))[0]
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

    def test_sweep_without_block_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
