"""The benchmark in ``perfbench/`` reaches into srrw from outside: its tracer
rebinds srrw module and class attributes by name, and its workloads read the
kernel's arrays. These checks fail when a change to srrw removes a name the
benchmark relies on. They only import the benchmark modules; no wrapper is
installed and ``perfbench/`` is not modified.
"""
import importlib.util
import os
from collections import defaultdict

import numpy as np
import pytest

import srrw.population
from srrw.config import resolve_config
from srrw.policy import PolicySpec
from srrw.population import PopulationTrace, TrapProfile, run_population
from srrw.return_time import sample_return_times

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
CONFIG = {
    "graph": {"generator": {"kind": "complete", "n": 4}},
    "laziness": 0.5,
    "traps": {"nodes": "all", "zeta": 0.1},
    "policy": {"A_l": 5, "q_fork": 0.3},
    "simulation": {"Z_0": 20, "horizon": 120, "replicas": 1, "seed": 7},
    "envelope": {"mode": "fit", "n_samples": 2000},
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("full", [False, True])
def test_every_traced_name_exists(full):
    for owner, attr, name, _ in load("tracing")._wrap_list(full):
        assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} ({name})"


def test_kernel_bytes_runs_on_a_resolved_kernel():
    kernel = resolve_config(CONFIG).kernel
    assert load("workloads").kernel_bytes(kernel) == 32 * kernel.node_count**2


def test_run_population_steps_through_the_module_global(monkeypatch):
    # the tracer times engine steps by rebinding ``srrw.population.step``
    calls = []
    real = srrw.population.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(srrw.population, "step", counted)
    kernel = resolve_config(CONFIG).kernel
    trace = run_population(kernel, PolicySpec.uniform(4, a_long=2.0**40, q_fork=0.0),
                           TrapProfile.none(4), z0=3, horizon=5, rng_seed=1)
    assert trace.horizon == len(calls) == 5


def test_counters_read_real_results(tmp_path):
    # the tracer counts from what sample_return_times and run_population return,
    # and the corridor gate reads replica traces back with from_csv
    tracing = load("tracing")
    kernel = resolve_config(CONFIG).kernel
    counts = defaultdict(int)
    sample = sample_return_times(kernel, 0, 2000, rng_seed=3)
    tracing._count_return_times(counts, sample)
    walk_steps = int(np.repeat(np.arange(1, sample.counts.size + 1), sample.counts).sum())
    assert counts["return_time.calls"] == 1 and counts["return_time.walk_steps"] == walk_steps
    trace = run_population(kernel, PolicySpec.uniform(4, a_long=2.0, q_fork=0.2),
                           TrapProfile.uniform(4, 0.1), z0=10, horizon=50, rng_seed=2)
    path = tmp_path / "replica_000.csv"
    trace.to_csv(path)
    tracing._count_population(counts, PopulationTrace.from_csv(path))
    assert counts["population.steps"] == trace.horizon > 0
    assert counts["population.extinct"] == int(trace.extinct)
    assert counts["population.token_steps"] == int(trace.z[:-1].sum())
    assert counts["population.forks"] == int(trace.forks.sum())
    assert counts["population.trap_dels"] == int(trace.trap_dels.sum())
