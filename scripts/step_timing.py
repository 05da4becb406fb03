"""Time one engine step, and one return-time walk step, on recorded states:
median microseconds per step.

Each engine case runs the engine once, records up to ``STATES`` input states
of ``population.step`` spread evenly over the run, then times ``step`` on them
``ROUNDS`` times in process. The return-time case does the same for
``NeighbourTable.move`` over one ``sample_return_times`` call. Calls are
interleaved: every round steps each recorded state of every case once, so
the machine's fast and slow phases fall on all of them alike. With
``--baseline SRC`` the srrw package under SRC (for example ``src`` of a
checkout of an earlier commit) is loaded as a second module and its ``step``
and ``move`` are timed on the same states, alternating with this one call by
call; the two take turns calling first, since a state's first call runs
slower (about 10% on the corridor cases when both sides are this package).
Each case then prints the ratio of the two sides' medians within each
round: their median (``ratio``), and their lowest and highest, the
round-to-round spread. Only calls made close in time are paired, so a phase
change of the machine between rounds does not move the ratio.

The engine cases are the explosion of acceptance criterion 08 on K4 (Z from
20 to the 100k cap), K4 with mixed triggers (two nodes fork at every visit,
two terminate at age 1 and fork from age 3) at Z of about 10 to 30, the
corridor experiment's ER(30, 0.15) regime config with the age law
collected, ER(1000, 0.01) at Z of about 10k, a hub: star(300) at about 10
tokens per node, whose rows are as wide as the graph,
the same star with mixed triggers (forks from age 4, terminations up to age
2, so each step reads every node's age region) near its steady Z of about
450, and the dense K(150) at 10 tokens per node; each in both event orders.
Each engine case also prints the share of its run's steps that the engine
drew per token (``AliasRows.sparse``) rather than by multinomial, and the
share drawn folded (``StepRows.folded``: fork pairs in the node draw) rather
than in two stages. ``--fold-bytes B`` sets this package's fold budget
(``population.FOLD_BYTES``) to B for the whole script; run against this same
``src`` as the baseline, it times folded steps against two-stage ones on the
same states, which is how the budget is set. The return-time case moves the
walkers of the corridor graph's envelope fit: 20k walkers started at node 0,
until all have returned.

Recorded states cannot see what a run pays before its first step. The
replica case (``explode_k4_replica``) times whole ``run_population`` runs of
the explode_k4 case, one per seed of ``REPLICAS``, on one resolved kernel per
side and event order, as the explode_k4 benchmark workload and the replicas
of ``srrw check`` run them: milliseconds per run, run start (the engine's
rows and their alias tables) included. Its warm-up makes one untimed run per
seed, so what a side keeps on its kernel between runs is built before the
timed rounds, and those time replica after replica of one ensemble.

In-process times miss what depends on the allocator's state: glibc raises
its mmap and trim thresholds once a large block is freed, so the engine's
per-step temporaries cost more in a process that never freed one. With
``--fresh N`` the script instead times whole ``run_population`` runs of the
er1000 case, each in a new interpreter, N per side, once straight after
set-up and once after a ``mixing_profile`` of the graph (as the
er1000_motion benchmark workload runs it). With ``--baseline`` the sides
alternate run by run and take turns going first; each row prints the
medians and the number of run pairs this package won.

    PYTHONPATH=src python scripts/step_timing.py [--baseline SRC] [--fresh N]
                                                 [--fold-bytes B] [--case NAME ...]
                                                 [--json PATH]

``--case`` times only the named cases; ``--json`` also writes the printed
rows to a file as a JSON list, one object per row (``scripts/bench_record.py
--step-timing`` stores them in a BENCH file).
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np

import srrw.graphs
import srrw.population
import srrw.return_time
from srrw.config import resolve_config

CASES = {
    "explode_k4": {
        "graph": {"generator": {"kind": "complete", "n": 4}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.15},
        "simulation": {"Z_0": 20, "horizon": 10_000, "Z_cap": 100_000, "seed": 1},
    },
    "mixed_k4": {
        "graph": {"generator": {"kind": "complete", "n": 4}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": [1, 1, 3, 3], "A_s": 1, "q_fork": 0.15, "q_term": 0.1},
        "simulation": {"Z_0": 20, "horizon": 300, "seed": 1},
    },
    "corridor_er30": {
        "graph": {"generator": {"kind": "erdos_renyi", "n": 30, "p": 0.15, "seed": 1}},
        "traps": {"nodes": "all", "zeta": 0.05},
        "policy": {"regime": {
            "Z_low": 20, "Z_high": 200,
            "low": {"A_l": 1, "q_fork": 0.15},
            "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.10},
        }},
        "simulation": {"Z_0": 60, "horizon": 5_000, "seed": 1, "collect_age_law": True},
    },
    "er1000": {
        "graph": {"generator": {"kind": "erdos_renyi", "n": 1000, "p": 0.01, "seed": 0}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.02},
        "simulation": {"Z_0": 10_000, "horizon": 100, "seed": 1},
    },
    "star300": {
        "graph": {"generator": {"kind": "star", "n": 300}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.02},
        "simulation": {"Z_0": 3_000, "horizon": 100, "seed": 1},
    },
    "mixed_star300": {
        "graph": {"generator": {"kind": "star", "n": 300}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 4, "A_s": 2, "q_fork": 0.5, "q_term": 0.01},
        "simulation": {"Z_0": 450, "horizon": 100, "seed": 1},
    },
    "k150": {
        "graph": {"generator": {"kind": "complete", "n": 150}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.02},
        "simulation": {"Z_0": 1_500, "horizon": 100, "seed": 1},
    },
}
ORDERS = ("trap_first", "policy_first")
# the return-time case: the graph of a case, the start node and the walker count
RETURN_TIME = ("corridor_er30", 0, 20_000)
STATES = 300  # recorded states per case and order
ROUNDS = 5  # timed calls per recorded state
# the replica case: the case whose whole runs it times, and its replica count
REPLICAS = ("explode_k4", 40)
# the fresh-interpreter case and the mixing target of the er1000_motion workload
FRESH = ("er1000", 0.125)
# one whole run in a new interpreter; argv: the case config, the target or "none"
FRESH_RUN = """\
import json, sys, time
import srrw.graphs, srrw.population
from srrw.config import resolve_config
resolved = resolve_config({"laziness": 0.5, **json.loads(sys.argv[1])})
if sys.argv[2] != "none":
    srrw.graphs.mixing_profile(resolved.kernel, target=float(sys.argv[2]))
sim = resolved.simulation
start = time.perf_counter()
srrw.population.run_population(resolved.kernel, resolved.policy, resolved.traps,
                               z0=sim["Z_0"], horizon=sim["horizon"], rng_seed=sim["seed"],
                               z_cap=sim["Z_cap"])
print(time.perf_counter() - start)
"""


def load_package(src: str):
    """Import the srrw package under ``src`` as the module ``srrw_baseline``."""
    spec = importlib.util.spec_from_file_location(
        "srrw_baseline", f"{src}/srrw/__init__.py", submodule_search_locations=[f"{src}/srrw"])
    module = importlib.util.module_from_spec(spec)
    sys.modules["srrw_baseline"] = module
    spec.loader.exec_module(module)
    return module


def specs_of(policy) -> list:
    return [policy.low, policy.high] if hasattr(policy, "low") else [policy]


def record_states(config: dict, order: str,
                  limit: int) -> tuple[list[tuple], float, float]:
    """(state, index of the spec) of up to ``limit`` steps spread over one run, and the
    shares of the run's steps drawn per token and drawn folded."""
    resolved = resolve_config({"laziness": 0.5, **config})
    sim = resolved.simulation
    specs = specs_of(resolved.policy)
    seen = []
    per_token = []
    folded = []
    real = srrw.population.step

    def recording(state, rows, spec, rng, age_law=None):
        seen.append((state, next(i for i, s in enumerate(specs) if s is spec)))
        per_token.append(rows.node_rows(spec).sparse(state.counts[state.counts.nonzero()]))
        folded.append(rows.folded)
        return real(state, rows, spec, rng, age_law)

    srrw.population.step = recording
    try:
        srrw.population.run_population(resolved.kernel, resolved.policy, resolved.traps,
                                       z0=sim["Z_0"], horizon=sim["horizon"],
                                       rng_seed=sim["seed"], z_cap=sim["Z_cap"], order=order)
    finally:
        srrw.population.step = real
    picks = np.unique(np.linspace(0, len(seen) - 1, min(limit, len(seen))).astype(int))
    return [seen[i] for i in picks], float(np.mean(per_token)), float(np.mean(folded))


def record_moves(config: dict, u: int, walkers: int, limit: int) -> list[tuple]:
    """(counts,) of up to ``limit`` walk steps spread over one return-time sample."""
    kernel = resolve_config({"laziness": 0.5, **config}).kernel
    table = kernel.neighbour_table()
    seen = []
    real = table.move

    def recording(counts, rng):
        seen.append((counts.copy(),))
        return real(counts, rng)

    table.move = recording
    try:
        srrw.return_time.sample_return_times(kernel, u, walkers, rng_seed=1)
    finally:
        del table.move
    picks = np.unique(np.linspace(0, len(seen) - 1, min(limit, len(seen))).astype(int))
    return [seen[i] for i in picks]


class Side:
    """One package's step with its own rows, specs, age law and generator."""

    UNIT = ("us/step", 1e6, "us_per_step_p50")  # the printed unit, its scale and JSON key

    def __init__(self, package, config: dict, order: str):
        config_module, policy, self.population = (
            importlib.import_module(f"{package.__name__}.{name}")
            for name in ("config", "policy", "population"))
        resolved = config_module.resolve_config({"laziness": 0.5, **config})
        self.rows = self.population.StepRows(resolved.kernel, resolved.traps, order)
        self.specs = specs_of(resolved.policy)
        collect = config["simulation"].get("collect_age_law", False)
        self.law = policy.AgeLaw(resolved.kernel.node_count) if collect else None
        self.rng = np.random.default_rng(0)
        self.times = []

    def warm_up(self, states: list[tuple]) -> None:
        """Build the node rows of every spec, and the alias tables of every age region, that
        the states use: one untimed step on each state."""
        for state, spec_index in states:
            self.time_step(state, spec_index)
        self.times.clear()

    def time_step(self, state, spec_index: int) -> None:
        step, clock = self.population.step, time.perf_counter
        start = clock()
        step(state, self.rows, self.specs[spec_index], self.rng, self.law)
        self.times.append(clock() - start)


class ReplicaSide:
    """One package's whole runs of a case, one per seed, on one resolved kernel."""

    UNIT = ("ms/run", 1e3, "ms_per_replica_p50")

    def __init__(self, package, config: dict, order: str):
        config_module, self.population = (importlib.import_module(f"{package.__name__}.{name}")
                                          for name in ("config", "population"))
        self.resolved = config_module.resolve_config({"laziness": 0.5, **config})
        self.order = order
        self.times = []

    def warm_up(self, seeds: list[tuple]) -> None:
        """One untimed run per seed: the kernel's tables, and what it keeps between runs."""
        for call in seeds:
            self.time_step(*call)
        self.times.clear()

    def time_step(self, seed: int) -> None:
        r, sim = self.resolved, self.resolved.simulation
        run, clock = self.population.run_population, time.perf_counter
        start = clock()
        run(r.kernel, r.policy, r.traps, z0=sim["Z_0"], horizon=sim["horizon"], rng_seed=seed,
            z_cap=sim["Z_cap"], order=self.order)
        self.times.append(clock() - start)


class MoveSide:
    """One package's walk step with its own neighbour table and generator."""

    UNIT = Side.UNIT

    def __init__(self, package, config: dict):
        config_module = importlib.import_module(f"{package.__name__}.config")
        resolved = config_module.resolve_config({"laziness": 0.5, **config})
        self.table = resolved.kernel.neighbour_table()
        self.rng = np.random.default_rng(0)
        self.times = []

    def warm_up(self, states: list[tuple]) -> None:
        pass  # the table is built in __init__

    def time_step(self, counts) -> None:
        move, clock = self.table.move, time.perf_counter
        start = clock()
        move(counts, self.rng)
        self.times.append(clock() - start)


def fresh_run(src: str, target: str) -> float:
    """Seconds of one ``run_population`` of the fresh case in a new interpreter on ``src``."""
    name, _ = FRESH
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(CASES[name]), target],
                         env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


def time_fresh(runs: int, baseline: str | None) -> None:
    srcs = [os.path.dirname(os.path.dirname(os.path.abspath(srrw.__file__)))]
    if baseline is not None:
        srcs.append(baseline)
    name, target = FRESH
    print(f"{name} run_population, ms; {runs} run(s) per side, each in a new interpreter")
    header = f"{'prior profile':<15} {'p50':>8}"
    if baseline is not None:
        header += f" {'baseline p50':>13} {'ratio':>6} {'wins':>6}"
    print(header)
    for label, arg in (("none", "none"), (f"target {target}", str(target))):
        times = [[] for _ in srcs]
        for k in range(runs):
            for i in range(len(srcs))[::-1] if k % 2 else range(len(srcs)):
                times[i].append(fresh_run(srcs[i], arg))
        p50 = [1e3 * float(np.median(t)) for t in times]
        line = f"{label:<15} {p50[0]:>8.1f}"
        if baseline is not None:
            wins = sum(a < b for a, b in zip(*times))
            line += f" {p50[1]:>13.1f} {p50[0] / p50[1]:>6.2f} {wins:>3}/{runs}"
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="src directory of another srrw to time alongside")
    parser.add_argument("--fresh", type=int, metavar="N",
                        help="time whole er1000 runs in N new interpreters per side instead")
    parser.add_argument("--fold-bytes", type=int, metavar="B",
                        help="this package's fold budget, population.FOLD_BYTES")
    parser.add_argument("--case", action="append",
                        choices=[*CASES, "return_time", "explode_k4_replica"],
                        help="time only this case (repeatable; default: all)")
    parser.add_argument("--json", metavar="PATH", help="also write the rows to PATH as JSON")
    args = parser.parse_args(argv)
    if args.fold_bytes is not None:
        srrw.population.FOLD_BYTES = args.fold_bytes
    if args.fresh is not None:
        if args.fresh < 1:
            parser.error("--fresh needs N >= 1")
        time_fresh(args.fresh, args.baseline)
        return 0
    baseline = load_package(args.baseline) if args.baseline else None
    cases = args.case or [*CASES, "return_time", "explode_k4_replica"]

    jobs = []
    for name, config in CASES.items():
        for order in ORDERS if name in cases else ():
            states, per_token, folded = record_states(config, order, STATES)
            sides = [Side(srrw, config, order)]
            if baseline is not None:
                sides.append(Side(baseline, config, order))
            jobs.append((name, order, states, per_token, folded, sides))
    if "return_time" in cases:
        name, u, walkers = RETURN_TIME
        config = CASES[name]
        sides = [MoveSide(srrw, config)]
        if baseline is not None:
            sides.append(MoveSide(baseline, config))
        jobs.append(("return_time", None, record_moves(config, u, walkers, STATES), None, None,
                     sides))
    for order in ORDERS if "explode_k4_replica" in cases else ():
        name, replicas = REPLICAS
        config = CASES[name]
        seeds = [(config["simulation"]["seed"] + r,) for r in range(replicas)]
        sides = [ReplicaSide(srrw, config, order)]
        if baseline is not None:
            sides.append(ReplicaSide(baseline, config, order))
        jobs.append(("explode_k4_replica", order, seeds, None, None, sides))
    # build each side's tables and node rows before timing
    for *_, states, _, _, sides in jobs:
        for side in sides:
            side.warm_up(states)
    for _ in range(ROUNDS):
        for *_, states, _, _, sides in jobs:
            for k, call in enumerate(states):
                # the first call on a state runs slower, so the sides take turns going first
                for side in sides[::-1] if k % 2 else sides:
                    side.time_step(*call)

    header = (f"{'case':<18} {'order':<13} {'states':>6} {'per-token':>9} {'folded':>6}"
              f" {'unit':>8} {'p50':>9}")
    if baseline is not None:
        header += f" {'baseline p50':>13} {'ratio':>6} {'round ratios':>12}"
    print(header)
    rows = []
    for name, order, states, per_token, folded, sides in jobs:
        unit, scale, key = sides[0].UNIT
        p50 = [scale * float(np.median(side.times)) for side in sides]
        row = {"case": name, "order": order, "states": len(states), "per_token": per_token,
               "folded": folded, key: p50[0]}
        line = (f"{name:<18} {order or '-':<13} {len(states):>6}"
                + "".join(f" {'-' if v is None else f'{v:.2f}':>{width}}"
                          for v, width in ((per_token, 9), (folded, 6)))
                + f" {unit:>8} {p50[0]:>9.1f}")
        if baseline is not None:
            # the ratio of the sides' medians within each round, and its spread over rounds
            rounds = np.divide(*(np.median(np.reshape(side.times, (ROUNDS, -1)), axis=1)
                                 for side in sides))
            row.update({f"baseline_{key}": p50[1]}, ratio=float(np.median(rounds)),
                       round_ratio_min=float(rounds.min()), round_ratio_max=float(rounds.max()))
            line += (f" {p50[1]:>13.1f} {row['ratio']:>6.2f}"
                     f" {rounds.min():>7.2f}-{rounds.max():.2f}")
        rows.append(row)
        print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
