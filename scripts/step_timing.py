"""Time srrw's costly layers one at a time, in process: the median cost of one call per case.

Each case measures one kind of call, made by a factory that, given a
package, returns the measured call and its unit (``TABLE`` lists them):

- the engine cases (``CASES``), in both event orders, time one
  ``population.step`` (microseconds per step), without the age law, on a
  fresh copy, made outside the clock, of each of up to ``STATES`` states
  recorded over one run of the case and spread evenly over it; the step
  includes the sum of the tokens of the state it leaves (``alive``);
- ``return_time`` does the same for ``NeighbourTable.move`` over one
  ``sample_return_times`` call: the 20k walkers of the corridor graph's
  envelope fit, started at node 0, until all have returned;
- ``tail_draw`` times the whole sampling of that fit, one call per seed:
  20k return times at each of the 30 nodes through
  ``cli.return_time_samples``, which computes every node's taboo spectrum
  and draws from the exact law (milliseconds per call);
- the replica cases time whole ``run_population`` runs (milliseconds per
  run), one per seed, on one resolved kernel per side and event order, as
  the benchmark workloads and ``srrw check`` run them: what recorded states
  cannot see, run start and the age law, is in them;
- the profile cases (all of them: ``--case mixing_profile``) time one
  ``graphs.mixing_profile`` on one kernel per side (milliseconds per profile);
- the memory cases (both: ``--case memory``) report the ``tracemalloc``
  peak, in megabytes, of a profile to TV 1/8 on a fresh ER(1000, 0.01)
  kernel per call, alone and after the set-up reads of the er1000_motion
  benchmark workload. A package that keeps dense arrays on the kernel shows
  them here, which the benchmark's ``graphs.kernel_bytes`` cannot.

An engine case also prints the shares of its run's steps drawn per token
(``AliasRows.sparse``), not by multinomial, and folded (``StepRows.folded``:
fork pairs in the node draw), not in two stages. ``--fold-bytes B`` sets
this package's fold budget ``population.FOLD_BYTES`` to B; against this same
``src`` as the baseline, it times folded steps against two-stage ones on the
same states, which is how the budget is set.

Each side first makes its case's warm-up calls untimed (``Case.warm_up``),
so what it keeps on its kernel is built before the rounds; each of the
``ROUNDS`` rounds then makes each call of every case once, so the machine's
fast and slow phases fall on all of them alike. With ``--baseline SRC`` the
srrw package under SRC (the ``src`` of srrw 0.8.0, 48db4ec, or later) is
loaded as a second module and measured on the same calls, alternating with
this one call by call and taking turns to go first, call by call and round
by round, since a state's first call runs slower. Each case then prints the
median of the per-round ratios of the two sides' medians (``ratio``), and
their lowest and highest, the round-to-round spread. Only calls made close
in time are paired, so a phase change of the machine between rounds does
not move the ratio.

In-process times miss what depends on the allocator's state: glibc raises
its mmap and trim thresholds once a large block is freed, so the engine's
per-step temporaries cost more in a process that never freed one.
``--fresh N`` instead times N whole ``run_population`` runs of the er1000
case per side, each in a new interpreter, once straight after set-up and
once after a ``mixing_profile`` of the graph, as the er1000_motion workload
runs it; with ``--baseline`` the sides alternate and take turns going
first, and each row prints the medians and the run pairs this package won.

    PYTHONPATH=src python scripts/step_timing.py [--baseline SRC] [--fresh N]
                                                 [--fold-bytes B] [--case NAME ...]
                                                 [--json PATH]

``--case`` times only the named cases; ``--json`` also writes the printed
rows to a file as a JSON list, one object per row (``scripts/bench_record.py
--step-timing`` stores them in a BENCH file). A new case is one ``TABLE``
entry, and a new kind of case one factory more.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import namedtuple

import numpy as np

import srrw.population
import srrw.return_time

CASES = {
    # acceptance criterion 08's explosion on K4: Z from 20 to the 100k cap
    "explode_k4": {
        "graph": {"generator": {"kind": "complete", "n": 4}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.15},
        "simulation": {"Z_0": 20, "horizon": 10_000, "Z_cap": 100_000, "seed": 1},
    },
    # mixed triggers: two nodes fork at every visit, two terminate at age 1 and fork from age 3
    "mixed_k4": {
        "graph": {"generator": {"kind": "complete", "n": 4}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": [1, 1, 3, 3], "A_s": 1, "q_fork": 0.15, "q_term": 0.1},
        "simulation": {"Z_0": 20, "horizon": 300, "seed": 1},
    },
    # the corridor experiment's regime config
    "corridor_er30": {
        "graph": {"generator": {"kind": "erdos_renyi", "n": 30, "p": 0.15, "seed": 1}},
        "traps": {"nodes": "all", "zeta": 0.05},
        "policy": {"regime": {
            "Z_low": 20, "Z_high": 200,
            "low": {"A_l": 1, "q_fork": 0.15},
            "high": {"A_l": 2**40, "A_s": 2**40 - 1, "q_fork": 0.0, "q_term": 0.10},
        }},
        "simulation": {"Z_0": 60, "horizon": 5_000, "seed": 1},
    },
    # Z of about 10k on ER(1000, 0.01)
    "er1000": {
        "graph": {"generator": {"kind": "erdos_renyi", "n": 1000, "p": 0.01, "seed": 0}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.02},
        "simulation": {"Z_0": 10_000, "horizon": 100, "seed": 1},
    },
    # a hub at 10 tokens per node: rows as wide as the graph
    "star300": {
        "graph": {"generator": {"kind": "star", "n": 300}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.02},
        "simulation": {"Z_0": 3_000, "horizon": 100, "seed": 1},
    },
    # forks from age 4, terminations up to age 2: each step reads every node's age region
    "mixed_star300": {
        "graph": {"generator": {"kind": "star", "n": 300}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 4, "A_s": 2, "q_fork": 0.5, "q_term": 0.01},
        "simulation": {"Z_0": 450, "horizon": 100, "seed": 1},
    },
    # dense, at 10 tokens per node
    "k150": {
        "graph": {"generator": {"kind": "complete", "n": 150}},
        "traps": {"nodes": "all", "zeta": 0.02},
        "policy": {"A_l": 1, "q_fork": 0.02},
        "simulation": {"Z_0": 1_500, "horizon": 100, "seed": 1},
    },
}
ORDERS = ("trap_first", "policy_first")
STATES = 300  # recorded states per case and order
ROUNDS = 5  # timed calls per recorded state
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


def submodule(package, name: str):
    return importlib.import_module(f"{package.__name__}.{name}")


def resolved_by(package, config: dict):
    """``config`` at laziness 1/2, resolved by ``package``."""
    return submodule(package, "config").resolve_config({"laziness": 0.5, **config})


def specs_of(policy) -> list:
    return [policy.low, policy.high] if hasattr(policy, "low") else [policy]


def record(owner, name: str, run, keep) -> tuple:
    """Run ``run()`` with ``owner.<name>`` patched to keep ``keep(*args)``, a (call, shares)
    pair, of each call it gets: the calls of up to ``STATES`` of them spread evenly over the
    run, and the mean of each of the two shares over all of them (None without shares)."""
    real, kept = getattr(owner, name), []

    def recording(*args):
        kept.append(keep(*args))
        return real(*args)

    setattr(owner, name, recording)
    try:
        run()
    finally:
        setattr(owner, name, real)
    picks = np.unique(np.linspace(0, len(kept) - 1, min(STATES, len(kept))).astype(int))
    shares = [float(np.mean(share)) for share in zip(*(shares for _, shares in kept))]
    return [kept[i][0] for i in picks], *(shares or (None, None))


def record_states(config: dict, order: str) -> tuple[list[tuple], float, float]:
    """(state, index of the spec) of steps spread over one run, and the shares of the run's
    steps drawn per token and drawn folded."""
    resolved = resolved_by(srrw, config)
    sim, specs = resolved.simulation, specs_of(resolved.policy)

    def keep(state, rows, spec, rng, age_law):
        return ((state.copy(), next(i for i, s in enumerate(specs) if s is spec)),
                (rows.node_rows(spec).sparse(state.alive, np.count_nonzero(state.counts)),
                 rows.folded))

    return record(srrw.population, "step", lambda: (
        srrw.population.run_population(resolved.kernel, resolved.policy, resolved.traps,
                                       z0=sim["Z_0"], horizon=sim["horizon"],
                                       rng_seed=sim["seed"], z_cap=sim["Z_cap"], order=order)),
        keep)


def record_moves(config: dict, u: int, walkers: int) -> tuple[list[tuple], None, None]:
    """(counts,) of walk steps spread over one return-time sample of ``walkers`` from ``u``."""
    kernel = resolved_by(srrw, config).kernel
    return record(kernel.neighbour_table(), "move", lambda: (
        srrw.return_time.sample_return_times(kernel, u, walkers, rng_seed=1)),
        lambda counts, rng: ((counts.copy(),), ()))


def clocked(call):
    """``call`` as a measured call: it returns the seconds ``call`` took."""
    clock = time.perf_counter

    def measure(*args):
        start = clock()
        call(*args)
        return clock() - start
    return measure


# The factories of TABLE: each returns the measured call and its unit (label, scale, JSON key).

def step_call(package, order: str, config: dict):
    """One ``step`` with the package's own rows, specs and generator, on a fresh copy of a
    recorded state made outside the clock."""
    resolved, population = resolved_by(package, config), submodule(package, "population")
    rows = population.StepRows(resolved.kernel, resolved.traps, order)
    specs, rng, step, clock = (specs_of(resolved.policy), np.random.default_rng(0),
                               population.step, time.perf_counter)

    def measure(state, spec_index: int) -> float:
        state, spec = state.copy(), specs[spec_index]
        start = clock()
        step(state, rows, spec, rng)
        return clock() - start
    return measure, ("us/step", 1e6, "us_per_step_p50")


def replica_call(package, order: str, config: dict, collect: bool):
    """One whole ``run_population`` of the case on one resolved kernel, given the seed; with
    the age law collected after a burn-in of the kernel's mixing time when ``collect``."""
    r, run = resolved_by(package, config), submodule(package, "population").run_population
    sim, burn_in = r.simulation, r.t_mix if collect else 0
    return clocked(lambda seed: run(
        r.kernel, r.policy, r.traps, z0=sim["Z_0"], horizon=sim["horizon"], rng_seed=seed,
        z_cap=sim["Z_cap"], order=order, collect_age_law=collect, age_law_burn_in=burn_in)), (
        "ms/run", 1e3, "ms_per_replica_p50")


def move_call(package, order: None, config: dict):
    """One walk step with the package's own neighbour table and generator."""
    table, rng = resolved_by(package, config).kernel.neighbour_table(), np.random.default_rng(0)
    return clocked(lambda counts: table.move(counts, rng)), ("us/step", 1e6, "us_per_step_p50")


def fit_call(package, order: None, config: dict, n_samples: int):
    """One ``cli.return_time_samples``, given the seed: the envelope fit's return times at
    every node, as the package's ``srrw check`` takes them."""
    kernel = resolved_by(package, config).kernel
    sample = submodule(package, "cli").return_time_samples
    return clocked(lambda seed: sample(kernel, n_samples, seed)), (
        "ms/call", 1e3, "ms_per_call_p50")


def fresh_kernel(graphs, generator: dict):
    """A new lazy kernel, laziness 1/2, of the graph ``generator`` names, made by ``graphs``."""
    make = graphs.GENERATORS[generator["kind"]]
    return graphs.lazy_kernel(make(*(generator[key] for key in ("n", "p", "seed")
                                     if key in generator)), 0.5)


def profile_call(package, order: None, generator: dict, target: float):
    """One ``graphs.mixing_profile`` to ``target`` of one lazy kernel of the graph."""
    graphs = submodule(package, "graphs")
    kernel = fresh_kernel(graphs, generator)
    return clocked(lambda: graphs.mixing_profile(kernel, target=target)), (
        "ms/prof", 1e3, "ms_per_profile_p50")


def memory_call(package, order: None, reads: tuple[str, ...]):
    """The ``tracemalloc`` peak, in bytes, of the kernel methods ``reads`` and then a profile
    to TV 1/8, on a fresh ER(1000, 0.01) kernel per call."""
    graphs = submodule(package, "graphs")

    def measure() -> int:
        kernel = fresh_kernel(graphs, CASES["er1000"]["graph"]["generator"])
        tracemalloc.start()
        try:
            for read in reads:
                getattr(kernel, read)()
            graphs.mixing_profile(kernel, target=0.125)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure, ("MB", 2.0**-20, "peak_mb_p50")


# One case: its factory and the factory's arguments after the package and the order; its event
# orders ((None,): one row without one); its calls, or a function of the order that records them
# and gives the shares drawn per token and folded; the calls each warm-up makes (None: all).
Case = namedtuple("Case", "factory args orders calls warm_up", defaults=((None,), ((),), 1))


def replicas(name: str, count: int, collect: bool) -> Case:
    """Whole runs of the engine case ``name``, ``count`` of them, from its seed on."""
    config = CASES[name]
    return Case(replica_call, (config, collect), ORDERS,
                [(config["simulation"]["seed"] + k,) for k in range(count)], None)


# every case, in the order of its rows
TABLE = {
    **{name: Case(step_call, (config,), ORDERS, functools.partial(record_states, config), None)
       for name, config in CASES.items()},
    "return_time": Case(move_call, (CASES["corridor_er30"],), warm_up=0,
                        calls=lambda order: record_moves(CASES["corridor_er30"], 0, 20_000)),
    "tail_draw": Case(fit_call, (CASES["corridor_er30"], 20_000),
                      calls=[(seed,) for seed in (1_000_003, 2_000_003, 3_000_003)]),
    "explode_k4_replica": replicas("explode_k4", 40, False),
    "corridor_er30_replica": replicas("corridor_er30", 8, True),
    "corridor_er30_nolaw_replica": replicas("corridor_er30", 8, False),
    "profile_er30": Case(profile_call, (CASES["corridor_er30"]["graph"]["generator"], 1e-10)),
    "profile_er1000": Case(profile_call, (CASES["er1000"]["graph"]["generator"], 0.125)),
    "profile_er1000_deep": Case(profile_call, (CASES["er1000"]["graph"]["generator"], 1e-6)),
    "profile_star300": Case(profile_call, (CASES["star300"]["graph"]["generator"], 1e-10)),
    "profile_k400": Case(profile_call, ({"kind": "complete", "n": 400}, 1e-10)),
    "profile_cycle300": Case(profile_call, ({"kind": "cycle", "n": 300}, 0.125)),
    "memory_er1000_profile": Case(memory_call, ((),), warm_up=0),
    "memory_perfbench_setup": Case(
        memory_call, (("cumulative_rows", "base_cumulative_rows"),), warm_up=0),
}
# the names that time every case whose name starts with the prefix
GROUPS = {"mixing_profile": "profile_", "memory": "memory_"}


class Side:
    """One package's measured call of one case, its warm-up calls and its measurements:
    seconds, or bytes in the memory cases."""

    def __init__(self, made: tuple, warm_calls):
        (self.measure, self.unit), self.warm_calls, self.times = made, warm_calls, []

    def warm_up(self) -> None:
        for call in self.warm_calls:
            self.measure(*call)

    def run(self, call: tuple) -> None:
        self.times.append(self.measure(*call))


def fresh_run(src: str, target: str) -> float:
    """Seconds of one ``run_population`` of the fresh case in a new interpreter on ``src``."""
    name, _ = FRESH
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", FRESH_RUN, json.dumps(CASES[name]), target],
                         env=env, capture_output=True, text=True, check=True).stdout
    return float(out)


def time_fresh(runs: int, baseline: str | None) -> None:
    srcs = [os.path.dirname(os.path.dirname(os.path.abspath(srrw.__file__))),
            *([baseline] if baseline is not None else [])]
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
    parser.add_argument("--case", action="append", choices=[*TABLE, *GROUPS],
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
    packages = [srrw] + ([load_package(args.baseline)] if args.baseline else [])
    picked = args.case or [*TABLE]
    prefixes = tuple(GROUPS[name] for name in picked if name in GROUPS)

    jobs = []
    for name, case in TABLE.items():
        for order in case.orders if name in picked or name.startswith(prefixes) else ():
            calls, per_token, folded = (case.calls(order) if callable(case.calls)
                                        else (case.calls, None, None))
            sides = [Side(case.factory(package, order, *case.args), calls[:case.warm_up])
                     for package in packages]
            jobs.append((name, order, calls, per_token, folded, sides))
    # build what each side keeps on its kernel before timing
    for *_, sides in jobs:
        for side in sides:
            side.warm_up()
    for r in range(ROUNDS):
        for *_, calls, _, _, sides in jobs:
            for k, call in enumerate(calls, start=r):
                # the first call on a state runs slower, so the sides take turns going first
                for side in sides[::-1] if k % 2 else sides:
                    side.run(call)

    header = (f"{'case':<27} {'order':<13} {'states':>6} {'per-token':>9} {'folded':>6}"
              f" {'unit':>8} {'p50':>9}")
    if len(packages) > 1:
        header += f" {'baseline p50':>13} {'ratio':>6} {'round ratios':>12}"
    print(header)
    rows = []
    for name, order, calls, per_token, folded, sides in jobs:
        unit, scale, key = sides[0].unit
        p50 = [scale * float(np.median(side.times)) for side in sides]
        row = {"case": name, "order": order, "states": len(calls), "per_token": per_token,
               "folded": folded, key: p50[0]}
        line = (f"{name:<27} {order or '-':<13} {len(calls):>6}"
                + "".join(f" {'-' if v is None else f'{v:.2f}':>{width}}"
                          for v, width in ((per_token, 9), (folded, 6)))
                + f" {unit:>8} {p50[0]:>9.1f}")
        if len(sides) > 1:
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
