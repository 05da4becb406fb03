import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import srrw.graphs
import srrw.population
from srrw.errors import InsufficientDataError, ParameterError
from srrw.graphs import (
    AliasRows,
    ForkTable,
    Graph,
    NeighbourTable,
    alias_tables,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    lazy_kernel,
    mixing_profile,
    path_graph,
    star_graph,
)
from srrw.policy import AGE_LAW_CAP, FORK, PASS, TERM, AgeLaw, PolicySpec, RegimePolicy
from srrw.population import (
    BlockPlan,
    PopulationState,
    PopulationTrace,
    StepRows,
    TrapProfile,
    block_drift,
    gw_baseline,
    occupancy_check,
    run_population,
    step,
    step_rows,
)
import step_v020
from oracles import HeldDense, gw_extinction_probability, sign_agreement
from token_engine import run_tokens

K4 = lazy_kernel(complete_graph(4), 0.5)


def passive(n):
    return PolicySpec.uniform(n, a_long=2.0**40, q_fork=0.0)


ORACLE_GRAPHS = {
    "K4": lambda: complete_graph(4),
    "er30": lambda: erdos_renyi_graph(30, 0.15, seed=1),
    "star9": lambda: star_graph(9),
    "path6": lambda: path_graph(6),
    "weighted": lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
                                    [1.0, 2.5, 0.3, 7.0, 0.01]),
}


class TestPlacement:
    def test_uniform_ignores_pi(self):
        # pi puts half the tokens on star(9)'s hub; uniform placement puts z0/9 everywhere
        k = lazy_kernel(star_graph(9), 0.5)
        z0 = 9000
        counts = PopulationState.initial(k, z0, "uniform", np.random.default_rng(21)).counts
        se = math.sqrt(z0 * (1 / 9) * (8 / 9))
        assert counts.sum() == z0
        assert np.all(np.abs(counts - z0 / 9) < 5 * se)


class TestTrapProfile:
    def test_absorption_pressure(self):
        traps = TrapProfile.uniform(4, 0.1)
        assert traps.absorption_pressure(K4.pi) == pytest.approx(0.1)

    def test_from_map(self):
        traps = TrapProfile.from_map(4, {2: 1.0})
        assert traps.absorption_pressure(K4.pi) == pytest.approx(0.25)

    def test_range_check(self):
        with pytest.raises(ParameterError):
            TrapProfile(np.array([0.5, 1.5]))

    @pytest.mark.parametrize("zeta", [np.full((4, 4), 0.1), np.float64(0.1), [[0.1, 0.2]]])
    def test_one_probability_per_node(self, zeta):
        # a 2-d profile on K4 read as an absorption pressure of 0.4, then failed in the engine
        with pytest.raises(ParameterError, match="one deletion probability per node"):
            TrapProfile(zeta)

    @pytest.mark.parametrize("node", [-1, 1.5, 4, 7, True, "1"])
    def test_from_map_takes_node_ids_alone(self, node):
        # -1 set node 3, 1.5 node 1, and 7 raised IndexError
        with pytest.raises(ParameterError, match="not a node id in 0..3"):
            TrapProfile.from_map(4, {node: 0.5})

    def test_from_map_takes_integral_ids(self):
        assert TrapProfile.from_map(4, {np.int64(1): 0.5, 3.0: 0.2}).zeta.tolist() == [
            0.0, 0.5, 0.0, 0.2]

    @pytest.mark.parametrize("zeta", [[0.5, math.nan], [math.nan, math.nan]])
    def test_nan_rejected(self, zeta):
        with pytest.raises(ParameterError, match="deletion probabilities"):
            TrapProfile(np.array(zeta))
        with pytest.raises(ParameterError, match="deletion probabilities"):
            TrapProfile.from_map(2, {1: math.nan})


def at_time(time, counts, last_visit=None):
    """A population state at ``time`` (never-visited clocks when ``last_visit`` is omitted)."""
    n = len(counts)
    last_visit = np.zeros(n, dtype=np.int64) if last_visit is None else np.asarray(last_visit)
    return PopulationState(time, np.asarray(counts), last_visit)


class TestStep:
    def test_single_token_certain_trap(self):
        rng = np.random.default_rng(0)
        state = PopulationState.initial(K4, 1, "pi", rng)
        forks, dels, terms = step(state, StepRows(K4, TrapProfile.uniform(4, 1.0)), passive(4), rng)
        assert state.alive == 0 and (forks, dels, terms) == (0, 1, 0)
        assert state.time == 1

    def test_certain_fork_duplicates(self):
        rng = np.random.default_rng(1)
        spec = PolicySpec.uniform(4, a_long=0.0, q_fork=1.0)
        state = PopulationState.initial(K4, 3, "pi", rng)
        forks, _, _ = step(state, StepRows(K4, TrapProfile.none(4)), spec, rng)
        assert state.alive == 6 and forks == 3

    def test_conservation_per_step(self):
        rng = np.random.default_rng(2)
        spec = PolicySpec.uniform(4, a_long=2.0, q_fork=0.4, a_short=1.0, q_term=0.2)
        rows = StepRows(K4, TrapProfile.uniform(4, 0.1))
        state = PopulationState.initial(K4, 40, "pi", rng)
        for _ in range(200):
            if state.alive == 0:
                break
            before = state.alive
            forks, dels, terms = step(state, rows, spec, rng)
            assert state.alive == before + forks - dels - terms == state.counts.sum()

    def test_step_advances_the_state_in_place(self):
        # the state's counts are replaced and its clocks updated where they stand; a copy
        # keeps the tick it was taken at
        rng = np.random.default_rng(3)
        state = PopulationState.initial(K4, 5, "pi", rng)
        counts, clocks = state.counts, state.last_visit
        before = state.copy()
        step(state, StepRows(K4, TrapProfile.none(4)), passive(4), rng)
        assert state.time == 1 and state.last_visit is clocks and state.counts is not counts
        assert np.array_equal(state.last_visit, (before.counts > 0).astype(int))
        assert state.alive == state.counts.sum() == 5
        assert before.time == 0 and np.array_equal(before.counts, counts)
        assert not before.last_visit.any() and before.counts is not counts

    def test_clock_updates_visited_nodes_only(self):
        rng = np.random.default_rng(4)
        state = at_time(0, [0, 0, 2, 0])
        step(state, StepRows(K4, TrapProfile.none(4)), passive(4), rng)
        assert state.last_visit[2] == 1
        assert all(state.last_visit[u] == 0 for u in (0, 1, 3))

    @staticmethod
    def visit_age(state):
        """The age the one occupied node of ``state`` is visited at in the next step."""
        law = AgeLaw(4)
        occupied, alive = state.counts > 0, state.alive
        step(state, StepRows(K4, TrapProfile.none(4)), passive(4), np.random.default_rng(5),
             age_law=law)
        assert law.counts.sum() == alive
        return int(np.flatnonzero(law.counts[occupied][0])[0])

    def test_never_visited_age_is_elapsed_time(self):
        assert self.visit_age(at_time(6, [0, 1, 0, 0])) == 7

    def test_revisit_age(self):
        assert self.visit_age(at_time(9, [0, 0, 1, 0], [0, 0, 3, 0])) == 7


class TestStepMemory:
    """One step's temporaries stay within a few copies of its gathered node rows."""

    @staticmethod
    def peak_over_gathered(order, tokens, sparse, graph=None):
        """One step's ``tracemalloc`` peak over its gathered node rows, on ``graph`` (default
        ER(1000, 0.01)) with ``tokens`` tokens at every node, which draw per token exactly when
        ``sparse``."""
        graph = erdos_renyi_graph(1000, 0.01, seed=0) if graph is None else graph
        kernel = lazy_kernel(graph, 0.5)
        n = kernel.node_count
        rows = StepRows(kernel, TrapProfile.uniform(n, 0.02), order)
        spec = PolicySpec.uniform(n, a_long=1.0, q_fork=0.02)
        state = at_time(5, np.full(n, tokens))
        # builds the rows and alias tables
        step(state.copy(), rows, spec, np.random.default_rng(0))
        # every node is occupied and in the fork region: one gathered row per node
        gathered = rows.node_rows(spec).probs[:n].nbytes
        assert rows.node_rows(spec).sparse(state.alive, n) == sparse
        before = state.alive
        tracemalloc.start()
        try:
            forks, dels, terms = step(state, rows, spec, np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forks > 0 and state.alive == before + forks - dels - terms
        return peak / gathered, rows.folded

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_peak_of_one_step_on_er1000(self, order):
        # 10 tokens per 26-column row make the step sparse. Measured 2.3x per token, and
        # 3.2x while a per-token step counted its cells back into (rows x width) counts;
        # with the landings joined by np.concatenate it was 7.1x
        ratio, _ = self.peak_over_gathered(order, 10, sparse=True)
        assert ratio <= 4, ratio

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_peak_of_one_multinomial_step_on_er1000(self, order):
        # 40 tokens per 26-column row make the step a multinomial one, on two-stage rows.
        # Measured 2.2x with the counts converted to float weights once; 3.2x while the tally
        # converted them, and 4.2x while they were repeated once per landing node
        ratio, folded = self.peak_over_gathered(order, 40, sparse=False)
        assert ratio <= 3.5 and not folded, ratio

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_peak_of_one_folded_multinomial_step_on_cycle2000(self, order):
        # cycle(2000)'s rows fold (18 columns), and 20 tokens per row draw by multinomial: one
        # weighted tally per landing slot, with no copy of the counts per slot. Measured
        # 2.9x; 10.6x while the counts were repeated once per slot of a three-slot layout
        ratio, folded = self.peak_over_gathered(order, 20, sparse=False, graph=cycle_graph(2000))
        assert ratio <= 3.5 and folded, ratio

    @staticmethod
    def peak_of_steps(collect, order, steps=8):
        """The ``tracemalloc`` peak of ``steps`` engine steps of ER(1000, 0.01) from Z = 10k,
        feeding their rows to an age law when ``collect`` (the law allocated beforehand)."""
        kernel = lazy_kernel(erdos_renyi_graph(1000, 0.01, seed=0), 0.5)
        n = kernel.node_count
        rows = step_rows(kernel, TrapProfile.uniform(n, 0.02), order)
        spec = PolicySpec.uniform(n, a_long=1.0, q_fork=0.02)
        rng = np.random.default_rng(2)
        state = PopulationState.initial(kernel, 10_000, "pi", rng)
        # builds the rows and alias tables
        step(state.copy(), rows, spec, np.random.default_rng(0))
        law = AgeLaw(n) if collect else None
        tracemalloc.start()
        try:
            for _ in range(steps):
                step(state, rows, spec, rng, law)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_queued_age_law_is_bounded_by_tokens(self, order):
        # a step on 1000 nodes feeds the law two rows of 1000 cells, so its buffer of
        # AgeLaw.BUFFER_CELLS cells, allocated with the law, is added every second step:
        # measured 2% above the steps without the law in both orders. Visits queued per step
        # as (nodes, ages, visits) measured 7%; a queue held over the 8 steps 1.36x
        without, with_law = (self.peak_of_steps(collect, order) for collect in (False, True))
        assert with_law <= 1.1 * without, (with_law, without)


class TestBatchedAgeLaw:
    """The engine feeds the age law each step's token and trapped rows, and the law adds a
    buffer of them at a time, their ages derived at the flush from the token rows by one
    running maximum: the law equals one ``AgeLaw.record(occ, t - last_visit[occ], visits)`` per
    step, its ages read from the state's own clocks before the step. Which visits a step feeds
    is checked by ``TestFold::test_age_law_counts_the_visits_that_reach_the_policy`` and
    ``TestStepTally``."""

    # (kernel, policy, traps, run arguments, how the run ends, whether the rows fold)
    CASES = {
        "corridor_er30": (lambda: lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5),
                          lambda n: identity_policy("regime", n), 0.05,
                          dict(z0=60, horizon=1500), "horizon", True),
        "explode_k4": (lambda: K4, lambda n: PolicySpec.uniform(n, a_long=1.0, q_fork=0.15),
                       0.02, dict(z0=20, horizon=10_000, z_cap=3000), "capped", True),
        "mixed_star300": (lambda: lazy_kernel(star_graph(300), 0.5),
                          lambda n: PolicySpec.uniform(n, a_long=4.0, a_short=2.0, q_fork=0.5,
                                                       q_term=0.01),
                          0.02, dict(z0=450, horizon=60), "horizon", False),
        "trapped_er30": (lambda: lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5), passive,
                         0.05, dict(z0=60, horizon=2000), "extinct", True),
        # two tokens on 30 nodes: visits at ages past AGE_LAW_CAP
        "sparse_er30": (lambda: lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5),
                        passive, 0.0, dict(z0=2, horizon=1500), "horizon", True),
        # 2 x 2500 cells a step, past AgeLaw.BUFFER_CELLS: the buffer holds one step; forks
        # from age 3 and terminations at age 1
        "cycle2500": (lambda: lazy_kernel(cycle_graph(2500), 0.5),
                      lambda n: PolicySpec.uniform(n, a_long=3.0, a_short=1.0, q_fork=0.3,
                                                   q_term=0.3),
                      0.05, dict(z0=2500, horizon=40), "horizon", True),
    }

    @pytest.mark.parametrize("buffer_cells", [64, AgeLaw.BUFFER_CELLS])
    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_a_record_per_step(self, monkeypatch, name, order, buffer_cells):
        make, policy, zeta, run, end, folded = self.CASES[name]
        kernel = make()
        n = kernel.node_count
        traps = TrapProfile.uniform(n, zeta)
        steps, flushes, kinds = [], [], set()
        real_step, feed, record, sparse = srrw.population.step, AgeLaw.feed, AgeLaw.record, \
            AliasRows.sparse

        def recording_step(state, rows, spec, rng, age_law=None):
            # the visited nodes and their ages, from the state's own clocks before the step
            if age_law is not None:
                occ = state.counts.nonzero()[0]
                steps.append([occ, state.time + 1 - state.last_visit[occ]])
            return real_step(state, rows, spec, rng, age_law)

        def recording_feed(self, time, counts, trapped, last_visit):
            occ = steps[-1][0]
            steps[-1].append(counts[occ] - (0 if trapped is None else trapped[occ]))
            feed(self, time, counts, trapped, last_visit)

        def recording_record(self, nodes, ages, weights=None):
            flushes.append(nodes.size)
            record(self, nodes, ages, weights)

        def recording_sparse(self, tokens, rows):
            per_token = sparse(self, tokens, rows)
            kinds.add("per_token" if per_token else "multinomial")
            return per_token

        monkeypatch.setattr(AgeLaw, "BUFFER_CELLS", buffer_cells)
        monkeypatch.setattr(srrw.population, "step", recording_step)
        monkeypatch.setattr(AgeLaw, "feed", recording_feed)
        monkeypatch.setattr(AgeLaw, "record", recording_record)
        monkeypatch.setattr(AliasRows, "sparse", recording_sparse)
        trace = run_population(kernel, policy(n), traps, rng_seed=5, order=order,
                               collect_age_law=True, age_law_burn_in=5, **run)
        monkeypatch.undo()
        assert step_rows(kernel, traps, order).folded == folded
        assert {"capped": trace.capped, "extinct": trace.extinct,
                "horizon": trace.horizon == run["horizon"]}[end]
        assert len(steps) == trace.horizon - 5
        # the steps went in a buffer at a time, the last at the run's end: partway through a
        # buffer when a run ends early at the default size
        per_buffer = max(1, buffer_cells // (2 * n))
        assert len(flushes) == -(-len(steps) // per_buffer)
        assert sum(flushes) == len(steps) * n
        if end != "horizon" and buffer_cells == AgeLaw.BUFFER_CELLS:
            assert len(steps) % per_buffer
        assert len(flushes) >= (3 if buffer_cells == 64 else 1)
        assert per_buffer == 1 if name == "cycle2500" else per_buffer > 1 or buffer_cells == 64
        # explode_k4 draws per token, then by multinomial as Z grows
        if name == "explode_k4":
            assert kinds == {"per_token", "multinomial"}
        reference = AgeLaw(n)
        for nodes, ages, visits in steps:
            reference.record(nodes, ages, visits)
        assert np.array_equal(trace.age_law.counts, reference.counts)
        assert np.array_equal(trace.age_law.max_over_cap, reference.max_over_cap)
        assert reference.counts.sum() > 0
        if name == "sparse_er30":
            assert reference.max_over_cap.max() > AGE_LAW_CAP

    def test_a_step_that_does_not_follow_restarts_the_clocks(self):
        # a law fed two unrelated steps reads the second's clocks from its state, not from
        # the rows of the first
        law, reference = AgeLaw(4), AgeLaw(4)
        law.feed(8, np.array([3, 0, 0, 1]), None, np.array([5, 0, 0, 7]))
        reference.record(np.array([0, 3]), np.array([3, 1]), np.array([3, 1]))
        law.feed(3, np.array([0, 2, 0, 0]), np.array([0, 1, 0, 0]), np.array([0, 1, 0, 0]))
        reference.record(np.array([1]), np.array([2]), np.array([1]))
        assert np.array_equal(law.counts, reference.counts)


class TestEngine:
    def test_no_mechanisms_keeps_population(self):
        trace = run_population(K4, passive(4), TrapProfile.none(4), z0=7, horizon=50, rng_seed=1)
        assert np.all(trace.z == 7)
        assert not trace.extinct and not trace.capped

    def test_certain_deletion_kills_single_token(self):
        traps = TrapProfile.uniform(4, 1.0)
        trace = run_population(K4, passive(4), traps, z0=1, horizon=10, rng_seed=2)
        assert list(trace.z) == [1, 0]
        assert trace.extinct

    def test_certain_fork_doubles_until_cap(self):
        spec = PolicySpec.uniform(4, a_long=0.0, q_fork=1.0)
        trace = run_population(K4, spec, TrapProfile.none(4), z0=1, horizon=30,
                               rng_seed=3, z_cap=64)
        assert list(trace.z) == [1, 2, 4, 8, 16, 32, 64]
        assert trace.capped

    def test_conservation_identity(self):
        spec = PolicySpec.uniform(4, a_long=2.0, q_fork=0.3, a_short=1.0, q_term=0.1)
        traps = TrapProfile.uniform(4, 0.05)
        trace = run_population(K4, spec, traps, z0=30, horizon=10_000, rng_seed=4, z_cap=10**6)
        assert trace.conservation_violations() == 0

    def test_seed_determinism(self):
        spec = PolicySpec.uniform(4, a_long=2.0, q_fork=0.3, a_short=1.0, q_term=0.1)
        traps = TrapProfile.uniform(4, 0.05)
        a = run_population(K4, spec, traps, z0=20, horizon=500, rng_seed=9)
        b = run_population(K4, spec, traps, z0=20, horizon=500, rng_seed=9)
        for field in ("z", "forks", "trap_dels", "terms"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_trap_decay_rate(self):
        # deletions only: per-token-step survival should match 1 - lambda_del
        traps = TrapProfile.uniform(4, 0.1)
        dels = steps = 0
        for seed in range(60):
            tr = run_population(K4, passive(4), traps, z0=50, horizon=200, rng_seed=seed)
            dels += int(tr.trap_dels.sum())
            steps += tr.token_steps(1, tr.horizon)
        rate = dels / steps
        se = np.sqrt(0.1 * 0.9 / steps)
        assert abs(rate - 0.1) <= 3 * se

    def test_fork_dispatch_distinct_on_star(self):
        # center forks must send the two copies to two different leaves
        star = lazy_kernel(star_graph(6), 0.5)
        spec = PolicySpec.uniform(6, a_long=0.0, q_fork=1.0)
        trace = run_population(star, spec, TrapProfile.none(6), z0=1, horizon=3,
                               rng_seed=11, z_cap=10**4, placement=0)
        assert trace.z[1] == 2

    def test_degree_one_fork_uses_single_edge(self):
        k2 = lazy_kernel(complete_graph(2), 0.5)
        spec = PolicySpec.uniform(2, a_long=0.0, q_fork=1.0)
        trace = run_population(k2, spec, TrapProfile.none(2), z0=1, horizon=5,
                               rng_seed=12, z_cap=32)
        assert list(trace.z) == [1, 2, 4, 8, 16, 32]
        assert trace.capped

    def test_simultaneous_visits_share_preupdate_age(self):
        # two tokens on the same node at t=1 both see age 1 and both fork
        spec = PolicySpec.uniform(2, a_long=1.0, q_fork=1.0)
        k2 = lazy_kernel(complete_graph(2), 0.5)
        trace = run_population(k2, spec, TrapProfile.none(2), z0=2, horizon=1,
                               rng_seed=13, placement=np.array([0, 0]), z_cap=100)
        assert trace.forks[1] == 2

    def test_policy_first_order_protects_fresh_copies(self):
        # with traps everywhere and fork-always: trap-first dies instantly,
        # policy-first keeps exactly one copy alive each step
        traps = TrapProfile.uniform(4, 1.0)
        spec = PolicySpec.uniform(4, a_long=0.0, q_fork=1.0)
        tf = run_population(K4, spec, traps, z0=1, horizon=5, rng_seed=14, order="trap_first")
        assert list(tf.z) == [1, 0]
        pf = run_population(K4, spec, traps, z0=1, horizon=5, rng_seed=14, order="policy_first")
        assert list(pf.z) == [1, 1, 1, 1, 1, 1]
        assert pf.conservation_violations() == 0

    def test_regime_switching_engages(self):
        low = PolicySpec.uniform(4, a_long=1.0, q_fork=0.4)
        high = PolicySpec.uniform(4, a_long=2.0**40, a_short=2.0**40 - 1, q_fork=0.0, q_term=0.3)
        policy = RegimePolicy(low, high, z_low=5, z_high=40)
        trace = run_population(K4, policy, TrapProfile.none(4), z0=10, horizon=2000, rng_seed=15)
        assert not trace.extinct and not trace.capped
        assert trace.z.max() <= 40 * 2
        assert trace.z.min() >= 1

    def test_age_law_collection(self):
        spec = PolicySpec.uniform(4, a_long=5.0, q_fork=0.0)
        trace = run_population(K4, spec, TrapProfile.none(4), z0=5, horizon=200,
                               rng_seed=16, collect_age_law=True, age_law_burn_in=50)
        assert trace.age_law is not None
        assert trace.age_law.counts.sum() == 5 * 150

    def test_csv_roundtrip(self, tmp_path):
        spec = PolicySpec.uniform(4, a_long=2.0, q_fork=0.2)
        trace = run_population(K4, spec, TrapProfile.uniform(4, 0.2), z0=10, horizon=100,
                               rng_seed=17, config_hash="abc123")
        path = tmp_path / "trace.csv"
        trace.to_csv(path, version="0.1.0")
        back = PopulationTrace.from_csv(path)
        assert np.array_equal(back.z, trace.z)
        assert back.config_hash == "abc123"
        assert back.seed == 17

    @pytest.mark.parametrize("zeta,q,cap", [(0.0, 1.0, 64), (1.0, 0.0, 100)])
    def test_csv_roundtrip_keeps_flags(self, tmp_path, zeta, q, cap):
        spec = PolicySpec.uniform(4, a_long=0.0, q_fork=q)
        trace = run_population(K4, spec, TrapProfile.uniform(4, zeta), z0=4, horizon=50,
                               rng_seed=18, z_cap=cap)
        assert trace.capped or trace.extinct
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        back = PopulationTrace.from_csv(path)
        assert (back.capped, back.extinct) == (trace.capped, trace.extinct)
        assert back.horizon_requested == 50 > back.horizon

    @pytest.mark.parametrize("dies,old,new", [
        (False, "# extinct=0", "# extinct=1"),  # the final Z is not 0
        (False, "# capped=0", "# capped=7"),  # not a flag value
        (False, "# horizon_requested=50", "# horizon_requested=500"),  # stopped early, no flag
        (False, "# horizon_requested=50", "# horizon_requested=10"),  # ran past the horizon
        (True, "# capped=0", "# capped=1"),  # capped and extinct
        (True, "# extinct=1", "# extinct=0"),  # the final Z is 0
    ])
    def test_csv_flags_must_agree_with_counts(self, tmp_path, dies, old, new):
        spec = PolicySpec.uniform(4, a_long=1.0, q_fork=0.0 if dies else 0.2)
        trace = run_population(K4, spec, TrapProfile.uniform(4, 0.2 if dies else 0.05), z0=10,
                               horizon=50, rng_seed=15)
        assert trace.extinct == dies and not trace.capped
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        text = path.read_text()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        with pytest.raises(ParameterError):
            PopulationTrace.from_csv(path)

    @pytest.mark.parametrize("run", ["capped", "extinct", "age_law"])
    def test_csv_round_trip_keeps_every_field(self, tmp_path, run):
        kw = {
            "capped": dict(policy=PolicySpec.uniform(4, a_long=0.0, q_fork=1.0),
                           traps=TrapProfile.none(4), z_cap=64),
            "extinct": dict(policy=passive(4), traps=TrapProfile.uniform(4, 0.3)),
            "age_law": dict(policy=PolicySpec.uniform(4, a_long=2.0, q_fork=0.2),
                            traps=TrapProfile.uniform(4, 0.1), collect_age_law=True,
                            age_law_burn_in=10),
        }[run]
        trace = run_population(K4, z0=8, horizon=200, rng_seed=19, config_hash="abc123", **kw)
        assert getattr(trace, run) if run != "age_law" else trace.age_law is not None
        path = tmp_path / "trace.csv"
        trace.to_csv(path, version="0.3.0")
        back = PopulationTrace.from_csv(path)
        for field in dataclasses.fields(PopulationTrace):
            a, b = getattr(trace, field.name), getattr(back, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            elif isinstance(a, AgeLaw):
                assert a.age_cap == b.age_cap
                assert np.array_equal(a.counts, b.counts)
                assert np.array_equal(a.max_over_cap, b.max_over_cap)
            else:
                assert a == b, field.name

    def test_csv_age_law_shape_checked_against_node_count(self, tmp_path):
        law = AgeLaw(4, age_cap=10)
        law.record(np.array([0, 1]), np.array([3, 12]))
        trace = PopulationTrace(z=np.array([2]), forks=np.zeros(1, dtype=np.int64),
                                trap_dels=np.zeros(1, dtype=np.int64),
                                terms=np.zeros(1, dtype=np.int64), seed=1, age_law=law)
        path = tmp_path / "law.csv"
        trace.to_csv(path)
        assert PopulationTrace.from_csv(path).age_law.counts.shape == (4, 12)
        with pytest.raises(ParameterError, match=r"over 4 nodes with cap 10, not 4 with cap 256"):
            PopulationTrace.from_csv(path, node_count=4)
        law = AgeLaw(4)
        law.record(np.array([0, 1]), np.array([3, 300]))
        trace.age_law = law
        trace.to_csv(path)
        assert PopulationTrace.from_csv(path, node_count=4).age_law.counts.shape == (4, 258)
        with pytest.raises(ParameterError, match=r"over 4 nodes with cap 256, not 5 with cap 256"):
            PopulationTrace.from_csv(path, node_count=5)

    def test_csv_without_flag_lines(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("# seed=3\nt,Z,forks,trap_dels,terms\n0,2,0,0,0\n1,0,0,2,0\n")
        back = PopulationTrace.from_csv(path)
        assert back.extinct and not back.capped
        assert back.horizon_requested == 1 and back.config_hash is None


class TestTraceCsvCost:
    """Trace I/O holds no Python object per row or cell: a round trip costs the
    int64 columns it returns plus bounded chunks, whatever the length."""

    @staticmethod
    def long_trace(steps):
        rng = np.random.default_rng(0)
        events = rng.integers(0, [5, 3, 2], size=(steps + 1, 3))
        events[0] = 0
        z = 1000 + np.cumsum(events[:, 0] - events[:, 1] - events[:, 2])
        return PopulationTrace(z=z, forks=events[:, 0].copy(), trap_dels=events[:, 1].copy(),
                               terms=events[:, 2].copy(), seed=3, horizon_requested=steps,
                               config_hash="ab" * 32)

    def test_round_trip_memory_of_100k_steps(self, tmp_path):
        trace = self.long_trace(100_000)
        path = tmp_path / "long.csv"
        tracemalloc.start()
        try:
            trace.to_csv(path, version="0.3.3")
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = PopulationTrace.from_csv(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for name in ("z", "forks", "trap_dels", "terms"):
            assert np.array_equal(getattr(back, name), getattr(trace, name)), name
        # measured 0.6 MiB to write and 5.4 MiB to read, 3.8 MiB of which are the
        # rows returned; with a str per cell it took 10.4 and 32.4 MiB
        assert write_peak < 2 * 2**20
        assert read_peak < 8 * 2**20

    def test_chunked_write_matches_one_row_per_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(srrw.population, "CSV_CHUNK_ROWS", 7)
        trace = self.long_trace(99)
        path = tmp_path / "short.csv"
        trace.to_csv(path)
        rows = path.read_text().split("t,Z,forks,trap_dels,terms\n")[1]
        assert rows == "".join(f"{t},{trace.z[t]},{trace.forks[t]},{trace.trap_dels[t]},"
                               f"{trace.terms[t]}\n" for t in range(100))

    @pytest.mark.parametrize("cell", ["99999999999999999999999", "9223372036854775808",
                                      "\u0661", "1_0", "1.0"])
    def test_cell_outside_ascii_int64_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,Z,forks,trap_dels,terms\n0,{cell},0,0,0\n", encoding="utf-8")
        with pytest.raises(ParameterError):
            PopulationTrace.from_csv(path)


def one_step_counts(kernel, traps, spec, node, tokens, reps, seed, order="trap_first"):
    """Node counts, forks, deletions and terminations after one step from
    ``tokens`` tokens at ``node``, for ``reps`` independent steps, on the kernel's kept rows
    (``step_rows``)."""
    rng = np.random.default_rng(seed)
    rows = step_rows(kernel, traps, order)
    counts = np.zeros(kernel.node_count, dtype=np.int64)
    counts[node] = tokens
    start = at_time(0, counts)
    out = []
    for _ in range(reps):
        state = start.copy()
        forks, dels, terms = step(state, rows, spec, rng)
        assert state.alive == tokens + forks - dels - terms
        out.append((state.counts, forks, dels, terms))
    return out


def chi2_p(observed, expected):
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    assert observed.sum() == pytest.approx(expected.sum())
    keep = expected > 0
    assert observed[~keep].sum() == 0
    return stats.chisquare(observed[keep], expected[keep]).pvalue


FORK_ALWAYS = {"a_long": 0.0, "q_fork": 1.0}


class TestOneStepLaw:
    """One engine step against exact probabilities."""

    @pytest.mark.parametrize("name,node", [("weighted", 2), ("star9", 0), ("er30", 9)])
    def test_fork_pairs_follow_distinct_pair_law(self, name, node):
        k = lazy_kernel(ORACLE_GRAPHS[name](), 0.5)
        n = k.node_count
        spec = PolicySpec.uniform(n, **FORK_ALWAYS)
        reps = 4000
        pairs = np.zeros((n, n))
        for counts, forks, _, _ in one_step_counts(k, TrapProfile.none(n), spec, node, 1,
                                                   reps, seed=200):
            assert forks == 1 and counts.sum() == 2 and counts.max() == 1
            a, b = np.flatnonzero(counts)
            pairs[a, b] += 1
        p = k.base[node]
        law = np.triu(2.0 * np.outer(p, p) / (1.0 - np.sum(p * p)), k=1)
        assert chi2_p(pairs.ravel(), reps * law.ravel()) > 1e-3

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_degree_one_fork_sends_both_along_the_edge(self, order):
        k = lazy_kernel(path_graph(6), 0.5)
        spec = PolicySpec.uniform(6, **FORK_ALWAYS)
        for counts, forks, _, _ in one_step_counts(k, TrapProfile.none(6), spec, 5, 3, 200,
                                                   seed=201, order=order):
            assert forks == 3 and list(counts) == [0, 0, 0, 0, 6, 0]

    def test_trapped_parent_copy_follows_marginal(self):
        # policy_first with a certain trap at the forking node: the parent
        # dies and its copy lands on one target of the distinct pair
        k = lazy_kernel(ORACLE_GRAPHS["weighted"](), 0.5)
        spec = PolicySpec.uniform(5, **FORK_ALWAYS)
        traps = TrapProfile.from_map(5, {2: 1.0})
        reps = 4000
        landed = np.zeros(5)
        for counts, forks, dels, _ in one_step_counts(k, traps, spec, 2, 1, reps, seed=202,
                                                      order="policy_first"):
            assert (forks, dels, counts.sum()) == (1, 1, 1)
            landed += counts
        p = k.base[2]
        assert chi2_p(landed, reps * p * (1.0 - p) / (1.0 - np.sum(p * p))) > 1e-3

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_trap_act_move_split(self, order):
        # terminations remove the acting tokens, so the step's outcome is the
        # node's multinomial split itself: trapped, acted, moved to each neighbour
        k = lazy_kernel(ORACLE_GRAPHS["er30"](), 0.5)
        node, zeta, q = 9, 0.2, 0.3
        traps = TrapProfile.from_map(30, {node: zeta, 3: 0.9})
        spec = PolicySpec.uniform(30, a_long=2.0**40, a_short=2.0**40 - 1, q_fork=0.0,
                                  q_term=np.where(np.arange(30) == node, q, 0.7))
        tokens = 200_000
        [(counts, forks, dels, terms)] = one_step_counts(k, traps, spec, node, tokens, 1,
                                                         seed=203, order=order)
        assert forks == 0
        row = k.matrix[node]
        if order == "trap_first":
            law = [zeta, (1 - zeta) * q, *((1 - zeta) * (1 - q) * row)]
        else:
            law = [(1 - q) * zeta, q, *((1 - q) * (1 - zeta) * row)]
        assert chi2_p([dels, terms, *counts], tokens * np.asarray(law)) > 1e-3


def permutation_chi2_p(hists_a, hists_b, perms=1000, seed=0):
    """Chi-square distance between pooled histograms, calibrated by permuting
    replica labels, so dependence between visits inside a run does not matter."""
    h = np.concatenate([hists_a, hists_b]).astype(float)
    h = h[:, h.sum(axis=0) > 0]
    total = h.sum(axis=0)

    def stat(pooled_a):
        share = pooled_a.sum() / total.sum()
        expect_a, expect_b = share * total, (1.0 - share) * total
        return (((pooled_a - expect_a) ** 2 / expect_a).sum()
                + ((total - pooled_a - expect_b) ** 2 / expect_b).sum())

    observed = stat(h[:len(hists_a)].sum(axis=0))
    rng = np.random.default_rng(seed)
    labels = np.array([rng.permutation(len(h)) < len(hists_a) for _ in range(perms)])
    null = [stat(row) for row in labels.astype(float) @ h]
    return (1 + sum(x >= observed for x in null)) / (1 + perms)


def age_hist(trace, bins=6):
    """A run's age-law counts per node with ages from ``bins`` up pooled."""
    counts = trace.age_law.counts
    return np.concatenate([counts[:, :bins], counts[:, bins:].sum(axis=1, keepdims=True)],
                          axis=1).ravel()


TWO_SAMPLE_SETUPS = {
    # (graph, initial tokens, trap profile)
    "K4": (lambda: complete_graph(4), 4, lambda n: TrapProfile.uniform(n, 0.05)),
    "er30": (lambda: erdos_renyi_graph(30, 0.15, seed=1), 20,
             lambda n: TrapProfile.uniform(n, 0.05)),
    "star9": (lambda: star_graph(9), 8, lambda n: TrapProfile.from_map(n, {0: 0.1, 3: 0.3})),
    "weighted": (ORACLE_GRAPHS["weighted"], 6,
                 lambda n: TrapProfile(np.array([0.05, 0.0, 0.2, 0.1, 0.4]))),
}


def two_sample_policy(kind, n, z0):
    if kind == "spec":
        return PolicySpec.uniform(n, a_long=2.0, q_fork=0.3, a_short=1.0, q_term=0.2)
    low = PolicySpec.uniform(n, a_long=1.0, q_fork=0.25)
    high = PolicySpec.uniform(n, a_long=2.0**40, a_short=2.0**40 - 1, q_fork=0.0, q_term=0.2)
    return RegimePolicy(low, high, z_low=max(1, z0 // 2), z_high=2 * z0)


class TestAgainstTokenEngine:
    """The count engine against the token-level reference engine, in law."""

    REPLICAS = 300
    HORIZON = 25

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("kind", ["spec", "regime"])
    @pytest.mark.parametrize("name", sorted(TWO_SAMPLE_SETUPS))
    def test_two_sample(self, name, kind, order):
        make_graph, z0, make_traps = TWO_SAMPLE_SETUPS[name]
        k = lazy_kernel(make_graph(), 0.5)
        n = k.node_count
        traps, policy = make_traps(n), two_sample_policy(kind, n, z0)
        runs = {}
        for engine, run, kernel in (("count", run_population, k),
                                    ("token", run_tokens, HeldDense(k))):
            runs[engine] = [run(kernel, policy, traps, z0=z0, horizon=self.HORIZON,
                                rng_seed=300_000 + r, order=order, collect_age_law=True)
                            for r in range(self.REPLICAS)]
        assert all(tr.conservation_violations() == 0 for tr in runs["count"])

        def final_z(tr):
            return int(tr.z[-1]) if tr.horizon == self.HORIZON else 0

        p_values = {"Z_T": stats.ks_2samp([final_z(tr) for tr in runs["count"]],
                                          [final_z(tr) for tr in runs["token"]]).pvalue}
        for column in ("forks", "terms", "trap_dels"):
            totals = [[int(getattr(tr, column).sum()) for tr in runs[e]] for e in runs]
            if totals[0] == totals[1]:
                continue
            p_values[column] = stats.ks_2samp(*totals).pvalue
        p_values["age_law"] = permutation_chi2_p([age_hist(tr) for tr in runs["count"]],
                                                 [age_hist(tr) for tr in runs["token"]])
        assert sum(int(tr.forks.sum()) for tr in runs["count"]) > 0
        assert min(p_values.values()) > 1e-3, p_values


def weighted_er():
    """ER(30, 0.2) with weights spread over three orders of magnitude."""
    g = erdos_renyi_graph(30, 0.2, seed=3)
    weights = np.random.default_rng(4).uniform(-1.5, 1.5, g.edge_count)
    return Graph(g.node_count, g.edges, 10.0 ** weights)


LAW_GRAPHS = {
    "K4": lambda: complete_graph(4),
    "er30": lambda: erdos_renyi_graph(30, 0.15, seed=1),
    "weighted_er30": weighted_er,
    "star40": lambda: star_graph(40),
    "path6": lambda: path_graph(6),
}


def law_policy(kind, n):
    """A spec whose nodes reach all three age regions, or the corridor's regime pair."""
    if kind == "spec":
        odd = np.arange(n) % 2 == 1
        return PolicySpec(n, a_long=np.where(odd, 3.0, 2.0), a_short=np.where(odd, 1.0, 0.0),
                          q_fork=0.3, q_term=0.4)
    return RegimePolicy(PolicySpec.uniform(n, a_long=1.0, q_fork=0.15),
                        PolicySpec.uniform(n, a_long=2.0**40, a_short=2.0**40 - 1,
                                           q_fork=0.0, q_term=0.1), z_low=20, z_high=200)


def law_traps(n):
    return TrapProfile(np.random.default_rng(n).uniform(0.0, 0.3, n))


def token_counts(table, tokens, index, rng):
    """(rows x W) counts of ``tokens[i]`` tokens drawn per token from row ``index[i]`` of
    ``table`` (``AliasRows.draw``, whose cells count from the first of each row's block); the
    rows of ``index`` are distinct."""
    cell = table.draw(tokens, index, rng.random(2 * int(np.sum(tokens))))
    cell += np.repeat(index - index % table.block, tokens) * table.width
    return np.bincount(cell, minlength=table.probs.size).reshape(table.probs.shape)[index]


class TestPerTokenDraw:
    """The per-token draw of sparse steps: its alias tables and its law."""

    @staticmethod
    def table_law(cut, alias):
        """Each row's law as its alias table draws it."""
        rows, w = cut.shape
        law = cut.copy()
        np.add.at(law, (np.repeat(np.arange(rows), w), alias.ravel()), (1.0 - cut).ravel())
        return law / w

    @staticmethod
    def all_rows(kernel, traps, policy, order):
        """(AliasRows, every row index) of each node-row table of a run, then the fork rows."""
        rows = StepRows(kernel, traps, order)
        n = kernel.node_count
        specs = [policy.low, policy.high] if isinstance(policy, RegimePolicy) else [policy]
        return ([(rows.node_rows(spec), np.arange(3 * n)) for spec in specs]
                + [(rows.forks.first_rows, np.arange(n))])

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("kind", ["spec", "regime"])
    @pytest.mark.parametrize("name", sorted(LAW_GRAPHS))
    def test_tables_reproduce_rows(self, name, kind, order):
        k = lazy_kernel(LAW_GRAPHS[name](), 0.5)
        n = k.node_count
        for table, index in self.all_rows(k, law_traps(n), law_policy(kind, n), order):
            probs = table.probs[index]
            cut, alias = alias_tables(probs)
            assert cut.dtype == np.float64 and alias.dtype == np.int32
            assert np.abs(self.table_law(cut, alias) - probs).max() <= 1e-12
            # zero columns (padding, trap_first's acted-then-trapped column) are never kept,
            # and alias a column that can be drawn
            zero = probs == 0.0
            assert zero.any() or name == "K4"
            assert np.all(cut[zero] == 0.0)
            assert np.all(np.take_along_axis(probs, alias, axis=1)[zero] > 0.0)

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("name,kind", [("er30", "regime"), ("weighted_er30", "spec"),
                                           ("star40", "spec"), ("star40", "regime")])
    def test_draws_follow_rows(self, name, kind, order):
        # random states: tokens on random nodes with random ages, so rows of every region
        k = lazy_kernel(LAW_GRAPHS[name](), 0.5)
        n = k.node_count
        rng = np.random.default_rng(500)
        for table, index in self.all_rows(k, law_traps(n), law_policy(kind, n), order):
            # the per-token path, forced on many tokens per row for the test's power: a coin
            # biased by 2% against the cuts fails here
            gathered = rng.choice(index, size=min(12, index.size), replace=False)
            tokens = rng.integers(10_000, 20_000, size=gathered.size)
            reps = 10
            counts = sum(token_counts(table, tokens, gathered, rng) for _ in range(reps))
            assert np.array_equal(counts.sum(axis=1), reps * tokens)
            expected = reps * tokens[:, None] * table.probs[gathered]
            assert chi2_p(counts.ravel(), expected.ravel()) > 1e-3

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 7, 14, 26, 303, 2003, 2**13 + 1])
    def test_column_below_width_at_the_largest_uniform(self, width):
        class LargestUniform:
            """A generator whose every uniform is the largest double below 1."""
            def random(self, size=None, out=None):
                if out is None:
                    return np.full(size, 1.0 - 2.0**-53)
                out[...] = 1.0 - 2.0**-53
                return out

        probs = np.full((2, width), 1.0 / width)
        counts = token_counts(AliasRows(probs, 2), np.array([3, 5]), np.array([1, 0]),
                              LargestUniform())
        assert counts.shape == (2, width)
        cut, alias = alias_tables(probs[:1])
        col = alias[0, -1] if cut[0, -1] <= 1.0 - 2.0**-53 else width - 1
        assert counts[:, col].tolist() == [3, 5]

    @staticmethod
    def assert_rows_tabled_alone(table, rows):
        """Each of ``rows`` of ``table`` holds the alias table of that row on its own, its
        aliases as cells of the row's block."""
        for r in rows:
            cut, alias = alias_tables(table.probs[r:r + 1])
            assert np.array_equal(table._cut[r], cut[0]), r
            assert np.array_equal(table._alias[r], alias[0] + r % table.block * table.width), r

    def test_tables_are_laid_out_as_the_rows(self):
        # blocks of 2 rows, built on their first draw; the tables grow to the last block built
        table = AliasRows(np.random.default_rng(3).dirichlet(np.ones(4), size=6), 2)
        table.draw(np.array([5]), np.array([5]), np.random.default_rng(4).random(10))
        assert table._built.tolist() == [False, False, True] and table._cut.shape == (6, 4)
        self.assert_rows_tabled_alone(table, [4, 5])
        table.draw(3, np.array([1, 0]), np.random.default_rng(5).random(12), 0)
        assert table._built.tolist() == [True, False, True] and table._cut.shape == (6, 4)
        self.assert_rows_tabled_alone(table, [0, 1, 4, 5])

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_uniform_region_run_builds_its_block_alone(self, order):
        # star(300) with A_l = 1 forks at every visit: its sparse steps draw from the fork
        # region's block of n node rows, and no other block's tables are allocated
        k = lazy_kernel(star_graph(300), 0.5)
        n = k.node_count
        traps = TrapProfile.uniform(n, 0.02)
        spec = PolicySpec.uniform(n, a_long=1.0, q_fork=0.02)
        run_population(k, spec, traps, z0=600, horizon=20, rng_seed=5, order=order)
        table = step_rows(k, traps, order).node_rows(spec)
        assert table._built.tolist() == [True, False, False]
        assert table._cut.shape == table._alias.shape == (n, table.width)
        self.assert_rows_tabled_alone(table, [*range(0, n, 10), n - 1])

    def test_density_rule(self):
        table = AliasRows(np.full((4, 5), 0.2), 4)
        assert table.sparse(5, 2)       # 10 tokens on 10 cells: 2 x 5 <= 10
        assert not table.sparse(6, 2)   # 12 tokens: 2 x 6 > 10

    def test_whole_runs_match_the_multinomial_path(self, monkeypatch):
        # corridor-like: ER(30, 0.15), the corridor's regime pair, traps everywhere;
        # every step of one side per token, every step of the other by multinomial
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        policy = RegimePolicy(PolicySpec.uniform(30, a_long=1.0, q_fork=0.15),
                              PolicySpec.uniform(30, a_long=2.0**40, a_short=2.0**40 - 1,
                                                 q_fork=0.0, q_term=0.10), z_low=20, z_high=60)
        traps = TrapProfile.uniform(30, 0.05)
        runs = {}
        for path, rule in (("token", True), ("multinomial", False)):
            with monkeypatch.context() as m:
                m.setattr(srrw.graphs.AliasRows, "sparse", lambda self, tokens, rows: rule)
                runs[path] = [run_population(k, policy, traps, z0=40, horizon=40,
                                             rng_seed=700_000 + r, collect_age_law=True)
                              for r in range(300)]
        assert all(tr.conservation_violations() == 0 for trs in runs.values() for tr in trs)
        p_values = {"Z_T": stats.ks_2samp(*[[int(tr.z[-1]) for tr in trs]
                                            for trs in runs.values()]).pvalue}
        for column in ("forks", "terms", "trap_dels"):
            p_values[column] = stats.ks_2samp(*[[int(getattr(tr, column).sum()) for tr in trs]
                                                for trs in runs.values()]).pvalue
        p_values["age_law"] = permutation_chi2_p(*[[age_hist(tr) for tr in trs]
                                                   for trs in runs.values()])
        assert min(p_values.values()) > 1e-3, p_values


def identity_policy(kind, n):
    if kind == "spec":
        # even nodes fork at every visit; odd nodes terminate at age 1 and fork from age 3
        even = np.arange(n) % 2 == 0
        return PolicySpec(n, a_long=np.where(even, 1.0, 3.0), a_short=np.where(even, 0.0, 1.0),
                          q_fork=0.25, q_term=0.3)
    if kind == "sparse":
        # two tokens that fork only after long absences: ages beyond the age-law cap
        return PolicySpec.uniform(n, a_long=200.0, q_fork=0.5)
    return RegimePolicy(PolicySpec.uniform(n, a_long=1.0, q_fork=0.3),
                        PolicySpec.uniform(n, a_long=2.0**40, a_short=2.0**40 - 1,
                                           q_fork=0.0, q_term=0.2), z_low=10, z_high=80)


def two_stage_dispatch(kernel):
    """A ``ForkTable.dispatch`` drawing fork targets as srrw 0.2.0 to 0.4.0 did, by
    ``step_v020``'s two multinomials: all first targets, then the pairs' second targets over
    rows p_b / (1 - p_a)."""
    n = kernel.node_count
    rows = step_v020.StepRows(kernel, TrapProfile.none(n))  # only its fork rows are read

    def dispatch(self, tokens, rng, n_pairs):
        # per node in node order: the pairs and lone copies leaving it
        nodes = np.unique(tokens)
        pairs, lone = (np.bincount(group, minlength=n).take(nodes)
                       for group in (tokens[:n_pairs], tokens[n_pairs:]))
        dest, first, second_dest, second = step_v020._dispatch_forks(rows, nodes, pairs, lone,
                                                                     rng)
        landed = (np.bincount(dest.ravel(), weights=first.ravel(), minlength=n)
                  + np.bincount(second_dest.ravel(), weights=second.ravel(), minlength=n))
        return landed.astype(np.int64)

    return dispatch


class FrozenRows(step_v020.StepRows):
    """``step_v020.StepRows`` with the one call ``run_population`` makes at run start that the
    frozen rows lack: they are new for each frozen run (their class keys them apart from the
    current rows), so they hold no node rows to drop."""

    def retain(self, specs):
        assert not self._nodes


class TestAgainstFrozenStep:
    """Whole runs against the 0.2.0 step in ``step_v020``: the same draws in the
    same order, so equal traces and age laws, not merely equal in law. The
    current engine is pinned to the two-stage path (the fold rule off), to its
    multinomial node draws, the path 0.2.0 had, and to the two-stage fork draw
    of 0.2.0 to 0.4.0 (``two_stage_dispatch``), so everything around the
    fork-target draw is compared draw for draw; ``TestAgainstTokenEngine``,
    ``TestPerTokenDraw``, ``TestForkDraw`` and ``TestFold`` cover the per-token
    node draw, the per-token fork targets and the folded draw in law."""

    def pair(self, monkeypatch, kernel, **args):
        """(current, frozen) runs of ``run_population`` with the same arguments."""
        used = (kernel, args["traps"], args.get("order", "trap_first"))
        with monkeypatch.context() as m:
            m.setattr(srrw.population, "FOLD_BYTES", 0)
            m.setattr(srrw.graphs.AliasRows, "sparse", lambda self, tokens, rows: False)
            m.setattr(srrw.graphs.ForkTable, "dispatch", two_stage_dispatch(kernel))
            current = run_population(kernel, **args)
            assert type(step_rows(*used)) is StepRows and not step_rows(*used).folded
        with monkeypatch.context() as m:
            m.setattr(srrw.population, "step", step_v020.step)
            m.setattr(srrw.population, "StepRows", FrozenRows)
            frozen = run_population(kernel, **args)
            # the frozen engine drew on rows of its own
            assert type(step_rows(*used)) is FrozenRows
        for column in ("z", "forks", "trap_dels", "terms"):
            assert np.array_equal(getattr(current, column), getattr(frozen, column)), column
        assert (current.capped, current.extinct) == (frozen.capped, frozen.extinct)
        if current.age_law is not None:
            assert np.array_equal(current.age_law.counts, frozen.age_law.counts)
            assert np.array_equal(current.age_law.max_over_cap, frozen.age_law.max_over_cap)
        return current

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("kind", ["spec", "regime"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_runs_match(self, monkeypatch, name, kind, order):
        k = lazy_kernel(ORACLE_GRAPHS[name](), 0.5)
        n = k.node_count
        forks = 0
        for seed in (0, 1):
            trace = self.pair(monkeypatch, k, policy=identity_policy(kind, n),
                              traps=TrapProfile.uniform(n, 0.05), z0=30, horizon=300,
                              rng_seed=seed, z_cap=3000, order=order, collect_age_law=True,
                              age_law_burn_in=5)
            forks += int(trace.forks.sum())
        assert forks > 0

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_runs_match_beyond_age_law_cap(self, monkeypatch, order):
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        trace = self.pair(monkeypatch, k, policy=identity_policy("sparse", 30),
                          traps=TrapProfile.none(30), z0=2, horizon=1500, rng_seed=0,
                          order=order, collect_age_law=True)
        assert trace.age_law.max_over_cap.max() > trace.age_law.age_cap

    def test_explosion_to_cap_matches(self, monkeypatch):
        # acceptance 08's parameters: K4 forking from age 1 until the cap
        trace = self.pair(monkeypatch, K4, policy=PolicySpec.uniform(4, a_long=1.0, q_fork=0.15),
                          traps=TrapProfile.uniform(4, 0.02), z0=20, horizon=10_000,
                          rng_seed=8, z_cap=100_000)
        assert trace.capped


FORK_DRAW_CASES = {
    # (graph, the forking node)
    "K4": (lambda: complete_graph(4), 0),
    "er30": (lambda: erdos_renyi_graph(30, 0.15, seed=1), 9),
    "star9_hub": (lambda: star_graph(9), 0),
    "star9_leaf": (lambda: star_graph(9), 4),
    "path_end": (lambda: path_graph(6), 5),
    "weighted": (ORACLE_GRAPHS["weighted"], 2),
}


def pair_law(p):
    """The law p_a p_b / (1 - sum p^2), a != b, of the ordered pair of targets of a pair
    leaving a node with base row ``p``, n x n (the single edge twice at degree 1)."""
    if np.count_nonzero(p) == 1:
        return np.outer(p, p)
    law = np.outer(p, p) / (1.0 - np.sum(p * p))
    np.fill_diagonal(law, 0.0)
    return law


def law_p(observed, expected):
    """``chi2_p``, or 1.0 when all the law's mass is on one cell and every draw took it."""
    observed, expected = np.asarray(observed, float), np.asarray(expected, float)
    if np.count_nonzero(expected) == 1:
        assert np.array_equal(observed > 0, expected > 0)
        return 1.0
    return chi2_p(observed, expected)


class TestForkDraw:
    """The fork draw against the exact pair law: ``ForkTable``'s pair rows and per-token
    draw, and engine steps by each node-draw path, folded and two-stage."""

    @pytest.mark.parametrize("path", ["dense", "per_token"])
    @pytest.mark.parametrize("name", sorted(FORK_DRAW_CASES))
    def test_ordered_pairs_follow_the_law(self, name, path):
        make, node = FORK_DRAW_CASES[name]
        k = lazy_kernel(make(), 0.5)
        table = k.fork_table()
        n = table.first.shape[0]
        draws = 200_000
        rng = np.random.default_rng(600)
        if path == "dense":
            counts = rng.multinomial(draws, table.pair_rows()[node])
            a, b = table.dest[node, table.pair_a], table.dest[node, table.pair_b]
        else:
            u = rng.random(3 * draws)
            cell = table.first_rows.draw(np.array([draws]), np.array([node]), u, 0)
            second = table.second_cells(cell.copy(), u[2 * draws:])
            a, b = table.dest.ravel()[cell], table.dest.ravel()[second]
            counts = np.ones(draws)
        observed = np.zeros((n, n))
        np.add.at(observed, (a, b), counts)
        assert law_p(observed.ravel(), draws * pair_law(k.base[node]).ravel()) > 1e-3

    @pytest.mark.parametrize("path", ["dense", "per_token"])
    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("name", sorted(FORK_DRAW_CASES))
    def test_engine_step_follows_the_law(self, monkeypatch, name, order, path):
        # one forking token per step with a trap at its node: under policy_first a trapped
        # parent's copy lands alone, on the first-target marginal. ``path`` is the node
        # draw's (one multinomial, or per token), on folded rows and, with the fold rule
        # off, before the two-stage path's per-token fork draw
        make, node = FORK_DRAW_CASES[name]
        k = lazy_kernel(make(), 0.5)
        n = k.node_count
        monkeypatch.setattr(srrw.graphs.AliasRows, "sparse",
                            lambda self, tokens, rows: path == "per_token")
        traps = TrapProfile.from_map(n, {node: 0.3})
        law = pair_law(k.base[node])
        for fold_bytes in (srrw.population.FOLD_BYTES, 0):
            monkeypatch.setattr(srrw.population, "FOLD_BYTES", fold_bytes)
            reps = 3000
            pairs, lone = np.zeros((n, n)), np.zeros(n)
            for counts, forks, dels, _ in one_step_counts(
                    k, traps, PolicySpec.uniform(n, **FORK_ALWAYS), node, 1, reps, seed=601,
                    order=order):
                if counts.sum() == 2:
                    a, b = np.repeat(np.arange(n), counts)
                    pairs[a, b] += 1
                elif counts.sum() == 1:
                    assert (order, forks, dels) == ("policy_first", 1, 1)
                    lone += counts
            assert step_rows(k, traps, order).folded == (fold_bytes > 0)
            unordered = np.triu(law + law.T) - np.diag(np.diag(law))
            assert law_p(pairs.ravel(), pairs.sum() * unordered.ravel()) > 1e-3
            if order == "policy_first":
                assert lone.sum() > 0
                assert law_p(lone, lone.sum() * law.sum(axis=1)) > 1e-3
            else:
                assert lone.sum() == 0

    @pytest.mark.parametrize("name", sorted(FORK_DRAW_CASES))
    def test_second_target_differs_from_first(self, name):
        make, _ = FORK_DRAW_CASES[name]
        k = lazy_kernel(make(), 0.5)
        table = k.fork_table()
        n, w = table.first.shape
        degree = k.base_neighbour_table().support
        # uniforms at both ends of [0, 1) and between, for every first target of every node
        grid = np.concatenate(([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53],
                               np.random.default_rng(602).random(200)))
        base = k.base
        for u, c in zip(*np.nonzero(table.first)):
            second = table.second_cells(np.full(grid.size, u * w + c), grid.copy())
            b = table.dest.ravel()[second]
            assert np.all(base[u, b] > 0)
            if degree[u] == 1:
                assert np.all(b == table.dest[u, c])
            else:
                assert not np.any(b == table.dest[u, c])

    def test_rounding_remainder_past_the_last_column(self):
        # node 0's row sums to 0.9, as a row whose cumulative sums round low would: with the
        # first target in the last column (slot 0, node 1) the largest uniform reaches past
        # the row's end, and the second target must be slot 1 (node 2), not slot 0 again
        table = ForkTable(NeighbourTable(np.array([0, 3, 4, 5, 6]), np.array([1, 2, 3, 0, 0, 0]),
                                         np.array([0.2, 0.3, 0.4, 1.0, 1.0, 1.0])))
        w = table.first.shape[1]
        assert table.dest[0, w - 1] == 1 and table.dest[0, w - 2] == 2
        second = table.second_cells(np.array([w - 1, w - 1]), np.array([1.0 - 2.0**-53, 0.99]))
        assert table.dest.ravel()[second].tolist() == [2, 2]


FOLD_CASES = {
    # (graph, the node drawn from)
    "K4": (lambda: complete_graph(4), 0),
    "er30": (lambda: erdos_renyi_graph(30, 0.15, seed=1), 9),
    "path6": (lambda: path_graph(6), 2),
    "path6_end": (lambda: path_graph(6), 5),
}


def fold_law(p, lazy, q, zeta, order, region):
    """{outcome: probability} of one token leaving a node with base row ``p`` and lazy row
    ``lazy`` in an age region, with fork probability ``q[0]``, termination probability
    ``q[1]`` and trap probability ``zeta`` there. Outcomes: ("trapped",), ("term",),
    ("lone", a), ("pair", a, b) and ("move", v)."""
    pair = pair_law(p)
    q_act = (q[0], q[1], 0.0)[region]
    law = {("trapped",): zeta if order == "trap_first" else (1 - q_act) * zeta}
    if region == TERM:
        law[("term",)] = q_act * (1 - zeta) if order == "trap_first" else q_act
    if region == FORK:
        for a, b in zip(*np.nonzero(pair)):
            law[("pair", a, b)] = q_act * (1 - zeta) * pair[a, b]
        if order == "policy_first":
            for a in np.flatnonzero(pair.sum(axis=1)):
                law[("lone", a)] = q_act * zeta * pair[a].sum()
    for v in np.flatnonzero(lazy):
        law[("move", v)] = (1 - q_act) * (1 - zeta) * lazy[v]
    return law


class TestFold:
    """Folded node rows: ordered pairs, lone copies and the trap/act/move split drawn in
    one draw, against the exact law and against the two-stage draw."""

    CLASSES = ("trapped", None, "term", "lone", "pair", "move")

    @pytest.mark.parametrize("path", ["multinomial", "per_token"])
    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("name", sorted(FOLD_CASES))
    def test_cells_follow_the_law(self, name, order, path):
        make, node = FOLD_CASES[name]
        k = lazy_kernel(make(), 0.5)
        n = k.node_count
        q, zeta = (0.3, 0.25), 0.2
        rows = StepRows(k, TrapProfile.from_map(n, {node: zeta}), order)
        assert rows.folded
        spec = PolicySpec.uniform(n, a_long=1.0, q_fork=q[0], q_term=q[1])
        table = rows.node_rows(spec)
        # slot 1 holds a pair code 4n + 1 + b on pair cells, and on no other cell
        cols = np.arange(rows.landing.shape[2])
        assert np.array_equal(rows.landing[1, node] > 4 * n,
                              (cols >= rows.bounds[4]) & (cols < rows.bounds[5]))
        rng = np.random.default_rng(610)
        tokens = 200_000
        base, lazy = k.base[node], k.matrix[node]
        for region in (FORK, TERM, PASS):
            index = np.array([region * n + node])
            if path == "per_token":
                counts = token_counts(table, np.array([tokens]), index, rng)[0]
            else:
                counts = rng.multinomial(np.array([tokens]), table.probs.take(index, axis=0))[0]
            assert counts.sum() == tokens
            observed = {}
            for col in np.flatnonzero(counts):
                kind = self.CLASSES[np.searchsorted(rows.bounds, col, side="right") - 1]
                first, second = rows.landing[:, node, col] - [0, 4 * n + 1]
                key = {"trapped": (kind,), "term": (kind,), "lone": (kind, first),
                       "pair": (kind, first, second), "move": (kind, first)}[kind]
                observed[key] = observed.get(key, 0) + counts[col]
            law = fold_law(base, lazy, q, zeta, order, region)
            assert set(observed) <= {key for key, p in law.items() if p > 0}
            keys = sorted(law, key=str)
            assert sum(law.values()) == pytest.approx(1.0)
            assert law_p([observed.get(key, 0) for key in keys],
                         tokens * np.array([law[key] for key in keys])) > 1e-3

    @pytest.mark.parametrize("path", ["multinomial", "per_token"])
    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    @pytest.mark.parametrize("name", sorted(FOLD_CASES))
    def test_engine_step_follows_the_law(self, monkeypatch, name, order, path):
        # one token per step, so each step's outcome is seen whole: the pair unordered
        make, node = FOLD_CASES[name]
        k = lazy_kernel(make(), 0.5)
        n = k.node_count
        q, zeta = (0.3, 0.0), 0.2
        monkeypatch.setattr(srrw.graphs.AliasRows, "sparse",
                            lambda self, tokens, rows: path == "per_token")
        observed = {}
        for counts, forks, dels, terms in one_step_counts(
                k, TrapProfile.from_map(n, {node: zeta}),
                PolicySpec.uniform(n, a_long=1.0, q_fork=q[0]), node, 1, 3000, seed=611,
                order=order):
            landed = tuple(np.repeat(np.arange(n), counts))
            kind = {(0, 1, 0): "trapped", (1, 0, 2): "pair", (1, 1, 1): "lone",
                    (0, 0, 1): "move"}[forks, dels, len(landed)]
            observed[(kind, *landed)] = observed.get((kind, *landed), 0) + 1
        law = {}
        for key, p in fold_law(k.base[node], k.matrix[node], q, zeta, order, FORK).items():
            key = key[:1] + tuple(sorted(key[1:]))  # the engine sees pairs unordered
            law[key] = law.get(key, 0.0) + p
        assert set(observed) <= {key for key, p in law.items() if p > 0}
        keys = sorted(law, key=str)
        assert law_p([observed.get(key, 0) for key in keys],
                     3000 * np.array([law[key] for key in keys])) > 1e-3

    @pytest.mark.parametrize("fold", ["folded", "two_stage"])
    @pytest.mark.parametrize("path", ["multinomial", "per_token"])
    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_age_law_counts_the_visits_that_reach_the_policy(self, monkeypatch, order, path,
                                                             fold):
        # certain traps at even nodes, none at odd ones: under trap_first the age law sees
        # exactly the odd nodes' tokens, under policy_first every token; ages span regions
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        even = np.arange(30) % 2 == 0
        if fold == "two_stage":
            monkeypatch.setattr(srrw.population, "FOLD_BYTES", 0)
        rows = StepRows(k, TrapProfile(np.where(even, 1.0, 0.0)), order)
        assert rows.folded == (fold == "folded")
        monkeypatch.setattr(srrw.graphs.AliasRows, "sparse",
                            lambda self, tokens, rows: path == "per_token")
        rng = np.random.default_rng(613)
        state = at_time(9, rng.integers(0, 8, 30), rng.integers(0, 9, 30))
        spec = PolicySpec.uniform(30, a_long=4.0, a_short=2.0, q_fork=0.3, q_term=0.4)
        law = AgeLaw(30)
        before = state.copy()
        forks, dels, terms = step(state, rows, spec, rng, age_law=law)
        seen = before.counts * ~even if order == "trap_first" else before.counts
        assert np.array_equal(law.counts.sum(axis=1), seen)
        assert state.alive == before.alive + forks - dels - terms

    @pytest.mark.parametrize("zeta", [0.0, 0.3])
    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_certain_fork_rows_end_on_a_real_move(self, monkeypatch, order, zeta):
        # q_fork = 1 leaves the moves of the fork region no mass: numpy's rounding remainder
        # still lands on the last column, slot 0 of the lazy moves, a real neighbour, and
        # every token forks by either draw path
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        rows = StepRows(k, TrapProfile.uniform(30, zeta), order)
        spec = PolicySpec.uniform(30, a_long=1.0, q_fork=1.0)
        probs = rows.node_rows(spec).probs
        assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(rows.landing[0, :, -1] < 30) and np.all(rows.landing[1, :, -1] == 30)
        for sparse in (True, False):
            monkeypatch.setattr(srrw.graphs.AliasRows, "sparse", lambda self, tokens, rows: sparse)
            state = at_time(0, np.full(30, 2000))
            forks, dels, terms = step(state, rows, spec, np.random.default_rng(612))
            # every token forks, unless trap_first traps it first
            trapped_first = dels if order == "trap_first" else 0
            assert forks + trapped_first == 60_000
            assert terms == 0 and state.alive == 60_000 + forks - dels
            assert (dels == 0) == (zeta == 0.0)

    @pytest.mark.parametrize("z0", [1, 20])
    def test_explosion_matches_the_two_stage_draw(self, monkeypatch, z0):
        # acceptance 08's K4 explosion folded, against the two-stage path with 0.4.0's fork
        # draw
        spec = PolicySpec.uniform(4, a_long=1.0, q_fork=0.15)
        traps = TrapProfile.uniform(4, 0.02)
        stats_of = {}
        for engine in ("folded", "two_stage"):
            with monkeypatch.context() as m:
                if engine == "two_stage":
                    m.setattr(srrw.population, "FOLD_BYTES", 0)
                    m.setattr(srrw.graphs.ForkTable, "dispatch", two_stage_dispatch(K4))
                runs = [run_population(K4, spec, traps, z0=z0, horizon=10_000,
                                       rng_seed=910_000 + r, z_cap=100_000) for r in range(300)]
                assert step_rows(K4, traps).folded == (engine == "folded")
            capped = np.array([tr.capped for tr in runs])
            steps = np.array([tr.horizon for tr in runs if tr.capped])
            stats_of[engine] = (capped.mean(), np.sqrt(capped.var() / capped.size),
                                steps.mean(), steps.std() / np.sqrt(steps.size))
        (f1, sf1, s1, ss1), (f2, sf2, s2, ss2) = stats_of.values()
        assert abs(f1 - f2) <= 3 * np.hypot(sf1, sf2), stats_of
        assert abs(s1 - s2) <= 3 * np.hypot(ss1, ss2), stats_of
        assert f1 < 1.0 if z0 == 1 else f1 == 1.0

    def test_whole_runs_match_the_two_stage_draw(self, monkeypatch):
        # corridor-like: ER(30, 0.15), the corridor's regime pair, traps everywhere; folded
        # runs against runs with the fold rule off
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        policy = RegimePolicy(PolicySpec.uniform(30, a_long=1.0, q_fork=0.15),
                              PolicySpec.uniform(30, a_long=2.0**40, a_short=2.0**40 - 1,
                                                 q_fork=0.0, q_term=0.10), z_low=20, z_high=60)
        traps = TrapProfile.uniform(30, 0.05)
        runs = {}
        for engine, fold_bytes in (("folded", srrw.population.FOLD_BYTES), ("two_stage", 0)):
            with monkeypatch.context() as m:
                m.setattr(srrw.population, "FOLD_BYTES", fold_bytes)
                runs[engine] = [run_population(k, policy, traps, z0=40, horizon=40,
                                               rng_seed=710_000 + r, collect_age_law=True)
                                for r in range(300)]
                assert step_rows(k, traps).folded == (engine == "folded")
        assert all(tr.conservation_violations() == 0 for trs in runs.values() for tr in trs)
        p_values = {"Z_T": stats.ks_2samp(*[[int(tr.z[-1]) for tr in trs]
                                            for trs in runs.values()]).pvalue}
        for column in ("forks", "terms", "trap_dels"):
            p_values[column] = stats.ks_2samp(*[[int(getattr(tr, column).sum()) for tr in trs]
                                                for trs in runs.values()]).pvalue
        p_values["age_law"] = permutation_chi2_p(*[[age_hist(tr) for tr in trs]
                                                   for trs in runs.values()])
        assert min(p_values.values()) > 1e-3, p_values


class RecordingRng:
    """A generator that keeps each ``multinomial`` draw it makes."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.drawn = []

    def random(self, size):
        return self.rng.random(size)

    def multinomial(self, n, pvals):
        self.drawn.append(self.rng.multinomial(n, pvals))
        return self.drawn[-1].copy()


class TestStepTally:
    """Steps tally landings, event counts and the age law from their drawn cells, folded or in
    two stages, per token or by multinomial; checked exactly against a dense re-tally of the
    same cells by the classes of ``StepRows.bounds``, with forks, terminations and passes in
    one step."""

    @pytest.mark.parametrize("path", ["per_token", "multinomial"])
    @pytest.mark.parametrize("fold", ["folded", "two_stage"])
    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_tally_matches_a_dense_retally(self, monkeypatch, order, fold, path):
        if fold == "two_stage":
            monkeypatch.setattr(srrw.population, "FOLD_BYTES", 0)
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        n = k.node_count
        rows = step_rows(k, law_traps(n), order)
        assert rows.folded == (fold == "folded")
        monkeypatch.setattr(AliasRows, "sparse",
                            lambda self, tokens, rows: path == "per_token")
        # forks from age 4, terminations up to age 2, passes at age 3
        spec = PolicySpec.uniform(n, a_long=4.0, a_short=2.0, q_fork=0.4, q_term=0.4)
        w = rows.landing.shape[2]
        moves_to = k.neighbour_table().nbr[:, ::-1]
        lone_cells, pair_cells = slice(*rows.bounds[3:5]), slice(*rows.bounds[4:])
        drawn, dispatched = [], []
        draw, dispatch = AliasRows.draw, ForkTable.dispatch

        def recording_draw(self, tokens, index, u, block=None):
            # each token's block (its age region, for node rows), then its cell in the block
            blocks = (np.repeat(index // self.block, tokens) if block is None
                      else np.full(np.sum(tokens), block))
            drawn.append((blocks, draw(self, tokens, index, u, block)))
            return drawn[-1][1].copy()

        def recording_dispatch(self, nodes, rng, n_pairs):
            dispatched.append((nodes.copy(), n_pairs, dispatch(self, nodes, rng, n_pairs)))
            return dispatched[-1][2].copy()

        monkeypatch.setattr(AliasRows, "draw", recording_draw)
        monkeypatch.setattr(ForkTable, "dispatch", recording_dispatch)
        rng = RecordingRng(620)
        both = lone = 0  # steps with pairs and terminations, and steps with lone copies
        for _ in range(40):
            # ages 1..9 at step 10, so every node draws from its own age region
            state = at_time(9, rng.rng.integers(0, 6, n), rng.rng.integers(1, 10, n))
            drawn.clear(), dispatched.clear(), rng.drawn.clear()
            law = AgeLaw(n)
            occ = state.counts.nonzero()[0]
            ages = 10 - state.last_visit[occ]
            before = state.copy()
            counts = step(state, rows, spec, rng, age_law=law)
            region = np.full(n, PASS)
            region[occ] = spec.region(occ, ages)
            # the dense re-tally: each node's tokens per column, drawn from its age region's rows
            if path == "per_token":
                # its node draw, then the fork table's draw of first targets
                assert len(drawn) == 1 + len(dispatched) and rng.drawn == []
                by_region = np.bincount(drawn[0][0] * n * w + drawn[0][1],
                                        minlength=3 * n * w).reshape(3, n, w)
            else:
                (draws,) = rng.drawn
                assert len(drawn) == len(dispatched)
                by_region = np.zeros((3, n, w), dtype=np.int64)
                by_region[region[occ], occ] = draws
            dense = by_region.sum(axis=0)
            assert np.array_equal(dense.sum(axis=1), before.counts)
            assert np.array_equal(by_region.sum(axis=2)[region, np.arange(n)], before.counts)
            trapped, copies, acted = dense[:, 0], dense[:, 1], dense[:, 2]
            assert not np.any(acted * (region == PASS)) and not np.any(copies * (region != FORK))
            if rows.folded:
                # forks are cells: acted tokens terminate, and fork parents' lone copies land
                assert not np.any(acted * (region == FORK)) and not copies.any()
                copies, pairs = (dense[:, cells].sum(axis=1) for cells in (lone_cells, pair_cells))
            else:
                pairs = acted * (region == FORK)
            terms = acted * (region == TERM)
            assert counts == (pairs.sum() + copies.sum(), trapped.sum() + copies.sum(),
                              terms.sum())
            # two-stage rows send the fork table each pair's node, then each lone copy's, in
            # node order
            nodes = np.repeat(np.tile(np.arange(n), 2), np.concatenate((pairs, copies)))
            if nodes.size and not rows.folded:
                (sent, n_pairs, fork_landed), = dispatched
                assert np.array_equal(sent, nodes) and n_pairs == pairs.sum()
            else:
                assert dispatched == []
                fork_landed = 0
            moved = np.bincount(moves_to.ravel(), weights=dense[:, -moves_to.shape[1]:].ravel(),
                                minlength=n)
            if rows.folded:
                dest, forks = rows.forks.dest, rows.forks
                for to, cells in ((dest, lone_cells), (dest[:, forks.pair_a], pair_cells),
                                  (dest[:, forks.pair_b], pair_cells)):
                    moved += np.bincount(to.ravel(), weights=dense[:, cells].ravel(), minlength=n)
            assert np.array_equal(state.counts, moved + fork_landed)
            assert state.alive == before.alive + counts[0] - counts[1] - counts[2]
            seen = before.counts[occ] - (trapped[occ] if order == "trap_first" else 0)
            expected = AgeLaw(n)
            expected.record(occ, ages, seen)
            assert np.array_equal(law.counts, expected.counts)
            both += bool(pairs.sum() and terms.sum())
            lone += bool(copies.sum())
        assert both >= 30 and (lone > 0) == (order == "policy_first")


class SubclassedRows(StepRows):
    """Rows of a class other than the ``StepRows`` that ``srrw.population`` names."""


class TestKeptRows:
    """Runs on one kernel share the rows it keeps (``step_rows``): each run's trace is the one
    a fresh kernel gives, whatever changed since the last run, and what is kept is one run's."""

    CHANGES = ("none", "same inputs", "traps", "equal traps", "order", "fold off", "fold on",
               "class", "class back", "spec")
    # the changes after which the last run's rows are kept, with their node rows
    REUSED = {"same inputs", "equal traps", "spec"}

    def test_consecutive_runs_match_fresh_kernels(self, monkeypatch):
        # the corridor's ER(30) and regime pair, folded, then each change in turn; the runs
        # draw per token, so their alias tables are read
        graph = erdos_renyi_graph(30, 0.15, seed=1)
        kernel = lazy_kernel(graph, 0.5)
        policy, traps, order = law_policy("regime", 30), law_traps(30), "trap_first"
        fold_bytes = srrw.population.FOLD_BYTES
        rows = None
        for seed, change in enumerate(self.CHANGES):
            if change == "traps":
                traps = TrapProfile(traps.zeta / 2)
            elif change == "equal traps":
                traps = TrapProfile(traps.zeta.copy())
            elif change == "order":
                order = "policy_first"
            elif change in ("fold off", "fold on"):
                monkeypatch.setattr(srrw.population, "FOLD_BYTES",
                                    0 if change == "fold off" else fold_bytes)
            elif change in ("class", "class back"):
                # rows of another class, as a frozen engine's rows are, are never taken over
                monkeypatch.setattr(srrw.population, "StepRows",
                                    SubclassedRows if change == "class" else StepRows)
            elif change == "spec":
                policy = law_policy("spec", 30)
            args = dict(z0=40, horizon=60, rng_seed=720_000 + seed, order=order,
                        collect_age_law=True)
            kept = run_population(kernel, policy, traps, **args)
            fresh = run_population(lazy_kernel(graph, 0.5), policy, traps, **args)
            for column in ("z", "forks", "trap_dels", "terms"):
                assert np.array_equal(getattr(kept, column), getattr(fresh, column)), change
            assert np.array_equal(kept.age_law.counts, fresh.age_law.counts), change
            assert kept.forks.sum() > 0
            used = step_rows(kernel, traps, order)
            assert type(used) is srrw.population.StepRows
            assert (used is rows) == (change in self.REUSED), change
            assert used.folded == (change != "fold off")
            rows = used

    def test_specs_and_profiles_are_read_only_copies(self):
        # kept rows are found by the spec itself and by the profile's zeta values, so neither
        # may change after the rows are built: an edit in place raises, and the caller's
        # arrays are copied, staying writable and unchanged
        given = {"a_long": np.array([3.0, 3.0, 4.0, 4.0]),
                 "a_short": np.array([1.0, 0.0, 1.0, 2.0]),
                 "q_fork": np.array([0.1, 0.2, 0.3, 0.4]),
                 "q_term": np.array([0.0, 0.1, 0.0, 0.1]),
                 "zeta": np.array([0.0, 0.05, 0.1, 0.2])}
        before = {name: arr.copy() for name, arr in given.items()}
        spec = PolicySpec(4, *(given[name] for name in ("a_long", "a_short", "q_fork", "q_term")))
        traps = TrapProfile(given["zeta"])
        held = {name: getattr(traps if name == "zeta" else spec, name) for name in given}
        # and the arrays the other constructors fill
        built = (PolicySpec.uniform(4, a_long=2.0, q_fork=0.1), TrapProfile.none(4),
                 TrapProfile.uniform(4, 0.1), TrapProfile.from_map(4, {1: 0.2}))
        arrays = [*held.values(), built[0].q_term, *(t.zeta for t in built[1:])]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.5
        for name, arr in given.items():
            assert arr.flags.writeable and np.array_equal(arr, before[name]), name
            arr[:] = 0.5
            assert np.array_equal(held[name], before[name]), name
        regime = RegimePolicy(spec, built[0], z_low=10, z_high=20)
        for obj, name in ((spec, "q_fork"), (traps, "zeta"), (regime, "low")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)

    def test_alias_tables_built_once_per_spec_and_region(self, monkeypatch):
        # acceptance 08's explosion, 40 replicas as the explode_k4 benchmark runs them: the
        # spec forks at every age, so every per-token step draws from one region of K4's
        # folded rows, whose alias tables are built once on the kernel, not once per replica
        kernel = lazy_kernel(complete_graph(4), 0.5)
        spec = PolicySpec.uniform(4, a_long=1.0, q_fork=0.15)
        traps = TrapProfile.uniform(4, 0.02)
        built, per_token = [], set()
        tables, draw = srrw.graphs.alias_tables, AliasRows.draw

        def counting_tables(probs):
            built.append(probs.shape)
            return tables(probs)

        def recording_draw(self, *args):
            per_token.add(replica)
            return draw(self, *args)

        monkeypatch.setattr(srrw.graphs, "alias_tables", counting_tables)
        monkeypatch.setattr(AliasRows, "draw", recording_draw)
        for replica in range(40):
            trace = run_population(kernel, spec, traps, z0=20, horizon=10_000,
                                   rng_seed=730_000 + replica, z_cap=100_000)
            assert trace.capped
        assert len(per_token) >= 20  # a build per run would have made one per such replica
        assert len(built) == 1 and built[0][0] == 4, built

    def test_kept_node_rows_are_the_last_runs(self):
        # a sweep over q on one kernel: the kernel keeps the node rows of the last run's spec
        # alone, so the memory kept does not grow with the sweep
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        traps = TrapProfile.uniform(30, 0.05)
        for i, q in enumerate(np.linspace(0.05, 0.5, 10)):
            spec = PolicySpec.uniform(30, a_long=1.0, q_fork=q)
            run_population(k, spec, traps, z0=40, horizon=30, rng_seed=740_000 + i)
            kept = list(step_rows(k, traps)._nodes)
            assert len(kept) == 1 and kept[0] is spec


class TestForkMemory:
    """Fork draws on dense graphs cost no per-edge table, and wide graphs no folded rows."""

    @pytest.mark.parametrize("make", [lambda: erdos_renyi_graph(1000, 0.01, seed=0),
                                      lambda: star_graph(300), lambda: complete_graph(150)],
                             ids=["er1000", "star300", "k150"])
    def test_wide_graphs_build_no_folded_table(self, make):
        # the lazy and fork tables, which both paths read, are built before the traced window
        k = lazy_kernel(make(), 0.5)
        n = k.node_count
        k.neighbour_table(), k.fork_table()
        spec = PolicySpec.uniform(n, a_long=1.0, q_fork=0.05)
        tracemalloc.start()
        try:
            rows = StepRows(k, TrapProfile.uniform(n, 0.02), "policy_first")
            state = at_time(5, np.full(n, 3))
            forks, dels, terms = step(state, rows, spec, np.random.default_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not rows.folded and k.fork_table()._pairs is None
        assert forks > 0 and state.alive == 3 * n + forks - dels - terms
        # one age region's folded rows and alias tables: 10.6 MB on ER(1000), 67.5 MB on
        # K(150), 540 MB on star(300)
        folded = 20 * n * (rows.bounds[-1] + rows.motion.shape[1])
        assert folded > srrw.population.FOLD_BYTES
        assert peak < folded / 4, (peak, folded)

    def test_complete_400_runs(self):
        # K(400) is far past the fold budget, and its pair rows alone would take 509 MB, past
        # the byte cap, so every fork draw goes per token; the graph, its kernel and every
        # table are built inside the traced window
        tracemalloc.start()
        try:
            k = lazy_kernel(complete_graph(400), 0.5)
            trace = run_population(k, PolicySpec.uniform(400, a_long=1.0, q_fork=0.05),
                                   TrapProfile.uniform(400, 0.02), z0=2000, horizon=5,
                                   rng_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.horizon == 5 and trace.forks.sum() > 0
        assert trace.conservation_violations() == 0
        assert k.fork_table()._pairs is None
        # measured 29.1 MB, most of it while the graph and its tables are built; the per-edge
        # second-target rows of 0.4.0 alone would take 489 MiB
        assert peak < 40 << 20, peak

    def test_complete_150_table_under_a_megabyte(self):
        k = lazy_kernel(complete_graph(150), 0.5)
        table = k.fork_table()
        run_population(k, PolicySpec.uniform(150, a_long=1.0, q_fork=0.05),
                       TrapProfile.uniform(150, 0.02), z0=1500, horizon=5, rng_seed=4)
        rows = table.first_rows
        held = (table.first, table.cum, table.dest, rows._cut, rows._alias, rows._built)
        assert rows._cut.shape == (150, 149) and table._pairs is None
        assert sum(arr.nbytes for arr in held) < 1 << 20


class TestTokenSteps:
    # step t handles z[t - 1] tokens: 3, 4 and 2 tokens over steps 1..3
    TRACE = PopulationTrace(z=np.array([3, 4, 2, 5]), forks=np.array([0, 1, 0, 3]),
                            trap_dels=np.array([0, 0, 2, 0]), terms=np.zeros(4, dtype=np.int64),
                            seed=0, horizon_requested=3)

    def test_sums_the_tokens_of_the_steps(self):
        assert self.TRACE.token_steps(1, 3) == 9
        assert self.TRACE.token_steps(2, 2) == 4

    @pytest.mark.parametrize("t_from,t_to", [(0, 2), (0, 0), (-1, 3)])
    def test_rejects_steps_before_the_first(self, t_from, t_to):
        with pytest.raises(ParameterError, match=r"not within 1\.\.3"):
            self.TRACE.token_steps(t_from, t_to)

    @pytest.mark.parametrize("t_from,t_to", [(1, 4), (4, 4), (2, 10)])
    def test_rejects_steps_past_the_horizon(self, t_from, t_to):
        with pytest.raises(ParameterError, match=r"not within 1\.\.3"):
            self.TRACE.token_steps(t_from, t_to)

    def test_rejects_an_empty_range(self):
        with pytest.raises(ParameterError):
            self.TRACE.token_steps(3, 2)


class TestBlockDrift:
    def test_zero_mechanism_drift_is_zero(self):
        trace = run_population(K4, passive(4), TrapProfile.none(4), z0=10, horizon=400, rng_seed=20)
        plan = BlockPlan(t_mix_part=4, kappa=4.0, a_eff=1.0)
        rep = block_drift(trace, plan, TrapProfile.none(4).absorption_pressure(K4.pi))
        assert np.all(rep.drift_per_token == 0.0)
        assert np.all(rep.predicted_per_token == 0.0)

    def test_traps_only_sign_agreement(self):
        traps = TrapProfile.uniform(4, 0.02)
        matched = considered = 0
        for seed in range(20):
            trace = run_population(K4, passive(4), traps, z0=1000, horizon=240, rng_seed=30 + seed)
            rep = block_drift(trace, BlockPlan(t_mix_part=4, kappa=4.0, a_eff=2.0),
                              traps.absorption_pressure(K4.pi))
            m, c = sign_agreement(rep, min_z=20)
            matched += m
            considered += c
        assert considered > 50
        assert matched / considered >= 0.95

    def test_residual_grows_sublinearly_in_block_length(self):
        # balanced forks and deletions keep the population near its start, the
        # regime where the block rate model applies; the residual then scales
        # with the fluctuation noise, sublinear in the block length
        prof = mixing_profile(K4, target=1e-6)
        t_mix = prof.t_mix_of(0.125)
        traps = TrapProfile.uniform(4, 0.02)
        spec = PolicySpec.uniform(4, a_long=1.0, q_fork=0.02)
        means = []
        for mult in (2, 4, 8):
            resid = []
            for seed in range(10):
                trace = run_population(K4, spec, traps, z0=2000, horizon=48 * t_mix,
                                       rng_seed=50 + seed)
                plan = BlockPlan(t_mix_part=t_mix, kappa=4.0, a_eff=(mult - 1) * t_mix / 4.0)
                rep = block_drift(trace, plan, traps.absorption_pressure(K4.pi), min_blocks=2)
                resid.extend(np.abs(rep.residual_abs).tolist())
            means.append(np.mean(resid))
        assert means[2] < means[0] * 4.0

    def test_too_few_blocks(self):
        trace = run_population(K4, passive(4), TrapProfile.none(4), z0=5, horizon=30, rng_seed=60)
        with pytest.raises(InsufficientDataError):
            block_drift(trace, BlockPlan(t_mix_part=10, kappa=4.0, a_eff=1.0),
                        TrapProfile.none(4).absorption_pressure(K4.pi))

    def test_kappa_floor(self):
        with pytest.raises(ParameterError):
            BlockPlan(t_mix_part=5, kappa=2.0, a_eff=1.0)

    @pytest.mark.parametrize("kappa,a_eff", [(1e308, 10.0), (4.0, math.inf), (math.nan, 1.0)])
    def test_block_length_must_be_finite(self, kappa, a_eff):
        with pytest.raises(ParameterError, match="block length is not finite"):
            BlockPlan(t_mix_part=5, kappa=kappa, a_eff=a_eff)


class TestGwBaseline:
    def test_subcritical_goes_extinct(self):
        rep = gw_baseline(0.9, generations=200, replicas=500, seed=70)
        assert rep.extinction_fraction >= 0.99

    def test_critical_dies_slowly(self):
        early = gw_baseline(1.0, generations=50, replicas=1000, seed=71)
        late = gw_baseline(1.0, generations=400, replicas=1000, seed=71)
        assert early.extinction_fraction < late.extinction_fraction < 1.0

    def test_supercritical_matches_pgf_fixed_point(self):
        rep = gw_baseline(1.5, generations=200, replicas=2000, seed=72)
        q = gw_extinction_probability(1.5)
        surv = 1.0 - q
        se = np.sqrt(surv * (1 - surv) / 2000)
        assert abs(rep.survival_fraction - surv) <= 3 * se

    def test_pgf_fixed_point_value(self):
        # q solves q = exp(1.5 (q - 1)); classical value near 0.4172
        assert gw_extinction_probability(1.5) == pytest.approx(0.41718, abs=1e-4)


class TestOccupancy:
    def test_mixed_tokens_fit_stationary_law(self):
        prof = mixing_profile(K4, target=1e-6)
        t = 10 * prof.t_mix_of(0.125)
        rep = occupancy_check(K4, z=100, t_sample=t, replicas=10, seed=80)
        assert rep.p_value > 0.01
        assert not rep.cells_merged

    def test_unmixed_start_rejected(self):
        rep = occupancy_check(K4, z=100, t_sample=0, replicas=10, seed=81)
        assert rep.p_value < 1e-6

    def test_mean_occupancy_matches_pi(self):
        prof = mixing_profile(K4, target=1e-6)
        t = 10 * prof.t_mix_of(0.125)
        rep = occupancy_check(K4, z=500, t_sample=t, replicas=20, seed=82)
        total = rep.counts.sum()
        for u in range(4):
            p = K4.pi[u]
            se = np.sqrt(total * p * (1 - p))
            assert abs(rep.counts[u] - total * p) <= 3 * se

    def test_small_cells_merged(self):
        path = lazy_kernel(path_graph(5), 0.5)
        rep = occupancy_check(path, z=10, t_sample=4, replicas=1, seed=83)
        assert rep.cells_merged
