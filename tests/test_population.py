import numpy as np
import pytest
from scipy import stats

import srrw.population
from srrw.errors import InsufficientDataError, ParameterError
from srrw.graphs import (
    Graph,
    complete_graph,
    erdos_renyi_graph,
    lazy_kernel,
    mixing_profile,
    path_graph,
    star_graph,
)
from srrw.policy import AgeLaw, PolicySpec, RegimePolicy
from srrw.population import (
    BlockPlan,
    PopulationState,
    PopulationTrace,
    StepRows,
    TrapProfile,
    block_drift,
    gw_baseline,
    gw_extinction_probability,
    occupancy_check,
    run_population,
    step,
)
import step_v020
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


def at_time(time, counts, last_visit=None):
    """A population state at ``time`` (never-visited clocks when ``last_visit`` is omitted)."""
    n = len(counts)
    last_visit = np.zeros(n, dtype=np.int64) if last_visit is None else np.asarray(last_visit)
    return PopulationState(time, np.asarray(counts), last_visit)


class TestStep:
    def test_single_token_certain_trap(self):
        rng = np.random.default_rng(0)
        state = PopulationState.initial(K4, 1, "pi", rng)
        nxt, counts = step(state, StepRows(K4, TrapProfile.uniform(4, 1.0)), passive(4), rng)
        assert nxt.alive == 0 and counts.trap_deletions == 1
        assert nxt.time == 1

    def test_certain_fork_duplicates(self):
        rng = np.random.default_rng(1)
        spec = PolicySpec.uniform(4, a_long=0.0, q_fork=1.0)
        state = PopulationState.initial(K4, 3, "pi", rng)
        nxt, counts = step(state, StepRows(K4, TrapProfile.none(4)), spec, rng)
        assert nxt.alive == 6 and counts.forks == 3

    def test_conservation_per_step(self):
        rng = np.random.default_rng(2)
        spec = PolicySpec.uniform(4, a_long=2.0, q_fork=0.4, a_short=1.0, q_term=0.2)
        rows = StepRows(K4, TrapProfile.uniform(4, 0.1))
        state = PopulationState.initial(K4, 40, "pi", rng)
        for _ in range(200):
            if state.alive == 0:
                break
            nxt, counts = step(state, rows, spec, rng)
            assert nxt.alive == state.alive + counts.net
            state = nxt

    def test_input_state_not_modified(self):
        rng = np.random.default_rng(3)
        state = PopulationState.initial(K4, 5, "pi", rng)
        counts_before = state.counts.copy()
        visits_before = state.last_visit.copy()
        step(state, StepRows(K4, TrapProfile.none(4)), passive(4), rng)
        assert np.array_equal(state.counts, counts_before)
        assert np.array_equal(state.last_visit, visits_before)
        assert state.time == 0

    def test_clock_updates_visited_nodes_only(self):
        rng = np.random.default_rng(4)
        state = at_time(0, [0, 0, 2, 0])
        nxt, _ = step(state, StepRows(K4, TrapProfile.none(4)), passive(4), rng)
        assert nxt.last_visit[2] == 1
        assert all(nxt.last_visit[u] == 0 for u in (0, 1, 3))

    @staticmethod
    def visit_age(state):
        """The age the one occupied node of ``state`` is visited at in the next step."""
        law = AgeLaw(4)
        step(state, StepRows(K4, TrapProfile.none(4)), passive(4), np.random.default_rng(5),
             age_law=law)
        assert law.counts.sum() == state.alive
        return int(np.flatnonzero(law.counts[state.counts > 0][0])[0])

    def test_never_visited_age_is_elapsed_time(self):
        assert self.visit_age(at_time(6, [0, 1, 0, 0])) == 7

    def test_revisit_age(self):
        assert self.visit_age(at_time(9, [0, 0, 1, 0], [0, 0, 3, 0])) == 7


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

    def test_csv_without_flag_lines(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("# seed=3\nt,Z,forks,trap_dels,terms\n0,2,0,0,0\n1,0,0,2,0\n")
        back = PopulationTrace.from_csv(path)
        assert back.extinct and not back.capped
        assert back.horizon_requested == 1 and back.config_hash is None


def one_step_counts(kernel, traps, spec, node, tokens, reps, seed, order="trap_first"):
    """Node counts, forks, deletions and terminations after one step from
    ``tokens`` tokens at ``node``, for ``reps`` independent steps."""
    rng = np.random.default_rng(seed)
    rows = StepRows(kernel, traps, order)
    counts = np.zeros(kernel.node_count, dtype=np.int64)
    counts[node] = tokens
    start = at_time(0, counts)
    out = []
    for _ in range(reps):
        nxt, c = step(start, rows, spec, rng)
        assert nxt.alive == tokens + c.net
        out.append((nxt.counts, c.forks, c.trap_deletions, c.terminations))
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
        if order == "trap_first":
            law = [zeta, (1 - zeta) * q, *((1 - zeta) * (1 - q) * k.matrix[node])]
        else:
            law = [(1 - q) * zeta, q, *((1 - q) * (1 - zeta) * k.matrix[node])]
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
        for engine, run in (("count", run_population), ("token", run_tokens)):
            runs[engine] = [run(k, policy, traps, z0=z0, horizon=self.HORIZON,
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


class TestAgainstFrozenStep:
    """Whole runs against the 0.2.0 step in ``step_v020``: the same draws in the
    same order, so equal traces and age laws, not merely equal in law."""

    def pair(self, monkeypatch, kernel, **args):
        """(current, frozen) runs of ``run_population`` with the same arguments."""
        current = run_population(kernel, **args)
        with monkeypatch.context() as m:
            m.setattr(srrw.population, "step", step_v020.step)
            m.setattr(srrw.population, "StepRows", step_v020.StepRows)
            frozen = run_population(kernel, **args)
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


class TestBlockDrift:
    def test_zero_mechanism_drift_is_zero(self):
        trace = run_population(K4, passive(4), TrapProfile.none(4), z0=10, horizon=400, rng_seed=20)
        plan = BlockPlan(t_mix_part=4, kappa=4.0, a_eff=1.0)
        rep = block_drift(trace, plan)
        assert np.all(rep.drift_per_token == 0.0)
        assert np.all(rep.predicted_per_token == 0.0)

    def test_traps_only_sign_agreement(self):
        traps = TrapProfile.uniform(4, 0.02)
        matched = considered = 0
        for seed in range(20):
            trace = run_population(K4, passive(4), traps, z0=1000, horizon=240, rng_seed=30 + seed)
            rep = block_drift(trace, BlockPlan(t_mix_part=4, kappa=4.0, a_eff=2.0))
            m, c = rep.sign_agreement(min_z=20)
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
                rep = block_drift(trace, plan, min_blocks=2)
                resid.extend(np.abs(rep.residual_abs).tolist())
            means.append(np.mean(resid))
        assert means[2] < means[0] * 4.0

    def test_too_few_blocks(self):
        trace = run_population(K4, passive(4), TrapProfile.none(4), z0=5, horizon=30, rng_seed=60)
        with pytest.raises(InsufficientDataError):
            block_drift(trace, BlockPlan(t_mix_part=10, kappa=4.0, a_eff=1.0))

    def test_kappa_floor(self):
        with pytest.raises(ParameterError):
            BlockPlan(t_mix_part=5, kappa=2.0, a_eff=1.0)


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

    def test_binomial_offspring(self):
        rep = gw_baseline(0.8, generations=100, replicas=400, seed=73, offspring="binomial")
        assert rep.extinction_fraction >= 0.99

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
