import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw.errors import InsufficientDataError, ParameterError
from srrw.graphs import (TABLE_BYTE_CAP, StationaryDistribution, complete_graph, cycle_graph,
                         lazy_kernel)
from srrw.policy import (
    AGE_LAW_CAP,
    FORK,
    PASS,
    TERM,
    AgeLaw,
    PolicySpec,
    RegimePolicy,
    mean_termination_rate,
)
from srrw.population import (PopulationState, PopulationTrace, StepRows, TrapProfile,
                             run_population, step)


def spec(n=1, a_long=5.0, a_short=0.0, q_fork=1.0, q_term=1.0):
    return PolicySpec(n, a_long, a_short, q_fork, q_term)


class TestDecide:
    """The visit decision: the age region ``PolicySpec.region`` puts a visit in."""

    def test_pass_between_triggers(self):
        assert spec().region(0, 3) == PASS

    def test_fork_at_long_trigger(self):
        assert spec(q_fork=1.0).region(0, 5) == FORK

    def test_terminate_at_short_trigger(self):
        assert spec(a_short=0.0, q_term=1.0).region(0, 0) == TERM

    def test_fork_fraction_matches_probability(self):
        # every visit at age 7 is in the fork region; one engine step forks
        # each of them with probability q_fork
        s = spec(n=4, q_fork=0.3)
        n = 100_000
        state = PopulationState(6, np.array([n, 0, 0, 0]), np.zeros(4, dtype=np.int64))
        k4 = lazy_kernel(complete_graph(4), 0.5)
        _, counts = step(state, StepRows(k4, TrapProfile.none(4)), s, np.random.default_rng(42))
        se = np.sqrt(0.3 * 0.7 / n)
        assert abs(counts.forks / n - 0.3) <= 3 * se

    def test_boundary_tie_prefers_fork(self):
        # a_short == a_long == age: the fork region wins, so a failed fork roll
        # passes rather than falling through to the terminate branch
        tie = spec(a_long=4.0, a_short=4.0, q_fork=1.0, q_term=1.0)
        assert tie.region(0, 4) == FORK
        tie_nofork = spec(a_long=4.0, a_short=4.0, q_fork=0.0, q_term=1.0)
        assert tie_nofork.region(0, 4) == FORK

    def test_negative_age_rejected(self):
        with pytest.raises(ParameterError):
            spec().region(0, -1)

    def test_determinism_given_seed(self):
        # the region rule draws nothing; a step's decisions depend on the seed only
        s = spec(n=4, q_fork=0.5)
        k4 = lazy_kernel(complete_graph(4), 0.5)
        state = PopulationState(8, np.array([20, 0, 0, 0]), np.zeros(4, dtype=np.int64))
        rows = StepRows(k4, TrapProfile.none(4))
        a = [step(state, rows, s, np.random.default_rng(7))[1] for _ in range(20)]
        b = [step(state, rows, s, np.random.default_rng(7))[1] for _ in range(20)]
        assert a == b

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=40, deadline=None)
    def test_exactly_one_action(self, age):
        s = spec(a_long=10.0, a_short=3.0, q_fork=0.5, q_term=0.5)
        assert s.region(0, age) == (FORK if age >= 10 else TERM if age <= 3 else PASS)

    def test_raising_long_trigger_never_raises_fork_rate(self):
        # expected fork rate over a fixed age distribution is monotone in a_long
        ages = np.arange(0, 50)
        weights = np.exp(-0.1 * ages)
        weights /= weights.sum()
        rates = []
        for a_long in (0.0, 5.0, 10.0, 20.0):
            s = spec(a_long=a_long, q_fork=0.4, a_short=0.0, q_term=0.0)
            rates.append(float((weights * 0.4 * (s.region(0, ages) == FORK)).sum()))
        assert all(b <= a for a, b in zip(rates, rates[1:]))


class TestPolicySpec:
    def test_fork_cap_is_max(self):
        s = PolicySpec(3, 5.0, 0.0, [0.1, 0.7, 0.3], 0.0)
        assert s.fork_cap == 0.7

    def test_short_above_long_rejected(self):
        with pytest.raises(ParameterError):
            PolicySpec(2, 3.0, 4.0, 0.5, 0.5)

    def test_probability_range_enforced(self):
        with pytest.raises(ParameterError):
            PolicySpec(2, 3.0, 0.0, 1.5, 0.0)

    @pytest.mark.parametrize("field", ["a_long", "q_fork", "q_term"])
    @pytest.mark.parametrize("per_node", [False, True])
    def test_nan_rejected(self, field, per_node):
        # NaN compares false both ways, so a range check must accept values, not reject them
        values = dict(a_long=3.0, a_short=0.0, q_fork=0.5, q_term=0.1)
        values[field] = [values[field], math.nan] if per_node else math.nan
        with pytest.raises(ParameterError, match=field):
            PolicySpec(2, **values)

    def test_uniform_flag(self):
        assert PolicySpec.uniform(4, 5.0, 0.3).is_uniform
        assert not PolicySpec(2, [1.0, 2.0], 0.0, 0.3, 0.0).is_uniform


class TestRegimePolicy:
    def make(self):
        low = PolicySpec.uniform(4, 1.0, 0.2)
        high = PolicySpec.uniform(4, 2.0**40, 0.0, a_short=2.0**40 - 1, q_term=0.1)
        return RegimePolicy(low, high, z_low=20, z_high=200)

    def test_hysteresis(self):
        rp = self.make()
        assert rp.initial_regime(50) == "low"
        assert rp.initial_regime(500) == "high"
        assert rp.next_regime("low", 150) == "low"
        assert rp.next_regime("low", 201) == "high"
        assert rp.next_regime("high", 150) == "high"
        assert rp.next_regime("high", 19) == "low"

    def test_fork_cap_spans_both(self):
        assert self.make().fork_cap == 0.2

    def test_bad_corridor(self):
        low = PolicySpec.uniform(2, 1.0, 0.2)
        with pytest.raises(ParameterError):
            RegimePolicy(low, low, z_low=30, z_high=20)


class TestMeanTerminationRate:
    def test_tied_triggers_follow_the_engine(self):
        # A_s == A_l == 3: an age-3 visit is in the fork region (the fork wins
        # the tie) and passes with q_fork 0, so neither the engine nor the
        # plug-in terminates it
        k4 = lazy_kernel(complete_graph(4), 0.5)
        s = PolicySpec.uniform(4, a_long=3.0, q_fork=0.0, a_short=3.0, q_term=1.0)
        state = PopulationState(2, np.full(4, 100), np.zeros(4, dtype=np.int64))
        law = AgeLaw(4)
        _, counts = step(state, StepRows(k4, TrapProfile.none(4)), s, np.random.default_rng(0),
                         age_law=law)
        assert law.counts[:, 3].sum() == law.counts.sum() == 400
        assert counts.terminations == 0
        assert mean_termination_rate(s, k4.pi, law) == 0.0

    def test_plugin_arithmetic(self):
        # indicator probability 0.1 under the stationary law, q_term 0.2 -> 0.02
        pi = StationaryDistribution(np.array([0.5, 0.5]))
        law = AgeLaw(2, age_cap=10)
        law.record(np.array([0] * 10 + [1] * 10), np.array([0] * 1 + [5] * 9 + [0] * 1 + [5] * 9))
        s = PolicySpec(2, a_long=6.0, a_short=0.0, q_fork=0.0, q_term=0.2)
        assert mean_termination_rate(s, pi, law) == pytest.approx(0.02)

    def test_zero_term_prob_gives_zero(self):
        pi = StationaryDistribution(np.array([0.5, 0.5]))
        law = AgeLaw(2, age_cap=4)
        s = PolicySpec(2, 5.0, 0.0, 0.3, 0.0)
        assert mean_termination_rate(s, pi, law) == 0.0

    def test_no_age_zero_visits_gives_zero(self):
        # short trigger 0 and all observed ages >= 1: no termination mass
        pi = StationaryDistribution(np.array([0.5, 0.5]))
        law = AgeLaw(2, age_cap=10)
        law.record(np.array([0, 0, 1, 1]), np.array([1, 2, 3, 1]))
        s = PolicySpec(2, 5.0, 0.0, 0.0, 0.5)
        assert mean_termination_rate(s, pi, law) == 0.0

    def test_missing_law_raises(self):
        pi = StationaryDistribution(np.array([0.5, 0.5]))
        law = AgeLaw(2, age_cap=10)
        law.record(np.array([0]), np.array([2]))
        s = PolicySpec(2, 5.0, 1.0, 0.0, 0.5)
        with pytest.raises(InsufficientDataError, match="node 1"):
            mean_termination_rate(s, pi, law)


def share_at_most(law, u, a):
    """Share of node u's recorded visits with age at most ``a``, read off the
    termination plug-in of a two-node policy that terminates every such visit."""
    s = PolicySpec(2, a_long=2.0**41, a_short=a, q_fork=0.0, q_term=np.eye(2)[u])
    return mean_termination_rate(s, StationaryDistribution(np.array([0.5, 0.5])), law) / 0.5


class TestAgeLaw:
    def test_weighted_record_equals_repeated_visits(self):
        weighted, repeated = AgeLaw(3, age_cap=4), AgeLaw(3, age_cap=4)
        weighted.record(np.array([0, 2, 1]), np.array([1, 9, 3]), np.array([3, 2, 0]))
        repeated.record(np.array([0, 0, 0, 2, 2]), np.array([1, 1, 1, 9, 9]))
        assert np.array_equal(weighted.counts, repeated.counts)
        # ages past the cap keep their maximum; a node given zero visits records none
        assert list(weighted.max_over_cap) == list(repeated.max_over_cap) == [0, 0, 9]
        weighted.record(np.array([1]), np.array([30]), np.array([0]))
        assert weighted.max_over_cap[1] == 0

    def test_threshold_beyond_cap_answered_from_largest_age(self):
        law = AgeLaw(2, age_cap=8)
        law.record(np.array([0, 0, 1]), np.array([3, 5, 20]))
        assert share_at_most(law, 0, 2.0**40 - 1) == 1.0
        assert share_at_most(law, 0, 5) == 1.0
        assert share_at_most(law, 0, 4) == 0.5
        assert share_at_most(law, 1, 20) == 1.0
        with pytest.raises(InsufficientDataError, match="cap"):
            share_at_most(law, 1, 12)

    def test_merge_adds_counts_and_keeps_largest_age(self):
        a, b = AgeLaw(2, age_cap=4), AgeLaw(2, age_cap=4)
        a.record(np.array([0]), np.array([7]))
        b.record(np.array([0, 1]), np.array([2, 3]))
        a.merge(b)
        assert a.counts.sum() == 3 and list(a.max_over_cap) == [7, 0]

    # one int64 per node and bucket (ages 0..cap and the overflow): past the byte cap from
    # about 130k nodes at the default cap
    PAST_CAP = TABLE_BYTE_CAP // (8 * (AGE_LAW_CAP + 2)) + 1

    def test_law_past_the_byte_cap_raises_before_allocating(self, tmp_path):
        # a trace header listing 200k overflow maxima asked 0.3.3 for a 413 MB histogram
        path = tmp_path / "replica_000.csv"
        path.write_text(f"# age_law_cap={AGE_LAW_CAP}\n# age_law_max_over_cap="
                        + " 0" * 200_000 + "\nt,Z,forks,trap_dels,terms\n0,5,0,0,0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"past the cap of {TABLE_BYTE_CAP} bytes"):
                AgeLaw(self.PAST_CAP)
            with pytest.raises(ParameterError, match="an age law over 200000 nodes"):
                PopulationTrace.from_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak

    def test_collecting_on_a_graph_past_the_cap_raises(self):
        k = lazy_kernel(cycle_graph(self.PAST_CAP), 0.5)
        with pytest.raises(ParameterError, match=f"an age law over {self.PAST_CAP} nodes"):
            run_population(k, PolicySpec.uniform(k.node_count, 5.0, 0.1), TrapProfile.none(
                k.node_count), z0=10, horizon=5, rng_seed=0, collect_age_law=True)
