import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw.analysis import (
    CorridorStats,
    check_corridor_feasibility,
    check_feasibility,
    corridor_distance,
    corridor_stats,
    lyapunov_drift,
)
from srrw.envelopes import MatchingAgeInterval, doeblin_constants, laplace
from srrw.errors import InfeasibleInputError, InsufficientDataError, ParameterError
from srrw.graphs import complete_graph, lazy_kernel
from srrw.policy import PolicySpec
from srrw.population import BlockPlan, PopulationTrace, TrapProfile, run_population

K4 = lazy_kernel(complete_graph(4), 0.5)
MODEL = doeblin_constants(K4)


def interval(lo, hi=None):
    return MatchingAgeInterval(lo, lo if hi is None else hi)


def synthetic_trace(z_values, extinct=False, capped=False):
    z = np.asarray(z_values, dtype=np.int64)
    zeros = np.zeros_like(z)
    return PopulationTrace(z=z, forks=zeros, trap_dels=zeros, terms=zeros, seed=0,
                           extinct=extinct, capped=capped,
                           horizon_requested=len(z) - 1)


class TestFeasibility:
    def test_zero_age_viable_at_full_cap(self):
        # the plus envelope is 1 at age 0, so a unit fork cap meets any
        # absorption pressure (and generally a cap at least the pressure does)
        for lam in (0.0, 0.3, 1.0):
            traps = TrapProfile.uniform(4, lam)
            rep = check_feasibility(MODEL, 1.0, interval(0.0), traps, k_term=0.0)
            assert rep.viability_holds
        rep = check_feasibility(MODEL, 0.8, interval(0.0), TrapProfile.uniform(4, 0.5), 0.0)
        assert rep.viability_holds

    def test_tiny_cap_fails_viability_under_traps(self):
        traps = TrapProfile.uniform(4, 0.5)
        rep = check_feasibility(MODEL, 1e-6, interval(1.0), traps, k_term=0.0)
        assert not rep.viability_holds

    def test_full_traps_positive_age_fails(self):
        traps = TrapProfile.uniform(4, 1.0)
        rep = check_feasibility(MODEL, 1.0, interval(2.0), traps, k_term=0.0)
        assert rep.viability_lhs < 1.0
        assert not rep.viability_holds

    def test_worst_case_endpoints(self):
        traps = TrapProfile.uniform(4, 0.1)
        iv = MatchingAgeInterval(1.0, 3.0)
        rep = check_feasibility(MODEL, 0.5, iv, traps, k_term=0.05)
        assert rep.viability_lhs == pytest.approx(0.5 * laplace(MODEL, "plus", 3.0))
        assert rep.safety_lhs == pytest.approx(0.5 * laplace(MODEL, "minus", 1.0) - 0.1 - 0.05)
        assert rep.endpoint_values["q_L_plus"]["lo"] == pytest.approx(0.5 * laplace(MODEL, "plus", 1.0))

    def test_infinite_age_interval(self):
        traps = TrapProfile.uniform(4, 0.1)
        rep = check_feasibility(MODEL, 0.5, interval(math.inf), traps, k_term=0.0)
        assert rep.viability_lhs == 0.0
        assert not rep.viability_holds
        assert rep.safety_holds

    def test_empty_interval_rejected(self):
        with pytest.raises(InfeasibleInputError):
            check_feasibility(MODEL, 0.5, MatchingAgeInterval(3.0, 1.0),
                              TrapProfile.none(4), 0.0)

    def test_pure_function_same_inputs_same_report(self):
        traps = TrapProfile.uniform(4, 0.2)
        a = check_feasibility(MODEL, 0.4, interval(2.0), traps, 0.1)
        b = check_feasibility(MODEL, 0.4, interval(2.0), traps, 0.1)
        assert a.to_json_dict() == b.to_json_dict()

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_dependence(self, lam1, lam2, age, q):
        # raising absorption pressure can only break viability, never repair it;
        # raising the termination rate can only repair safety, never break it
        lo, hi = sorted((lam1, lam2))
        rep_lo = check_feasibility(MODEL, q, interval(age), TrapProfile.uniform(4, lo), 0.0)
        rep_hi = check_feasibility(MODEL, q, interval(age), TrapProfile.uniform(4, hi), 0.0)
        if rep_lo.viability_holds is False:
            assert rep_hi.viability_holds is False
        rep_k0 = check_feasibility(MODEL, q, interval(age), TrapProfile.uniform(4, lo), 0.0)
        rep_k1 = check_feasibility(MODEL, q, interval(age), TrapProfile.uniform(4, lo), 0.5)
        if rep_k0.safety_holds:
            assert rep_k1.safety_holds

    def test_corridor_bundle(self):
        traps = TrapProfile.uniform(4, 0.05)
        bundle = check_corridor_feasibility(
            MODEL, traps, low=(0.5, interval(0.5)), high=(0.01, interval(5.0), 0.2))
        assert bundle.low.viability_holds
        assert bundle.high.safety_holds
        assert bundle.holds
        assert bundle.margin_in > 0 and bundle.margin_out > 0


class TestCorridorDistance:
    def test_shape(self):
        assert corridor_distance(5, 10, 20) == 5
        assert corridor_distance(25, 10, 20) == 5
        assert corridor_distance(15, 10, 20) == 0
        assert corridor_distance(10, 10, 20) == 0
        assert corridor_distance(20, 10, 20) == 0

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_unit_slopes(self, z):
        lo, hi = 100, 300
        v = corridor_distance(z, lo, hi)
        assert v >= 0
        assert corridor_distance(z + 1, lo, hi) - v in (-1.0, 0.0, 1.0)


class TestCorridorStats:
    def test_constant_inside_trace(self):
        trace = synthetic_trace([50] * 401)
        plan = BlockPlan(t_mix_part=2, kappa=4.0, a_eff=0.5)
        stats = corridor_stats(trace, 20, 100, plan, min_blocks=50)
        assert stats.inside_fraction == 1.0
        assert stats.excursion_count == 0
        assert not stats.recurrence_evidence  # no excursions observed at all

    def test_known_excursions_counted(self):
        b = 4  # plan: 2 + ceil(4 * 0.5) = 4
        z = np.full(401, 50)
        z[3 * b] = 150          # one-block excursion above
        z[10 * b:12 * b] = 5    # two-block excursion below
        trace = synthetic_trace(z)
        plan = BlockPlan(t_mix_part=2, kappa=4.0, a_eff=0.5)
        stats = corridor_stats(trace, 20, 100, plan, min_blocks=50)
        assert sorted(stats.return_times.tolist()) == [1, 2]
        assert stats.all_returned
        assert not stats.censored_tail

    def test_extinction_outside_flags_nonrecurrence(self):
        z = np.concatenate([np.full(200, 50), np.array([10, 5, 0])])
        trace = synthetic_trace(z, extinct=True)
        plan = BlockPlan(t_mix_part=1, kappa=4.0, a_eff=0.25)
        stats = corridor_stats(trace, 20, 100, plan, min_blocks=50)
        assert stats.ended_outside_terminal
        assert not stats.recurrence_evidence

    def test_censored_tail_excluded(self):
        z = np.concatenate([np.full(399, 50), np.array([150, 150])])
        trace = synthetic_trace(z)
        plan = BlockPlan(t_mix_part=2, kappa=4.0, a_eff=0.5)
        stats = corridor_stats(trace, 20, 100, plan, min_blocks=50)
        assert stats.censored_tail
        assert stats.excursion_count == 0
        assert stats.all_returned

    def test_requires_enough_blocks(self):
        trace = synthetic_trace([50] * 20)
        with pytest.raises(InsufficientDataError):
            corridor_stats(trace, 20, 100, BlockPlan(t_mix_part=2, kappa=4.0, a_eff=0.5))

    def test_bad_corridor(self):
        trace = synthetic_trace([50] * 401)
        with pytest.raises(ParameterError):
            corridor_stats(trace, 100, 20, BlockPlan(t_mix_part=2, kappa=4.0, a_eff=0.5),
                           min_blocks=10)


class TestLyapunovDrift:
    def test_synthetic_contraction(self):
        # below the corridor the population climbs, above it falls
        z = []
        v = 5
        for _ in range(2000):
            z.append(v)
            if v < 20:
                v = int(v * 1.5) + 1
            elif v > 100:
                v = int(v * 0.7)
            else:
                v = int(v * 1.3) + 1
        trace = synthetic_trace(z)
        plan = BlockPlan(t_mix_part=0, kappa=4.0, a_eff=0.25)
        rep = lyapunov_drift(trace, 20, 100, plan, min_blocks_per_region=5)
        assert rep.below is not None and rep.below.mean < 0
        assert rep.above is not None and rep.above.mean < 0

    def test_undersampled_regions_flagged(self):
        trace = synthetic_trace([50] * 500)
        plan = BlockPlan(t_mix_part=1, kappa=4.0, a_eff=0.25)
        rep = lyapunov_drift(trace, 20, 100, plan)
        assert rep.below is None and rep.below_undersampled
        assert rep.above is None and rep.above_undersampled

    def test_simulated_regime_drift(self):
        spec_low = PolicySpec.uniform(4, a_long=1.0, q_fork=0.5)
        traps = TrapProfile.uniform(4, 0.02)
        trace = run_population(K4, spec_low, traps, z0=5, horizon=200, rng_seed=5, z_cap=10**6)
        plan = BlockPlan(t_mix_part=2, kappa=4.0, a_eff=0.5)
        rep = lyapunov_drift(trace, 50, 10**9, plan, min_blocks_per_region=3)
        # population grows toward the corridor from below
        assert rep.below is not None
        assert rep.below.mean < 0
