import numpy as np
import pytest

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
from srrw.policy import PolicySpec, RegimePolicy
from srrw.return_time import AgeClock
from srrw.population import (
    BlockPlan,
    PopulationState,
    PopulationTrace,
    TrapProfile,
    block_drift,
    gw_baseline,
    gw_extinction_probability,
    occupancy_check,
    run_population,
    step,
)

K4 = lazy_kernel(complete_graph(4), 0.5)


def passive(n):
    return PolicySpec.uniform(n, a_long=2.0**40, q_fork=0.0)


class DenseOracle:
    """The dense inverse-CDF sampler the neighbour tables replaced: O(n) per token."""

    def __init__(self, cum):
        self.cum = cum

    def sample(self, pos, rng):
        r = rng.random(pos.size)
        return (self.cum[pos] < r[:, None]).sum(axis=1)


class FixedUniform:
    """Stands in for a generator whose every uniform is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self, size):
        return np.full(size, self.value)


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


class TestStep:
    def test_single_token_certain_trap(self):
        rng = np.random.default_rng(0)
        state = PopulationState.initial(K4, 1, "pi", rng)
        nxt, counts = step(state, K4, TrapProfile.uniform(4, 1.0), passive(4), rng)
        assert nxt.alive == 0 and counts.trap_deletions == 1
        assert nxt.time == 1

    def test_certain_fork_duplicates(self):
        rng = np.random.default_rng(1)
        spec = PolicySpec.uniform(4, a_long=0.0, q_fork=1.0)
        state = PopulationState.initial(K4, 3, "pi", rng)
        nxt, counts = step(state, K4, TrapProfile.none(4), spec, rng)
        assert nxt.alive == 6 and counts.forks == 3

    def test_conservation_per_step(self):
        rng = np.random.default_rng(2)
        spec = PolicySpec.uniform(4, a_long=2.0, q_fork=0.4, a_short=1.0, q_term=0.2)
        traps = TrapProfile.uniform(4, 0.1)
        state = PopulationState.initial(K4, 40, "pi", rng)
        for _ in range(200):
            if state.alive == 0:
                break
            nxt, counts = step(state, K4, traps, spec, rng)
            assert nxt.alive == state.alive + counts.net
            state = nxt

    def test_input_state_not_modified(self):
        rng = np.random.default_rng(3)
        state = PopulationState.initial(K4, 5, "pi", rng)
        pos_before = state.positions.copy()
        visits_before = state.clock.last_visit.copy()
        step(state, K4, TrapProfile.none(4), passive(4), rng)
        assert np.array_equal(state.positions, pos_before)
        assert np.array_equal(state.clock.last_visit, visits_before)
        assert state.time == 0

    def test_clock_updates_visited_nodes_only(self):
        rng = np.random.default_rng(4)
        state = PopulationState(0, np.array([2, 2]), AgeClock(4))
        nxt, _ = step(state, K4, TrapProfile.none(4), passive(4), rng)
        assert nxt.clock.last_visit[2] == 1
        assert all(nxt.clock.last_visit[u] == 0 for u in (0, 1, 3))


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
        assert trace.age_law.counts.sum() == trace.eligible_visits == 5 * 150

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


class TestNeighbourSampler:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    @pytest.mark.parametrize("which", ["lazy", "base"])
    def test_matches_dense_inverse_cdf(self, name, which):
        k = lazy_kernel(ORACLE_GRAPHS[name](), 0.5)
        if which == "lazy":
            table, oracle = k.neighbour_table(), DenseOracle(k.cumulative_rows())
        else:
            table, oracle = k.base_neighbour_table(), DenseOracle(k.base_cumulative_rows())
        pos = np.random.default_rng(0).integers(0, k.node_count, size=2000)
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(50):
            nxt = table.sample(pos, rng_a)
            assert np.array_equal(nxt, oracle.sample(pos, rng_b))
            pos = nxt

    @pytest.mark.parametrize("order", ["trap_first", "policy_first"])
    def test_regime_traces_match_dense_oracle(self, order, monkeypatch):
        low = PolicySpec.uniform(30, a_long=1.0, q_fork=0.15)
        high = PolicySpec.uniform(30, a_long=2.0**40, a_short=2.0**40 - 1, q_fork=0.0,
                                  q_term=0.10)
        policy = RegimePolicy(low, high, z_low=20, z_high=200)
        traps = TrapProfile.uniform(30, 0.05)
        runs = []
        for use_oracle in (False, True):
            k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
            if use_oracle:
                base = DenseOracle(k.base_cumulative_rows())
                base.support = k.graph.degrees()
                monkeypatch.setattr(k, "neighbour_table",
                                    lambda: DenseOracle(k.cumulative_rows()))
                monkeypatch.setattr(k, "base_neighbour_table", lambda: base)
            runs.append(run_population(k, policy, traps, z0=60, horizon=1500, rng_seed=21,
                                       order=order, collect_age_law=True))
        real, oracle = runs
        assert real.forks.sum() > 0 and real.terms.sum() > 0
        for field in ("z", "forks", "trap_dels", "terms"):
            assert np.array_equal(getattr(real, field), getattr(oracle, field))
        assert np.array_equal(real.age_law.counts, oracle.age_law.counts)

    @pytest.mark.parametrize("row,r,end", [(9, 1.0 - 2.0**-53, -1), (5, 0.0, 0)])
    def test_edge_uniforms_land_on_neighbours(self, row, r, end):
        # the dense sampler maps these uniforms to zero-weight columns; the
        # tables give the last (first) neighbour of the row instead
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        pos = np.array([row])
        dense = DenseOracle(k.cumulative_rows()).sample(pos, FixedUniform(r))
        assert k.matrix[row, dense[0]] == 0.0
        for table, weights in ((k.neighbour_table(), k.matrix), (k.base_neighbour_table(), k.base)):
            support = np.nonzero(weights[row])[0]
            assert table.sample(pos, FixedUniform(r))[0] == support[end]


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
