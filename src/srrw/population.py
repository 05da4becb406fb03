"""Multi-token walk engine: motion, trap deletions, forks, terminations.

Per step, every live token arrives at its node, may be deleted by a trap,
then (if surviving) takes one policy action from the node's pre-update age:
fork, terminate, or pass. The node clock updates once per visited node per
step, so simultaneous arrivals at a node all see the same age. Fork copies
go to two distinct neighbors drawn from the non-lazy walk (both along the
single edge at degree-1 nodes) and are not exposed to traps until their
first arrival on the next step. Passing tokens move via the lazy kernel.

Every walk step, pass or fork dispatch, is one uniform looked up in the
kernel's padded neighbour table, so a token-step costs O(max degree + 1)
whatever the node count; there is no separate path for large graphs, and
dense n x n arrays remain only in the kernel matrices and exact analysis. The
draws equal a dense inverse-CDF over the kernel's cumulative rows wherever
that lands on a real neighbour, so the random stream is the dense one's.

Population counts are recorded after all events of a step resolve, and the
realized counts satisfy Z_t = Z_{t-1} + forks - deletions - terminations
exactly at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import InsufficientDataError, ParameterError
from .graphs import NeighbourTable, StationaryDistribution, TransitionKernel
from .policy import AgeLaw, PolicySpec, RegimePolicy
from .return_time import AgeClock

DEFAULT_POPULATION_CAP = 10**6
_PAIR_REDRAW_CAP = 100_000


@dataclass
class TrapProfile:
    """Per-node exogenous deletion probabilities; absent nodes delete nothing."""

    zeta: np.ndarray

    def __post_init__(self):
        self.zeta = np.asarray(self.zeta, dtype=float)
        if np.any(self.zeta < 0.0) or np.any(self.zeta > 1.0):
            raise ParameterError("deletion probabilities must lie in [0, 1]")

    @staticmethod
    def none(node_count: int) -> "TrapProfile":
        return TrapProfile(np.zeros(node_count))

    @staticmethod
    def uniform(node_count: int, value: float) -> "TrapProfile":
        return TrapProfile(np.full(node_count, float(value)))

    @staticmethod
    def from_map(node_count: int, zeta_by_node: dict) -> "TrapProfile":
        z = np.zeros(node_count)
        for u, v in zeta_by_node.items():
            z[int(u)] = float(v)
        return TrapProfile(z)

    @property
    def has_traps(self) -> bool:
        return bool(np.any(self.zeta > 0.0))

    def absorption_pressure(self, pi: StationaryDistribution) -> float:
        """Stationary-weighted deletion rate; the idealized per-visit loss."""
        return float(np.sum(self.zeta * pi.probs))


@dataclass
class BlockPlan:
    """Blocking of the trace into windows of a mixing part plus an age part."""

    t_mix_part: int
    kappa: float
    a_eff: float

    def __post_init__(self):
        if self.kappa < 4.0:
            raise ParameterError(f"kappa must be at least 4, got {self.kappa}")
        if self.t_mix_part < 0 or self.a_eff < 0:
            raise ParameterError("t_mix_part and a_eff must be nonnegative")

    @property
    def block_length(self) -> int:
        return int(self.t_mix_part + math.ceil(self.kappa * self.a_eff))


@dataclass
class PopulationTrace:
    """Per-step population counts and event tallies, plus run provenance.

    Arrays share indexing: entry t describes the state after step t resolved;
    entry 0 is the initial state with zero event counts.
    """

    z: np.ndarray
    forks: np.ndarray
    trap_dels: np.ndarray
    terms: np.ndarray
    seed: int
    lambda_del: float
    extinct: bool = False
    capped: bool = False
    horizon_requested: int = 0
    config_hash: str | None = None
    age_law: AgeLaw | None = None
    eligible_visits: int = 0

    @property
    def horizon(self) -> int:
        return len(self.z) - 1

    def token_steps(self, t_from: int, t_to: int) -> int:
        """Tokens processed over steps t_from..t_to (inclusive); step t handles z[t-1] tokens."""
        return int(self.z[t_from - 1:t_to].sum())

    def conservation_violations(self) -> int:
        lhs = np.diff(self.z)
        rhs = (self.forks - self.trap_dels - self.terms)[1:]
        return int(np.sum(lhs != rhs))

    def to_csv(self, path, version: str = "") -> None:
        lines = []
        if self.config_hash is not None:
            lines.append(f"# config_hash={self.config_hash}")
        lines.append(f"# seed={self.seed}")
        if version:
            lines.append(f"# version={version}")
        lines.append("t,Z,forks,trap_dels,terms")
        for t in range(len(self.z)):
            lines.append(f"{t},{self.z[t]},{self.forks[t]},{self.trap_dels[t]},{self.terms[t]}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def from_csv(path) -> "PopulationTrace":
        seed, config_hash = 0, None
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("# seed="):
                    seed = int(line.split("=", 1)[1])
                elif line.startswith("# config_hash="):
                    config_hash = line.split("=", 1)[1]
                elif line and not line.startswith("#") and not line.startswith("t,"):
                    rows.append([int(x) for x in line.split(",")])
        arr = np.asarray(rows, dtype=np.int64)
        return PopulationTrace(
            z=arr[:, 1], forks=arr[:, 2], trap_dels=arr[:, 3], terms=arr[:, 4],
            seed=seed, lambda_del=float("nan"), config_hash=config_hash,
            extinct=bool(arr[-1, 1] == 0), horizon_requested=len(rows) - 1,
        )


def _initial_positions(kernel: TransitionKernel, z0: int, placement, rng) -> np.ndarray:
    n = kernel.node_count
    if isinstance(placement, str):
        if placement == "pi":
            return rng.choice(n, size=z0, p=kernel.pi.probs)
        if placement == "uniform":
            return rng.integers(0, n, size=z0)
        raise ParameterError(f"unknown placement {placement!r}")
    if np.isscalar(placement):
        return np.full(z0, int(placement), dtype=np.int64)
    pos = np.asarray(placement, dtype=np.int64)
    if pos.shape != (z0,):
        raise ParameterError("explicit placement must list one node per initial token")
    return pos


def _fork_targets(base: NeighbourTable, parents: np.ndarray,
                  rng) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct neighbor draws per forking parent (same edge at degree 1)."""
    a = base.sample(parents, rng)
    b = base.sample(parents, rng)
    redraw = (a == b) & (base.support[parents] > 1)
    tries = 0
    while np.any(redraw):
        tries += 1
        if tries > _PAIR_REDRAW_CAP:
            raise ParameterError("fork dispatch rejection sampling did not terminate")
        sub = parents[redraw]
        a[redraw] = base.sample(sub, rng)
        b[redraw] = base.sample(sub, rng)
        redraw = (a == b) & (base.support[parents] > 1)
    return a, b


@dataclass
class StepCounts:
    forks: int
    trap_deletions: int
    terminations: int

    @property
    def net(self) -> int:
        return self.forks - self.trap_deletions - self.terminations


@dataclass
class PopulationState:
    """One engine tick: the time, token positions, and the shared node clock."""

    time: int
    positions: np.ndarray
    clock: AgeClock

    @property
    def alive(self) -> int:
        return int(self.positions.size)

    @staticmethod
    def initial(kernel: TransitionKernel, z0: int, placement, rng) -> "PopulationState":
        pos = _initial_positions(kernel, z0, placement, rng)
        return PopulationState(0, pos, AgeClock(kernel.node_count))


def step(state: PopulationState, kernel: TransitionKernel, traps: TrapProfile,
         spec: PolicySpec, rng, order: str = "trap_first",
         age_law: AgeLaw | None = None) -> tuple[PopulationState, StepCounts]:
    """One transition of the multi-token dynamics.

    Arrival, trap roll, one policy action per surviving token from the node's
    pre-update age, a single clock update per visited node, then dispatch:
    passers move via the lazy kernel, fork parent and copy go to two distinct
    neighbors of the non-lazy walk. With ``order="policy_first"`` the trap
    roll instead follows the action and spares copies made this step. The
    input state is not modified.
    """
    t = state.time + 1
    pos = state.positions
    z_prev = pos.size
    last_visit = state.clock.last_visit
    ages = t - last_visit[pos]

    if order == "trap_first":
        if traps.has_traps:
            deleted = rng.random(z_prev) < traps.zeta[pos]
        else:
            deleted = np.zeros(z_prev, dtype=bool)
        n_del = int(deleted.sum())
        act_pos = pos[~deleted]
        act_ages = ages[~deleted]
    elif order == "policy_first":
        n_del = 0
        act_pos = pos
        act_ages = ages
    else:
        raise ParameterError(f"unknown event order {order!r}")

    roll = rng.random(act_pos.size)
    fork_region = act_ages >= spec.a_long[act_pos]
    term_region = (~fork_region) & (act_ages <= spec.a_short[act_pos])
    fork_mask = fork_region & (roll < spec.q_fork[act_pos])
    term_mask = term_region & (roll < spec.q_term[act_pos])
    n_fork = int(fork_mask.sum())
    n_term = int(term_mask.sum())

    if age_law is not None:
        age_law.record(act_pos, act_ages)

    keep_mask = ~fork_mask & ~term_mask
    if order == "policy_first":
        # the visiting token (passer or fork parent) is trap-rolled after
        # acting; copies created this step are exposed only from the next
        if traps.has_traps:
            exposed = keep_mask | fork_mask
            trap_roll = rng.random(act_pos.size) < traps.zeta[act_pos]
            died = exposed & trap_roll
            n_del = int(died.sum())
            keep_mask = keep_mask & ~died
            parent_moves = fork_mask & ~died
        else:
            parent_moves = fork_mask
    else:
        parent_moves = fork_mask

    # node clocks update once per visited node per step
    new_visit = last_visit.copy()
    new_visit[np.unique(pos)] = t

    moved = kernel.neighbour_table().sample(act_pos[keep_mask], rng)

    fork_nodes = act_pos[fork_mask]
    if fork_nodes.size:
        target_a, target_b = _fork_targets(kernel.base_neighbour_table(), fork_nodes, rng)
        if order == "policy_first":
            target_a = target_a[parent_moves[fork_mask]]
        new_pos = np.concatenate([moved, target_a, target_b])
    else:
        new_pos = moved

    new_state = PopulationState(t, new_pos, AgeClock(kernel.node_count, now=t,
                                                     last_visit=new_visit))
    return new_state, StepCounts(n_fork, n_del, n_term)


def run_population(kernel: TransitionKernel, policy, traps: TrapProfile, z0: int,
                   horizon: int, rng_seed: int, z_cap: int = DEFAULT_POPULATION_CAP,
                   placement="pi", order: str = "trap_first",
                   collect_age_law: bool = False, age_law_burn_in: int = 0,
                   age_law_cap: int = 256, config_hash: str | None = None) -> PopulationTrace:
    """Simulate the full multi-token dynamics and return the trace.

    ``policy`` is a PolicySpec or a RegimePolicy; ``order`` chooses whether the
    trap roll precedes the policy action (default) or follows it. Deterministic
    given the seed.
    """
    if horizon < 1 or z0 < 1:
        raise ParameterError("need horizon >= 1 and at least one initial token")
    if order not in ("trap_first", "policy_first"):
        raise ParameterError(f"unknown event order {order!r}")
    n = kernel.node_count
    if len(traps.zeta) != n:
        raise ParameterError("trap profile does not match the graph")
    regime_policy = policy if isinstance(policy, RegimePolicy) else None
    if regime_policy is None and not isinstance(policy, PolicySpec):
        raise ParameterError("policy must be a PolicySpec or RegimePolicy")

    rng = np.random.default_rng(rng_seed)
    state = PopulationState.initial(kernel, z0, placement, rng)
    law = AgeLaw(n, age_law_cap) if collect_age_law else None
    eligible_visits = 0

    z_hist = [z0]
    fork_hist = [0]
    del_hist = [0]
    term_hist = [0]
    regime = regime_policy.initial_regime(z0) if regime_policy else None
    extinct = False
    capped = False

    for t in range(1, horizon + 1):
        if regime_policy is not None:
            regime = regime_policy.next_regime(regime, state.alive)
            spec = regime_policy.spec_for(regime)
        else:
            spec = policy
        collect_now = law is not None and t > age_law_burn_in
        z_prev = state.alive
        state, counts = step(state, kernel, traps, spec, rng, order=order,
                             age_law=law if collect_now else None)
        if collect_now:
            # trapped tokens never reach the policy stage in trap_first order,
            # so they are not action-eligible visits
            eligible_visits += z_prev - (counts.trap_deletions if order == "trap_first" else 0)

        z_hist.append(state.alive)
        fork_hist.append(counts.forks)
        del_hist.append(counts.trap_deletions)
        term_hist.append(counts.terminations)

        if state.alive == 0:
            extinct = True
            break
        if state.alive >= z_cap:
            capped = True
            break

    pi = kernel.pi
    return PopulationTrace(
        z=np.asarray(z_hist, dtype=np.int64),
        forks=np.asarray(fork_hist, dtype=np.int64),
        trap_dels=np.asarray(del_hist, dtype=np.int64),
        terms=np.asarray(term_hist, dtype=np.int64),
        seed=rng_seed,
        lambda_del=traps.absorption_pressure(pi),
        extinct=extinct,
        capped=capped,
        horizon_requested=horizon,
        config_hash=config_hash,
        age_law=law,
        eligible_visits=eligible_visits,
    )


# ---------------------------------------------------------------------------
# block-level drift analysis

@dataclass
class DriftReport:
    """Per-block realized drift against the rate-model prediction.

    Predictions use within-block empirical fork/termination rates but the
    analytic absorption pressure, so the residual isolates how far realized
    trap deletions sit from their stationary mean.
    """

    block_length: int
    z_start: np.ndarray
    drift_per_token: np.ndarray
    predicted_per_token: np.ndarray
    residual_per_token: np.ndarray
    residual_abs: np.ndarray
    bernstein_scale: np.ndarray
    p_fork_hat: np.ndarray
    k_term_hat: np.ndarray
    lambda_del: float

    @property
    def block_count(self) -> int:
        return len(self.z_start)

    @property
    def c1_proxy(self) -> float:
        """Mean per-token absolute residual: the flat coupling-error estimate."""
        return float(np.mean(np.abs(self.residual_abs) / self.z_start))

    def sign_agreement(self, min_z: int = 1, factor: float = 2.0) -> tuple[int, int]:
        """(matched, considered) over blocks where the predicted rate clears
        ``factor * c1_proxy / B`` and the block started with at least min_z tokens."""
        rate = self.predicted_per_token / self.block_length
        strong = (np.abs(rate) > factor * self.c1_proxy / self.block_length) & (self.z_start >= min_z)
        matched = np.sign(self.drift_per_token[strong]) == np.sign(self.predicted_per_token[strong])
        return int(matched.sum()), int(strong.sum())


def block_drift(trace: PopulationTrace, plan: BlockPlan, min_blocks: int = 10) -> DriftReport:
    """Aggregate the trace into blocks and compare drift with the rate model."""
    b = plan.block_length
    if b < 1:
        raise ParameterError("block length must be positive")
    if not math.isfinite(trace.lambda_del):
        raise InsufficientDataError("trace carries no absorption pressure; re-run with traps metadata")
    n_blocks = trace.horizon // b
    rows = []
    for k in range(n_blocks):
        z_k = int(trace.z[k * b])
        if z_k == 0:
            continue
        z_next = int(trace.z[(k + 1) * b])
        s_fork = int(trace.forks[k * b + 1:(k + 1) * b + 1].sum())
        s_term = int(trace.terms[k * b + 1:(k + 1) * b + 1].sum())
        ts = trace.token_steps(k * b + 1, (k + 1) * b)
        if ts == 0:
            continue
        p_hat = s_fork / ts
        k_hat = s_term / ts
        pred_rate = p_hat - trace.lambda_del - k_hat
        drift = z_next - z_k
        rows.append((z_k, drift / z_k, b * pred_rate, drift - z_k * b * pred_rate,
                     math.sqrt(z_k * b * math.log(max(z_k, 2))), p_hat, k_hat))
    if len(rows) < min_blocks:
        raise InsufficientDataError(f"only {len(rows)} usable blocks, need {min_blocks}")
    cols = list(zip(*rows))
    z_start = np.asarray(cols[0], dtype=float)
    return DriftReport(
        block_length=b,
        z_start=z_start,
        drift_per_token=np.asarray(cols[1]),
        predicted_per_token=np.asarray(cols[2]),
        residual_per_token=np.asarray(cols[1]) - np.asarray(cols[2]),
        residual_abs=np.asarray(cols[3]),
        bernstein_scale=np.asarray(cols[4]),
        p_fork_hat=np.asarray(cols[5]),
        k_term_hat=np.asarray(cols[6]),
        lambda_del=trace.lambda_del,
    )


# ---------------------------------------------------------------------------
# baselines and goodness-of-fit checks

@dataclass
class GwReport:
    extinction_fraction: float
    survival_fraction: float
    final_sizes: np.ndarray
    max_sizes: np.ndarray


def gw_baseline(mean_offspring: float, generations: int, replicas: int, seed: int,
                offspring: str = "poisson", binomial_trials: int = 10,
                initial: int = 1, z_cap: int = DEFAULT_POPULATION_CAP) -> GwReport:
    """Galton-Watson comparison chain with a given mean offspring count.

    Poisson offspring by default (population-level draws aggregate exactly);
    a binomial option with a fixed trial count is available. Replicas halted
    at ``z_cap`` count as survivors.
    """
    if replicas < 1:
        raise ParameterError("need at least one replica")
    if mean_offspring < 0:
        raise ParameterError("mean offspring must be nonnegative")
    rng = np.random.default_rng(seed)
    z = np.full(replicas, initial, dtype=np.int64)
    z_max = z.copy()
    for _ in range(generations):
        live = (z > 0) & (z <= z_cap)
        if not np.any(live):
            break
        if offspring == "poisson":
            z[live] = rng.poisson(mean_offspring * z[live])
        elif offspring == "binomial":
            p = mean_offspring / binomial_trials
            if not (0.0 <= p <= 1.0):
                raise ParameterError("binomial offspring needs mean <= trial count")
            z[live] = rng.binomial(binomial_trials * z[live], p)
        else:
            raise ParameterError(f"unknown offspring law {offspring!r}")
        z_max = np.maximum(z_max, z)
    extinct = float(np.mean(z == 0))
    return GwReport(extinct, 1.0 - extinct, z.copy(), z_max)


def gw_extinction_probability(mean_offspring: float, offspring: str = "poisson",
                              binomial_trials: int = 10, iters: int = 500) -> float:
    """Fixed point of the offspring generating function, iterated from 0."""
    s = 0.0
    for _ in range(iters):
        if offspring == "poisson":
            s = math.exp(mean_offspring * (s - 1.0))
        elif offspring == "binomial":
            p = mean_offspring / binomial_trials
            s = (1.0 - p + p * s) ** binomial_trials
        else:
            raise ParameterError(f"unknown offspring law {offspring!r}")
    return s


def _merge_small_cells(counts: np.ndarray, expected: np.ndarray,
                       floor: float = 5.0) -> tuple[np.ndarray, np.ndarray]:
    """Greedily pool cells (smallest expected first) until every group reaches the floor."""
    order = np.argsort(expected)
    group_counts, group_expected = [], []
    acc_c = acc_e = 0.0
    for idx in order:
        acc_c += counts[idx]
        acc_e += expected[idx]
        if acc_e >= floor:
            group_counts.append(acc_c)
            group_expected.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0.0 and group_expected:
        group_counts[-1] += acc_c
        group_expected[-1] += acc_e
    return np.asarray(group_counts), np.asarray(group_expected)


@dataclass
class OccupancyReport:
    statistic: float
    p_value: float
    dof: int
    counts: np.ndarray
    expected: np.ndarray
    cells_merged: bool


def occupancy_check(kernel: TransitionKernel, z: int, t_sample: int, replicas: int,
                    seed: int, start_node: int = 0) -> OccupancyReport:
    """Chi-square goodness of fit of token positions against the stationary law.

    All tokens start at ``start_node`` (worst case), evolve ``t_sample`` steps
    with no traps or policy, and are pooled across replicas. Cells whose
    expected count falls below 5 are pooled into one bucket, noted in the report.
    """
    rng = np.random.default_rng(seed)
    total = z * replicas
    pos = np.full(total, start_node, dtype=np.int64)
    table = kernel.neighbour_table()
    for _ in range(t_sample):
        pos = table.sample(pos, rng)
    counts = np.bincount(pos, minlength=kernel.node_count).astype(float)
    expected = total * kernel.pi.probs

    merged = bool(np.any(expected < 5.0))
    if merged:
        counts, expected = _merge_small_cells(counts, expected)
    if len(counts) < 2:
        raise InsufficientDataError("too few cells with adequate expected counts")
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts) - 1
    p_value = float(stats.chi2.sf(statistic, dof))
    return OccupancyReport(statistic, p_value, dof, counts, expected, merged)
