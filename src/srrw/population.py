"""Multi-token walk engine: motion, trap deletions, forks, terminations.

Per step, every live token arrives at its node, may be deleted by a trap,
then (if surviving) takes one policy action from the node's pre-update age:
fork, terminate, or pass, by the age region ``PolicySpec.region`` assigns.
The node clock (``PopulationState.last_visit``) updates once per visited node
per step, so simultaneous arrivals at a node all see the same age. Fork copies
go to two distinct neighbors drawn from the non-lazy walk (both along the
single edge at degree-1 nodes) and are not exposed to traps until their
first arrival on the next step. Passing tokens move via the lazy kernel.

Because every token at a node sees the same age and acts independently, the
engine keeps only the number of tokens per node and draws a whole step as
per-node multinomials, equal in law to drawing every token on its own; the
rows of those multinomials come from ``StepRows``, the one holder of a run's
kernel, trap profile and event order:

- each occupied node splits its tokens into trapped, acted (fork or
  terminate, by the age region), acted-then-trapped (``policy_first`` fork
  parents) and moved to each lazy neighbour;
- the fork pairs of a node draw their first target ``a`` with probability
  ``p_a (1 - p_a) / (1 - sum p^2)``, then the second ``b != a`` with
  probability ``p_b / (1 - p_a)``: the law of two independent draws
  conditioned to differ. A trapped parent's copy takes the same marginal.

A step makes at most three ``Generator.multinomial`` calls: one over the
occupied nodes' rows, and for forks one over their first targets and one
over their second targets. Second-target rows depend only on the kernel, so
its ``fork_table`` holds one per directed edge u -> a, built on first use:
8 x 2|E| x width bytes (10.7 kB on ER(30, 0.15), 1.8 MB on ER(1000, 0.01),
64 MB on star(2000)). A step costs O(occupied nodes x row width) whatever
the population size; the row width is the largest degree + 1, so hub graphs
pay O(n) per row.

Population counts are recorded after all events of a step resolve, and the
realized counts satisfy Z_t = Z_{t-1} + forks - deletions - terminations
exactly at every step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .graphs import ForkTable, StationaryDistribution, TransitionKernel
from .policy import FORK, TERM, AgeLaw, PolicySpec, RegimePolicy

DEFAULT_POPULATION_CAP = 10**6

# the event columns leading every node row
_TRAPPED, _ACTED_TRAPPED, _ACTED = 0, 1, 2
_EVENTS = 3


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
        lines.append(f"# capped={int(self.capped)}")
        lines.append(f"# extinct={int(self.extinct)}")
        lines.append(f"# horizon_requested={self.horizon_requested}")
        if self.age_law is not None:
            lines += [f"# {line}" for line in self.age_law.header_lines()]
        lines.append("t,Z,forks,trap_dels,terms")
        for t in range(len(self.z)):
            lines.append(f"{t},{self.z[t]},{self.forks[t]},{self.trap_dels[t]},{self.terms[t]}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def from_csv(path) -> "PopulationTrace":
        """Read a trace written by ``to_csv``; files without the flag lines
        get ``capped=False``, extinction from the last count and the recorded
        length as the requested horizon, and files without age-law lines no
        age law. Raises ParameterError on no data rows, a row without five
        columns, or a non-integer cell or flag value."""
        meta = {}
        rows = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("# ") and "=" in line:
                    key, value = line[2:].split("=", 1)
                    meta[key] = value
                elif line and not line.startswith("#") and not line.startswith("t,"):
                    rows.append(line.split(","))
        if not rows or any(len(row) != 5 for row in rows):
            raise ParameterError("trace needs at least one data row, each of five columns")
        try:
            arr = np.asarray(rows, dtype=np.int64)
            seed = int(meta.get("seed", 0))
            capped = bool(int(meta.get("capped", 0)))
            extinct = bool(int(meta["extinct"])) if "extinct" in meta else bool(arr[-1, 1] == 0)
            horizon_requested = int(meta.get("horizon_requested", len(rows) - 1))
        except ValueError as exc:
            raise ParameterError(f"trace values must be integers: {exc}") from None
        return PopulationTrace(
            z=arr[:, 1], forks=arr[:, 2], trap_dels=arr[:, 3], terms=arr[:, 4],
            seed=seed, lambda_del=float("nan"), config_hash=meta.get("config_hash"),
            extinct=extinct, capped=capped, horizon_requested=horizon_requested,
            age_law=AgeLaw.from_header(meta),
        )


def _initial_counts(kernel: TransitionKernel, z0: int, placement, rng) -> np.ndarray:
    n = kernel.node_count
    if isinstance(placement, str):
        if placement == "pi":
            return rng.multinomial(z0, kernel.pi.probs)
        if placement == "uniform":
            return rng.multinomial(z0, np.full(n, 1.0 / n))
        raise ParameterError(f"unknown placement {placement!r}")
    if np.isscalar(placement):
        pos = np.full(z0, int(placement), dtype=np.int64)
    else:
        pos = np.asarray(placement, dtype=np.int64)
        if pos.shape != (z0,):
            raise ParameterError("explicit placement must list one node per initial token")
    if pos.min() < 0 or pos.max() >= n:
        raise ParameterError(f"placement names a node outside 0..{n - 1}")
    return np.bincount(pos, minlength=n)


class StepRows:
    """Probability rows of the count engine for one kernel, trap profile and order.

    The one holder of a run's kernel, traps and event order. Node-row columns
    run in reversed slot order, so each row's last column is slot 0, a real
    neighbour: numpy's multinomial gives any rounding remainder to the last
    column. Node rows are built per policy spec on first use and reused for
    the whole run; fork rows are the kernel's ``fork_table``.
    """

    def __init__(self, kernel: TransitionKernel, traps: TrapProfile, order: str = "trap_first"):
        if order not in ("trap_first", "policy_first"):
            raise ParameterError(f"unknown event order {order!r}")
        if len(traps.zeta) != kernel.node_count:
            raise ParameterError("trap profile does not match the graph")
        lazy = kernel.neighbour_table()
        self.order = order
        self.zeta = traps.zeta
        self.node_count = kernel.node_count
        self.motion = lazy.prob[:, ::-1]
        # the node each node-row column's tokens land on; tokens that leave
        # (trapped or acted) land in the extra node n
        self.landing = np.hstack([np.full((self.node_count, _EVENTS), self.node_count),
                                  lazy.nbr[:, ::-1]])
        self.forks = kernel.fork_table()
        self._nodes = {}

    def node_rows(self, spec: PolicySpec) -> np.ndarray:
        """Row ``region * n + node``: trapped, acted then trapped, acted, moves."""
        key = id(spec)
        if key not in self._nodes:
            zeta = self.zeta[None, :]
            q = np.stack([spec.q_fork, spec.q_term, np.zeros(self.node_count)])
            rows = np.empty((3, self.node_count, _EVENTS + self.motion.shape[1]))
            if self.order == "trap_first":
                rows[:, :, _TRAPPED] = zeta
                rows[:, :, _ACTED_TRAPPED] = 0.0
                rows[:, :, _ACTED] = (1.0 - zeta) * q
            else:
                # terminating tokens leave before the trap roll; passers and
                # fork parents are rolled after acting
                rows[:, :, _TRAPPED] = (1.0 - q) * zeta
                rows[:, :, _ACTED_TRAPPED] = q * zeta
                rows[TERM, :, _ACTED_TRAPPED] = 0.0
                rows[:, :, _ACTED] = q * (1.0 - zeta)
                rows[TERM, :, _ACTED] = spec.q_term
            rows[:, :, _EVENTS:] = ((1.0 - q) * (1.0 - zeta))[:, :, None] * self.motion[None]
            self._nodes[key] = (spec, rows.reshape(3 * self.node_count, -1))
        return self._nodes[key][1]


def _dispatch_forks(table: ForkTable, nodes: np.ndarray, pairs: np.ndarray,
                    lone: np.ndarray | None, rng) -> tuple[np.ndarray, ...]:
    """Landing nodes and token counts of fork parents and copies after one step.

    ``pairs[i]`` parent-and-copy pairs and ``lone[i]`` copies of trapped
    parents (``None`` when there are none) leave ``nodes[i]``. Each pair
    lands on two distinct neighbours (the single edge twice at degree 1); a
    lone copy lands on a pair's first target, which has the same law as its
    second. Returns flat destination and count arrays: first targets, then
    second targets.
    """
    m = nodes.size
    if lone is not None:
        nodes = np.concatenate((nodes, nodes))
        pairs = np.concatenate((pairs, lone))
    first = rng.multinomial(pairs, table.first.take(nodes, axis=0))
    # every first target of a pair, as a flat index into ``first``
    hit = first[:m].ravel().nonzero()[0]
    i, a = np.divmod(hit, first.shape[1])
    edge = table.edge_end.take(nodes.take(i)) - a
    second = rng.multinomial(first.take(hit), table.second.take(edge, axis=0))
    return (table.dest.take(nodes, axis=0).ravel(), first.ravel(),
            table.dest.take(table.edge_dest.take(edge), axis=0).ravel(), second.ravel())


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
    """One engine tick: the time, the token count per node, and the node clock.

    ``last_visit[u]`` is the last time any token visited node u. Last-visit
    times start at 0, so a never-visited node has age equal to the current
    time; this convention makes early policy triggers possible.
    """

    time: int
    counts: np.ndarray
    last_visit: np.ndarray

    @property
    def alive(self) -> int:
        return int(self.counts.sum())

    @staticmethod
    def initial(kernel: TransitionKernel, z0: int, placement, rng) -> "PopulationState":
        counts = _initial_counts(kernel, z0, placement, rng)
        return PopulationState(0, counts, np.zeros(kernel.node_count, dtype=np.int64))


def step(state: PopulationState, rows: StepRows, spec: PolicySpec, rng,
         age_law: AgeLaw | None = None) -> tuple[PopulationState, StepCounts]:
    """One transition of the multi-token dynamics.

    Arrival, trap roll, one policy action per surviving token from the node's
    pre-update age, a single clock update per visited node, then dispatch:
    passers move via the lazy kernel, fork parent and copy go to two distinct
    neighbors of the non-lazy walk. With ``order="policy_first"`` rows the
    trap roll instead follows the action and spares copies made this step.
    Drawn per occupied node from the token counts with the kernel, traps and
    order of ``rows``. The input state is not modified.
    """
    t = state.time + 1
    n = rows.node_count
    occ = state.counts.nonzero()[0]
    tokens = state.counts.take(occ)
    ages = t - state.last_visit.take(occ)
    region = spec.region(occ, ages)
    draws = rng.multinomial(tokens, rows.node_rows(spec).take(region * n + occ, axis=0))

    if age_law is not None:
        # trap_first: trapped tokens never reach the policy stage
        trap_first = rows.order == "trap_first"
        age_law.record(occ, ages, tokens - draws[:, _TRAPPED] if trap_first else tokens)

    # acted tokens fork in the fork region and terminate in the term region
    # (the pass region never acts); acted-then-trapped tokens are fork
    # parents whose copy still leaves
    trapped, acted_trapped, acted = np.add.reduce(draws[:, :_EVENTS]).tolist()
    pairs = draws[:, _ACTED] * (region == FORK)
    dest = [rows.landing.take(occ, axis=0).ravel()]
    moved = [draws.ravel()]
    n_pairs = 0
    f = (pairs + draws[:, _ACTED_TRAPPED] if acted_trapped else pairs).nonzero()[0]
    if f.size:
        pairs = pairs.take(f)
        n_pairs = int(np.add.reduce(pairs))
        lone = draws[:, _ACTED_TRAPPED].take(f) if acted_trapped else None
        forked = _dispatch_forks(rows.forks, occ.take(f), pairs, lone, rng)
        dest += forked[0::2]
        moved += forked[1::2]
    counts = np.bincount(np.concatenate(dest), weights=np.concatenate(moved),
                         minlength=n + 1)[:n].astype(np.int64)

    # node clocks update once per visited node per step
    last_visit = state.last_visit.copy()
    last_visit[occ] = t
    return (PopulationState(t, counts, last_visit),
            StepCounts(n_pairs + acted_trapped, trapped + acted_trapped, acted - n_pairs))


def run_population(kernel: TransitionKernel, policy, traps: TrapProfile, z0: int,
                   horizon: int, rng_seed: int, z_cap: int = DEFAULT_POPULATION_CAP,
                   placement="pi", order: str = "trap_first",
                   collect_age_law: bool = False, age_law_burn_in: int = 0,
                   config_hash: str | None = None) -> PopulationTrace:
    """Simulate the full multi-token dynamics and return the trace.

    ``policy`` is a PolicySpec or a RegimePolicy; ``order`` chooses whether the
    trap roll precedes the policy action (default) or follows it. Deterministic
    given the seed.
    """
    if horizon < 1 or z0 < 1:
        raise ParameterError("need horizon >= 1 and at least one initial token")
    rows = StepRows(kernel, traps, order)
    regime_policy = policy if isinstance(policy, RegimePolicy) else None
    if regime_policy is None and not isinstance(policy, PolicySpec):
        raise ParameterError("policy must be a PolicySpec or RegimePolicy")

    rng = np.random.default_rng(rng_seed)
    state = PopulationState.initial(kernel, z0, placement, rng)
    law = AgeLaw(kernel.node_count) if collect_age_law else None

    z_hist = [z0]
    fork_hist = [0]
    del_hist = [0]
    term_hist = [0]
    regime = regime_policy.initial_regime(z0) if regime_policy else None
    extinct = False
    capped = False

    z = z0
    for t in range(1, horizon + 1):
        if regime_policy is not None:
            regime = regime_policy.next_regime(regime, z)
            spec = regime_policy.spec_for(regime)
        else:
            spec = policy
        state, counts = step(state, rows, spec, rng,
                             age_law=law if t > age_law_burn_in else None)
        z = state.alive

        z_hist.append(z)
        fork_hist.append(counts.forks)
        del_hist.append(counts.trap_deletions)
        term_hist.append(counts.terminations)

        if z == 0:
            extinct = True
            break
        if z >= z_cap:
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
    residual_abs: np.ndarray
    lambda_del: float

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
        rows.append((z_k, drift / z_k, b * pred_rate, drift - z_k * b * pred_rate))
    if len(rows) < min_blocks:
        raise InsufficientDataError(f"only {len(rows)} usable blocks, need {min_blocks}")
    cols = list(zip(*rows))
    z_start = np.asarray(cols[0], dtype=float)
    return DriftReport(
        block_length=b,
        z_start=z_start,
        drift_per_token=np.asarray(cols[1]),
        predicted_per_token=np.asarray(cols[2]),
        residual_abs=np.asarray(cols[3]),
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
                    seed: int) -> OccupancyReport:
    """Chi-square goodness of fit of token positions against the stationary law.

    All tokens start at node 0 (worst case), evolve ``t_sample`` steps
    with no traps or policy, and are pooled across replicas; they move as
    counts per node (``NeighbourTable.move``). Cells whose expected count
    falls below 5 are pooled into one bucket, noted in the report.
    """
    from scipy import stats  # imported here: scipy costs about a second to load

    rng = np.random.default_rng(seed)
    total = z * replicas
    counts = np.zeros(kernel.node_count, dtype=np.int64)
    counts[0] = total
    table = kernel.neighbour_table()
    for _ in range(t_sample):
        counts = table.move(counts, rng)
    counts = counts.astype(float)
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
