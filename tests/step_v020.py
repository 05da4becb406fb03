"""The engine step of srrw 0.2.0, frozen as an exact reference.

A copy of ``StepRows``, ``_dispatch_forks`` and ``step`` as they stood before
the fork dispatch read its second-target rows from the kernel's per-edge
``ForkTable``, with the age-region rule and the age-law update of that
version. The engine must make the same draws in the same order, so a run
with these in place of ``srrw.population.step`` and ``StepRows`` has to give
the very same trace and age law. Kept as it was; engine changes go to
``srrw.population`` only.
"""
import numpy as np

from srrw.errors import ParameterError
from srrw.graphs import TransitionKernel
from srrw.policy import FORK, PASS, TERM, AgeLaw, PolicySpec
from srrw.population import PopulationState, StepCounts, TrapProfile

# the event columns leading every node row
_TRAPPED, _ACTED_TRAPPED, _ACTED = 0, 1, 2
_EVENTS = 3
# a step's tallies: node counts, then trapped, acted-then-trapped and acted
# by age region (policy.FORK, TERM, PASS); an acted token forks in the fork
# region and terminates in the term region (the pass region never acts)
_TALLIES = _ACTED + 3


def _region(spec, nodes, ages):
    """``PolicySpec.region`` of 0.2.0."""
    ages = np.asarray(ages)
    if ages.size and ages.min() < 0:
        raise ParameterError(f"ages must be nonnegative, got {ages.min()}")
    return np.where(ages >= spec.a_long[nodes], FORK, PASS - (ages <= spec.a_short[nodes]))


def _record(law, nodes, ages, weights):
    """``AgeLaw.record`` of 0.2.0."""
    np.add.at(law.counts, (nodes, np.minimum(ages, law.age_cap + 1)), weights)
    over = ages > law.age_cap
    if over.any():
        over &= weights > 0
        np.maximum.at(law.max_over_cap, nodes[over], ages[over])


class StepRows:
    """Probability rows of the count engine for one kernel, trap profile and order.

    The one holder of a run's kernel, traps and event order. Columns run in
    reversed slot order, so each row's last column is slot 0, a real
    neighbour: numpy's multinomial gives any rounding remainder to the last
    column. Node rows are built per policy spec on first use and reused for
    the whole run.
    """

    def __init__(self, kernel: TransitionKernel, traps: TrapProfile, order: str = "trap_first"):
        if order not in ("trap_first", "policy_first"):
            raise ParameterError(f"unknown event order {order!r}")
        if len(traps.zeta) != kernel.node_count:
            raise ParameterError("trap profile does not match the graph")
        lazy = kernel.neighbour_table()
        base = kernel.base_neighbour_table()
        n, width = base.nbr.shape
        self.order = order
        self.zeta = traps.zeta
        self.node_count = n
        self.motion = lazy.prob[:, ::-1]
        # where each node-row column's tokens are tallied: event columns past
        # the node counts, move columns at their destination node
        self.codes = np.hstack([np.broadcast_to(n + np.arange(_EVENTS), (n, _EVENTS)),
                                lazy.nbr[:, ::-1]])
        self.base = base.prob[:, ::-1].copy()
        self.base_dest = base.nbr[:, ::-1].copy()
        single = base.support == 1
        first = self.base * (1.0 - self.base)
        with np.errstate(invalid="ignore"):
            first /= first.sum(axis=1, keepdims=True)
        first[single] = self.base[single]
        self.first = first
        # column of slot 0 at nodes where the second target must avoid it
        self.slot0_col = np.where(single, -1, width - 1)
        self.keep_first = single.astype(float)
        self._nodes = {}

    def node_rows(self, spec: PolicySpec) -> np.ndarray:
        """(region, node, column) probabilities: trapped, acted then trapped, acted, moves."""
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
            self._nodes[key] = (spec, rows)
        return self._nodes[key][1]


def _dispatch_forks(rows: StepRows, nodes: np.ndarray, pairs: np.ndarray,
                    lone: np.ndarray, rng) -> list[np.ndarray]:
    """Landing nodes and token counts of fork parents and copies after one step.

    ``pairs[i]`` parent-and-copy pairs and ``lone[i]`` copies of trapped
    parents leave ``nodes[i]``. Each pair lands on two distinct neighbours
    (the single edge twice at degree 1); a lone copy lands on a pair's first
    target, which has the same law as its second. Returns destination and
    count arrays of equal shape, first targets then second targets.
    """
    m = nodes.size
    if lone.any():
        nodes = np.concatenate([nodes, nodes])
        pairs = np.concatenate([pairs, lone])
    first = rng.multinomial(pairs, rows.first[nodes])
    i, a = np.nonzero(first[:m])
    u = nodes[i]
    # second target: the first's column is cleared (kept at degree 1); when
    # the first is slot 0, slot 1 trades places with it so that the last
    # column stays a real neighbour other than the first
    cond = rows.base[u]
    cond[np.arange(u.size), a] = rows.keep_first[u]
    dest = rows.base_dest[u]
    trade = np.flatnonzero(a == rows.slot0_col[u])
    cond[trade, -2:] = cond[trade, :-3:-1]
    dest[trade, -2:] = dest[trade, :-3:-1]
    cond /= cond.sum(axis=1, keepdims=True)
    second = rng.multinomial(first[i, a], cond)
    return [rows.base_dest[nodes], first, dest, second]


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
    occ = np.flatnonzero(state.counts)
    tokens = state.counts[occ]
    ages = t - state.last_visit[occ]
    region = _region(spec, occ, ages)
    draws = rng.multinomial(tokens, rows.node_rows(spec)[region, occ])
    acted, acted_trapped = draws[:, _ACTED], draws[:, _ACTED_TRAPPED]

    if age_law is not None:
        # trap_first: trapped tokens never reach the policy stage
        trap_first = rows.order == "trap_first"
        _record(age_law, occ, ages, tokens - draws[:, _TRAPPED] if trap_first else tokens)

    codes = rows.codes[occ]
    codes[:, _ACTED] += region
    landing = [codes, draws]
    f = np.flatnonzero(acted * (region == FORK) + acted_trapped)
    if f.size:
        landing += _dispatch_forks(rows, occ[f], acted[f], acted_trapped[f], rng)
    tally = np.bincount(np.concatenate([x.ravel() for x in landing[0::2]]),
                        weights=np.concatenate([x.ravel() for x in landing[1::2]]),
                        minlength=n + _TALLIES).astype(np.int64)
    acted_trapped_total = int(tally[n + _ACTED_TRAPPED])
    n_fork = int(tally[n + _ACTED + FORK]) + acted_trapped_total
    n_term = int(tally[n + _ACTED + TERM])
    n_del = int(tally[n + _TRAPPED]) + acted_trapped_total

    # node clocks update once per visited node per step
    last_visit = state.last_visit.copy()
    last_visit[occ] = t
    return PopulationState(t, tally[:n], last_visit), StepCounts(n_fork, n_del, n_term)
