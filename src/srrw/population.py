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
- the fork pairs of a node land on an ordered pair (a, b) of distinct
  neighbours with probability ``p_a p_b / (1 - sum p^2)``: the law of two
  independent draws conditioned to differ. A trapped parent's copy lands on
  the pair's first target, which has the same law as the second.

On a narrow graph a step makes one draw: ``StepRows`` folds the fork pairs
into the node rows (one cell per ordered pair, and per lone copy), when one
age region of the folded rows fits ``FOLD_BYTES`` with its alias tables.
Otherwise it makes two: one over the node rows, then the targets of the
acted column's forks and of the lone copies in ``ForkTable.dispatch`` of
the kernel's ``fork_table``, per token: the first target from alias tables,
the second by a bisection of ceil(log2 W) rounds in the node's cumulative
row. ``step`` itself is the same for both: each cell of the rows names its
landing nodes and its class of event, and the only two-stage work left is
to split the acted column into forks and terminations by age region and
send the forks off. The node draw chooses by its density rule
(``graphs.AliasRows``) between one ``Generator.multinomial`` call, a
binomial per cell in O(rows x cells), cheaper on a few crowded rows, and a
draw per token, O(tokens), when its Z tokens number at most half the cells
of their gathered rows (2 Z <= rows x row width): a uniform column and a
coin against the row's Vose alias table. Both are exact in law. When the
triggers put every age 1..t in one region (every A_l <= 1, say), the step
reads that region without the per-node rule. Alias tables take 12 bytes
per cell for each (spec, age region) a sparse step draws from, and per node
row of the fork table's first targets. The kernel keeps the rows of its last
run (``step_rows``), so replicas of one graph, traps and order build their
node rows and alias tables once, not once per run. A per-token step tallies its
landings and events from its tokens' cells, O(Z); a multinomial step costs
O(occupied nodes x row width) whatever the population size, and the row
width is the largest degree + 1, so hub graphs pay O(n) per row.

Population counts are recorded after all events of a step resolve, and the
realized counts satisfy Z_t = Z_{t-1} + forks - deletions - terminations
exactly at every step.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .graphs import AliasRows, StationaryDistribution, TransitionKernel
from .policy import FORK, PASS, TERM, AgeLaw, PolicySpec, RegimePolicy

DEFAULT_POPULATION_CAP = 10**6
# largest block multiplier a config takes: kappa * a_eff stays finite for any
# a_eff the matching-age bisection returns (it stops past 1e18)
KAPPA_MAX = 1e6
CSV_CHUNK_ROWS = 4096  # trace rows formatted per write
# bytes that one age region's folded node rows may take with their alias tables, 20 bytes a
# cell (``StepRows``); set with scripts/step_timing.py (see the README's "Cost of a walk step")
FOLD_BYTES = 2 << 20

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
        if not math.isfinite(self.kappa * self.a_eff):
            raise ParameterError(f"block length is not finite: kappa={self.kappa}, a_eff={self.a_eff}")

    @property
    def block_length(self) -> int:
        return int(self.t_mix_part + math.ceil(self.kappa * self.a_eff))


@dataclass
class PopulationTrace:
    """Per-step population counts and event tallies, plus run provenance:
    exactly what ``to_csv`` writes and ``from_csv`` reads back.

    Arrays share indexing: entry t describes the state after step t resolved;
    entry 0 is the initial state with zero event counts.
    """

    z: np.ndarray
    forks: np.ndarray
    trap_dels: np.ndarray
    terms: np.ndarray
    seed: int
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
        if not 1 <= t_from <= t_to <= self.horizon:
            raise ParameterError(f"steps {t_from}..{t_to} are not within 1..{self.horizon}")
        return int(self.z[t_from - 1:t_to].sum())

    def blocks(self, b: int) -> tuple[np.ndarray, ...]:
        """Cut the trace into its k = ``horizon // b`` whole blocks: Z at steps
        0, b, ..., kb, then each block's forks, terminations and token-steps
        (block j covers steps jb + 1 .. (j + 1)b, so its token-steps include Z at jb)."""
        if b < 1:
            raise ParameterError("block length must be positive")
        k = self.horizon // b
        end = k * b

        def per_block(col):
            return col[1:end + 1].reshape(k, b).sum(axis=1)

        return (self.z[:end + 1:b], per_block(self.forks), per_block(self.terms),
                self.z[:end].reshape(k, b).sum(axis=1))

    def _unbalanced_steps(self) -> np.ndarray:
        """Steps t >= 1 whose counts break Z_t = Z_(t-1) + forks - trap_dels - terms."""
        return 1 + np.flatnonzero(np.diff(self.z) != (self.forks - self.trap_dels - self.terms)[1:])

    def conservation_violations(self) -> int:
        return int(self._unbalanced_steps().size)

    def to_csv(self, path, version: str = "") -> None:
        """Write ``# key=value`` provenance lines, the column header and one
        row per step; rows are formatted and written ``CSV_CHUNK_ROWS`` at a time."""
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
        cols = (self.z, self.forks, self.trap_dels, self.terms)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
            for lo in range(0, len(self.z), CSV_CHUNK_ROWS):
                hi = lo + CSV_CHUNK_ROWS
                rows = zip(range(lo, hi), *(col[lo:hi].tolist() for col in cols))
                fh.write("".join(f"{t},{z},{f},{d},{m}\n" for t, z, f, d, m in rows))

    @staticmethod
    def from_csv(path, node_count: int | None = None) -> "PopulationTrace":
        """Read a trace written by ``to_csv``; files without the flag lines
        get ``capped=False``, extinction from the last count and the recorded
        length as the requested horizon, and files without age-law lines no
        age law. Data rows go through numpy's C text parser without a Python
        object per row or cell; it takes ASCII decimal integers with an
        optional sign and surrounding blanks. Raises ParameterError on text
        that is not UTF-8, an age law not of ``node_count`` nodes when that is
        given (see ``AgeLaw.from_header``), no data rows, a row without five
        columns, a cell that is not such an int64 or a non-integer flag value,
        a ``t`` column other than 0, 1, ..., T, a negative count, a step whose
        counts break Z_t = Z_(t-1) + forks - trap_dels - terms, or flags that
        disagree with the counts: a flag other than 0 or 1, ``extinct`` unless
        the final Z is 0, both flags set, T past ``horizon_requested``, or T
        short of it with neither flag set."""
        meta = {}

        def data_lines(fh):
            for line in fh:
                line = line.strip()
                if line.startswith("# ") and "=" in line:
                    key, value = line[2:].split("=", 1)
                    meta[key] = value
                elif line and not line.startswith("#") and not line.startswith("t,"):
                    yield line

        with open(path, encoding="utf-8") as fh:
            lines = data_lines(fh)
            try:
                first = next(lines, None)
                if first is None:
                    raise ParameterError("trace needs at least one data row, each of five columns")
                arr = np.loadtxt(itertools.chain((first,), lines), dtype=np.int64,
                                 delimiter=",", comments=None, ndmin=2)
            except UnicodeDecodeError as exc:
                raise ParameterError(f"trace is not UTF-8 text: {exc}") from None
            except ValueError as exc:
                raise ParameterError(f"trace rows must hold five integers each: {exc}") from None
        if arr.shape[1] != 5:
            raise ParameterError("trace needs at least one data row, each of five columns")
        try:
            seed = int(meta.get("seed", 0))
            capped = int(meta.get("capped", 0))
            extinct = int(meta["extinct"]) if "extinct" in meta else int(arr[-1, 1] == 0)
            horizon_requested = int(meta.get("horizon_requested", len(arr) - 1))
        except ValueError as exc:
            raise ParameterError(f"trace values must be integers: {exc}") from None
        steps, final_z = len(arr) - 1, arr[-1, 1]
        if {capped, extinct} - {0, 1}:
            raise ParameterError(f"flags must be 0 or 1, got capped={capped} extinct={extinct}")
        if extinct != (final_z == 0):
            raise ParameterError(f"extinct={extinct} disagrees with the final Z={final_z}")
        if capped and extinct:
            raise ParameterError("a trace cannot be both capped and extinct")
        if steps > horizon_requested or (steps < horizon_requested and not (capped or extinct)):
            raise ParameterError(f"{steps} steps recorded against horizon_requested="
                                 f"{horizon_requested} with capped={capped} extinct={extinct}")
        off = np.flatnonzero(arr[:, 0] != np.arange(len(arr)))
        if off.size:
            raise ParameterError(f"trace steps must run 0, 1, ..., {len(arr) - 1}; "
                                 f"data row {off[0]} has t={arr[off[0], 0]}")
        negative = np.flatnonzero((arr[:, 1:] < 0).any(axis=1))
        if negative.size:
            raise ParameterError(f"step {negative[0]} has a negative count")
        trace = PopulationTrace(
            z=arr[:, 1], forks=arr[:, 2], trap_dels=arr[:, 3], terms=arr[:, 4],
            seed=seed, config_hash=meta.get("config_hash"),
            extinct=bool(extinct), capped=bool(capped), horizon_requested=horizon_requested,
            age_law=AgeLaw.from_header(meta, node_count),
        )
        unbalanced = trace._unbalanced_steps()
        if unbalanced.size:
            raise ParameterError(f"step {unbalanced[0]} breaks "
                                 "Z_t = Z_(t-1) + forks - trap_dels - terms")
        return trace


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

    The one holder of a run's kernel, traps and event order. A node row splits
    a node's tokens over the event columns (trapped, acted then trapped,
    acted) and then the lazy moves in reversed slot order, so each row's last
    column is slot 0, a real neighbour: numpy's multinomial gives any rounding
    remainder to the last column. A graph whose rows of one age region take
    at most ``FOLD_BYTES`` with their alias tables (20 bytes a cell) is
    *folded* (``folded``): in the fork region, the acted column becomes one
    cell per ordered pair of the kernel's ``fork_table().pair_rows()``, and
    the acted-then-trapped column (``policy_first`` fork parents) one
    lone-copy cell per neighbour on the first-target marginal, placed before
    the moves, so one draw settles the whole step. ``bounds`` gives the
    first column of each class of the folded layout: trapped, acted then
    trapped, acted, lone copies, pairs and moves; ``classes`` gives those of
    these rows, whose lone-copy and pair classes exist only when folded.
    ``landing`` (n, columns, 1), or (n, columns, 2) when folded, gives each
    cell its landing nodes, n for tokens that leave (the event columns of
    rows that do not fold, whose forks ``step`` sends through the kernel's
    ``fork_table``), and ``cell_landing`` the same by cell of the rows
    flattened. Node rows are built per policy spec on first use, as
    ``AliasRows`` whose alias tables are built per age region (a block of n
    rows) on the first sparse step that draws from it, and reused for the
    whole run and, through ``step_rows``, by later runs on the same kernel
    while ``retain`` keeps them.
    """

    def __init__(self, kernel: TransitionKernel, traps: TrapProfile, order: str = "trap_first"):
        if order not in ("trap_first", "policy_first"):
            raise ParameterError(f"unknown event order {order!r}")
        if len(traps.zeta) != kernel.node_count:
            raise ParameterError("trap profile does not match the graph")
        lazy = kernel.neighbour_table()
        self.order = order
        # a copy, so the kept rows read the values ``step_rows`` keys them by
        self.zeta = traps.zeta.copy()
        self.node_count = n = kernel.node_count
        self.motion = lazy.prob[:, ::-1]
        self.forks = kernel.fork_table()
        moves = lazy.nbr[:, ::-1]
        w = self.forks.first.shape[1]
        self.bounds = np.array([0, 1, 2, _EVENTS, _EVENTS + w, _EVENTS + w + w * w])
        self.folded = 20 * n * (self.bounds[-1] + moves.shape[1]) <= FOLD_BYTES
        # rows that do not fold have no lone-copy or pair cells
        self.classes = self.bounds if self.folded else self.bounds[:4]
        landing = np.full((n, self.classes[-1] + moves.shape[1], 2 if self.folded else 1), n)
        landing[:, self.classes[-1]:, 0] = moves
        if self.folded:
            dest, pairs = self.forks.dest, slice(self.bounds[4], self.bounds[5])
            self.forks.pair_rows()  # builds ``pair_a`` and ``pair_b``
            landing[:, _EVENTS:self.bounds[4], 0] = dest
            landing[:, pairs, 0] = dest.take(self.forks.pair_a, axis=1)
            landing[:, pairs, 1] = dest.take(self.forks.pair_b, axis=1)
        self.landing = landing
        self.cell_landing = landing.reshape(-1, landing.shape[2])
        self._nodes = {}

    def node_rows(self, spec: PolicySpec) -> AliasRows:
        """Row ``region * n + node``: trapped, acted then trapped, acted, (when folded) lone
        copies and ordered pairs, then moves."""
        key = id(spec)
        if key not in self._nodes:
            zeta = self.zeta[None, :]
            q = np.stack([spec.q_fork, spec.q_term, np.zeros(self.node_count)])
            rows = np.zeros((3, self.node_count, self.landing.shape[1]))
            if self.order == "trap_first":
                rows[:, :, _TRAPPED] = zeta
                rows[:, :, _ACTED] = (1.0 - zeta) * q
            else:
                # terminating tokens leave before the trap roll; passers and
                # fork parents are rolled after acting
                rows[:, :, _TRAPPED] = (1.0 - q) * zeta
                rows[:, :, _ACTED_TRAPPED] = q * zeta
                rows[TERM, :, _ACTED_TRAPPED] = 0.0
                rows[:, :, _ACTED] = q * (1.0 - zeta)
                rows[TERM, :, _ACTED] = spec.q_term
            moves = self.motion.shape[1]
            rows[:, :, -moves:] = ((1.0 - q) * (1.0 - zeta))[:, :, None] * self.motion[None]
            if self.folded:
                fork, (lone, pairs, end) = rows[FORK], self.bounds[3:]
                fork[:, lone:pairs] = fork[:, _ACTED_TRAPPED, None] * self.forks.first
                fork[:, pairs:end] = fork[:, _ACTED, None] * self.forks.pair_rows()
                fork[:, _ACTED_TRAPPED:_EVENTS] = 0.0
            triggers = (spec.a_long.max(), spec.a_long.min(), spec.a_short.min(),
                        spec.a_short.max())
            self._nodes[key] = (spec, AliasRows(rows.reshape(3 * self.node_count, -1),
                                                self.node_count), triggers, _spec_values(spec))
        return self._nodes[key][1]

    def retain(self, specs) -> None:
        """Keep the node rows of ``specs`` alone, and of each only while the spec holds the
        values the rows were built from (``PolicySpec`` arrays can change in place)."""
        kept = {}
        for spec in specs:
            entry = self._nodes.get(id(spec))
            if entry is not None and np.array_equal(entry[3], _spec_values(spec)):
                kept[id(spec)] = entry
        self._nodes = kept

    def uniform_region(self, spec: PolicySpec, t: int) -> int | None:
        """The age region of every visit at step ``t`` when the triggers of ``spec`` put every
        age 1..t at every node in one region, else None; ``node_rows(spec)`` comes first."""
        long_max, long_min, short_min, short_max = self._nodes[id(spec)][2]
        if long_max <= 1:
            return FORK
        if long_min > t and short_min >= t:
            return TERM
        if long_min > t and short_max < 1:
            return PASS
        return None


def _spec_values(spec: PolicySpec) -> np.ndarray:
    """A copy of every value of ``spec`` that its node rows are built from."""
    return np.stack((spec.a_long, spec.a_short, spec.q_fork, spec.q_term))


def step_rows(kernel: TransitionKernel, traps: TrapProfile, order: str = "trap_first") -> StepRows:
    """The ``StepRows`` of ``kernel``, ``traps`` and ``order``, kept on the kernel.

    The kernel keeps one set of rows. They are reused, with their node rows and alias
    tables, when they were built by the ``StepRows`` this module names now, for the same
    order and zeta values (compared by value) and under the current ``FOLD_BYTES``;
    otherwise new rows are built and kept in their place.
    """
    key = (StepRows, order, FOLD_BYTES, traps.zeta.tobytes())
    kept = kernel.engine_rows
    if kept is None or kept[0] != key:
        kernel.engine_rows = kept = (key, StepRows(kernel, traps, order))
    return kept[1]


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
    node_rows = rows.node_rows(spec)
    # ages run 1..t, so triggers that put them all in one region need no per-node rule
    uniform = rows.uniform_region(spec, t)
    if uniform is None or age_law is not None:
        ages = t - state.last_visit.take(occ)
    region = spec.region(occ, ages) if uniform is None else uniform
    index = region * n + occ
    sparse = node_rows.sparse(tokens)
    # trap_first: trapped tokens never reach the policy stage
    law_trapped = age_law is not None and rows.order == "trap_first"

    # one node draw; each cell names its landing nodes (n for tokens that leave)
    w = node_rows.width
    if sparse:
        # each token's cell in the (n, w) rows flattened: its node times w plus its column
        cell = node_rows.token_cells(tokens, index, rng, uniform, occ * w)
        landed = np.bincount(rows.cell_landing.take(cell, axis=0).ravel(), minlength=n + 1)
        col = cell % w
        per_column = np.bincount(col, minlength=w)
        if law_trapped:
            trapped = np.add.reduceat(col == _TRAPPED, np.cumsum(tokens) - tokens)
    else:
        draws = rng.multinomial(tokens, node_rows.probs.take(index, axis=0))
        # one float tally (exact: no count nears 2^53), each count weighing every landing
        # node of its cell: one on two-stage rows, two when folded
        weights = draws.ravel()
        if rows.landing.shape[2] > 1:
            weights = weights.repeat(rows.landing.shape[2])
        landed = np.bincount(rows.landing.take(occ, axis=0).ravel(), weights=weights,
                             minlength=n + 1)
        per_column = np.add.reduce(draws)
        trapped = draws[:, _TRAPPED]
    # tokens per class: trapped, acted then trapped, acted, (when folded) lone copies and pairs
    n_trapped, acted_trapped, acted, *fold, _ = np.add.reduceat(per_column, rows.classes).tolist()
    lone, pairs = fold or (0, 0)
    # rows without pair cells leave forks to the fork table: acted tokens fork in the fork
    # region and terminate in the term region (the pass region never acts), and
    # acted-then-trapped tokens are fork parents whose copy still leaves
    acted_forks = 0
    if acted_trapped or (acted and uniform != TERM and not fold):
        # the node of each pair and of each lone copy, each group in node order
        if sparse:
            forking = col == _ACTED
            if uniform is None:
                forking &= np.repeat(region == FORK, tokens)
            pairs_from, copies_from = cell[forking] // w, cell[col == _ACTED_TRAPPED] // w
        else:
            pairs_from = occ.repeat(draws[:, _ACTED] * (region == FORK))
            copies_from = occ.repeat(draws[:, _ACTED_TRAPPED])
        acted_forks = pairs_from.size
        if acted_forks or acted_trapped:
            landed[:n] += rows.forks.dispatch(np.concatenate((pairs_from, copies_from)), rng,
                                              acted_forks)
    # a lone copy, drawn as a cell or left by an acted-then-trapped parent, is a fork and a
    # deletion
    lone += acted_trapped
    counts = StepCounts(pairs + acted_forks + lone, n_trapped + lone, acted - acted_forks)
    if age_law is not None:
        age_law.record(occ, ages, tokens - trapped if law_trapped else tokens)

    # node clocks update once per visited node per step
    last_visit = state.last_visit.copy()
    last_visit[occ] = t
    return PopulationState(t, landed[:n].astype(np.int64), last_visit), counts


def run_population(kernel: TransitionKernel, policy, traps: TrapProfile, z0: int,
                   horizon: int, rng_seed: int, z_cap: int = DEFAULT_POPULATION_CAP,
                   placement="pi", order: str = "trap_first",
                   collect_age_law: bool = False, age_law_burn_in: int = 0,
                   config_hash: str | None = None) -> PopulationTrace:
    """Simulate the full multi-token dynamics and return the trace.

    ``policy`` is a PolicySpec or a RegimePolicy; ``order`` chooses whether the
    trap roll precedes the policy action (default) or follows it. Deterministic
    given the seed. The rows come from ``step_rows``, so runs on one kernel with
    the same traps and order share their node rows and alias tables.
    """
    if horizon < 1 or z0 < 1:
        raise ParameterError("need horizon >= 1 and at least one initial token")
    regime_policy = policy if isinstance(policy, RegimePolicy) else None
    if regime_policy is None and not isinstance(policy, PolicySpec):
        raise ParameterError("policy must be a PolicySpec or RegimePolicy")
    rows = step_rows(kernel, traps, order)
    # the kept node rows are this run's specs' alone, each rebuilt if it changed in place
    rows.retain((policy.low, policy.high) if regime_policy else (policy,))

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

    return PopulationTrace(
        z=np.asarray(z_hist, dtype=np.int64),
        forks=np.asarray(fork_hist, dtype=np.int64),
        trap_dels=np.asarray(del_hist, dtype=np.int64),
        terms=np.asarray(term_hist, dtype=np.int64),
        seed=rng_seed,
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


def block_drift(trace: PopulationTrace, plan: BlockPlan, lambda_del: float,
                min_blocks: int = 10) -> DriftReport:
    """Compare each block's drift with the rate model p_hat - lambda_del - k_hat.

    Uses the blocks of ``trace.blocks`` that start with Z > 0; ``lambda_del``
    is the absorption pressure of the traps the trace ran under
    (``TrapProfile.absorption_pressure``).
    """
    b = plan.block_length
    z, forks, terms, token_steps = trace.blocks(b)
    live = z[:-1] > 0
    usable = int(np.count_nonzero(live))
    if usable < min_blocks:
        raise InsufficientDataError(f"only {usable} usable blocks, need {min_blocks}")
    z_k, drift, ts = z[:-1][live], np.diff(z)[live], token_steps[live]
    pred_rate = forks[live] / ts - lambda_del - terms[live] / ts
    return DriftReport(
        block_length=b,
        z_start=z_k.astype(float),
        drift_per_token=drift / z_k,
        predicted_per_token=b * pred_rate,
        residual_abs=drift - z_k * b * pred_rate,
        lambda_del=lambda_del,
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
                initial: int = 1, z_cap: int = DEFAULT_POPULATION_CAP) -> GwReport:
    """Galton-Watson comparison chain with Poisson offspring of a given mean.

    Population-level Poisson draws aggregate exactly. Replicas halted at
    ``z_cap`` count as survivors.
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
        z[live] = rng.poisson(mean_offspring * z[live])
        z_max = np.maximum(z_max, z)
    extinct = float(np.mean(z == 0))
    return GwReport(extinct, 1.0 - extinct, z.copy(), z_max)


def gw_extinction_probability(mean_offspring: float, iters: int = 500) -> float:
    """Fixed point of the Poisson offspring generating function, iterated from 0."""
    s = 0.0
    for _ in range(iters):
        s = math.exp(mean_offspring * (s - 1.0))
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
