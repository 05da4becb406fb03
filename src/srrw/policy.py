"""Decentralized per-visit controller: fork/terminate/pass from the local age.

A node compares the age of its own clock against two triggers. Ages strictly
between the short and long trigger always pass; at or above the long trigger
the node forks with its fork probability; at or below the short trigger it
terminates with its termination probability. When the triggers coincide and
the age sits exactly on them, the fork branch wins (boundary_priority=fork,
recorded in configs). ``PolicySpec.region`` is the one implementation of this
rule; the engine and the termination plug-in both use it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .graphs import StationaryDistribution, _check_bytes

# age regions of a visit; a visit in the pass region never acts
FORK, TERM, PASS = 0, 1, 2
# ages above this land in the age law's overflow bucket
AGE_LAW_CAP = 256


def _as_node_array(value, n: int, name: str, lo: float, hi: float) -> np.ndarray:
    """A read-only copy of ``value`` as n floats."""
    arr = np.full(n, float(value)) if np.isscalar(value) else np.array(value, dtype=float)
    if arr.shape != (n,):
        raise ParameterError(f"{name}: expected scalar or length-{n} array")
    if not np.all((arr >= lo) & (arr <= hi)):  # NaN fails both comparisons
        raise ParameterError(f"{name}: values must lie in [{lo}, {hi}]")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PolicySpec:
    """Per-node triggers and probabilities; scalars broadcast to all nodes. The arrays
    are read-only copies of those given, so a spec never changes; specs compare by identity."""

    node_count: int
    a_long: np.ndarray
    a_short: np.ndarray
    q_fork: np.ndarray
    q_term: np.ndarray

    def __post_init__(self):
        n = self.node_count
        for name, hi in (("a_long", np.inf), ("a_short", np.inf), ("q_fork", 1.0), ("q_term", 1.0)):
            object.__setattr__(self, name, _as_node_array(getattr(self, name), n, name, 0.0, hi))
        if np.any(self.a_short > self.a_long):
            raise ParameterError("a_short must not exceed a_long at any node")

    @property
    def fork_cap(self) -> float:
        """Global per-visit fork bound: the largest per-node fork probability."""
        return float(self.q_fork.max())

    @property
    def is_uniform(self) -> bool:
        return (np.all(self.a_long == self.a_long[0]) and np.all(self.a_short == self.a_short[0])
                and np.all(self.q_fork == self.q_fork[0]) and np.all(self.q_term == self.q_term[0]))

    @staticmethod
    def uniform(node_count: int, a_long, q_fork, a_short=0.0, q_term=0.0) -> "PolicySpec":
        return PolicySpec(node_count, a_long, a_short, q_fork, q_term)

    @functools.cached_property
    def _trigger_extremes(self) -> tuple[float, float, float, float]:
        """The largest and least long trigger, the least and largest short one."""
        return (float(self.a_long.max()), float(self.a_long.min()), float(self.a_short.min()),
                float(self.a_short.max()))

    def uniform_region(self, t: int) -> int | None:
        """The age region of every visit at step ``t`` when the triggers put every age 1..t at
        every node in one region, else None."""
        long_max, long_min, short_min, short_max = self._trigger_extremes
        if long_max <= 1:
            return FORK
        if long_min > t and short_min >= t:
            return TERM
        if long_min > t and short_max < 1:
            return PASS
        return None

    def region(self, nodes, ages) -> np.ndarray:
        """Age region (FORK, TERM or PASS) of visits at ``nodes`` with pre-visit ``ages``.

        FORK at or above the long trigger, which wins a tie; otherwise TERM at
        or below the short trigger; otherwise PASS. Arguments broadcast.
        """
        ages = np.asarray(ages)
        if ages.size and ages.min() < 0:  # min() is cheaper than any() on small arrays
            raise ParameterError(f"ages must be nonnegative, got {ages.min()}")
        return np.where(ages >= self.a_long[nodes], FORK, PASS - (ages <= self.a_short[nodes]))


@dataclass(frozen=True, eq=False)
class RegimePolicy:
    """Population-gated pair of specs with hysteresis.

    The regime flips to ``high`` when the population exceeds ``z_high`` and
    back to ``low`` when it drops below ``z_low``; inside the band the last
    regime is kept. Only this one shared flag depends on the population;
    every visit decision still uses the local age alone.
    """

    low: PolicySpec
    high: PolicySpec
    z_low: int
    z_high: int

    def __post_init__(self):
        if not (0 < self.z_low < self.z_high):
            raise ParameterError("need 0 < z_low < z_high")
        if self.low.node_count != self.high.node_count:
            raise ParameterError("regime specs must cover the same node set")

    @property
    def fork_cap(self) -> float:
        return max(self.low.fork_cap, self.high.fork_cap)

    def initial_regime(self, z0: int) -> str:
        return "high" if z0 > self.z_high else "low"

    def next_regime(self, current: str, z: int) -> str:
        if z > self.z_high:
            return "high"
        if z < self.z_low:
            return "low"
        return current

    def spec_for(self, regime: str) -> PolicySpec:
        return self.low if regime == "low" else self.high


class AgeLaw:
    """Per-node histogram of ages observed at visit instants.

    ``counts[u, a]`` counts visits to node u at age a; ages above the cap
    land in the overflow bucket ``counts[u, -1]``. ``max_over_cap[u]`` is
    the largest of those overflow ages (0 when there are none), so with the
    histogram the largest age seen at every node is known exactly. A law
    past ``graphs.TABLE_BYTE_CAP`` bytes (about 130k nodes at the default
    cap) raises ParameterError before it is allocated.

    ``record`` adds visits at once. The engine ``queue``s each step's visits
    instead, and ``flush`` adds the queue in one ``record`` call: when it holds
    ``PENDING_CAP`` values (three per occupied node of a step), so its memory
    does not grow with the steps; when ``counts`` or ``max_over_cap`` is read;
    and at the end of a run.
    """

    PENDING_CAP = 1 << 12  # about 60 steps of the corridor experiment (Z = 20-200, 30 nodes)

    def __init__(self, node_count: int, age_cap: int = AGE_LAW_CAP):
        self.age_cap = int(age_cap)
        _check_bytes(8 * node_count * (self.age_cap + 2), f"an age law over {node_count} nodes")
        self._counts = np.zeros((node_count, self.age_cap + 2), dtype=np.int64)
        self._max_over_cap = np.zeros(node_count, dtype=np.int64)
        self._pending, self._pending_size = [], 0  # queued (nodes, ages, visits)

    @property
    def counts(self) -> np.ndarray:
        self.flush()
        return self._counts

    @property
    def max_over_cap(self) -> np.ndarray:
        self.flush()
        return self._max_over_cap

    def record(self, nodes: np.ndarray, ages: np.ndarray, weights=None) -> None:
        """Add ``weights[i]`` visits (one each when omitted) at age ``ages[i]`` to ``nodes[i]``."""
        if weights is None:
            weights = np.ones_like(nodes)
        width = self.age_cap + 2
        # one flat index: np.add.at takes a 1-d index in about a third of the time of a pair
        np.add.at(self._counts.reshape(-1), nodes * width + np.minimum(ages, width - 1), weights)
        if ages.size and ages.max() > self.age_cap:
            over = (ages > self.age_cap) & (weights > 0)
            np.maximum.at(self._max_over_cap, nodes[over], ages[over])

    def queue(self, nodes: np.ndarray, ages: np.ndarray, visits: np.ndarray) -> None:
        """Queue ``visits[i]`` visits at age ``ages[i]`` to ``nodes[i]``; the arrays are held,
        not copied, until the queue is flushed."""
        self._pending.append((nodes, ages, visits))
        self._pending_size += 3 * nodes.size
        if self._pending_size >= self.PENDING_CAP:
            self.flush()

    def flush(self) -> None:
        """Add the queued visits in one ``record`` call."""
        if self._pending:
            nodes, ages, visits = (np.concatenate(part) for part in zip(*self._pending))
            self._pending, self._pending_size = [], 0
            self.record(nodes, ages, visits)

    def header_lines(self) -> list[str]:
        """The law as ``key=value`` lines: the cap, the overflow maxima and one
        line per visited node listing ``age:count`` for its nonzero buckets
        (the overflow bucket as age cap + 1)."""
        lines = [f"age_law_cap={self.age_cap}",
                 "age_law_max_over_cap=" + " ".join(map(str, self.max_over_cap.tolist()))]
        for u in np.flatnonzero(self.counts.any(axis=1)):
            ages = np.flatnonzero(self.counts[u])
            cells = " ".join(f"{a}:{c}" for a, c in zip(ages.tolist(), self.counts[u, ages].tolist()))
            lines.append(f"age_law_node_{u}={cells}")
        return lines

    @staticmethod
    def from_header(meta: dict, node_count: int | None = None) -> "AgeLaw | None":
        """The law written by ``header_lines``, read from its key-value pairs;
        None when they hold no law. Raises ParameterError on lines that no
        law writes: a non-integer or one beyond int64, a cap outside
        0..AGE_LAW_CAP (or, given ``node_count``, a law not over that many
        nodes at cap AGE_LAW_CAP; both checked before the histogram is
        allocated), a node outside the ``max_over_cap`` list, an age outside
        0..cap + 1, a negative count or overflow maximum, or an overflow
        maximum at or below the cap."""
        if "age_law_cap" not in meta:
            return None
        prefix = "age_law_node_"
        try:
            cap = int(meta["age_law_cap"])
            over = np.array(meta.get("age_law_max_over_cap", "").split(), dtype=np.int64)
            nodes = {int(key[len(prefix):]): np.array([c.split(":") for c in value.split()], dtype=np.int64)
                     for key, value in meta.items() if key.startswith(prefix)}
        except (ValueError, OverflowError) as exc:
            raise ParameterError(f"age law lines must hold int64 integers: {exc}") from None
        if not 0 <= cap <= AGE_LAW_CAP:
            raise ParameterError(f"age law cap outside 0..{AGE_LAW_CAP}")
        if node_count is not None and (over.size, cap) != (node_count, AGE_LAW_CAP):
            raise ParameterError(f"age law over {over.size} nodes with cap {cap}, not "
                                 f"{node_count} with cap {AGE_LAW_CAP}")
        if ((over != 0) & (over <= cap)).any():
            raise ParameterError(f"age law cap {cap} with overflow maxima {over.tolist()}")
        law = AgeLaw(over.size, cap)
        law.max_over_cap[:] = over
        for u, cells in nodes.items():
            if not 0 <= u < over.size:
                raise ParameterError(f"age law node {u} outside 0..{over.size - 1}")
            if cells.ndim != 2 or cells.shape[1] != 2:
                raise ParameterError(f"age law node {u}: cells must read age:count")
            ages, counts = cells.T
            if ages.min() < 0 or ages.max() > cap + 1 or counts.min() < 0:
                raise ParameterError(f"age law node {u}: ages must lie in 0..{cap + 1} "
                                     f"and counts be nonnegative")
            law.counts[u, ages] = counts
        return law

    def merge(self, other: "AgeLaw") -> None:
        """Add another law's visits over the same nodes and cap into this one."""
        np.add(self.counts, other.counts, out=self._counts)
        np.maximum(self.max_over_cap, other.max_over_cap, out=self._max_over_cap)


def mean_termination_rate(spec: PolicySpec, pi: StationaryDistribution, age_law: AgeLaw) -> float:
    """Stationary-weighted per-visit termination probability under the age law.

    A visit terminates with its node's termination probability when
    ``spec.region`` puts its age in the TERM region. Nodes with zero
    termination probability contribute nothing and need no age data; any
    other node missing data raises, as does one whose overflow bucket (ages
    above the cap, up to the largest one seen) straddles the region's edge.
    """
    nodes = np.arange(spec.node_count)
    cap = age_law.age_cap
    in_term = spec.region(nodes[:, None], np.arange(cap + 2)) == TERM
    top_in_term = spec.region(nodes, np.maximum(age_law.max_over_cap, cap + 1)) == TERM
    total = 0.0
    for u in np.flatnonzero(spec.q_term):
        counts = age_law.counts[u]
        visits = counts.sum()
        if visits == 0:
            raise InsufficientDataError(f"no visits recorded at node {u}")
        if counts[-1] and in_term[u, -1] != top_in_term[u]:
            raise InsufficientDataError(
                f"short trigger {spec.a_short[u]} inside the overflow bucket of the histogram "
                f"cap {cap} at node {u}")
        total += pi[u] * spec.q_term[u] * float(counts[in_term[u]].sum() / visits)
    return total
