"""Decentralized per-visit controller: fork/terminate/pass from the local age.

A node compares the age of its own clock against two triggers. Ages strictly
between the short and long trigger always pass; at or above the long trigger
the node forks with its fork probability; at or below the short trigger it
terminates with its termination probability. When the triggers coincide and
the age sits exactly on them, the fork branch wins (boundary_priority=fork,
recorded in configs).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .graphs import StationaryDistribution


class VisitAction(enum.Enum):
    FORK = "fork"
    TERMINATE = "terminate"
    PASS = "pass"


def _as_node_array(value, n: int, name: str, lo: float, hi: float) -> np.ndarray:
    arr = np.full(n, float(value)) if np.isscalar(value) else np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ParameterError(f"{name}: expected scalar or length-{n} array")
    if np.any(arr < lo) or np.any(arr > hi):
        raise ParameterError(f"{name}: values must lie in [{lo}, {hi}]")
    return arr


@dataclass
class PolicySpec:
    """Per-node triggers and probabilities; scalars broadcast to all nodes."""

    node_count: int
    a_long: np.ndarray
    a_short: np.ndarray
    q_fork: np.ndarray
    q_term: np.ndarray

    def __post_init__(self):
        n = self.node_count
        self.a_long = _as_node_array(self.a_long, n, "a_long", 0.0, np.inf)
        self.a_short = _as_node_array(self.a_short, n, "a_short", 0.0, np.inf)
        self.q_fork = _as_node_array(self.q_fork, n, "q_fork", 0.0, 1.0)
        self.q_term = _as_node_array(self.q_term, n, "q_term", 0.0, 1.0)
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


def decide(spec: PolicySpec, u: int, age, rng) -> VisitAction:
    """One action for one visit; draws at most one uniform."""
    if age < 0:
        raise ParameterError(f"age must be nonnegative, got {age}")
    if age >= spec.a_long[u]:
        return VisitAction.FORK if rng.random() < spec.q_fork[u] else VisitAction.PASS
    if age <= spec.a_short[u]:
        return VisitAction.TERMINATE if rng.random() < spec.q_term[u] else VisitAction.PASS
    return VisitAction.PASS


@dataclass
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
    def node_count(self) -> int:
        return self.low.node_count

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

    ``counts[u, a]`` counts visits to node u at age a; ages at or above the
    cap land in the overflow bucket ``counts[u, -1]``. ``max_over_cap[u]`` is
    the largest of those overflow ages (0 when there are none), so with the
    histogram the largest age seen at every node is known exactly.
    """

    def __init__(self, node_count: int, age_cap: int):
        self.age_cap = int(age_cap)
        self.counts = np.zeros((node_count, self.age_cap + 2), dtype=np.int64)
        self.max_over_cap = np.zeros(node_count, dtype=np.int64)

    def record(self, nodes: np.ndarray, ages: np.ndarray, weights=None) -> None:
        """Add ``weights[i]`` visits (one each when omitted) at age ``ages[i]`` to ``nodes[i]``."""
        if weights is None:
            weights = np.ones_like(nodes)
        np.add.at(self.counts, (nodes, np.minimum(ages, self.age_cap + 1)), weights)
        over = ages > self.age_cap
        if over.any():
            over &= weights > 0
            np.maximum.at(self.max_over_cap, nodes[over], ages[over])

    def merge(self, other: "AgeLaw") -> None:
        """Add another law's visits over the same nodes and cap into this one."""
        self.counts += other.counts
        np.maximum(self.max_over_cap, other.max_over_cap, out=self.max_over_cap)

    def visit_total(self, u: int) -> int:
        return int(self.counts[u].sum())

    def prob_age_at_most(self, u: int, a: float) -> float:
        total = self.visit_total(u)
        if total == 0:
            raise InsufficientDataError(f"no visits recorded at node {u}")
        if a >= self.age_cap:
            # beyond the histogram only "no age exceeds a" can be answered
            if self.max_over_cap[u] > a:
                raise InsufficientDataError(
                    f"threshold {a} at or beyond the histogram cap {self.age_cap} at node {u}"
                )
            return 1.0
        hi = int(np.floor(a))
        return float(self.counts[u, :hi + 1].sum() / total)


def mean_termination_rate(spec: PolicySpec, pi: StationaryDistribution, age_law: AgeLaw) -> float:
    """Stationary-weighted per-visit termination probability under the age law.

    Nodes with zero termination probability contribute nothing and need no
    age data; any other node missing data raises.
    """
    total = 0.0
    for u in range(spec.node_count):
        if spec.q_term[u] == 0.0:
            continue
        total += pi[u] * spec.q_term[u] * age_law.prob_age_at_most(u, spec.a_short[u])
    return total
