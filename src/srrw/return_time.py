"""First-return-time sampling of the lazy walk, and tail estimates.

Return times are i.i.d. samples of walks started at the target node (simple
confidence intervals). The walkers never interact, so they move together as
token counts per node, at O(occupied nodes x width) per step whatever the
sample count, and come out sorted. The empirical mean obeys Kac's identity
mean = 1/pi(u), which the tests use as an independent oracle.
A node's age in the engine is the time since its last visit; the node clock
that tracks it is ``PopulationState.last_visit`` in ``srrw.population``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, StepCapError
from .graphs import TransitionKernel

DEFAULT_STEP_CAP = 10**9


@dataclass
class ReturnTimeSample:
    """First-return times of a walk to ``node``; every sample is >= 1."""

    node: int
    samples: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.int64)
        if self.samples.size and self.samples.min() < 1:
            raise ValueError("return times are at least 1")

    @property
    def count(self) -> int:
        return int(self.samples.size)

    def mean(self) -> float:
        return float(self.samples.mean())

    def std_error(self) -> float:
        return float(self.samples.std(ddof=1) / np.sqrt(self.count))


def sample_return_times(kernel: TransitionKernel, u: int, n_samples: int, rng_seed: int,
                        max_steps: int = DEFAULT_STEP_CAP) -> ReturnTimeSample:
    """Sample first-return times to ``u`` for the given lazy kernel.

    All ``n_samples`` walkers start at ``u`` and move as counts per node; the
    count that lands on ``u`` at a step is that step's number of returns and
    is then removed. Deterministic given the seed; samples come out in
    ascending order.
    """
    if n_samples < 1:
        raise InsufficientDataError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    table = kernel.neighbour_table()
    counts = np.zeros(kernel.node_count, dtype=np.int64)
    counts[u] = n_samples
    returns = []
    while counts.any():
        if len(returns) == max_steps:
            raise StepCapError(f"no return to {u} within {max_steps} steps")
        counts = table.move(counts, rng)
        returns.append(counts[u])
        counts[u] = 0
    return ReturnTimeSample(u, np.repeat(np.arange(1, len(returns) + 1), returns), seed=rng_seed)


def empirical_tail(sample: ReturnTimeSample, ages) -> list[tuple[int, float]]:
    """Empirical tail probabilities Pr{return time >= A} for each requested age."""
    ages = list(ages)
    if sample.count == 0:
        raise InsufficientDataError(f"no samples for node {sample.node}")
    if any(a < 1 for a in ages) or any(b < a for a, b in zip(ages, ages[1:])):
        raise ValueError("ages must be sorted ascending and at least 1")
    sorted_samples = np.sort(sample.samples)
    n = sample.count
    out = []
    for a in ages:
        ge = n - int(np.searchsorted(sorted_samples, a, side="left"))
        out.append((int(a), ge / n))
    return out


def tail_curve(sample: ReturnTimeSample) -> tuple[np.ndarray, np.ndarray]:
    """Tail at every observed age 1..max(sample); tail(1) = 1 by construction."""
    max_a = int(sample.samples.max())
    ages = np.arange(1, max_a + 1)
    sorted_samples = np.sort(sample.samples)
    tails = (sample.count - np.searchsorted(sorted_samples, ages, side="left")) / sample.count
    return ages, tails
