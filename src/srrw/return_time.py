"""First-return-time sampling of the lazy walk, and the empirical tail.

Return times are i.i.d. samples of walks started at the target node (simple
confidence intervals). The walkers never interact, so they move together as
token counts per node, at O(occupied nodes x width) per step whatever the
sample count, and come out sorted. The empirical mean obeys Kac's identity
mean = 1/pi(u), which the tests use as an independent oracle.
``tail_curve`` is the one estimate of the tail Pr_u(T_u >= A) made from a
sample, at every age up to the largest sampled return time; the envelope fit
reads it.
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
    out = n_samples  # walkers still away from u
    while out:
        if len(returns) == max_steps:
            raise StepCapError(f"no return to {u} within {max_steps} steps")
        counts = table.move(counts, rng)
        back = int(counts[u])
        returns.append(back)
        counts[u] = 0
        out -= back
    return ReturnTimeSample(u, np.repeat(np.arange(1, len(returns) + 1), returns))


def tail_curve(sample: ReturnTimeSample) -> tuple[np.ndarray, np.ndarray]:
    """Empirical tail Pr{return time >= A} at every age A = 1..max(sample);
    tail(1) = 1 by construction, and the tail is 0 past the largest sample."""
    max_a = int(sample.samples.max())
    ages = np.arange(1, max_a + 1)
    sorted_samples = np.sort(sample.samples)
    tails = (sample.count - np.searchsorted(sorted_samples, ages, side="left")) / sample.count
    return ages, tails
