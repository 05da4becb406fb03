"""First-return-time sampling of the lazy walk, and the empirical tail.

Return times are i.i.d. samples of walks started at the target node (simple
confidence intervals). The walkers never interact, so they move together as
token counts per node, at O(occupied nodes x width) per step whatever the
sample count. A sample is kept as its count of returns per age, one int per
step the sampler took, not one per walker. The empirical mean obeys Kac's
identity mean = 1/pi(u), which the tests use as an independent oracle.
``tail_curve`` is the one estimate of the tail Pr_u(T_u >= A) made from a
sample, at every age up to the largest sampled return time; the envelope fit
reads it. The fit walks only where the exact draw of ``srrw.tails`` does not
apply (``cli.return_time_samples``); the walk is also the tests' independent
reference for that draw.
A node's age in the engine is the time since its last visit; the node clock
that tracks it is ``PopulationState.last_visit`` in ``srrw.population``.
"""
from __future__ import annotations

import reprlib

import numpy as np

from .errors import InsufficientDataError, ParameterError, StepCapError
from .graphs import TransitionKernel, _integral

DEFAULT_STEP_CAP = 10**9


class ReturnTimeSample:
    """First-return times of a walk to ``node``, held as counts per age:
    ``counts[a - 1]`` samples came back at age a. Every sample is >= 1 and the
    last count is positive, so ``len(counts)`` is the largest sample; other
    input raises ParameterError."""

    def __init__(self, node: int, samples):
        samples = np.asarray(samples, dtype=np.int64)
        if samples.size and samples.min() < 1:
            raise ParameterError("return times are at least 1")
        self.node = node
        self.counts = np.bincount(samples - 1)

    @classmethod
    def from_counts(cls, node: int, counts) -> "ReturnTimeSample":
        """The sample with ``counts[a - 1]`` returns at age a, as the sampler records them."""
        sample = cls.__new__(cls)
        sample.node = node
        sample.counts = np.asarray(counts, dtype=np.int64)
        if sample.counts.size and (sample.counts.min() < 0 or sample.counts[-1] == 0):
            raise ParameterError("counts must be nonnegative with a positive last entry")
        return sample

    @property
    def samples(self) -> np.ndarray:
        """All samples in ascending order, expanded from the counts on each read."""
        return np.repeat(np.arange(1, self.counts.size + 1), self.counts)

    @property
    def count(self) -> int:
        return int(self.counts.sum())

    def mean(self) -> float:
        return int(self.counts @ np.arange(1, self.counts.size + 1)) / self.count

    def std_error(self) -> float:
        sq_dev = self.counts @ (np.arange(1, self.counts.size + 1) - self.mean()) ** 2
        return float(np.sqrt(sq_dev / (self.count - 1) / self.count))


def check_node(kernel: TransitionKernel, u) -> None:
    """ParameterError unless ``u`` is an integral node id in 0..n-1 of ``kernel``."""
    if not (_integral(u) and 0 <= u < kernel.node_count):
        raise ParameterError(f"node {reprlib.repr(u)} is not a node id in "
                             f"0..{kernel.node_count - 1}")


def sample_return_times(kernel: TransitionKernel, u: int, n_samples: int, rng_seed: int,
                        max_steps: int = DEFAULT_STEP_CAP) -> ReturnTimeSample:
    """Sample first-return times to ``u`` for the given lazy kernel.

    All ``n_samples`` walkers start at ``u`` and move as counts per node; the
    count that lands on ``u`` at a step is that step's number of returns and
    is then removed; those counts are the sample. Deterministic given the
    seed. Raises ParameterError, before any walk, when ``u`` is not a node id
    in 0..n-1.
    """
    check_node(kernel, u)
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
    return ReturnTimeSample.from_counts(u, returns)


def tail_curve(sample: ReturnTimeSample) -> tuple[np.ndarray, np.ndarray]:
    """Empirical tail Pr{return time >= A} at every age A = 1..max(sample);
    tail(1) = 1 by construction, and the tail is 0 past the largest sample."""
    ages = np.arange(1, sample.counts.size + 1)
    at_least = np.cumsum(sample.counts[::-1])[::-1]  # samples >= each age
    return ages, at_least / sample.count
