"""Single-token walk simulation: first-return-time sampling and tail estimates.

Return times are sampled by restarting the walk at the target node for each
sample (i.i.d. samples, simple confidence intervals). The empirical mean obeys
Kac's identity mean = 1/pi(u), which the tests use as an independent oracle.
A node's age in the engine is the time since its last visit; the node clock
that tracks it is ``PopulationState.last_visit`` in ``srrw.population``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, StepCapError
from .graphs import TransitionKernel

DEFAULT_STEP_CAP = 10**9
_BATCH = 1 << 18


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

    The walk restarts at ``u`` for each sample. Deterministic given the seed.
    Samples are drawn in batches of walkers stepped together; only the walkers
    that have not returned yet are kept, with their sample indices.
    """
    if n_samples < 1:
        raise InsufficientDataError("need at least one sample")
    rng = np.random.default_rng(rng_seed)
    table = kernel.neighbour_table()
    out = np.empty(n_samples, dtype=np.int64)
    for filled in range(0, n_samples, _BATCH):
        active = np.arange(filled, min(filled + _BATCH, n_samples))
        pos = np.full(active.size, u, dtype=np.int64)
        step = 0
        while active.size:
            step += 1
            if step > max_steps:
                raise StepCapError(f"no return to {u} within {max_steps} steps")
            pos = table.sample(pos, rng)
            away = pos != u
            out[active[~away]] = step
            active = active[away]
            pos = pos[away]
    return ReturnTimeSample(u, out, seed=rng_seed)


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


def tails_to_csv(samples: list[ReturnTimeSample], path, z: float = 1.96) -> None:
    """Write tail estimates as CSV columns (node, A, tail, ci_low, ci_high).

    The interval is the normal-approximation binomial CI, clipped to [0, 1].
    """
    lines = ["node,A,tail,ci_low,ci_high"]
    for s in samples:
        ages, tails = tail_curve(s)
        se = np.sqrt(tails * (1.0 - tails) / s.count)
        lo = np.clip(tails - z * se, 0.0, 1.0)
        hi = np.clip(tails + z * se, 0.0, 1.0)
        for a, t, l, h in zip(ages, tails, lo, hi):
            lines.append(f"{s.node},{a},{float(t)!r},{float(l)!r},{float(h)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

