"""The return-time sampler of srrw 0.3.0, frozen as an exact reference.

A copy of ``sample_return_times`` and ``NeighbourTable.move`` as they stood
when the sampler stopped on ``counts.any()`` and the walk step took its
slot-reversed rows as views of the gathered table rows. The sampler must
make the same draws in the same order, so it has to give the very same
samples as these for every kernel, node and seed. Kept as it was; sampler
changes go to ``srrw.return_time`` and ``srrw.graphs`` only.
"""
import numpy as np

from srrw.errors import InsufficientDataError, StepCapError


def move(table, counts, rng):
    """0.3.0's ``NeighbourTable.move``."""
    occ = counts.nonzero()[0]
    draws = rng.multinomial(counts.take(occ), table.prob.take(occ, axis=0)[:, ::-1])
    dest = table.nbr.take(occ, axis=0)[:, ::-1]
    return np.bincount(dest.ravel(), weights=draws.ravel(),
                       minlength=counts.size).astype(np.int64)


def sample_return_times(kernel, u, n_samples, rng_seed, max_steps=10**9):
    """0.3.0's ``sample_return_times``; returns the samples array."""
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
        counts = move(table, counts, rng)
        returns.append(counts[u])
        counts[u] = 0
    return np.repeat(np.arange(1, len(returns) + 1), returns)
