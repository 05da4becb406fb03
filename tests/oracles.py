"""Reference computations that only the tests use: independent oracles for the
stationary law and the Galton-Watson extinction probability, the drift report's
sign agreement and an envelope model's tail bounds, and a kernel whose dense views
are held for the frozen reference engines."""
import functools
import math

import numpy as np

from srrw.errors import InsufficientDataError


def stationary_by_iteration(kernel, tol: float = 1e-13, max_iter: int = 10_000_000) -> np.ndarray:
    """Independent oracle for the stationary law: iterate until the update stalls."""
    n = kernel.node_count
    v = np.full(n, 1.0 / n)
    matrix = kernel.matrix  # each read builds a new n x n array
    for _ in range(max_iter):
        nxt = v @ matrix
        if np.abs(nxt - v).max() < tol:
            return nxt
        v = nxt
    raise InsufficientDataError("power iteration did not converge")


class HeldDense:
    """``kernel`` with its dense views held once read, for the frozen reference engines, which
    read them every step or product: a ``TransitionKernel`` builds a new n x n array on every
    read. Every other attribute is the kernel's."""

    def __init__(self, kernel):
        self.kernel = kernel

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    @functools.cached_property
    def matrix(self):
        return self.kernel.matrix

    @functools.cached_property
    def _cumulative(self):
        return self.kernel.cumulative_rows(), self.kernel.base_cumulative_rows()

    def cumulative_rows(self):
        return self._cumulative[0]

    def base_cumulative_rows(self):
        return self._cumulative[1]


def gw_extinction_probability(mean_offspring: float, iters: int = 500) -> float:
    """Fixed point of the Poisson offspring generating function, iterated from 0."""
    s = 0.0
    for _ in range(iters):
        s = math.exp(mean_offspring * (s - 1.0))
    return s


def sign_agreement(report, min_z: int = 1, factor: float = 2.0) -> tuple[int, int]:
    """(matched, considered) over the blocks of a ``DriftReport`` where the predicted rate
    clears ``factor * c1_proxy / B`` and the block started with at least min_z tokens."""
    rate = report.predicted_per_token / report.block_length
    strong = ((np.abs(rate) > factor * report.c1_proxy / report.block_length)
              & (report.z_start >= min_z))
    matched = (np.sign(report.drift_per_token[strong])
               == np.sign(report.predicted_per_token[strong]))
    return int(matched.sum()), int(strong.sum())


def tail_bounds(model, u: int, age) -> tuple[float, float]:
    """(lower, upper) values of an ``EnvelopeModel``'s envelope for the tail of node u at an
    age."""
    x = float(age) * model.pi[u]
    return math.exp(-model.c_plus[u] * x), math.exp(-model.c_minus[u] * x)
