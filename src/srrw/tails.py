"""The exact first-return-time law of the lazy walk, from one eigendecomposition per node.

For node u, let Q be the lazy kernel with row and column u removed (the
taboo kernel) and D = diag(sqrt(pi)) off u. The walk is reversible, so
S_u = D Q D^-1 is symmetric; write it V diag(lam) V^T and let
a = V^T sqrt(pi) off u. Then (Aldous & Fill 2002, ch. 2; Keilson 1979)

    G_u(1) = 1,  G_u(A) = Pr_u(T_u >= A) = sum_k w_k lam_k^(A - 2) for A >= 2,

with w_k = (1 - lam_k) a_k^2 / pi(u) >= 0 and sum_k w_k = 1 - h_u, where
h_u = P(u, u). Kac's identity reads 1 + sum_k w_k / (1 - lam_k) = 1/pi(u).
When every lam_k lies in [0, 1), which laziness >= 1/2 guarantees (S_u is
then a principal submatrix of a positive semidefinite matrix), T_u is the
mixture: 1 with probability h_u, otherwise 1 + Geometric(1 - lam_k) with
probability proportional to w_k. ``TailSpectrum.draw`` samples that mixture
directly, so a node's samples cost one eigendecomposition of n - 1 rows and
a few vectorised draws, whatever the walk's mixing time.
"""
from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError, ParameterError
from .graphs import DENSE_NODE_CAP, TransitionKernel
from .return_time import ReturnTimeSample, check_node

# taboo eigenvalues this far below 0 are rounding of a zero eigenvalue, and are read as 0
EIGEN_ROUNDING = 1e-12


class TailSpectrum:
    """Each node's taboo spectrum (lam, w) of ``kernel``, computed on first use and kept.

    Holds one n x n array, the symmetrised kernel, so past ``DENSE_NODE_CAP``
    nodes the constructor raises ParameterError. A node whose taboo eigenvalues are not all in
    [0, 1) (up to ``EIGEN_ROUNDING``), or whose weights are not all finite,
    raises ParameterError when its spectrum is first read, before any tail
    value or draw.
    """

    def __init__(self, kernel: TransitionKernel):
        n = kernel.node_count
        if n > DENSE_NODE_CAP:
            raise ParameterError(f"exact return-time tails need the dense kernel, which is "
                                 f"capped at {DENSE_NODE_CAP} nodes, got {n}")
        self.kernel = kernel
        self._root_pi = np.sqrt(kernel.pi.probs)
        self._sym = kernel.symmetrised()  # D P D^-1 over all nodes; S_u drops row and column u
        self._spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def spectrum(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(lam, w): node u's taboo eigenvalues, ascending, and their tail weights."""
        check_node(self.kernel, u)
        if u not in self._spectra:
            keep = np.arange(self.kernel.node_count) != u
            lam, vec = np.linalg.eigh(self._sym[np.ix_(keep, keep)])
            if not (lam[0] >= -EIGEN_ROUNDING and lam[-1] < 1.0):  # NaN fails too
                raise ParameterError(f"node {u}: taboo eigenvalues in [{lam[0]!r}, {lam[-1]!r}], "
                                     "not inside [0, 1), as a laziness of at least 1/2 keeps them")
            lam = np.maximum(lam, 0.0)
            a = vec.T @ self._root_pi[keep]
            w = (1.0 - lam) * a * a / self.kernel.pi[u]
            if not np.all(np.isfinite(w)):
                raise ParameterError(f"node {u}: non-finite taboo tail weights")
            self._spectra[u] = (lam, w)
        return self._spectra[u]

    def tail(self, u: int, ages) -> np.ndarray:
        """G_u(A) = Pr_u(T_u >= A) at each age A >= 1."""
        ages = np.asarray(ages, dtype=np.int64)
        if ages.size and ages.min() < 1:
            raise ParameterError("return-time ages are at least 1")
        lam, w = self.spectrum(u)
        powers = lam ** np.maximum(ages - 2, 0)[..., None]
        return np.where(ages == 1, 1.0, powers @ w)

    def draw(self, u: int, n_samples: int, rng_seed: int) -> ReturnTimeSample:
        """``n_samples`` exact first-return times to ``u``, as ``sample_return_times`` returns
        them: the returns at age 1 by one binomial, the rest spread over the mixture's
        components by one multinomial, and their geometric excesses in one vectorised call."""
        lam, w = self.spectrum(u)
        if n_samples < 1:
            raise InsufficientDataError("need at least one sample")
        rng = np.random.default_rng(rng_seed)
        at_one = int(rng.binomial(n_samples, self.kernel.laziness))  # h_u = P(u, u)
        per_component = rng.multinomial(n_samples - at_one, w / w.sum())
        # T - 1 of each later return; counts[a - 1] holds the returns at age a
        counts = np.bincount(rng.geometric(np.repeat(1.0 - lam, per_component)), minlength=1)
        counts[0] = at_one
        return ReturnTimeSample.from_counts(u, counts)
