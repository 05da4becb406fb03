"""The exact return-time law of ``srrw.tails`` against independent oracles.

The taboo power loop below iterates the lazy kernel with the target's column
zeroed, so it shares no code with the eigendecomposition; Kac's identity
checks the weights; the walk ``sample_return_times`` is the independent
reference for the draws. ``return_time_samples`` is the fit's selection
between the exact draw and the walk.
"""
import numpy as np
import pytest
from scipy import stats

import srrw.cli
import srrw.tails
from srrw.cli import build_envelope_model, return_time_samples
from srrw.config import resolve_config
from srrw.envelopes import fit_constants
from srrw.errors import InsufficientDataError, ParameterError
from srrw.graphs import complete_graph, cycle_graph, erdos_renyi_graph, lazy_kernel, star_graph
from srrw.return_time import sample_return_times
from srrw.tails import TailSpectrum

GRAPHS = {
    "K4": lambda: complete_graph(4),
    "cycle20": lambda: cycle_graph(20),
    "star9": lambda: star_graph(9),
    "er30": lambda: erdos_renyi_graph(30, 0.15, seed=1),
}
MAX_AGE = 2000
FAMILY_ALPHA = 0.01  # family-wise level of each group of KS tests, split over its tests


def taboo_tails(kernel, max_age):
    """G_u(A) for every node u (rows) and age A = 1..max_age (columns) by the taboo power
    loop: row u of ``h`` is the law at time A - 1 of walks from u that have not come back,
    so G_u(A) is its mass; each step moves every row one step and zeroes its own node."""
    p = kernel.matrix
    n = kernel.node_count
    diag = np.arange(n)
    h = p.copy()
    h[diag, diag] = 0.0
    out = np.ones((n, max_age))
    for a in range(2, max_age + 1):
        out[:, a - 1] = h.sum(axis=1)
        h = h @ p
        h[diag, diag] = 0.0
    return out


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def case(request):
    kernel = lazy_kernel(GRAPHS[request.param](), 0.5)
    return request.param, kernel, TailSpectrum(kernel)


class TestExactLaw:
    def test_tail_matches_the_taboo_power_loop(self, case):
        _, kernel, tails = case
        ages = np.arange(1, MAX_AGE + 1)
        oracle = taboo_tails(kernel, MAX_AGE)
        for u in range(kernel.node_count):
            assert np.abs(tails.tail(u, ages) - oracle[u]).max() <= 1e-12

    def test_weights_sum_and_kac(self, case):
        _, kernel, tails = case
        for u in range(kernel.node_count):
            lam, w = tails.spectrum(u)
            assert lam.min() >= 0.0 and lam.max() < 1.0 and w.min() >= 0.0
            assert abs(w.sum() - (1.0 - kernel.matrix[u, u])) <= 1e-9
            assert abs(1.0 + np.sum(w / (1.0 - lam)) - 1.0 / kernel.pi[u]) <= 1e-9 / kernel.pi[u]

    def test_tail_takes_scalars_and_refuses_age_zero(self):
        tails = TailSpectrum(lazy_kernel(complete_graph(4), 0.5))
        # K4: T = 1 w.p. 1/2, else 1 + Geometric(1/6), since each other node steps to u w.p. 1/6
        assert tails.tail(0, 1) == 1.0 and tails.tail(0, 2) == pytest.approx(0.5, abs=1e-15)
        assert tails.tail(0, 5) == pytest.approx(0.5 * (5 / 6) ** 3, abs=1e-15)
        with pytest.raises(ParameterError):
            tails.tail(0, [0, 1])


class TestDraws:
    def test_same_seed_same_sample(self):
        tails = TailSpectrum(lazy_kernel(cycle_graph(20), 0.5))
        a, b = tails.draw(3, 5000, rng_seed=11), tails.draw(3, 5000, rng_seed=11)
        assert a.node == 3 and a.count == 5000 and np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, tails.draw(3, 5000, rng_seed=12).counts)

    @pytest.mark.parametrize("graph", ["star9", "er30"])
    def test_draws_match_the_walk(self, graph):
        # same N and the CLI's seeds for both; one KS test per node at a Bonferroni level
        kernel = lazy_kernel(GRAPHS[graph](), 0.5)
        tails = TailSpectrum(kernel)
        n_samples, n = 20_000, kernel.node_count
        for u in range(n):
            exact = tails.draw(u, n_samples, rng_seed=1_000_003 + u)
            walk = sample_return_times(kernel, u, n_samples, rng_seed=1_000_003 + u)
            se = np.hypot(exact.std_error(), walk.std_error())
            assert abs(exact.mean() - walk.mean()) <= 3 * se
            assert stats.ks_2samp(exact.samples, walk.samples).pvalue > FAMILY_ALPHA / n

    @pytest.mark.parametrize("graph,u", [("K4", 0), ("cycle20", 0), ("star9", 0), ("star9", 5),
                                         ("er30", 0), ("er30", 17)])
    def test_one_sample_ks_against_the_exact_tail(self, graph, u):
        # 2M draws; the asymptotic KS critical value at level 0.01 / 6 (the six cases share
        # FAMILY_ALPHA), which is conservative for a discrete law
        kernel = lazy_kernel(GRAPHS[graph](), 0.5)
        tails = TailSpectrum(kernel)
        n_samples = 2_000_000
        sample = tails.draw(u, n_samples, rng_seed=5)
        ages = np.arange(1, sample.counts.size + 1)
        empirical_cdf = np.cumsum(sample.counts) / n_samples  # Pr(T <= A)
        exact_cdf = 1.0 - tails.tail(u, ages + 1)
        distance = np.abs(empirical_cdf - exact_cdf).max()
        assert distance <= stats.kstwobign.isf(FAMILY_ALPHA / 6) / np.sqrt(n_samples)

    def test_bad_node_and_sample_count_rejected(self):
        tails = TailSpectrum(lazy_kernel(complete_graph(4), 0.5))
        for u in (-1, 4, 2.5, True):
            with pytest.raises(ParameterError, match="node id"):
                tails.draw(u, 100, rng_seed=1)
        with pytest.raises(InsufficientDataError):
            tails.draw(0, 0, rng_seed=1)


class TestGuard:
    def test_negative_taboo_eigenvalue_rejected(self):
        # laziness 1/4 on cycle(20): the taboo path's eigenvalues 1/4 + 3/4 cos(k pi / 20)
        # go down to -0.49, and the mixture form has no negative component
        tails = TailSpectrum(lazy_kernel(cycle_graph(20), 0.25))
        with pytest.raises(ParameterError, match="taboo eigenvalues"):
            tails.draw(0, 100, rng_seed=1)
        with pytest.raises(ParameterError, match="taboo eigenvalues"):
            tails.tail(0, [1, 2])

    def test_zero_taboo_eigenvalue_accepted(self):
        # laziness 1/4 on K4: the taboo kernel 1/4 J has eigenvalues 3/4, 0, 0 up to rounding
        kernel = lazy_kernel(complete_graph(4), 0.25)
        tails = TailSpectrum(kernel)
        lam, _ = tails.spectrum(0)
        assert lam.min() == 0.0
        ages = np.arange(1, 50)
        assert np.abs(tails.tail(0, ages) - taboo_tails(kernel, 49)[0]).max() <= 1e-12

    @pytest.mark.parametrize("bad", ["eigenvalue_one", "nan_vector"])
    def test_bad_spectrum_rejected_before_any_draw(self, monkeypatch, bad):
        real = np.linalg.eigh

        def eigh(matrix):
            lam, vec = real(matrix)
            if bad == "eigenvalue_one":
                lam[-1] = 1.0
            else:
                vec[0, 0] = np.nan
            return lam, vec

        def no_draws(seed):
            raise AssertionError("a generator was made before the spectrum was checked")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        tails = TailSpectrum(lazy_kernel(cycle_graph(6), 0.5))
        with pytest.raises(ParameterError, match="taboo"):
            tails.draw(0, 100, rng_seed=1)

    def test_node_bound(self, monkeypatch):
        monkeypatch.setattr(srrw.tails, "DENSE_NODE_CAP", 3)
        with pytest.raises(ParameterError, match="capped at 3 nodes"):
            TailSpectrum(lazy_kernel(complete_graph(4), 0.5))


FIT_CONFIG = {
    "graph": {"generator": {"kind": "cycle", "n": 8}},
    "traps": {"nodes": "all", "zeta": 0.1},
    "policy": {"A_l": 3, "q_fork": 0.3},
    "envelope": {"mode": "fit", "n_samples": 2000, "seed": 40},
}


class TestFitSelection:
    def test_lazy_half_draws_exactly(self):
        resolved = resolve_config(dict(FIT_CONFIG, laziness=0.5))
        tails = TailSpectrum(resolved.kernel)
        expected = fit_constants([tails.draw(u, 2000, rng_seed=40 + u) for u in range(8)],
                                 resolved.kernel.pi)
        model = build_envelope_model(resolved)
        assert np.array_equal(model.c_minus, expected.c_minus)
        assert np.array_equal(model.c_plus, expected.c_plus)

    def test_laziness_below_half_walks(self):
        resolved = resolve_config(dict(FIT_CONFIG, laziness=0.25))
        kernel = resolved.kernel
        samples = return_time_samples(kernel, 2000, 40)
        walks = [sample_return_times(kernel, u, 2000, rng_seed=40 + u) for u in range(8)]
        assert [s.node for s in samples] == list(range(8))
        assert all(np.array_equal(s.counts, w.counts) for s, w in zip(samples, walks))
        model = build_envelope_model(resolved)
        expected = fit_constants(walks, kernel.pi)
        assert np.array_equal(model.c_minus, expected.c_minus)
        assert np.array_equal(model.c_plus, expected.c_plus)

    def test_past_the_dense_cap_walks(self, monkeypatch):
        monkeypatch.setattr(srrw.cli, "DENSE_NODE_CAP", 7)
        kernel = resolve_config(dict(FIT_CONFIG, laziness=0.5)).kernel
        samples = return_time_samples(kernel, 2000, 40)
        walks = [sample_return_times(kernel, u, 2000, rng_seed=40 + u) for u in range(8)]
        assert all(np.array_equal(s.counts, w.counts) for s, w in zip(samples, walks))
