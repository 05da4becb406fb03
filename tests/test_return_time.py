import numpy as np
import pytest

from srrw.errors import InsufficientDataError, StepCapError
from srrw.graphs import complete_graph, erdos_renyi_graph, lazy_kernel, path_graph
from srrw.return_time import (
    ReturnTimeSample,
    empirical_tail,
    sample_return_times,
    tail_curve,
    tails_to_csv,
)

K2 = lazy_kernel(complete_graph(2), 0.5)


class DenseOracle:
    """The dense inverse-CDF sampler the neighbour tables replaced: O(n) per token."""

    def __init__(self, cum):
        self.cum = cum

    def sample(self, pos, rng):
        r = rng.random(pos.size)
        return (self.cum[pos] < r[:, None]).sum(axis=1)


class TestSampling:
    def test_k2_geometric_law(self):
        # exact law: T ~ Geometric(1/2), so E[T] = 2 and Pr{T >= A} = 2^(1-A)
        s = sample_return_times(K2, 0, 100_000, rng_seed=7)
        assert abs(s.mean() - 2.0) <= 3 * s.std_error()
        tails = dict(empirical_tail(s, [1, 2, 3]))
        assert tails[1] == 1.0
        for a, p in ((2, 0.5), (3, 0.25)):
            ci = 2.576 * np.sqrt(p * (1 - p) / s.count)
            assert abs(tails[a] - p) <= ci

    def test_kac_identity_path3(self):
        k = lazy_kernel(path_graph(3), 0.5)
        for u in range(3):
            s = sample_return_times(k, u, 20_000, rng_seed=100 + u)
            assert abs(s.mean() - 1.0 / k.pi[u]) <= 3 * s.std_error()

    def test_seed_determinism(self):
        a = sample_return_times(K2, 0, 5000, rng_seed=3)
        b = sample_return_times(K2, 0, 5000, rng_seed=3)
        assert np.array_equal(a.samples, b.samples)

    def test_restart_samples_match_dense_oracle(self, monkeypatch):
        k = lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5)
        real = [sample_return_times(k, u, 3000, rng_seed=u) for u in (0, 9, 17)]
        monkeypatch.setattr(k, "neighbour_table", lambda: DenseOracle(k.cumulative_rows()))
        for s in real:
            oracle = sample_return_times(k, s.node, 3000, rng_seed=s.node)
            assert np.array_equal(s.samples, oracle.samples)

    def test_step_cap(self):
        with pytest.raises(StepCapError):
            sample_return_times(K2, 0, 50, rng_seed=1, max_steps=0)

    def test_needs_samples(self):
        with pytest.raises(InsufficientDataError):
            sample_return_times(K2, 0, 0, rng_seed=1)


class TestTails:
    def test_monotone_and_bounded(self):
        s = sample_return_times(K2, 0, 10_000, rng_seed=5)
        tails = [p for _, p in empirical_tail(s, list(range(1, 20)))]
        assert tails[0] == 1.0
        assert all(0.0 <= p <= 1.0 for p in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_empty_sample_rejected(self):
        s = ReturnTimeSample(0, np.array([], dtype=np.int64))
        with pytest.raises(InsufficientDataError):
            empirical_tail(s, [1, 2])

    def test_unsorted_ages_rejected(self):
        s = ReturnTimeSample(0, np.array([1, 2, 3]))
        with pytest.raises(ValueError):
            empirical_tail(s, [3, 1])

    def test_tail_curve_matches_pointwise(self):
        s = ReturnTimeSample(0, np.array([1, 1, 2, 5]))
        ages, tails = tail_curve(s)
        assert list(ages) == [1, 2, 3, 4, 5]
        assert list(tails) == [1.0, 0.5, 0.25, 0.25, 0.25]

    def test_csv_export(self, tmp_path):
        s = sample_return_times(K2, 0, 2000, rng_seed=9)
        out = tmp_path / "tails.csv"
        tails_to_csv([s], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "node,A,tail,ci_low,ci_high"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and float(first[2]) == 1.0

