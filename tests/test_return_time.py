import numpy as np
import pytest
import return_time_v030
from scipy import stats

from srrw.errors import InsufficientDataError, ParameterError, StepCapError, SrrwError
from srrw.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    lazy_kernel,
    path_graph,
    star_graph,
)
from srrw.return_time import (
    ReturnTimeSample,
    sample_return_times,
    tail_curve,
)

K2 = lazy_kernel(complete_graph(2), 0.5)


def first_return_law(kernel, u, tol=1e-15):
    """Pr_u(T_u = t) for t = 1, 2, ... by taboo iteration: h holds the law of
    the walk at time t on paths that have not come back to u, and f_(t+1) is
    the part of it that steps to u. Stops once h carries under ``tol``."""
    p = kernel.matrix
    f = [p[u, u]]
    h = p[u].copy()
    h[u] = 0.0
    while h.sum() > tol:
        f.append(h @ p[:, u])
        h = h @ p
        h[u] = 0.0
    return np.asarray(f)


def grouped(observed, expected, floor=5.0):
    """Consecutive bins pooled until each group expects ``floor``; the
    remainder joins the last group."""
    groups, acc_o, acc_e = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= floor:
            groups.append([acc_o, acc_e])
            acc_o = acc_e = 0.0
    groups[-1][0] += acc_o
    groups[-1][1] += acc_e
    return np.asarray(groups).T


EXACT_LAW_CASES = {
    "K2-0": (lambda: complete_graph(2), 0),
    "path3-0": (lambda: path_graph(3), 0),
    "path3-1": (lambda: path_graph(3), 1),
    "star9-centre": (lambda: star_graph(9), 0),
    "star9-leaf": (lambda: star_graph(9), 4),
    "er30-0": (lambda: erdos_renyi_graph(30, 0.15, seed=1), 0),
    "er30-9": (lambda: erdos_renyi_graph(30, 0.15, seed=1), 9),
    "er30-17": (lambda: erdos_renyi_graph(30, 0.15, seed=1), 17),
    "weighted-0": (lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
                                       [1.0, 2.5, 0.3, 7.0, 0.01]), 0),
    "weighted-4": (lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
                                       [1.0, 2.5, 0.3, 7.0, 0.01]), 4),
}


class TestSampling:
    def test_k2_geometric_law(self):
        # exact law: T ~ Geometric(1/2), so E[T] = 2 and Pr{T >= A} = 2^(1-A)
        s = sample_return_times(K2, 0, 100_000, rng_seed=7)
        assert abs(s.mean() - 2.0) <= 3 * s.std_error()
        _, tails = tail_curve(s)  # tails[a - 1] is the tail at age a
        assert tails[0] == 1.0
        for a, p in ((2, 0.5), (3, 0.25)):
            ci = 2.576 * np.sqrt(p * (1 - p) / s.count)
            assert abs(tails[a - 1] - p) <= ci

    def test_kac_identity_path3(self):
        k = lazy_kernel(path_graph(3), 0.5)
        for u in range(3):
            s = sample_return_times(k, u, 20_000, rng_seed=100 + u)
            assert abs(s.mean() - 1.0 / k.pi[u]) <= 3 * s.std_error()

    def test_seed_determinism(self):
        a = sample_return_times(K2, 0, 5000, rng_seed=3)
        b = sample_return_times(K2, 0, 5000, rng_seed=3)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("case", sorted(EXACT_LAW_CASES))
    def test_matches_exact_first_return_law(self, case):
        graph, u = EXACT_LAW_CASES[case]
        k = lazy_kernel(graph(), 0.5)
        f = first_return_law(k, u)
        t = np.arange(1, f.size + 1)
        assert f.sum() == pytest.approx(1.0, abs=1e-9)
        assert (t * f).sum() == pytest.approx(1.0 / k.pi[u], abs=1e-9)
        s = sample_return_times(k, u, 20_000, rng_seed=300)
        assert np.all(np.diff(s.samples) >= 0)
        observed = np.bincount(s.samples - 1, minlength=f.size)
        expected = s.count * np.append(f, np.zeros(observed.size - f.size))
        _, p = stats.chisquare(*grouped(observed, expected))
        assert p > 1e-3

    def test_step_cap(self):
        with pytest.raises(StepCapError):
            sample_return_times(K2, 0, 50, rng_seed=1, max_steps=0)

    def test_needs_samples(self):
        with pytest.raises(InsufficientDataError):
            sample_return_times(K2, 0, 0, rng_seed=1)

    @pytest.mark.parametrize("u", [-1, 4, 2.5, True, "0"])
    def test_node_outside_the_graph_rejected(self, u):
        # u = -1 once sampled node 3 of K4 under the label -1, and u = 4 raised IndexError
        k4 = lazy_kernel(complete_graph(4), 0.5)
        with pytest.raises(ParameterError, match="node id"):
            sample_return_times(k4, u, 100, rng_seed=1)


class TestTails:
    def test_monotone_and_bounded(self):
        s = sample_return_times(K2, 0, 10_000, rng_seed=5)
        _, tails = tail_curve(s)
        assert tails[0] == 1.0
        assert all(0.0 <= p <= 1.0 for p in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_sample_holds_one_count_per_age(self):
        # 20k walkers at corridor node 0 come back within about 900 steps
        s = sample_return_times(lazy_kernel(erdos_renyi_graph(30, 0.15, seed=1), 0.5), 0,
                                20_000, rng_seed=1)
        held = sum(v.nbytes for v in vars(s).values() if isinstance(v, np.ndarray))
        assert s.count == 20_000
        assert held == 8 * int(s.samples.max()) < 16_000  # 20k int64 samples took 160 kB

    def test_samples_round_trip_through_counts(self):
        values = np.array([3, 1, 7, 1, 3, 3])
        s = ReturnTimeSample(4, values)
        assert s.node == 4 and list(s.counts) == [2, 0, 3, 0, 0, 0, 1]
        assert np.array_equal(s.samples, np.sort(values))
        assert s.mean() == values.mean()
        assert s.std_error() == pytest.approx(values.std(ddof=1) / np.sqrt(values.size), rel=1e-12)
        assert np.array_equal(ReturnTimeSample.from_counts(4, s.counts).samples, s.samples)
        for bad in ([1, -1], [1, 0]):
            with pytest.raises(ParameterError):
                ReturnTimeSample.from_counts(0, bad)
        with pytest.raises(SrrwError):
            ReturnTimeSample(0, np.array([2, 0]))

    def test_tail_curve_matches_pointwise(self):
        s = ReturnTimeSample(0, np.array([1, 1, 2, 5]))
        ages, tails = tail_curve(s)
        assert list(ages) == [1, 2, 3, 4, 5]
        assert list(tails) == [1.0, 0.5, 0.25, 0.25, 0.25]


FROZEN_CASES = {
    "K2": lambda: complete_graph(2),
    "cycle20": lambda: cycle_graph(20),
    "er30": lambda: erdos_renyi_graph(30, 0.15, seed=1),
    "star9": lambda: star_graph(9),
    "weighted6": lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (1, 5)],
                                     [1.0, 2.5, 0.3, 7.0, 0.01, 4.0, 0.5]),
}


class TestAgainstFrozenSampler:
    """The sampler makes 0.3.0's draws in 0.3.0's order: bitwise-equal samples."""

    @pytest.mark.parametrize("case", sorted(FROZEN_CASES))
    def test_same_samples(self, case):
        k = lazy_kernel(FROZEN_CASES[case](), 0.5)
        for u in sorted({0, 1, k.node_count - 1}):
            for seed in (0, 17, 2**40 + 3):
                s = sample_return_times(k, u, 3000, rng_seed=seed)
                ref = return_time_v030.sample_return_times(k, u, 3000, rng_seed=seed)
                assert s.samples.dtype == ref.dtype and np.array_equal(s.samples, ref)

    @pytest.mark.parametrize("case", sorted(FROZEN_CASES))
    def test_same_tail_as_sorted_samples(self, case):
        # the tail as 0.3.0 computed it: count minus the samples below each age
        k = lazy_kernel(FROZEN_CASES[case](), 0.5)
        for u in sorted({0, k.node_count - 1}):
            ref = return_time_v030.sample_return_times(k, u, 3000, rng_seed=11)
            ref_ages = np.arange(1, int(ref.max()) + 1)
            ref_tails = (ref.size - np.searchsorted(np.sort(ref), ref_ages, side="left")) / ref.size
            ages, tails = tail_curve(sample_return_times(k, u, 3000, rng_seed=11))
            assert np.array_equal(ages, ref_ages)
            assert tails.dtype == ref_tails.dtype
            assert np.array_equal(tails.view(np.int64), ref_tails.view(np.int64))

    def test_same_step_cap(self):
        k = lazy_kernel(cycle_graph(20), 0.5)
        with pytest.raises(StepCapError) as now:
            sample_return_times(k, 3, 100, rng_seed=1, max_steps=15)
        with pytest.raises(StepCapError) as frozen:
            return_time_v030.sample_return_times(k, 3, 100, rng_seed=1, max_steps=15)
        assert str(now.value) == str(frozen.value)
