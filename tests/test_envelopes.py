import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw.envelopes import (
    EnvelopeModel,
    decay_age,
    doeblin_constants,
    envelope_curve_rows,
    fit_constants,
    laplace,
    solve_matching_age,
)
from srrw.errors import (
    FitError,
    InfeasibleInputError,
    InsufficientDataError,
    MinorizationError,
    ParameterError,
)
import srrw.graphs as graphs_module
from srrw.graphs import (
    Graph,
    StationaryDistribution,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    lazy_kernel,
    path_graph,
    star_graph,
)
from srrw.return_time import ReturnTimeSample, sample_return_times, tail_curve

K2 = lazy_kernel(complete_graph(2), 0.5)
K4 = lazy_kernel(complete_graph(4), 0.5)


def dyadic_k2_samples(node=0, log2_n=17):
    """Samples whose tail is exactly 2**(1-A) for A = 1..log2_n+1."""
    values, counts = [], []
    for k in range(1, log2_n + 1):
        values.append(k)
        counts.append(2 ** (log2_n - k))
    values.append(log2_n + 1)
    counts.append(1)
    return ReturnTimeSample(node, np.repeat(values, counts))


def exactform_samples(rate, pi_u, node=0, n=1_000_000):
    """Samples whose tail at ages >= 2 matches exp(-rate * A * pi_u) exactly (to 1/n)."""
    tails = [1.0]
    a = 2
    while True:
        t = math.exp(-rate * a * pi_u)
        if t * n < 100.0:  # stop before count rounding distorts the tail
            break
        tails.append(t)
        a += 1
    tails.append(0.0)
    counts = [int(round(n * (tails[i] - tails[i + 1]))) for i in range(len(tails) - 1)]
    values = list(range(1, len(counts) + 1))
    return ReturnTimeSample(node, np.repeat(values, counts))


@st.composite
def envelope_models(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    raw = [draw(st.floats(min_value=0.05, max_value=3.0)) for _ in range(n)]
    probs = np.asarray(raw) / np.sum(raw)
    c_minus = np.asarray([draw(st.floats(min_value=0.05, max_value=2.0)) for _ in range(n)])
    c_plus = c_minus * np.asarray([draw(st.floats(min_value=1.0, max_value=5.0)) for _ in range(n)])
    return EnvelopeModel(c_minus, c_plus, "empirical_fit", StationaryDistribution(probs))


def doeblin_reference(k):
    """The Doeblin constants by plain loops: powers until the floor is positive,
    a TV curve down to min(1/8, pi_min/2), and one pass over the nodes."""
    p, pi = k.matrix, k.pi.probs
    m, t0 = p, 1
    while not (m / pi).min() > 0.0:
        m, t0 = m @ p, t0 + 1
    eps0 = float((m / pi).min())
    target = min(0.125, k.pi.pi_min / 2.0)
    m, tv = p, [float(1.0 - pi.min())]
    while tv[-1] > target:
        if len(tv) > 1:
            m = m @ p
        tv.append(float(0.5 * np.abs(m - pi).sum(axis=1).max()))
    tv = np.minimum.accumulate(tv)
    t_mix = int(np.nonzero(tv <= 0.125)[0][0])
    c_plus, t_us, thetas = [], [], []
    for u in range(len(pi)):
        idx = np.nonzero(tv <= pi[u] / 2.0)[0]
        t_u = int(idx[idx >= t_mix][0])
        theta_u = t_u + float(tv[1:t_u + 1].sum()) / pi[u]
        c_plus.append(2.0 * theta_u / t_u)
        t_us.append(t_u)
        thetas.append(theta_u)
    meta = {"t0": t0, "eps0": eps0, "t_u": t_us, "theta_u": thetas, "t_mix_eighth": t_mix,
            "valid_age_upper": 2 * t0, "valid_age_lower": [2 * t for t in t_us]}
    return np.full(len(pi), eps0 / (2.0 * t0)), np.array(c_plus), meta


DOEBLIN_GRAPHS = {
    "K2": lambda: complete_graph(2),
    "K4": lambda: complete_graph(4),
    "cycle20": lambda: cycle_graph(20),
    "path30": lambda: path_graph(30),
    "star9": lambda: star_graph(9),
    "er30": lambda: erdos_renyi_graph(30, 0.15, seed=1),
    "weighted": lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
                                    [1.0, 2.5, 0.3, 7.0, 0.01]),
}


class TestDoeblin:
    @pytest.mark.parametrize("laziness", [0.2, 0.5, 0.9])
    @pytest.mark.parametrize("name", sorted(DOEBLIN_GRAPHS))
    def test_bitwise_equal_to_plain_loops(self, name, laziness):
        k = lazy_kernel(DOEBLIN_GRAPHS[name](), laziness)
        c_minus, c_plus, meta = doeblin_reference(k)
        m = doeblin_constants(k)
        assert m.c_minus.tobytes() == c_minus.tobytes()
        assert m.c_plus.tobytes() == c_plus.tobytes()
        assert m.meta == meta

    def test_no_floor_on_a_curve_cut_before_a_positive_power(self, monkeypatch):
        # path(30) has a zero entry in P^t until t = 29
        monkeypatch.setattr(graphs_module, "mixing_profile",
                            functools.partial(graphs_module.mixing_profile, max_t=20))
        with pytest.raises(MinorizationError, match="within 20 steps"):
            doeblin_constants(lazy_kernel(path_graph(30), 0.5))

    def test_names_the_first_node_off_the_curve(self, monkeypatch):
        # star(9) reaches TV 1/8 at t = 3 but a leaf's pi/2 = 1/32 only at t = 5
        monkeypatch.setattr(graphs_module, "mixing_profile",
                            functools.partial(graphs_module.mixing_profile, max_t=4))
        with pytest.raises(InsufficientDataError, match=r"pi\(1\)/2 = 0.03125"):
            doeblin_constants(lazy_kernel(star_graph(9), 0.5))

    def test_k2_constants(self):
        m = doeblin_constants(K2)
        assert m.meta["t0"] == 1
        assert m.meta["eps0"] == 1.0
        assert np.array_equal(m.c_minus, [0.5, 0.5])
        assert np.array_equal(m.c_plus, [2.0, 2.0])
        assert m.meta["t_u"] == [1, 1]

    def test_c_minus_node_uniform(self):
        m = doeblin_constants(K4)
        assert np.all(m.c_minus == m.c_minus[0])

    def test_k2_sandwich_against_exact_tail(self):
        # exact K2 tail is 2**(1-A); bounds valid from age 2*t0 = 2 on
        m = doeblin_constants(K2)
        for a in range(2, 41):
            tail = 0.5 ** (a - 1)
            lo, hi = m.tail_bounds(0, a)
            assert lo <= tail <= hi

    def test_upper_envelope_matches_formula(self):
        m = doeblin_constants(K2)
        assert math.isclose(m.tail_bounds(0, 4)[1], math.exp(-0.25 * 4), rel_tol=1e-12)

    def test_reads_the_kernels_kept_profile(self, monkeypatch):
        # the constants are the same bits whichever target the kept curve was run to
        g = erdos_renyi_graph(30, 0.15, seed=1)
        fresh = doeblin_constants(lazy_kernel(g, 0.5))
        k = lazy_kernel(g, 0.5)
        k.t_mix(1e-6)
        calls = []
        monkeypatch.setattr(graphs_module, "mixing_profile", lambda *a, **kw: calls.append(1))
        kept = doeblin_constants(k)
        assert calls == []
        assert kept.c_minus.tobytes() == fresh.c_minus.tobytes()
        assert kept.c_plus.tobytes() == fresh.c_plus.tobytes()
        assert kept.meta == fresh.meta


class TestFit:
    def test_slope_matches_analytic_regression(self):
        # oracle: the same through-origin regression run on the exact tail
        s = dyadic_k2_samples()
        fit = fit_constants([s, dyadic_k2_samples(node=1)], K2.pi)
        ages = np.arange(2, 15)          # tail >= 10/count cut-off at age 14
        x = ages * 0.5
        y = (ages - 1) * math.log(2.0)
        oracle = float((x * y).sum() / (x * x).sum())
        assert abs(fit.meta["fit"][0]["slope"] - oracle) <= 0.05 * oracle

    def test_sampled_slope_within_5pct_of_analytic(self):
        samples = [sample_return_times(K2, u, 100_000, rng_seed=21 + u) for u in range(2)]
        fit = fit_constants(samples, K2.pi)
        s0 = samples[0]
        ages = np.arange(2, int(s0.samples.max()) + 1)
        keep = 0.5 ** (ages - 1) >= 10.0 / s0.count
        x = ages[keep] * 0.5
        y = (ages[keep] - 1) * math.log(2.0)
        oracle = float((x * y).sum() / (x * x).sum())
        assert abs(fit.meta["fit"][0]["slope"] - oracle) <= 0.05 * oracle

    def test_zero_margin_on_exactform_tails(self):
        rate, pi_u = 0.8, 0.5
        samples = [exactform_samples(rate, pi_u, node=u) for u in range(2)]
        fit = fit_constants(samples, K2.pi, delta_fit=0.0)
        assert np.all(np.abs(fit.c_minus - rate) <= 5e-3)
        assert np.all(np.abs(fit.c_plus - rate) <= 5e-3)

    def test_sandwich_by_construction(self):
        samples = [sample_return_times(K2, u, 50_000, rng_seed=31 + u) for u in range(2)]
        fit = fit_constants(samples, K2.pi)
        for s in samples:
            from srrw.return_time import tail_curve
            ages, tails = tail_curve(s)
            for a, t in zip(ages, tails):
                if a < 2:
                    continue
                lo, hi = fit.tail_bounds(s.node, a)
                assert lo <= t * (1 + 1e-9)
                assert t * (1 - 1e-9) <= hi

    def test_degenerate_tail_names_node(self):
        good = sample_return_times(K2, 0, 2000, rng_seed=97)
        bad = ReturnTimeSample(1, np.ones(2000, dtype=np.int64))
        with pytest.raises(FitError, match="node 1"):
            fit_constants([good, bad], K2.pi)

    def test_too_few_samples(self):
        s = ReturnTimeSample(0, np.arange(1, 100))
        with pytest.raises(InsufficientDataError):
            fit_constants([s, ReturnTimeSample(1, np.arange(1, 100))], K2.pi)

    def test_looseness_ordering_vs_doeblin(self):
        samples = [sample_return_times(K4, u, 50_000, rng_seed=41 + u) for u in range(4)]
        fit = fit_constants(samples, K4.pi)
        th = doeblin_constants(K4)
        assert np.all(th.c_minus <= fit.c_minus)
        assert np.all(th.c_plus >= fit.c_plus)


class TestLaplace:
    def test_zero_age_is_exactly_one(self):
        for m in (doeblin_constants(K2), doeblin_constants(K4)):
            assert laplace(m, "plus", 0) == 1.0
            assert laplace(m, "minus", 0) == 1.0

    def test_two_node_uniform_value(self):
        pi = StationaryDistribution(np.array([0.5, 0.5]))
        m = EnvelopeModel(np.array([0.5, 0.5]), np.array([0.5, 0.5]), "empirical_fit", pi)
        assert math.isclose(laplace(m, "plus", 2.0), 0.6065306597126334, rel_tol=1e-12)

    def test_decays_below_target(self):
        m = doeblin_constants(K4)
        for sign in ("plus", "minus"):
            assert laplace(m, sign, decay_age(m, sign)) < 1e-6

    def test_negative_age_rejected(self):
        with pytest.raises(ParameterError):
            laplace(doeblin_constants(K2), "plus", -1.0)

    @given(envelope_models())
    @settings(max_examples=20, deadline=None)
    def test_infinite_age_is_exactly_zero(self, m):
        # a regime that never forks (a corridor's high regime) has an
        # infinite effective age; every c * pi is positive
        for model in (m, doeblin_constants(K4)):
            for sign in ("plus", "minus"):
                assert laplace(model, sign, math.inf) == 0.0

    @given(envelope_models())
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing_on_grid(self, m):
        grid = np.linspace(0.0, decay_age(m, "minus"), 100)
        for sign in ("plus", "minus"):
            vals = [laplace(m, sign, a) for a in grid]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_curve_rows(self):
        m = doeblin_constants(K2)
        rows = envelope_curve_rows(m, [0.0, 1.0, 2.0])
        assert rows[0][1] == 1.0 and rows[0][2] == 1.0
        # plus-envelope below minus-envelope pointwise once c_plus >= c_minus
        assert all(p <= mi for _, p, mi in rows)


class TestMatchingAge:
    def test_cap_rate_gives_zero_age(self):
        m = doeblin_constants(K2)
        iv = solve_matching_age(m, 0.7, 0.7)
        assert iv.lo == 0.0 and iv.hi == 0.0

    def test_zero_rate_has_no_finite_age(self):
        iv = solve_matching_age(doeblin_constants(K2), 0.5, 0.0)
        assert not iv.finite

    def test_rate_above_cap_rejected(self):
        with pytest.raises(InfeasibleInputError):
            solve_matching_age(doeblin_constants(K2), 0.5, 0.6)

    def test_round_trip_inversion(self):
        m = doeblin_constants(K2)
        q = 0.8
        p = q * laplace(m, "minus", 3.0)
        iv = solve_matching_age(m, q, p)
        assert abs(iv.hi - 3.0) <= 1e-9
        assert iv.lo <= iv.hi
        p2 = q * laplace(m, "plus", 3.0)
        iv2 = solve_matching_age(m, q, p2)
        assert abs(iv2.lo - 3.0) <= 1e-9

    def test_uniform_collapse_when_envelopes_equal(self):
        pi = StationaryDistribution(np.array([0.5, 0.5]))
        m = EnvelopeModel(np.array([0.7, 0.7]), np.array([0.7, 0.7]), "empirical_fit", pi)
        q = 0.9
        for a in (0.5, 2.0, 7.0):
            iv = solve_matching_age(m, q, q * laplace(m, "plus", a))
            assert iv.lo == iv.hi
            assert abs(iv.lo - a) <= 1e-7

    @given(envelope_models(), st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=0.01, max_value=20.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_residual(self, m, q, a):
        p_minus = q * laplace(m, "minus", a)
        p_plus = q * laplace(m, "plus", a)
        iv1 = solve_matching_age(m, q, p_minus)
        iv2 = solve_matching_age(m, q, p_plus)
        assert abs(q * laplace(m, "minus", iv1.hi) - p_minus) <= 1e-8
        assert abs(q * laplace(m, "plus", iv2.lo) - p_plus) <= 1e-8
        assert iv1.lo <= iv1.hi and iv2.lo <= iv2.hi
        # the true fork rate of a uniform trigger-a policy sits inside its band,
        # so a is admissible in both recovered intervals
        assert iv2.lo <= a + 1e-7 and iv1.hi >= a - 1e-7


def stationary_fork_rate(pi, samples, q, age):
    """Idealized per-visit fork rate q * sum(pi(u) * Pr{return time of u >= age}),
    each node's tail read from ``tail_curve`` of its sample (0 past the largest)."""
    total = 0.0
    for s in samples:
        _, tails = tail_curve(s)
        total += pi[s.node] * (tails[age - 1] if age <= tails.size else 0.0)
    return q * total


class TestForkIntensity:
    def test_age_one_equals_cap(self):
        samples = [sample_return_times(K2, u, 5000, rng_seed=61 + u) for u in range(2)]
        assert stationary_fork_rate(K2.pi, samples, 0.3, 1) == pytest.approx(0.3)

    def test_k2_exact_value_at_age_two(self):
        # the dyadic samples' tail at age 2 is exactly 0.5 for both nodes
        samples = [dyadic_k2_samples(node=u) for u in range(2)]
        assert stationary_fork_rate(K2.pi, samples, 1.0, 2) == 0.5

    def test_sandwich_against_fitted_envelopes(self):
        samples = [sample_return_times(K4, u, 50_000, rng_seed=81 + u) for u in range(4)]
        fit = fit_constants(samples, K4.pi)
        q = 0.6
        for a in range(2, 12):
            rate = stationary_fork_rate(K4.pi, samples, q, a)
            lo = q * laplace(fit, "plus", a)
            hi = q * laplace(fit, "minus", a)
            assert lo * (1 - 1e-9) <= rate <= hi * (1 + 1e-9)


class TestModelExport:
    def test_json_shape(self):
        m = doeblin_constants(K2)
        d = m.to_json_dict()
        assert d["source"] == "doeblin_theoretical"
        assert d["t0"] == 1 and d["eps0"] == 1.0
        assert d["per_node"][0] == {"u": 0, "pi": 0.5, "c_minus": 0.5, "c_plus": 2.0}

    def test_invalid_constants_rejected(self):
        pi = StationaryDistribution(np.array([0.5, 0.5]))
        with pytest.raises(ParameterError):
            EnvelopeModel(np.array([1.0, 1.0]), np.array([0.5, 0.5]), "empirical_fit", pi)
        with pytest.raises(ParameterError):
            EnvelopeModel(np.array([0.0, 1.0]), np.array([1.0, 1.0]), "empirical_fit", pi)
