"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. All expected values come from independent oracles: closed
forms, power iteration, analytic tails, binomial/chi-square statistics, or
generating-function fixed points."""
import math
import sys
import time

import numpy as np
import pytest

from srrw.analysis import check_corridor_feasibility, corridor_stats
from srrw.envelopes import (
    EnvelopeModel,
    MatchingAgeInterval,
    decay_age,
    fit_constants,
    laplace,
    solve_matching_age,
)
from srrw.graphs import (
    Graph,
    StationaryDistribution,
    complete_graph,
    erdos_renyi_graph,
    lazy_kernel,
    mixing_profile,
)
from srrw.policy import PolicySpec, RegimePolicy
from srrw.population import (
    BlockPlan,
    TrapProfile,
    block_drift,
    gw_baseline,
    occupancy_check,
    run_population,
)
from srrw.return_time import sample_return_times, tail_curve

from oracles import gw_extinction_probability, sign_agreement, stationary_by_iteration


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:02d} {name}: {tag}{suffix}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def random_connected_graph(rng, n):
    edges = set()
    for i in range(1, n):
        edges.add((int(rng.integers(0, i)), i))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v:
            edges.add((u, v))
    edges = sorted(edges)
    if rng.random() < 0.5:
        weights = rng.uniform(0.1, 3.0, size=len(edges)).tolist()
        return Graph.build(edges, weights, node_count=n)
    return Graph.build(edges, node_count=n)


def test_criterion_01_stationary_law_oracle():
    start = time.time()
    rng = np.random.default_rng(20240901)
    worst_pi, worst_balance = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(2, 51))
        g = random_connected_graph(rng, n)
        k = lazy_kernel(g, 0.5)
        pi_iter = stationary_by_iteration(k, tol=1e-14)
        worst_pi = max(worst_pi, float(np.abs(pi_iter - k.pi.probs).max()))
        flows = k.pi.probs[:, None] * k.matrix
        worst_balance = max(worst_balance, float(np.abs(flows - flows.T).max()))
    elapsed = time.time() - start
    ok = worst_pi <= 1e-8 and worst_balance <= 1e-12 and elapsed < 10.0
    report(1, "stationary-law oracle", ok,
           f"max_pi_err={worst_pi:.2e} max_balance={worst_balance:.2e} t={elapsed:.1f}s")


def test_criterion_02_kac_identity(kernels, sample_bank):
    bank, sample_time = sample_bank
    start = time.time()
    worst = 0.0
    ok = True
    for name, k in kernels.items():
        for s in bank[name]:
            target = 1.0 / k.pi[s.node]
            dev = abs(s.mean() - target) / (3 * s.std_error())
            worst = max(worst, dev)
            ok = ok and dev <= 1.0
    elapsed = sample_time + (time.time() - start)
    ok = ok and elapsed < 60.0
    report(2, "Kac identity", ok, f"worst_dev={worst:.2f}x3SE t={elapsed:.1f}s")


def _tail_with_se(sample):
    ages, tails = tail_curve(sample)
    se = np.sqrt(tails * (1 - tails) / sample.count)
    return ages, tails, se


def test_criterion_03_envelope_sandwich(kernels, sample_bank, heldout_bank,
                                        fitted_models, theoretical_models):
    bank, _ = sample_bank
    checked = 0
    ok = True
    for name, k in kernels.items():
        th = theoretical_models[name]
        t0 = th.meta["t0"]
        for s in bank[name]:
            u = s.node
            ages, tails, se = _tail_with_se(s)
            lo_env = np.exp(-th.c_plus[u] * ages * k.pi[u])
            hi_env = np.exp(-th.c_minus[u] * ages * k.pi[u])
            upper_range = ages >= 2 * t0
            lower_range = ages >= 2 * th.meta["t_u"][u]
            ok = ok and bool(np.all(tails[upper_range] - 3 * se[upper_range]
                                    <= hi_env[upper_range]))
            ok = ok and bool(np.all(lo_env[lower_range]
                                    <= tails[lower_range] + 3 * se[lower_range]))
            checked += int(upper_range.sum() + lower_range.sum())
        fit = fitted_models[name]
        for s in bank[name]:  # training set: sandwich exact by construction
            u = s.node
            ages, tails = tail_curve(s)
            sel = ages >= 2
            lo_env = np.exp(-fit.c_plus[u] * ages[sel] * k.pi[u])
            hi_env = np.exp(-fit.c_minus[u] * ages[sel] * k.pi[u])
            ok = ok and bool(np.all(lo_env <= tails[sel] * (1 + 1e-9)))
            ok = ok and bool(np.all(tails[sel] * (1 - 1e-9) <= hi_env))
            checked += int(sel.sum()) * 2
        for s in heldout_bank[name]:  # held-out set: sampling slack allowed
            u = s.node
            ages, tails, se = _tail_with_se(s)
            sel = ages >= 2
            lo_env = np.exp(-fit.c_plus[u] * ages[sel] * k.pi[u])
            hi_env = np.exp(-fit.c_minus[u] * ages[sel] * k.pi[u])
            ok = ok and bool(np.all(lo_env <= tails[sel] + 3 * se[sel]))
            ok = ok and bool(np.all(tails[sel] - 3 * se[sel] <= hi_env))
            checked += int(sel.sum()) * 2
    report(3, "envelope sandwich", ok, f"checked={checked} inequalities")


def test_criterion_04_laplace_shape(fitted_models, theoretical_models):
    ok = True
    for models in (fitted_models, theoretical_models):
        for model in models.values():
            for sign in ("plus", "minus"):
                ok = ok and laplace(model, sign, 0) == 1.0
                a_big = decay_age(model, sign)
                grid = np.linspace(0.0, a_big, 100)
                vals = [laplace(model, sign, a) for a in grid]
                ok = ok and all(b < a for a, b in zip(vals, vals[1:]))
                ok = ok and laplace(model, sign, a_big) < 1e-6
    report(4, "Laplace envelope shape", ok, "16 models x 100-point grids")


def test_criterion_05_matching_age_round_trip(fitted_models, theoretical_models):
    rng = np.random.default_rng(5)
    worst = 0.0
    ok = True
    for models in (fitted_models, theoretical_models):
        for model in models.values():
            scale = decay_age(model, "minus")
            for _ in range(50):
                q = float(rng.uniform(0.05, 1.0))
                a = float(rng.uniform(0.0, 0.5 * scale))
                for sign, end in (("minus", "hi"), ("plus", "lo")):
                    target = q * laplace(model, sign, a)
                    iv = solve_matching_age(model, q, target)
                    back = q * laplace(model, sign, getattr(iv, end))
                    worst = max(worst, abs(back - target))
                    ok = ok and abs(back - target) <= 1e-8
    pi = StationaryDistribution(np.array([0.3, 0.7]))
    collapsed = EnvelopeModel(np.array([0.8, 1.1]), np.array([0.8, 1.1]), "empirical_fit", pi)
    for a in (0.0, 1.0, 4.0, 9.0):
        iv = solve_matching_age(collapsed, 0.6, 0.6 * laplace(collapsed, "plus", a))
        ok = ok and iv.lo == iv.hi and abs(iv.lo - a) <= 1e-7
    report(5, "matching-age round trip", ok, f"worst_residual={worst:.2e}")


def test_criterion_06_trap_decay_oracle():
    start = time.time()
    k4 = lazy_kernel(complete_graph(4), 0.5)
    traps = TrapProfile.uniform(4, 0.1)
    spec = PolicySpec.uniform(4, a_long=2.0**40, q_fork=0.0)
    horizon = 200
    t_mix = mixing_profile(k4, target=0.125).t_mix_of(0.125)
    zs = np.zeros((500, horizon + 1))
    for r in range(500):
        tr = run_population(k4, spec, traps, z0=50, horizon=horizon, rng_seed=60_000 + r)
        zs[r, :len(tr.z)] = tr.z

    def fitted_survival(rows):
        mean = rows.mean(axis=0)
        ts = np.arange(len(mean))
        window = (ts >= t_mix) & (mean >= 2.0)
        slope = np.polyfit(ts[window], np.log(mean[window]), 1)[0]
        return math.exp(slope)

    est = fitted_survival(zs)
    boot_rng = np.random.default_rng(61)
    boots = [fitted_survival(zs[boot_rng.integers(0, 500, size=500)]) for _ in range(200)]
    se = float(np.std(boots, ddof=1))
    elapsed = time.time() - start
    ok = abs(est - 0.9) <= 3 * se and elapsed < 60.0
    report(6, "trap-decay oracle", ok, f"survival={est:.4f} se={se:.4f} t={elapsed:.1f}s")


def test_criterion_07_extinction_when_infeasible(kernels, fitted_models):
    # uniform trigger 25 with unit cap: even the upper fork envelope sits
    # 0.05 below the absorption pressure, so the population must die out
    k4 = kernels["K4"]
    model = fitted_models["K4"]
    q, trigger, zeta = 1.0, 25.0, 0.12
    traps = TrapProfile.uniform(4, zeta)
    lam = traps.absorption_pressure(k4.pi)
    upper = q * laplace(model, "minus", trigger)
    margin_ok = upper <= lam - 0.05
    spec = PolicySpec.uniform(4, a_long=trigger, q_fork=q)
    extinct = 0
    for r in range(500):
        tr = run_population(k4, spec, traps, z0=30, horizon=10_000, rng_seed=70_000 + r)
        extinct += tr.extinct
    ok = margin_ok and extinct >= 0.99 * 500
    report(7, "extinction necessity", ok,
           f"qL-={upper:.4f} lam={lam:.2f} extinct={extinct}/500")


def test_criterion_08_explosion_when_unsafe(kernels, fitted_models):
    # trigger 1 fires on every visit; the lower fork envelope already beats
    # absorption by 0.05 with no terminations, so the population explodes
    k4 = kernels["K4"]
    model = fitted_models["K4"]
    q, trigger, zeta = 0.15, 1.0, 0.02
    traps = TrapProfile.uniform(4, zeta)
    lam = traps.absorption_pressure(k4.pi)
    lower = q * laplace(model, "plus", trigger)
    margin_ok = lower - lam - 0.0 >= 0.05
    spec = PolicySpec.uniform(4, a_long=trigger, q_fork=q)
    capped = 0
    for r in range(500):
        tr = run_population(k4, spec, traps, z0=20, horizon=10_000, rng_seed=80_000 + r,
                            z_cap=100_000)
        capped += tr.capped
    ok = margin_ok and capped >= 0.50 * 500
    report(8, "explosion necessity", ok,
           f"qL+={lower:.4f} lam={lam:.2f} capped={capped}/500")


CORRIDOR_SEEDS = list(range(10))


@pytest.fixture(scope="session")
def corridor_runs():
    """Ten regime-switching runs on the 30-node graph, shared by criteria 9 and 10."""
    g = erdos_renyi_graph(30, 0.15, seed=1)
    k = lazy_kernel(g, 0.5)
    prof = mixing_profile(k, target=1e-4)
    t_mix = prof.t_mix_of(0.125)
    low = PolicySpec.uniform(30, a_long=1.0, q_fork=0.15)
    high = PolicySpec.uniform(30, a_long=2.0**40, a_short=2.0**40 - 1,
                              q_fork=0.0, q_term=0.10)
    policy = RegimePolicy(low, high, z_low=20, z_high=200)
    traps = TrapProfile.uniform(30, 0.05)
    start = time.time()
    traces = [
        run_population(k, policy, traps, z0=60, horizon=100_000, rng_seed=90_000 + s)
        for s in CORRIDOR_SEEDS
    ]
    elapsed = time.time() - start
    plan = BlockPlan(t_mix_part=t_mix, kappa=4.0, a_eff=1.0)
    return {"kernel": k, "policy": policy, "traps": traps, "plan": plan,
            "traces": traces, "elapsed": elapsed}


def test_criterion_09_corridor_recurrence(corridor_runs):
    k = corridor_runs["kernel"]
    policy = corridor_runs["policy"]
    traps = corridor_runs["traps"]
    plan = corridor_runs["plan"]

    samples = [sample_return_times(k, u, 20_000, rng_seed=95_000 + u)
               for u in range(k.node_count)]
    model = fit_constants(samples, k.pi)
    # both regime specs are uniform, so the effective age equals the trigger
    iv_low = MatchingAgeInterval(1.0, 1.0)
    bundle = check_corridor_feasibility(
        model, traps,
        low=(policy.low.fork_cap, iv_low),
        high=(policy.high.fork_cap, iv_low, 0.0),
    )
    feasible = bundle.low.viability_holds and bundle.high.safety_holds

    inside, means = [], []
    all_returned = True
    for tr in corridor_runs["traces"]:
        st = corridor_stats(tr, 20, 200, plan)
        inside.append(st.inside_fraction)
        means.append(st.mean_return_time)
        all_returned = all_returned and st.all_returned and st.excursion_count > 0
    grand = float(np.mean(means))
    stable = all(abs(m - grand) <= 0.2 * grand for m in means)
    elapsed = corridor_runs["elapsed"]
    ok = (feasible and all(f >= 0.5 for f in inside) and all_returned and stable
          and elapsed < 600.0)
    report(9, "corridor recurrence", ok,
           f"inside_min={min(inside):.3f} mean_rt={grand:.2f} "
           f"spread={max(abs(m - grand) / grand for m in means):.1%} t={elapsed:.0f}s")


def test_criterion_10_block_drift_agreement(corridor_runs):
    plan = corridor_runs["plan"]
    matched = considered = eligible_blocks = 0
    for tr in corridor_runs["traces"]:
        rep = block_drift(tr, plan, corridor_runs["traps"].absorption_pressure(
            corridor_runs["kernel"].pi))
        eligible_blocks += int((rep.z_start >= 20).sum())
        m, c = sign_agreement(rep, min_z=20, factor=2.0)
        matched += m
        considered += c
    ok = eligible_blocks >= 100 and considered > 0 and matched >= 0.90 * considered
    report(10, "block-drift sign agreement", ok,
           f"blocks={eligible_blocks} considered={considered} matched={matched}")


def test_criterion_11_multinomial_occupancy(kernels, profiles):
    k4 = kernels["K4"]
    t = 10 * profiles["K4"].t_mix_of(0.125)
    passes = 0
    for trial in range(100):
        rep = occupancy_check(k4, z=100, t_sample=t, replicas=1, seed=110_000 + trial)
        passes += rep.p_value > 0.01
    degenerate = occupancy_check(k4, z=100, t_sample=0, replicas=1, seed=1)
    ok = passes >= 95 and degenerate.p_value < 0.01
    report(11, "multinomial occupancy", ok,
           f"passes={passes}/100 degenerate_p={degenerate.p_value:.1e}")


def test_criterion_12_gw_baselines():
    sub = gw_baseline(0.9, generations=200, replicas=500, seed=120)
    sup = gw_baseline(1.5, generations=200, replicas=500, seed=121)
    target = 1.0 - gw_extinction_probability(1.5)
    se = math.sqrt(target * (1 - target) / 500)
    ok = (sub.extinction_fraction >= 0.99
          and abs(sup.survival_fraction - target) <= 3 * se)
    report(12, "Galton-Watson baselines", ok,
           f"subcritical_extinct={sub.extinction_fraction:.3f} "
           f"survival={sup.survival_fraction:.3f} oracle={target:.3f}")
