"""Token-level reference engine: every token drawn on its own.

The reference the count engine in ``srrw.population`` is tested against in
law. A step rolls traps and policy actions per token, draws passer motion
per token by a dense inverse-CDF over the lazy kernel's cumulative rows, and
dispatches each fork by drawing two neighbours of the base walk the same way,
independently, and redrawing both until they differ (the single edge twice
at degree 1). Event order, the pre-update-age rule and the
node-clock update follow the count engine's documentation.
"""
import numpy as np

from srrw.policy import AgeLaw, RegimePolicy
from srrw.population import PopulationTrace

REDRAW_CAP = 100_000


def draw(cum, pos, rng):
    """One step per token: the first column whose cumulative weight reaches
    a uniform. O(n) per token."""
    r = rng.random(pos.size)
    return (cum[pos] < r[:, None]).sum(axis=1)


def fork_targets(kernel, parents, rng):
    """Two distinct neighbour draws per forking parent (same edge at degree 1)."""
    cum = kernel.base_cumulative_rows()
    several = kernel.base_neighbour_table().support[parents] > 1
    a = draw(cum, parents, rng)
    b = draw(cum, parents, rng)
    redraw = (a == b) & several
    for _ in range(REDRAW_CAP):
        if not redraw.any():
            return a, b
        sub = parents[redraw]
        a[redraw] = draw(cum, sub, rng)
        b[redraw] = draw(cum, sub, rng)
        redraw = (a == b) & several
    raise RuntimeError("fork redraw did not terminate")


def token_step(pos, last_visit, t, kernel, zeta, spec, rng, order, law):
    """One step from token positions; returns (positions, forks, deletions, terms)."""
    ages = t - last_visit[pos]
    if order == "trap_first":
        deleted = rng.random(pos.size) < zeta[pos]
        n_del = int(deleted.sum())
        act_pos, act_ages = pos[~deleted], ages[~deleted]
    else:
        n_del = 0
        act_pos, act_ages = pos, ages
    roll = rng.random(act_pos.size)
    fork_region = act_ages >= spec.a_long[act_pos]
    term_region = ~fork_region & (act_ages <= spec.a_short[act_pos])
    fork = fork_region & (roll < spec.q_fork[act_pos])
    term = term_region & (roll < spec.q_term[act_pos])
    if law is not None:
        law.record(act_pos, act_ages)
    keep = ~fork & ~term
    parent_moves = fork
    if order == "policy_first":
        # passers and fork parents are rolled after acting; copies are spared
        died = (keep | fork) & (rng.random(act_pos.size) < zeta[act_pos])
        n_del = int(died.sum())
        keep = keep & ~died
        parent_moves = fork & ~died
    last_visit[np.unique(pos)] = t
    moved = draw(kernel.cumulative_rows(), act_pos[keep], rng)
    target_a, target_b = fork_targets(kernel, act_pos[fork], rng)
    target_a = target_a[parent_moves[fork]]
    return (np.concatenate([moved, target_a, target_b]), int(fork.sum()), n_del,
            int(term.sum()))


def run_tokens(kernel, policy, traps, z0, horizon, rng_seed, order="trap_first",
               z_cap=10**6, collect_age_law=False):
    """Token-level counterpart of ``run_population`` (initial placement from pi)."""
    rng = np.random.default_rng(rng_seed)
    n = kernel.node_count
    pos = rng.choice(n, size=z0, p=kernel.pi.probs)
    last_visit = np.zeros(n, dtype=np.int64)
    law = AgeLaw(n) if collect_age_law else None
    regime_policy = policy if isinstance(policy, RegimePolicy) else None
    regime = regime_policy.initial_regime(z0) if regime_policy else None
    hist = [(z0, 0, 0, 0)]
    for t in range(1, horizon + 1):
        spec = policy
        if regime_policy is not None:
            regime = regime_policy.next_regime(regime, pos.size)
            spec = regime_policy.spec_for(regime)
        pos, forks, dels, terms = token_step(pos, last_visit, t, kernel, traps.zeta, spec,
                                             rng, order, law)
        hist.append((pos.size, forks, dels, terms))
        if pos.size == 0 or pos.size >= z_cap:
            break
    z, forks, dels, terms = (np.asarray(col, dtype=np.int64) for col in zip(*hist))
    return PopulationTrace(z=z, forks=forks, trap_dels=dels, terms=terms, seed=rng_seed,
                           lambda_del=traps.absorption_pressure(kernel.pi),
                           extinct=bool(z[-1] == 0), capped=bool(z[-1] >= z_cap),
                           horizon_requested=horizon, age_law=law)
