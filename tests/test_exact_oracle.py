"""The engine against the exact absorbing chain of a tiny SRRW.

With a flat policy that forks from age 1 (A_l = 1), every visit falls in
the fork region whatever the node clocks say, so the whole process is a
Markov chain on the token count vector alone. It is absorbed when Z reaches
0 or ``Z_cap``. Each token's outcome is independent given the counts:

- ``trap_first``: trapped (zeta); else forked (q), parent and copy on an
  ordered pair (a, b), a != b, with probability p_a p_b / (1 - sum p^2) (the
  single edge twice at degree 1); else moved by the lazy kernel;
- ``policy_first``: forked (q), the parent then trapped (zeta) while its copy
  lands on the pair's first target, or kept with the copy on the pair; else
  trapped (zeta), else moved.

A node's c tokens land by the c-fold convolution of that one-token law, and
a step by the product over nodes; both are taken on an FFT grid wide enough
that nothing wraps. The transient block Q and the absorption vector give
E[tau] = (I - Q)^-1 1 and P(cap) = (I - Q)^-1 r_cap. The engine runs ``step``
as ``run_population`` does, until Z is 0 or at least ``Z_cap``, folded and
with the fold rule off (the two-stage draw); each must lie within 3 standard
errors of both exact values.
"""
import itertools

import numpy as np
import pytest

import srrw.population
from srrw.graphs import complete_graph, lazy_kernel, path_graph
from srrw.policy import PolicySpec
from srrw.population import PopulationState, TrapProfile, step, step_rows

REPLICAS = 2000
# per-node fork and trap probabilities, so that where tokens land moves Z
Q_FORK = np.array([0.5, 0.2, 0.35])
ZETA = np.array([0.05, 0.4, 0.15])
# (graph, Z_cap, tokens at node 0 at the start)
CASES = {
    "K3": (lambda: complete_graph(3), 7, 2),
    "path3": (lambda: path_graph(3), 7, 2),
}


def token_law(p: np.ndarray, lazy: np.ndarray, q: float, zeta: float, order: str) -> dict:
    """One token's outcome at a node with base row ``p`` and lazy row ``lazy``, fork
    probability ``q`` and trap probability ``zeta``: {landing nodes: probability}."""
    n = p.size
    if np.count_nonzero(p) == 1:
        pair = np.outer(p, p)
    else:
        pair = np.outer(p, p) / (1.0 - np.sum(p * p))
        np.fill_diagonal(pair, 0.0)
    law = {}

    def add(nodes, mass):
        law[nodes] = law.get(nodes, 0.0) + mass

    fork_kept, fork_trapped = ((1 - zeta) * q, 0.0) if order == "trap_first" else (
        q * (1 - zeta), q * zeta)
    move = (1 - zeta) * (1 - q)
    add((), 1.0 - fork_kept - fork_trapped - move)
    for a, b in itertools.product(range(n), repeat=2):
        add((a, b), fork_kept * pair[a, b])
        add((a,), fork_trapped * pair[a, b])
    for v in range(n):
        add((v,), move * lazy[v])
    return law


def exact(kernel, q, zeta, cap, order, start):
    """(E[tau], P(cap)) of the absorbing chain from the count vector ``start``, with per-node
    fork and trap probabilities ``q`` and ``zeta``."""
    n = kernel.node_count
    side = 2 * (cap - 1) + 1  # a step at most doubles Z < cap, so no coordinate wraps
    spectra = []
    base, matrix = kernel.base, kernel.matrix
    for u in range(n):
        grid = np.zeros((side,) * n)
        for nodes, mass in token_law(base[u], matrix[u], q[u], zeta[u], order).items():
            cell = [0] * n
            for v in nodes:
                cell[v] += 1
            grid[tuple(cell)] += mass
        spectra.append(np.fft.fftn(grid))
    states = [c for c in itertools.product(range(cap), repeat=n) if 0 < sum(c) < cap]
    where = {c: i for i, c in enumerate(states)}
    total = np.indices((side,) * n).sum(axis=0)
    q_block = np.zeros((len(states), len(states)))
    to_cap = np.zeros(len(states))
    for i, c in enumerate(states):
        spectrum = np.ones((side,) * n, dtype=complex)
        for u in range(n):
            spectrum *= spectra[u] ** c[u]
        nxt = np.fft.ifftn(spectrum).real
        to_cap[i] = nxt[total >= cap].sum()
        for cell in zip(*np.nonzero((total > 0) & (total < cap))):
            q_block[i, where[cell]] += nxt[cell]
    fundamental = np.linalg.inv(np.eye(len(states)) - q_block)
    i = where[tuple(start)]
    return float(fundamental[i].sum()), float(fundamental[i] @ to_cap)


def engine(kernel, spec, traps, order, start, cap, replicas, seed):
    """Steps to absorption and whether the cap was reached, per replica, on the kernel's kept
    rows (``step_rows``)."""
    rng = np.random.default_rng(seed)
    rows = step_rows(kernel, traps, order)
    steps, capped = np.zeros(replicas), np.zeros(replicas)
    for r in range(replicas):
        state = PopulationState(0, np.array(start), np.zeros(kernel.node_count, dtype=np.int64))
        while 0 < state.alive < cap:
            step(state, rows, spec, rng)
        steps[r], capped[r] = state.time, state.alive >= cap
    return steps, capped


@pytest.mark.parametrize("order", ["trap_first", "policy_first"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_absorption_matches_the_exact_chain(monkeypatch, name, order):
    make, cap, z0 = CASES[name]
    kernel = lazy_kernel(make(), 0.5)
    n = kernel.node_count
    start = [z0] + [0] * (n - 1)
    mean_tau, p_cap = exact(kernel, Q_FORK, ZETA, cap, order, start)
    assert 0.05 < p_cap < 0.95
    spec = PolicySpec.uniform(n, a_long=1.0, q_fork=Q_FORK)
    traps = TrapProfile(ZETA)
    for fold_bytes in (srrw.population.FOLD_BYTES, 0):
        monkeypatch.setattr(srrw.population, "FOLD_BYTES", fold_bytes)
        steps, capped = engine(kernel, spec, traps, order, start, cap, REPLICAS, seed=4000)
        assert step_rows(kernel, traps, order).folded == (fold_bytes > 0)
        se_tau = steps.std() / np.sqrt(REPLICAS)
        se_cap = np.sqrt(p_cap * (1 - p_cap) / REPLICAS)
        assert abs(steps.mean() - mean_tau) <= 3 * se_tau, (fold_bytes, steps.mean(), mean_tau)
        assert abs(capped.mean() - p_cap) <= 3 * se_cap, (fold_bytes, capped.mean(), p_cap)
