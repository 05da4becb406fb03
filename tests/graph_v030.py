"""Frozen copy of srrw 0.3.0's dense graph and kernel construction, for tests.

Every quantity here is built the way 0.3.0 built it: the ER coin matrix drawn
whole, edge validation and connectivity as Python loops, the base and lazy
kernels as dense n x n matrices, neighbour tables scanned from those
matrices, and the mixing profile started from the identity. The tests assert
that the edge-built construction in ``srrw.graphs`` gives bitwise-equal
edges, weights, stationary law, kernels, tables, mixing curves and spectral
gaps, and the same validation errors.
"""
import math

import numpy as np

from srrw.errors import GraphStructureError, InvalidWeightsError
from srrw.graphs import MixingProfile


def erdos_renyi_edges(n, p, seed):
    rng = np.random.default_rng(seed)
    coin = rng.random((n, n))
    return [(u, v) for u in range(n) for v in range(u + 1, n) if coin[u, v] < p]


def _canonical_edges(edges):
    canon = []
    for e in edges:
        u, v = int(e[0]), int(e[1])
        if u == v:
            raise GraphStructureError(f"self-loop at node {u}; laziness is added at the kernel level")
        canon.append((min(u, v), max(u, v)))
    return canon


def _components(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(sorted(comp))
    return comps


def validate(n, edges, weights=None):
    """0.3.0's ``Graph.__post_init__``."""
    if n < 2:
        raise GraphStructureError("graph needs at least 2 nodes (single-node graphs are degenerate)")
    seen = set()
    for u, v in edges:
        if not (0 <= u < v < n):
            raise GraphStructureError(f"edge ({u},{v}) out of range or not canonical for n={n}")
        if (u, v) in seen:
            raise GraphStructureError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    if weights is not None:
        if len(weights) != len(edges):
            raise InvalidWeightsError("weights length does not match edge count")
        for (u, v), w in zip(edges, weights):
            if not (math.isfinite(w) and w > 0.0):
                raise InvalidWeightsError(
                    f"edge ({u},{v}) has weight {w}; zero or non-finite weights are rejected"
                )
    comps = _components(n, edges)
    if len(comps) != 1:
        shown = str(comps[:3])
        shown = shown if len(shown) <= 200 else shown[:200] + " ..."
        raise GraphStructureError(f"graph is disconnected into {len(comps)} components; "
                                  f"the first: {shown}")


def build(edges, weights=None, node_count=None):
    """0.3.0's ``Graph.build``: (node_count, edges, weights) after validation."""
    canon = _canonical_edges(edges)
    order = sorted(range(len(canon)), key=lambda i: canon[i])
    canon_sorted = tuple(canon[i] for i in order)
    w_sorted = tuple(float(weights[i]) for i in order) if weights is not None else None
    if node_count is None:
        node_count = 1 + max(max(e) for e in canon_sorted) if canon_sorted else 0
    validate(int(node_count), canon_sorted, w_sorted)
    return int(node_count), canon_sorted, w_sorted


def degrees(n, edges):
    deg = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def weight_totals(n, edges, weights):
    tot = np.zeros(n, dtype=float)
    ws = weights if weights is not None else [1.0] * len(edges)
    for (u, v), w in zip(edges, ws):
        tot[u] += w
        tot[v] += w
    return tot


def stationary(n, edges, weights):
    totals = weight_totals(n, edges, weights)
    return totals / totals.sum()


def base_matrix(n, edges, weights):
    p = np.zeros((n, n), dtype=float)
    ws = weights if weights is not None else [1.0] * len(edges)
    for (u, v), w in zip(edges, ws):
        p[u, v] += w
        p[v, u] += w
    totals = p.sum(axis=1)
    return p / totals[:, None]


def lazy_matrix(base, laziness):
    matrix = (1.0 - laziness) * base
    np.fill_diagonal(matrix, laziness)
    return matrix


class NeighbourTable:
    """0.3.0's padded neighbour table, scanned from a dense row-stochastic matrix."""

    def __init__(self, weights):
        n = weights.shape[0]
        mask = weights > 0.0
        support = mask.sum(axis=1)
        rows, cols = np.nonzero(mask)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(support) - support, support)
        nbr = np.zeros((n, int(support.max())), dtype=np.int64)
        prob = np.zeros(nbr.shape)
        nbr[rows, slot] = cols
        prob[rows, slot] = weights[rows, cols]
        self.nbr = nbr
        self.prob = prob
        self.support = support


def spectral_gap(kernel):
    """0.3.0's ``spectral_gap``, which symmetrizes the kernel through two temporaries."""
    d = np.sqrt(kernel.pi.probs)
    sym = d[:, None] * kernel.matrix / d[None, :]
    ev = np.linalg.eigvalsh(sym)
    slem = max(abs(ev[0]), abs(ev[-2])) if len(ev) > 1 else 0.0
    return float(1.0 - slem)


def mixing_profile(kernel, max_t=20000, target=1e-10):
    """0.3.0's ``mixing_profile``, whose first product is ``eye(n) @ kernel.matrix``."""
    n = kernel.node_count
    pi = kernel.pi.probs
    tv = [float(1.0 - pi.min())]
    m = np.eye(n)
    unreached = True
    for t in range(1, max_t + 1):
        m = m @ kernel.matrix
        d = float(0.5 * np.abs(m - pi[None, :]).sum(axis=1).max())
        tv.append(d)
        if d <= target:
            unreached = False
            break
    tv_arr = np.minimum.accumulate(np.asarray(tv))
    return MixingProfile(kernel, tv_arr, unreached)
