"""Graphs, transition kernels, stationary distributions, and mixing profiles.

Supports undirected, optionally edge-weighted, finite connected graphs.
Kernels are lazy reversible walks; stationary laws come from the closed-form
degree/weight formula, with power iteration available as a cross-check.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GraphStructureError,
    InsufficientDataError,
    InvalidWeightsError,
    ParameterError,
)

DENSE_NODE_CAP = 2000


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


@dataclass(frozen=True)
class Graph:
    """Finite connected undirected graph, optionally edge-weighted.

    ``edges`` holds canonical (u < v) pairs; ``weights`` is parallel to
    ``edges`` when present. Instances are immutable after construction.
    """

    node_count: int
    edges: tuple
    weights: tuple | None = None

    def __post_init__(self):
        n = self.node_count
        if n < 2:
            raise GraphStructureError("graph needs at least 2 nodes (single-node graphs are degenerate)")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise GraphStructureError(f"edge ({u},{v}) out of range or not canonical for n={n}")
            if (u, v) in seen:
                raise GraphStructureError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
        if self.weights is not None:
            if len(self.weights) != len(self.edges):
                raise InvalidWeightsError("weights length does not match edge count")
            for (u, v), w in zip(self.edges, self.weights):
                if not (math.isfinite(w) and w > 0.0):
                    raise InvalidWeightsError(
                        f"edge ({u},{v}) has weight {w}; zero or non-finite weights are rejected"
                    )
        comps = _components(n, self.edges)
        if len(comps) != 1:
            # name only the first few components, cut short, so the message stays bounded
            shown = str(comps[:3])
            shown = shown if len(shown) <= 200 else shown[:200] + " ..."
            raise GraphStructureError(f"graph is disconnected into {len(comps)} components; "
                                      f"the first: {shown}")

    @staticmethod
    def build(edges, weights=None, node_count=None) -> "Graph":
        """Canonicalize raw (u, v[, w]) data and validate."""
        canon = _canonical_edges(edges)
        order = sorted(range(len(canon)), key=lambda i: canon[i])
        canon_sorted = tuple(canon[i] for i in order)
        w_sorted = tuple(float(weights[i]) for i in order) if weights is not None else None
        if node_count is None:
            node_count = 1 + max(max(e) for e in canon_sorted) if canon_sorted else 0
        return Graph(int(node_count), canon_sorted, w_sorted)

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.node_count, dtype=np.int64)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def weight_totals(self) -> np.ndarray:
        """Per-node total incident weight (degree when unweighted)."""
        tot = np.zeros(self.node_count, dtype=float)
        ws = self.weights if self.weights is not None else [1.0] * len(self.edges)
        for (u, v), w in zip(self.edges, ws):
            tot[u] += w
            tot[v] += w
        return tot

    def base_transition_matrix(self) -> np.ndarray:
        """Row-stochastic one-step walk matrix with zero diagonal."""
        n = self.node_count
        p = np.zeros((n, n), dtype=float)
        ws = self.weights if self.weights is not None else [1.0] * len(self.edges)
        for (u, v), w in zip(self.edges, ws):
            p[u, v] += w
            p[v, u] += w
        totals = p.sum(axis=1)
        if np.any(totals <= 0.0):
            bad = np.nonzero(totals <= 0.0)[0].tolist()
            raise InvalidWeightsError(f"zero total weight at nodes {bad}")
        return p / totals[:, None]


# ---------------------------------------------------------------------------
# parsers and generators

def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format: one ``u v [w]`` per line, 0-indexed.

    Blank lines and lines starting with ``#`` are skipped. If any line carries
    a weight the graph is weighted and weightless lines default to 1.0.
    """
    edges, weights, any_weight = [], [], False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphStructureError(f"line {lineno}: expected 'u v [w]', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise GraphStructureError(f"line {lineno}: {exc}") from exc
        edges.append((u, v))
        weights.append(w)
        any_weight = any_weight or w is not None
    if not edges:
        raise GraphStructureError("edge list is empty")
    if any_weight:
        return Graph.build(edges, [1.0 if w is None else w for w in weights])
    return Graph.build(edges)


def parse_graph_json(obj) -> Graph:
    """Parse the JSON graph object ``{"nodes": n, "edges": [[u, v], [u, v, w]]}``."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise GraphStructureError("graph JSON must be an object with 'nodes' and 'edges'")
    edges, weights, any_weight = [], [], False
    for e in obj["edges"]:
        if len(e) not in (2, 3):
            raise GraphStructureError(f"edge entry {e!r} must be [u, v] or [u, v, w]")
        edges.append((e[0], e[1]))
        weights.append(float(e[2]) if len(e) == 3 else None)
        any_weight = any_weight or len(e) == 3
    if any_weight:
        return Graph.build(edges, [1.0 if w is None else w for w in weights], node_count=obj["nodes"])
    return Graph.build(edges, node_count=obj["nodes"])


def path_graph(n: int) -> Graph:
    return Graph.build([(i, i + 1) for i in range(n - 1)], node_count=n)


def cycle_graph(n: int) -> Graph:
    return Graph.build([(i, (i + 1) % n) for i in range(n)], node_count=n)


def complete_graph(n: int) -> Graph:
    return Graph.build([(i, j) for i in range(n) for j in range(i + 1, n)], node_count=n)


def star_graph(n: int) -> Graph:
    """Star on n nodes: center 0, leaves 1..n-1."""
    return Graph.build([(0, i) for i in range(1, n)], node_count=n)


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """One G(n, p) draw; raises if the draw is disconnected (no silent resampling)."""
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"edge probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    coin = rng.random((n, n))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if coin[u, v] < p]
    return Graph.build(edges, node_count=n)


GENERATORS = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "star": star_graph,
    "erdos_renyi": erdos_renyi_graph,
}


# ---------------------------------------------------------------------------
# stationary law and kernels

class StationaryDistribution:
    """Closed-form stationary law of the base walk (deg/2|E|, or weight share)."""

    def __init__(self, probs: np.ndarray):
        probs = np.asarray(probs, dtype=float)
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ParameterError(f"stationary probabilities sum to {probs.sum()!r}, not 1")
        if np.any(probs <= 0.0):
            raise ParameterError("stationary probabilities must be strictly positive")
        probs = probs.copy()
        probs.setflags(write=False)
        self.probs = probs

    def __getitem__(self, u):
        return float(self.probs[u])

    def __len__(self):
        return len(self.probs)

    @property
    def pi_min(self) -> float:
        return float(self.probs.min())


def stationary_distribution(g: Graph) -> StationaryDistribution:
    """Exact stationary law: degree share for simple walks, weight share for weighted."""
    totals = g.weight_totals()
    return StationaryDistribution(totals / totals.sum())


class NeighbourTable:
    """Padded per-row neighbour lists of a row-stochastic matrix, for moving walkers.

    ``nbr[u, k]`` is the k-th nonzero column of row u in column order and
    ``prob[u, k]`` its matrix entry (0.0 in the padding); ``support[u]``
    counts row u's real entries. Width is the largest row support (max
    degree + 1 for the lazy kernel), so moving the tokens of a node costs
    O(width) instead of O(n).
    """

    def __init__(self, weights: np.ndarray):
        n = weights.shape[0]
        mask = weights > 0.0
        support = mask.sum(axis=1)
        rows, cols = np.nonzero(mask)
        slot = np.arange(rows.size) - np.repeat(np.cumsum(support) - support, support)
        nbr = np.zeros((n, int(support.max())), dtype=np.int64)
        prob = np.zeros(nbr.shape)
        nbr[rows, slot] = cols
        prob[rows, slot] = weights[rows, cols]
        for arr in (nbr, prob, support):
            arr.setflags(write=False)
        self.nbr = nbr
        self.prob = prob
        self.support = support

    def move(self, counts: np.ndarray, rng) -> np.ndarray:
        """Token counts per node after one step of the walk from ``counts``.

        Walkers that never interact are independent, so the tokens at a node
        spread over its row by one multinomial. Columns run in reversed slot
        order, so numpy's rounding remainder lands on slot 0, a real
        neighbour.
        """
        occ = counts.nonzero()[0]
        draws = rng.multinomial(counts.take(occ), self.prob.take(occ, axis=0)[:, ::-1])
        dest = self.nbr.take(occ, axis=0)[:, ::-1]
        return np.bincount(dest.ravel(), weights=draws.ravel(),
                           minlength=counts.size).astype(np.int64)


class ForkTable:
    """Multinomial rows sending a fork's two tokens to distinct neighbours of a walk.

    Built from the walk's ``NeighbourTable``. Columns run in reversed slot
    order, so each row's last column is slot 0, a real neighbour: numpy's
    multinomial gives any rounding remainder to the last column.

    - ``first[u]``: the first target a of a pair leaving u, with probability
      ``p_a (1 - p_a) / (1 - sum p^2)`` (the single edge at degree 1).
    - ``second[e]``: the second target b of the pair whose first target is
      the directed edge e = u -> a, with probability ``p_b / (1 - p_a)`` over
      b != a (the single edge again at degree 1). When a is slot 0, slot 1
      trades places with it so that the last column stays a real neighbour.
      Edges are numbered node by node in slot order, so the edge of u's
      column c is ``edge_end[u] - c``. 2|E| rows of the table width:
      ``16 |E| x width`` bytes.
    - ``dest``: the node of every column; row u for the rows of ``first``,
      row ``edge_dest[e]`` for those of ``second`` (past row n, a traded row
      when the first target is slot 0).

    Together the two stages draw the law of two independent neighbour draws
    conditioned to differ.
    """

    def __init__(self, table: NeighbourTable):
        n, width = table.nbr.shape
        prob = table.prob[:, ::-1]
        single = table.support == 1
        first = prob * (1.0 - prob)
        with np.errstate(invalid="ignore"):
            first /= first.sum(axis=1, keepdims=True)
        first[single] = prob[single]
        edge_node, slot = np.nonzero(np.arange(width) < table.support[:, None])
        col = width - 1 - slot
        # the first target's column is cleared (kept at degree 1); a slot-0
        # first target trades places with slot 1
        second = prob[edge_node]
        second[np.arange(edge_node.size), col] = single[edge_node].astype(float)
        traded = (col == width - 1) & ~single[edge_node]
        second[traded, -2:] = second[traded, :-3:-1]
        second /= second.sum(axis=1, keepdims=True)
        nbr = table.nbr[:, ::-1]
        dest = np.vstack([nbr, nbr[~single]])
        dest[n:, -2:] = dest[n:, :-3:-1]
        # rows n, n + 1, ... of ``dest`` are the traded rows of the nodes of degree above 1
        traded_row = n + np.cumsum(~single) - 1
        self.first = first
        self.second = second
        self.dest = dest
        self.edge_end = np.cumsum(table.support) - table.support + width - 1
        self.edge_dest = np.where(traded, traded_row[edge_node], edge_node)
        for arr in (first, second, dest, self.edge_end, self.edge_dest):
            arr.setflags(write=False)


class TransitionKernel:
    """Lazy walk kernel: ``laziness * I + (1 - laziness) * base``.

    The base matrix has zero diagonal; the lazy kernel's diagonal equals
    the laziness exactly and the stationary law is shared with the base.
    Walk steps are drawn from the neighbour tables, fork targets from the
    fork table, and mixing times read from the mixing profiles; all are built
    on first use.
    """

    def __init__(self, graph: Graph, laziness: float = 0.5):
        if not (0.0 < laziness < 1.0):
            raise ParameterError(f"laziness must be in (0, 1), got {laziness}")
        self.graph = graph
        self.laziness = float(laziness)
        base = graph.base_transition_matrix()
        matrix = (1.0 - self.laziness) * base
        np.fill_diagonal(matrix, self.laziness)
        base.setflags(write=False)
        matrix.setflags(write=False)
        self.base = base
        self.matrix = matrix
        self.pi = stationary_distribution(graph)
        self._cum = None
        self._base_cum = None
        self._table = None
        self._base_table = None
        self._fork_table = None
        self._profiles = {}

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    def cumulative_rows(self) -> np.ndarray:
        """Row-wise cumulative sums of the lazy kernel, last column pinned to 1;
        walkers move by ``NeighbourTable.move``, so only perfbench and tests read them."""
        if self._cum is None:
            cum = np.cumsum(self.matrix, axis=1)
            cum[:, -1] = 1.0
            cum.setflags(write=False)
            self._cum = cum
        return self._cum

    def base_cumulative_rows(self) -> np.ndarray:
        """Row-wise cumulative sums of the non-lazy base walk."""
        if self._base_cum is None:
            cum = np.cumsum(self.base, axis=1)
            cum[:, -1] = 1.0
            cum.setflags(write=False)
            self._base_cum = cum
        return self._base_cum

    def neighbour_table(self) -> NeighbourTable:
        """Neighbour table of the lazy kernel; its rows include the diagonal."""
        if self._table is None:
            self._table = NeighbourTable(self.matrix)
        return self._table

    def base_neighbour_table(self) -> NeighbourTable:
        """Neighbour table of the non-lazy base walk (fork dispatch)."""
        if self._base_table is None:
            self._base_table = NeighbourTable(self.base)
        return self._base_table

    def fork_table(self) -> ForkTable:
        """Fork-dispatch rows of the non-lazy base walk."""
        if self._fork_table is None:
            self._fork_table = ForkTable(self.base_neighbour_table())
        return self._fork_table

    def t_mix(self, eps: float) -> int:
        """Mixing time t_mix(eps), read from the profile computed down to ``eps``."""
        if eps not in self._profiles:
            self._profiles[eps] = mixing_profile(self, target=eps)
        return self._profiles[eps].t_mix_of(eps)


def lazy_kernel(g: Graph, laziness: float = 0.5) -> TransitionKernel:
    return TransitionKernel(g, laziness)


def spectral_gap(kernel: TransitionKernel) -> float:
    """Absolute spectral gap 1 - max|eigenvalue| (excluding the unit eigenvalue).

    Computed on the symmetrized lazy kernel, valid because the chain is
    reversible with respect to its stationary law.
    """
    pi = kernel.pi.probs
    d = np.sqrt(pi)
    sym = d[:, None] * kernel.matrix / d[None, :]
    ev = np.linalg.eigvalsh(sym)
    slem = max(abs(ev[0]), abs(ev[-2])) if len(ev) > 1 else 0.0
    return float(1.0 - slem)


class MixingProfile:
    """Exact worst-start TV decay curve plus the spectral gap.

    ``times``/``tv`` include t = 0. ``unreached`` flags a curve that was cut
    off at ``max_t`` before hitting the construction target.
    """

    def __init__(self, spectral_gap: float, times: np.ndarray, tv: np.ndarray,
                 pi_min: float, unreached: bool):
        self.spectral_gap = float(spectral_gap)
        self.times = np.asarray(times, dtype=np.int64)
        self.tv = np.asarray(tv, dtype=float)
        self.pi_min = float(pi_min)
        self.unreached = bool(unreached)
        diffs = np.diff(self.tv)
        if np.any(diffs > 1e-12):
            raise ParameterError("TV curve must be non-increasing")

    def t_mix_of(self, eps: float) -> int:
        """Least t with worst-start TV distance at most eps."""
        hit = np.nonzero(self.tv <= eps)[0]
        if hit.size == 0:
            raise InsufficientDataError(
                f"TV curve never reaches {eps} within t <= {self.times[-1]} (unreached={self.unreached})"
            )
        return int(self.times[hit[0]])

    def tv_at(self, t: int) -> float:
        idx = np.searchsorted(self.times, t)
        if idx >= len(self.times) or self.times[idx] != t:
            raise InsufficientDataError(f"TV curve does not cover t={t}")
        return float(self.tv[idx])

    def spectral_bound(self, eps: float) -> int:
        """Classical upper bound ceil(log(1/(eps*pi_min)) / gap) on the mixing time."""
        return int(math.ceil(math.log(1.0 / (eps * self.pi_min)) / self.spectral_gap))


def mixing_profile(kernel: TransitionKernel, max_t: int = 20000,
                   target: float = 1e-10) -> MixingProfile:
    """Compute the exact TV curve by matrix powers until ``target`` or ``max_t``."""
    n = kernel.node_count
    if n > DENSE_NODE_CAP:
        raise ParameterError(f"dense mixing profile capped at {DENSE_NODE_CAP} nodes, got {n}")
    pi = kernel.pi.probs
    times = [0]
    tv = [float(1.0 - pi.min())]
    m = np.eye(n)
    unreached = True
    for t in range(1, max_t + 1):
        m = m @ kernel.matrix
        d = float(0.5 * np.abs(m - pi[None, :]).sum(axis=1).max())
        times.append(t)
        tv.append(d)
        if d <= target:
            unreached = False
            break
    tv_arr = np.minimum.accumulate(np.asarray(tv))
    if np.max(np.asarray(tv) - tv_arr) > 1e-12:
        raise ParameterError("TV curve increased beyond numerical tolerance")
    return MixingProfile(spectral_gap(kernel), np.asarray(times), tv_arr, kernel.pi.pi_min, unreached)


def power_iterate(kernel: TransitionKernel, alpha: np.ndarray, t: int) -> np.ndarray:
    """Evolve a start distribution t steps under the lazy kernel."""
    v = np.asarray(alpha, dtype=float).copy()
    for _ in range(t):
        v = v @ kernel.matrix
    return v


def stationary_by_iteration(kernel: TransitionKernel, tol: float = 1e-13,
                            max_iter: int = 10_000_000) -> np.ndarray:
    """Independent oracle for the stationary law: iterate until the update stalls."""
    n = kernel.node_count
    v = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = v @ kernel.matrix
        if np.abs(nxt - v).max() < tol:
            return nxt
        v = nxt
    raise InsufficientDataError("power iteration did not converge")
