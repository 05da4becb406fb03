"""Graphs, transition kernels, stationary distributions, and mixing profiles.

Supports undirected, optionally edge-weighted, finite connected graphs.
Kernels are lazy reversible walks; stationary laws come from the closed-form
degree/weight formula, with power iteration available as a cross-check.

A graph holds its edges once, as a read-only (m, 2) int array with an
optional parallel weight array, and everything about it is built from them
in O(n + |E|) time and memory: validation (range, canonical order,
duplicates, weights, connectivity), degrees and weight totals, and the
kernel's rows in CSR form (``indptr``, neighbour columns, probabilities)
from which the neighbour and fork tables are padded. A row's probabilities
are its edge weights divided by ``Graph.weight_totals()``, the totals the
stationary law is built from. The dense n x n kernel arrays
(``TransitionKernel.matrix``, ``.base`` and the cumulative rows) are built on
first read, for the exact analysis (mixing profiles, spectral gap, Doeblin
constants); past ``DENSE_NODE_CAP`` nodes reading them raises
``ParameterError`` instead of allocating 8 n^2 bytes each. A mixing profile
holds one n x n power and a scratch of ``ROW_BLOCK`` rows, and each TV step
advances the upper block triangle of the power, by about half an n^3 BLAS
product on dense kernels and by column gathers over the nonzeros on sparse
ones, filling the rest by detailed balance; its spectral gap, an n x n
eigensolve, is computed when it is first read. ``AliasRows`` draws tokens
over padded rows per token from Vose alias tables laid out as the rows, and
``ForkTable`` holds each fork's law over ordered pairs of distinct targets,
as rows to fold into a step's node draw and as a per-token draw. The padded
neighbour, fork, pair and alias tables, and the edges of ``complete_graph``,
raise ``ParameterError`` past ``TABLE_BYTE_CAP`` bytes before they are
allocated, and a graph or generator of more than ``NODE_CAP`` nodes raises
it before any per-node array exists.
"""
from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    GraphStructureError,
    InsufficientDataError,
    InvalidWeightsError,
    ParameterError,
)

DENSE_NODE_CAP = 2000
TABLE_BYTE_CAP = 256 << 20  # bytes one padded row table, or a generated edge array, may take
ROW_BLOCK = 128  # rows of the mixing profile's power advanced per product
# a mixing profile gathers columns when the lazy kernel's nonzeros x GATHER_DENSITY <= n^2
# (measured break-even: ER(300, 0.03), 9.9 nonzeros a row); dense kernels keep BLAS
GATHER_DENSITY = 30
GATHER_ROWS = 256  # rows of the old block one column gather reads
# the most nodes whose smallest lazy neighbour table (n rows x 2 slots x 16 bytes) fits the cap
NODE_CAP = TABLE_BYTE_CAP // 32


def _check_bytes(nbytes: int, what: str):
    """ParameterError, before anything is allocated, when ``what`` would take more than
    ``TABLE_BYTE_CAP`` bytes."""
    if nbytes > TABLE_BYTE_CAP:
        raise ParameterError(f"{what} would take {nbytes} bytes, past the cap of "
                             f"{TABLE_BYTE_CAP} bytes")


def _integral(x) -> bool:
    """An integer or an integral float such as 2.0, numpy's included; never a bool."""
    return not isinstance(x, bool) and (isinstance(x, (int, np.integer))
                                        or (isinstance(x, float) and x.is_integer()))


def _node_count(n) -> int:
    """``n`` as an int; raises unless it is an integral number of at most ``NODE_CAP``."""
    if not _integral(n):
        raise GraphStructureError(f"node count must be an integer, got {reprlib.repr(n)}")
    if n > NODE_CAP:
        raise ParameterError(f"{reprlib.repr(n)} nodes is past the cap of {NODE_CAP} nodes")
    return int(n)


def _as_pairs(edges) -> np.ndarray:
    """``edges`` as an (m, 2) int64 array; raises unless they are integer pairs."""
    try:
        arr = np.asarray(edges)
    except ValueError:  # entries of unequal length
        arr = np.asarray(None)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise GraphStructureError("edges must be (u, v) pairs of integers")
    return arr.astype(np.int64)


def _component_roots(n: int, ends: np.ndarray) -> np.ndarray:
    """The smallest node of each node's component.

    Hooking and pointer jumping on the edge arrays: every round hooks each
    root onto the smallest root across its edges, then jumps pointers until
    every node points at its root. A node's pointer never exceeds the node,
    so the roots are the components' smallest nodes; a round that leaves an
    edge between two roots lowers a pointer, so the rounds end.
    """
    root = np.arange(n)
    u, v = ends[:, 0], ends[:, 1]
    while True:
        ru, rv = root[u], root[v]
        if np.array_equal(ru, rv):
            return root
        low = np.minimum(ru, rv)
        np.minimum.at(root, ru, low)
        np.minimum.at(root, rv, low)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite connected undirected graph, optionally edge-weighted.

    ``edges`` is a read-only (m, 2) int64 array of canonical (u < v) pairs;
    ``weights`` is a read-only float array parallel to it, or ``None``. The
    constructor validates and copies what it is given; instances are
    immutable after construction and compare by identity.
    """

    node_count: int
    edges: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        n = _node_count(self.node_count)
        if n < 2:
            raise GraphStructureError("graph needs at least 2 nodes (single-node graphs are degenerate)")
        ends = _as_pairs(self.edges)
        m = len(ends)
        u, v = ends[:, 0], ends[:, 1]
        bad = np.flatnonzero((u < 0) | (u >= v) | (v >= n))
        first_bad = bad[0] if bad.size else m
        # a stable sort puts every repeat of an edge after its first occurrence
        order = np.lexsort((v, u))
        repeats = order[1:][(np.diff(u[order]) == 0) & (np.diff(v[order]) == 0)]
        first_repeat = repeats.min() if repeats.size else m
        if first_bad < first_repeat:
            a, b = self.edges[first_bad]
            raise GraphStructureError(f"edge ({a},{b}) out of range or not canonical for n={n}")
        if first_repeat < m:
            a, b = self.edges[first_repeat]
            raise GraphStructureError(f"duplicate edge ({a},{b})")
        weight = None
        if self.weights is not None:
            if len(self.weights) != m:
                raise InvalidWeightsError("weights length does not match edge count")
            weight = np.array(self.weights, dtype=float)
            bad = np.flatnonzero(~(np.isfinite(weight) & (weight > 0.0)))
            if bad.size:
                a, b = self.edges[bad[0]]
                raise InvalidWeightsError(
                    f"edge ({a},{b}) has weight {self.weights[bad[0]]}; "
                    "zero or non-finite weights are rejected"
                )
            weight.setflags(write=False)
        root = _component_roots(n, ends)
        roots = np.flatnonzero(root == np.arange(n))
        if roots.size != 1:
            # name only the first few components, cut short, so the message stays bounded;
            # 201 members of a component already print past the 200-character cut
            shown = str([np.flatnonzero(root == r)[:201].tolist() for r in roots[:3]])
            shown = shown if len(shown) <= 200 else shown[:200] + " ..."
            raise GraphStructureError(f"graph is disconnected into {roots.size} components; "
                                      f"the first: {shown}")
        ends.setflags(write=False)
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", ends)
        object.__setattr__(self, "weights", weight)

    @staticmethod
    def build(edges, weights=None, node_count=None) -> "Graph":
        """Canonicalize raw (u, v) integer pairs, with optional parallel weights, and validate."""
        ends = _as_pairs(edges)
        loops = np.flatnonzero(ends[:, 0] == ends[:, 1])
        if loops.size:
            raise GraphStructureError(f"self-loop at node {ends[loops[0], 0]}; "
                                      "laziness is added at the kernel level")
        ends.sort(axis=1)
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        if weights is not None:
            if len(weights) != len(ends):
                raise InvalidWeightsError("weights length does not match edge count")
            weights = np.asarray(weights, dtype=float)[order]
        if node_count is None:
            node_count = 1 + int(ends.max()) if len(ends) else 0
        return Graph(node_count, ends[order], weights)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _edge_weights(self) -> np.ndarray:
        """The weight of every edge, 1.0 each when unweighted."""
        return np.ones(self.edge_count) if self.weights is None else self.weights

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.node_count)

    def weight_totals(self) -> np.ndarray:
        """Per-node total incident weight (degree when unweighted), added in edge order."""
        return np.bincount(self.edges.ravel(), weights=np.repeat(self._edge_weights(), 2),
                           minlength=self.node_count)

    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR rows ``(indptr, nbr, weight)``: node u's neighbours ``nbr[indptr[u]:indptr[u + 1]]``
        in ascending order, with their edge weights."""
        return _csr(self.node_count, self.edges.ravel(order="F"),
                    self.edges[:, ::-1].ravel(order="F"), np.tile(self._edge_weights(), 2))


def _csr(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray):
    """CSR rows ``(indptr, cols, vals)`` of the n-row matrix with entries
    ``(rows[i], cols[i]) = vals[i]`` (no two at one cell), columns ascending in each row."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], vals[order]


# ---------------------------------------------------------------------------
# parsers and generators

def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format: one ``u v [w]`` per line, 0-indexed.

    Blank lines and lines starting with ``#`` are skipped. Each line becomes
    the edge entry ``[u, v]`` or ``[u, v, w]`` of ``graph_from_edge_entries``.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphStructureError(f"line {lineno}: expected 'u v [w]', got {reprlib.repr(raw)}")
        try:
            entries.append([int(parts[0]), int(parts[1])] + [float(w) for w in parts[2:]])
        except ValueError as exc:
            raise GraphStructureError(f"line {lineno}: {exc}") from exc
    if not entries:
        raise GraphStructureError("edge list is empty")
    return graph_from_edge_entries(entries)


def parse_graph_json(obj) -> Graph:
    """Parse the JSON graph object ``{"nodes": n, "edges": [[u, v], [u, v, w]]}``."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "nodes" not in obj or "edges" not in obj:
        raise GraphStructureError("graph JSON must be an object with 'nodes' and 'edges'")
    return graph_from_edge_entries(obj["edges"], obj["nodes"])


def _is_edge_entry(e) -> bool:
    """``[u, v]`` or ``[u, v, w]`` with integer u and v (an integral float such as 2.0 counts)
    and a number w."""
    return (isinstance(e, (list, tuple)) and len(e) in (2, 3) and _integral(e[0])
            and _integral(e[1]) and (len(e) == 2 or isinstance(e[2], float) or _integral(e[2])))


def graph_from_edge_entries(entries, node_count=None) -> Graph:
    """Graph from JSON edge entries ``[u, v]`` or ``[u, v, w]``.

    Without ``node_count`` the nodes are 0 .. the largest endpoint. If any
    entry carries a weight the graph is weighted and weightless entries
    default to 1.0. The first malformed entry is named in the error.
    """
    if not isinstance(entries, list):
        raise GraphStructureError(f"'edges' must be a list of [u, v] or [u, v, w] entries, "
                                  f"got {reprlib.repr(entries)}")
    for i, e in enumerate(entries):
        if not _is_edge_entry(e):
            raise GraphStructureError(f"edges[{i}] = {reprlib.repr(e)}: expected [u, v] or "
                                      "[u, v, w] with integer nodes u, v and a numeric weight w")
    edges = [(int(e[0]), int(e[1])) for e in entries]
    if any(len(e) == 3 for e in entries):
        weights = [float(e[2]) if len(e) == 3 else 1.0 for e in entries]
        return Graph.build(edges, weights, node_count=node_count)
    return Graph.build(edges, node_count=node_count)


def _build_from_columns(u, v, n: int) -> Graph:
    return Graph.build(np.column_stack((u, v)), node_count=n)


def path_graph(n: int) -> Graph:
    n = _node_count(n)
    u = np.arange(n - 1)
    return _build_from_columns(u, u + 1, n)


def cycle_graph(n: int) -> Graph:
    n = _node_count(n)
    u = np.arange(n)
    return _build_from_columns(u, (u + 1) % n, n)


def complete_graph(n: int) -> Graph:
    """K(n): the edges (u, v), u < v, row by row, built in O(|E|) memory."""
    n = _node_count(n)
    _check_bytes(16 * (n * (n - 1) // 2), f"the edge array of the complete graph on {n} nodes")
    counts = np.arange(n - 1, -1, -1)  # node u has the n - 1 - u neighbours above it
    u = np.repeat(np.arange(n), counts)
    # v is u + 1 plus the edge's place in u's row
    v = np.arange(u.size) - np.repeat(np.cumsum(counts) - counts - np.arange(n) - 1, counts)
    return _build_from_columns(u, v, n)


def star_graph(n: int) -> Graph:
    """Star on n nodes: center 0, leaves 1..n-1."""
    n = _node_count(n)
    leaves = np.arange(1, n)
    return _build_from_columns(np.zeros_like(leaves), leaves, n)


def erdos_renyi_graph(n: int, p: float, seed: int) -> Graph:
    """One G(n, p) draw; raises if the draw is disconnected (no silent resampling).

    The n x n coin matrix is drawn one row at a time, the same stream as
    ``rng.random((n, n))`` in O(n) memory; edge (u, v), u < v, is present
    when coin[u, v] < p.
    """
    n = _node_count(n)
    if not (0.0 < p <= 1.0):
        raise ParameterError(f"edge probability must be in (0, 1], got {p}")
    rng = np.random.default_rng(seed)
    # above[u]: the neighbours v > u of u, from row u of the coin matrix
    above = [u + 1 + np.flatnonzero(rng.random(n)[u + 1:] < p) for u in range(n)]
    u = np.repeat(np.arange(n), [len(v) for v in above])
    return _build_from_columns(u, np.concatenate(above) if above else u, n)


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

    Built from the matrix's CSR rows: ``nbr[u, k]`` is the k-th nonzero
    column of row u in column order and ``prob[u, k]`` its matrix entry (0.0
    in the padding); ``support[u]`` counts row u's real entries. Width is the
    largest row support (max degree + 1 for the lazy kernel), so moving the
    tokens of a node costs O(width) instead of O(n). Every sampler reads the
    rows in reversed slot order, so they are stored that way and ``nbr`` and
    ``prob`` are reversed views: ``prob[:, ::-1]`` is contiguous, and taking
    its rows copies nothing else. The two arrays take 16 n x width bytes;
    past ``TABLE_BYTE_CAP`` the constructor raises ``ParameterError`` before
    allocating them.
    """

    def __init__(self, indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray):
        n = indptr.size - 1
        support = np.diff(indptr)
        width = int(support.max())
        _check_bytes(16 * n * width, f"a neighbour table of {n} rows by {width}")
        rows = np.repeat(np.arange(n), support)
        slot = np.arange(cols.size) - indptr[rows]
        nbr = np.zeros((n, width), dtype=np.int64)
        prob = np.zeros(nbr.shape)
        nbr[rows, width - 1 - slot] = cols
        prob[rows, width - 1 - slot] = vals
        for arr in (nbr, prob, support):
            arr.setflags(write=False)
        self.nbr = nbr[:, ::-1]
        self.prob = prob[:, ::-1]
        self.support = support

    def move(self, counts: np.ndarray, rng) -> np.ndarray:
        """Token counts per node after one step of the walk from ``counts``.

        Walkers that never interact are independent, so the tokens at a node
        spread over its row by one multinomial. Columns run in reversed slot
        order, so numpy's rounding remainder lands on slot 0, a real
        neighbour.
        """
        occ = counts.nonzero()[0]
        draws = rng.multinomial(counts.take(occ), self.prob[:, ::-1].take(occ, axis=0))
        dest = self.nbr[:, ::-1].take(occ, axis=0)
        return np.bincount(dest.ravel(), weights=draws.ravel(),
                           minlength=counts.size).astype(np.int64)


def alias_tables(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias tables ``(cut, alias)`` of the rows of ``probs``: float64 and int32 arrays of
    its shape (R, W).

    A token drawing column c uniformly keeps it when a uniform coin falls
    below ``cut[r, c]`` and takes ``alias[r, c]`` otherwise, so column c is
    drawn with probability (``cut[r, c]`` + the sum of 1 - ``cut[r, c']`` over
    the columns c' aliased to c) / W, which is ``probs[r, c]`` up to rounding.
    A zero-probability column gets cut 0 and a column of positive
    probability as its alias.

    Vose's sweep runs over all rows at once. A row's scaled weights W p split
    into light columns (below 1) and heavy ones; each round, every unfinished
    row either lets its current heavy column cover its next light column, or,
    once that heavy's remaining weight is at most 1, makes the heavy a light
    column covered by the next heavy. A round moves one of two pointers of
    every row, so there are at most W rounds of O(R) work.
    """
    rows, w = probs.shape
    s = probs * w
    cut = np.ones((rows, w))
    alias = np.tile(np.arange(w, dtype=np.int32), (rows, 1))
    heavy = s >= 1.0
    order = np.argsort(heavy, axis=1, kind="stable")  # each row's columns, light ones first
    # per row: the places in ``order`` of the next light column and of the current heavy
    # one, and that heavy's remaining weight
    lights = w - np.count_nonzero(heavy, axis=1)
    i, j = np.zeros(rows, dtype=np.intp), lights.copy()
    every = np.arange(rows)
    weight = s[every, order[every, np.minimum(j, w - 1)]]
    live = every
    while True:
        # a row is done when its heavies run out, or its lights do while the current heavy
        # weighs more than 1 (then 1 up to rounding; any leftover keeps cut 1)
        live = live[(j[live] < w) & ((i[live] < lights[live]) | (weight[live] <= 1.0))]
        if not live.size:
            return cut, alias
        cover = weight[live] > 1.0
        r = live[cover]
        light, h = order[r, i[r]], order[r, j[r]]
        cut[r, light] = s[r, light]
        alias[r, light] = h
        weight[r] -= 1.0 - s[r, light]
        i[r] += 1
        r = live[~cover]
        j[r] += 1
        r = r[j[r] < w]
        spent, h = order[r, j[r] - 1], order[r, j[r]]
        cut[r, spent] = weight[r]
        alias[r, spent] = h
        weight[r] = s[r, h] - (1.0 - weight[r])


class AliasRows:
    """An (R, W) array ``probs`` of categorical rows and their per-token draw, exact in law.

    ``draw`` draws each of ``tokens[i]`` tokens from row ``index[i]`` by a
    uniform column and a uniform coin against that cell of the row's alias
    table, O(tokens); ``sparse`` is the density rule under which that beats
    one ``Generator.multinomial`` call over the gathered rows of ``probs``, a
    binomial per cell, O(rows x W). The tables are laid out as ``probs``, a
    cell of the tables being the same cell of the rows, and built ``block``
    rows at a time on the first draw from the block; they grow only to the
    last block built, past ``TABLE_BYTE_CAP`` raising before they are
    allocated, and are kept: 12 bytes per cell, a float64 cut and an int32
    alias held as its offset from its own column, so a draw selects by
    arithmetic instead of a branch per token.
    """

    def __init__(self, probs: np.ndarray, block: int):
        self.probs = probs
        self.width = probs.shape[1]
        self.block = block
        self._built = np.zeros(-(-probs.shape[0] // block), dtype=bool)  # per block
        self._cut, self._offset = np.empty((0, self.width)), np.empty((0, self.width), np.int32)

    def sparse(self, tokens: int, rows: int) -> bool:
        """The density rule: draw per token when ``tokens`` tokens number at most half the
        cells of their ``rows`` rows, 2 x tokens <= rows x W."""
        return 2 * tokens <= rows * self.width

    def _build(self, blocks) -> None:
        """Build the tables of the unbuilt ones of ``blocks``, growing them to the last."""
        w = self.width
        for b in blocks:
            if self._built[b]:
                continue
            lo, hi = b * self.block, min((b + 1) * self.block, len(self.probs))
            if hi > len(self._cut):
                _check_bytes(12 * hi * w, f"alias tables of {hi} rows by {w}")
                self._cut, self._offset = (np.concatenate((t, np.zeros((hi - len(t), w), t.dtype)))
                                           for t in (self._cut, self._offset))
            self._cut[lo:hi], self._offset[lo:hi] = alias_tables(self.probs[lo:hi])
            self._offset[lo:hi] -= np.arange(w, dtype=np.int32)
            self._built[b] = True

    def draw(self, tokens: np.ndarray | int, index: np.ndarray, u: np.ndarray,
             block: int | None = None) -> np.ndarray:
        """The drawn cell of each of ``tokens[i]`` tokens from row ``index[i]``, in ``probs``
        flattened, from at least 2 x tokens uniforms ``u``: the first half (overwritten) draws
        a uniform column, the second half a coin against that cell's cut. ``block``, when
        given, is the one block of every row in ``index``."""
        if block is None:
            if not self._built.all():
                # np.bincount, not np.unique: the first call of np.unique costs about 15 ms
                self._build(np.flatnonzero(np.bincount(index // self.block)))
        elif not self._built[block]:
            self._build((block,))
        w = self.width
        cell = (index * w).repeat(tokens)
        z = cell.size
        col = np.multiply(u[:z], w, out=u[:z])
        cell += col.astype(np.intp)  # a uniform column: below w for every uniform below 1
        aliased = u[z:2 * z] >= self._cut.take(cell)
        offset = self._offset.take(cell)
        offset *= aliased
        cell += offset
        return cell


class ForkTable:
    """The fork draw: a parent and its copy sent to two distinct neighbours.

    Built from the base walk's ``NeighbourTable``, whose columns run in
    reversed slot order, so each row's last column is slot 0, a real
    neighbour. A pair leaving u lands on the ordered pair (a, b), a != b,
    with probability ``p_a p_b / (1 - sum p^2)``, the law of two independent
    neighbour draws conditioned to differ; at degree 1 it takes the single
    edge twice. Two forms of that law:

    - ``pair_rows``: one (n, W^2) array whose cell a W + b holds the pair
      (a, b), except that the last two cells trade places so that the last
      is (slot 0, slot 1), a real pair at degree 2 and above; ``pair_a`` and
      ``pair_b`` name each cell's two columns. ``StepRows`` folds these
      cells into the node rows of narrow graphs, so that one draw settles a
      whole step. They take 8 n W^2 bytes, are built on first use and kept,
      and past ``TABLE_BYTE_CAP`` raise ``ParameterError`` before they are
      allocated;
    - ``dispatch``, the draw of a step that does not fold, per token from
      the origin node of each pair and lone copy: the first target a from
      the alias tables of ``first_rows``, whose rows
      ``first`` are the first-target marginals ``p_a (1 - p_a) / (1 - sum
      p^2)``; then the second b by a bisection of ceil(log2 W) rounds in row
      u of ``cum`` (``cum[u, c]`` = p_0 + ... + p_(c-1)), for a uniform on
      [0, 1 - p_a) that skips the interval of a: the law ``p_b / (1 - p_a)``
      over b != a.

    A lone copy of a trapped parent lands on the first target of a pair,
    which has the same law as the second. ``dest`` is the node of every
    column; at degree 1 the padding column next to slot 0 also names the
    single neighbour, so the second target needs no case of its own.
    ``first``, ``cum`` and ``dest`` take 24 n W bytes, and the alias tables 12
    n W once built; past ``TABLE_BYTE_CAP`` the constructor raises
    ``ParameterError`` before allocating them.
    """

    def __init__(self, table: NeighbourTable):
        n, width = table.nbr.shape
        _check_bytes(24 * n * width, f"a fork table of {n} rows by {width}")
        prob = table.prob[:, ::-1]
        single = table.support == 1
        first = prob * (1.0 - prob)
        with np.errstate(invalid="ignore"):
            first /= first.sum(axis=1, keepdims=True)
        first[single] = prob[single]
        cum = np.zeros((n, width))
        np.cumsum(prob[:, :-1], axis=1, out=cum[:, 1:])
        dest = table.nbr[:, ::-1].copy()
        if width > 1:
            dest[single, -2] = dest[single, -1]
        self.prob = prob
        self.first = first
        self.first_rows = AliasRows(first, n)
        self.cum = cum
        self.dest = dest
        self._single = single
        self._pairs = None
        self.pair_a = self.pair_b = None  # each pair cell's two columns, built with the rows
        for arr in (first, cum, dest, single):
            arr.setflags(write=False)

    def pair_rows(self) -> np.ndarray:
        """The (n, W^2) ordered-pair rows, built on first use with ``pair_a`` and ``pair_b``;
        past ``TABLE_BYTE_CAP`` raises ``ParameterError`` before allocating them."""
        if self._pairs is None:
            n, w = self.first.shape
            _check_bytes(8 * n * w * w, f"fork pair rows of {n} rows by {w * w}")
            pairs = np.empty((n, w * w))
            cube = pairs.reshape(n, w, w)
            np.multiply(self.prob[:, :, None], self.prob[:, None, :], out=cube)
            cube[:, np.arange(w), np.arange(w)] = 0.0
            cube[self._single, -1, -1] = 1.0
            pairs[:, -2:] = pairs[:, :-3:-1].copy()
            pairs /= pairs.sum(axis=1, keepdims=True)
            a, b = np.divmod(np.arange(w * w), w)
            if w > 1:
                b[-2:] = w - 1, w - 2
            for arr in (pairs, a, b):
                arr.setflags(write=False)
            self._pairs, self.pair_a, self.pair_b = pairs, a, b
        return self._pairs

    def second_cells(self, cell: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The cell, in the (n, W) tables flattened, of the second target of each pair whose
        first target is in ``cell``, from one uniform of ``u`` (overwritten) each: column b
        when u (1 - p_a), moved past a's interval when it reaches a's start, falls in b's.
        At degree 1 that is the padding column next to slot 0, whose ``dest`` is the single
        neighbour."""
        w = self.first.shape[1]
        if w == 1:
            return cell
        cum = self.cum.ravel()
        p_a = self.prob.ravel().take(cell)
        x = u
        x *= 1.0 - p_a
        x += p_a * (x >= cum.take(cell))
        # b is the number of columns c < W - 1 whose interval ends at or below x, found in
        # ceil(log2 W) rounds; column c of row r ends at cum[r W + c + 1], so with q = r W + b
        # reached so far, cum[q + step] is where column b + step - 1 ends. The first round
        # takes the odd part of the range (Shar's bisection), every later one halves it
        q = cell - cell % w
        step = 1 << (w - 1).bit_length() - 1
        np.add(q, w - step, out=q, where=cum[step:].take(q) <= x)
        while step > 1:
            step >>= 1
            np.add(q, step, out=q, where=cum[step:].take(q) <= x)
        # b = a only when a is the last column: at degree 1, or from a rounding remainder
        # past the row's end, where slot 1 is the real neighbour next to it
        q -= q == cell
        return q

    def dispatch(self, nodes: np.ndarray, rng, n_pairs: int) -> np.ndarray:
        """Tokens landing on each node from one fork token leaving each of ``nodes``: the first
        ``n_pairs`` are parent-and-copy pairs, the rest lone copies of trapped parents. Drawn
        per token with every uniform from one ``rng.random`` call."""
        n = self.first.shape[0]
        u = rng.random(2 * nodes.size + n_pairs)
        cell = self.first_rows.draw(1, nodes, u, 0)  # first targets as cells of the (n, W) tables
        second = self.second_cells(cell[:n_pairs], u[2 * nodes.size:])
        return np.bincount(self.dest.ravel().take(np.concatenate((cell, second))), minlength=n)


def _dense(indptr: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The read-only n x n matrix with these CSR rows; ParameterError past ``DENSE_NODE_CAP``."""
    n = indptr.size - 1
    if n > DENSE_NODE_CAP:
        raise ParameterError(f"dense n x n kernel arrays are capped at {DENSE_NODE_CAP} nodes, "
                             f"got {n}")
    out = np.zeros((n, n))
    out[np.repeat(np.arange(n), np.diff(indptr)), cols] = vals
    out.setflags(write=False)
    return out


class TransitionKernel:
    """Lazy walk kernel: ``laziness * I + (1 - laziness) * base``.

    The base walk has zero diagonal; the lazy kernel's diagonal equals the
    laziness exactly and the stationary law is shared with the base. Both
    are held as CSR rows built from the graph's edges, a base row being its
    edge weights over the node's ``Graph.weight_totals()`` entry (the totals
    the stationary law is built from). Walk steps are drawn from the
    neighbour tables, fork targets from the fork table, and mixing times and
    Doeblin constants read from the one kept mixing profile; these and the
    dense ``matrix``, ``base`` and cumulative rows are built on first use. The
    engine keeps its last run's rows here too (``population.step_rows``).
    """

    def __init__(self, graph: Graph, laziness: float = 0.5):
        if not (0.0 < laziness < 1.0):
            raise ParameterError(f"laziness must be in (0, 1), got {laziness}")
        self.graph = graph
        self.laziness = float(laziness)
        indptr, nbr, weight = graph.adjacency()
        degree = np.diff(indptr)
        prob = weight / np.repeat(graph.weight_totals(), degree)
        self._base_rows = (indptr, nbr, prob)
        # the lazy rows: the base rows times 1 - laziness, and the laziness on the diagonal
        n = graph.node_count
        nodes = np.arange(n)
        self._lazy_rows = _csr(n, np.concatenate((np.repeat(nodes, degree), nodes)),
                               np.concatenate((nbr, nodes)),
                               np.concatenate(((1.0 - self.laziness) * prob,
                                               np.full(n, self.laziness))))
        self.pi = stationary_distribution(graph)
        self._matrix = None
        self._base = None
        self._cum = None
        self._base_cum = None
        self._table = None
        self._base_table = None
        self._fork_table = None
        self._profile = None
        # the engine's rows of the last run and the key of their inputs (``population.step_rows``)
        self.engine_rows = None

    @property
    def matrix(self) -> np.ndarray:
        """The dense lazy kernel, n x n."""
        if self._matrix is None:
            self._matrix = _dense(*self._lazy_rows)
        return self._matrix

    @property
    def base(self) -> np.ndarray:
        """The dense non-lazy base walk, n x n, zero diagonal."""
        if self._base is None:
            self._base = _dense(*self._base_rows)
        return self._base

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
            self._table = NeighbourTable(*self._lazy_rows)
        return self._table

    def base_neighbour_table(self) -> NeighbourTable:
        """Neighbour table of the non-lazy base walk (fork dispatch)."""
        if self._base_table is None:
            self._base_table = NeighbourTable(*self._base_rows)
        return self._base_table

    def fork_table(self) -> ForkTable:
        """Fork-dispatch rows of the non-lazy base walk."""
        if self._fork_table is None:
            self._fork_table = ForkTable(self.base_neighbour_table())
        return self._fork_table

    def profile(self, eps: float) -> MixingProfile:
        """The kept mixing profile when its curve reaches ``eps`` or ran to ``max_t``
        (a curve's prefix is the same bits whatever its target); otherwise a new
        profile computed down to ``eps``, which is kept instead."""
        kept = self._profile
        if kept is None or (kept.tv[-1] > eps and not kept.unreached):
            self._profile = mixing_profile(self, target=eps)
        return self._profile

    def t_mix(self, eps: float) -> int:
        """Mixing time t_mix(eps), read from ``profile(eps)``."""
        return self.profile(eps).t_mix_of(eps)


def lazy_kernel(g: Graph, laziness: float = 0.5) -> TransitionKernel:
    return TransitionKernel(g, laziness)


def spectral_gap(kernel: TransitionKernel) -> float:
    """Absolute spectral gap 1 - max|eigenvalue| (excluding the unit eigenvalue).

    Computed on the symmetrized lazy kernel, valid because the chain is
    reversible with respect to its stationary law.
    """
    matrix = kernel.matrix  # raises past DENSE_NODE_CAP before anything is allocated
    d = np.sqrt(kernel.pi.probs)
    sym = d[:, None] * matrix
    sym /= d[None, :]
    ev = np.linalg.eigvalsh(sym)
    slem = max(abs(ev[0]), abs(ev[-2])) if len(ev) > 1 else 0.0
    return float(1.0 - slem)


class MixingProfile:
    """Exact worst-start TV decay curve of a kernel, its minorization floor and
    its spectral gap.

    ``tv[t]`` is the worst-start TV distance at time t, from t = 0; past
    ``ROW_BLOCK`` nodes the powers' columns left of each row block come by
    detailed balance, and on sparse kernels every column by a gather, so the
    curve and ``eps0`` may differ from those of a plain ``m @ P`` loop by ulps
    (same bits on dense kernels up to ``ROW_BLOCK`` nodes).
    ``unreached`` flags a curve that was cut off at ``max_t`` before hitting
    the construction target. ``floor`` is ``(t0, eps0)`` for the least t0 on
    the curve with P^t0 positive everywhere, eps0 = min P^t0(x, y)/pi(y), or
    ``None``; a curve that reaches pi_min/2 has one, as a zero P^t(x, y) keeps
    the TV at t at least pi(y). ``spectral_gap`` is the kernel's, computed by
    an n x n eigensolve on its first read and kept; only the spectral bound
    reads it.
    """

    def __init__(self, kernel: TransitionKernel, tv: np.ndarray, unreached: bool,
                 floor: tuple[int, float] | None = None):
        self.kernel = kernel
        self.tv = np.asarray(tv, dtype=float)
        self.pi_min = kernel.pi.pi_min
        self.unreached = bool(unreached)
        self.floor = floor
        diffs = np.diff(self.tv)
        if np.any(diffs > 1e-12):
            raise ParameterError("TV curve must be non-increasing")

    @functools.cached_property
    def spectral_gap(self) -> float:
        # the module-level function: a method body does not see class attributes
        return spectral_gap(self.kernel)

    def t_mix_of(self, eps: float) -> int:
        """Least t with worst-start TV distance at most eps."""
        hit = np.nonzero(self.tv <= eps)[0]
        if hit.size == 0:
            raise InsufficientDataError(
                f"TV curve never reaches {eps} within t <= {len(self.tv) - 1} (unreached={self.unreached})"
            )
        return int(hit[0])

    def spectral_bound(self, eps: float) -> int:
        """Classical upper bound ceil(log(1/(eps*pi_min)) / gap) on the mixing time."""
        return int(math.ceil(math.log(1.0 / (eps * self.pi_min)) / self.spectral_gap))


def _column_gathers(kernel: TransitionKernel, starts) -> list[list[tuple]]:
    """For each row block's first row a in ``starts``, the chunks ``(ys - a, idx, w)`` of the
    lazy kernel's columns y >= a: ``idx`` (c, d) holds the rows k with P(k, y) > 0, ascending, and
    ``w`` (c, 1, d) those P(k, y), for c columns of one nonzero count d, with c d at most
    ``GATHER_ROWS`` (or c = 1)."""
    indptr, cols, vals = kernel._lazy_rows
    n = kernel.node_count
    # the columns as CSR rows of the transpose: rows of each column ascending
    colptr, rows, weights = _csr(n, cols, np.repeat(np.arange(n), np.diff(indptr)), vals)
    count = np.diff(colptr)
    groups = []
    for d in np.flatnonzero(np.bincount(count)):
        ys = np.flatnonzero(count == d)
        cells = colptr[ys, None] + np.arange(d)
        groups.append((ys, rows[cells], weights[cells][:, None, :], max(1, GATHER_ROWS // d)))
    return [[(ys[s:s + c] - a, idx[s:s + c], w[s:s + c])
             for ys, idx, w, c in groups
             for s in range(int(np.searchsorted(ys, a)), ys.size, c)]
            for a in starts]


def mixing_profile(kernel: TransitionKernel, max_t: int = 20000,
                   target: float = 1e-10) -> MixingProfile:
    """Compute the exact TV curve by matrix powers until ``target`` or ``max_t``,
    and the minorization floor at the first positive power.

    One n x n array holds the power, advanced a block of ``ROW_BLOCK`` rows at
    a time through a (``ROW_BLOCK`` x n) scratch: row block I of P^(t+1) is
    row block I of P^t times P, so the update runs in place. Only the columns
    from the block's first row a on are computed; the walk is reversible,
    pi_x P^t(x, y) = pi_y P^t(y, x), so columns left of a are filled from the
    rows already done, and the TV and the floor are read block by block from
    the same scratch. The columns from a on come by one of two products:

    - dense kernels take a BLAS product of the block with the kernel's columns
      from a on, about half an n^3 product per step; for n <= ``ROW_BLOCK``
      there is one block, and every power is one full product;
    - sparse kernels, with nonzeros x ``GATHER_DENSITY`` <= n^2, gather: the
      old block is copied, transposed, into the scratch, and each new column
      y, the sum over the rows k with P(k, y) > 0 of P(k, y) times old column
      k, is written into the block's own rows (free once copied), then moved
      back through the scratch; columns of one nonzero count are gathered
      together (``_column_gathers``), about n^2 s / 2 multiply-adds per step
      for mean row support s.
    """
    matrix = kernel.matrix  # raises past DENSE_NODE_CAP before anything is allocated
    n = kernel.node_count
    pi = kernel.pi.probs
    power = np.array(matrix)  # the first power is the kernel itself, bitwise eye(n) @ matrix
    rows = np.empty((min(ROW_BLOCK, n), n))
    starts = range(0, n, ROW_BLOCK)
    gathers = (_column_gathers(kernel, starts)
               if kernel._lazy_rows[1].size * GATHER_DENSITY <= n * n else [None] * len(starts))
    # per block: first row a, its power and scratch rows, the kernel's and the scratch's
    # columns from a on, and its column gathers (None on the dense product)
    blocks = [(a, power[a:a + ROW_BLOCK], rows[:n - a], matrix[:, a:], rows[:n - a, a:], g)
              for a, g in zip(starts, gathers)]
    tv = [float(1.0 - pi.min())]
    unreached = True
    floor = None
    for t in range(1, max_t + 1):
        d, positive, ratio = 0.0, floor is None, math.inf
        for a, new, block, right, upper, gather in blocks:
            if t > 1:
                if gather is None:
                    np.matmul(new, right, out=upper)
                else:
                    m = len(block)
                    old = block.reshape(n, m)
                    old[...] = new.T
                    out = new.reshape(-1)[:(n - a) * m].reshape(n - a, m)
                    for ys, idx, w in gather:
                        out[ys] = np.matmul(w, old[idx])[:, 0]
                    upper[...] = out.T
                if a:  # columns left of the block by detailed balance from the rows above
                    b = a + len(block)
                    np.multiply(power[:a, a:b].T, pi[:a], out=block[:, :a])
                    np.divide(block[:, :a], pi[a:b, None], out=block[:, :a])
                new[...] = block
            if positive:
                positive = new.min() > 0.0
                if positive:
                    ratio = min(ratio, np.divide(new, pi, out=block).min())
            np.abs(np.subtract(new, pi, out=block), out=block)
            worst = block.sum(axis=1).max()
            if worst > d:
                d = worst
        if positive:
            floor = (t, float(ratio))
        d = float(0.5 * d)
        tv.append(d)
        if d <= target:
            unreached = False
            break
    tv_arr = np.minimum.accumulate(np.asarray(tv))
    if np.max(np.asarray(tv) - tv_arr) > 1e-12:
        raise ParameterError("TV curve increased beyond numerical tolerance")
    return MixingProfile(kernel, tv_arr, unreached, floor)


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
