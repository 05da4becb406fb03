import json
import tracemalloc

import graph_v030 as v030
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import srrw.graphs as graphs_module
from srrw.errors import (
    GraphStructureError,
    InsufficientDataError,
    InvalidWeightsError,
    ParameterError,
)
from srrw.graphs import (
    DENSE_NODE_CAP,
    NODE_CAP,
    ROW_BLOCK,
    TABLE_BYTE_CAP,
    ForkTable,
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    lazy_kernel,
    mixing_profile,
    parse_edge_list,
    parse_graph_json,
    path_graph,
    spectral_gap,
    star_graph,
    stationary_by_iteration,
    stationary_distribution,
)
from srrw.policy import PolicySpec
from srrw.population import TrapProfile, run_population


@st.composite
def connected_graphs(draw):
    """Random connected graph: spanning tree plus extra edges, optional weights."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = set()
    for i in range(1, n):
        p = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((p, i))
    n_extra = draw(st.integers(min_value=0, max_value=min(6, n * (n - 1) // 2)))
    for _ in range(n_extra):
        u = draw(st.integers(min_value=0, max_value=n - 2))
        v = draw(st.integers(min_value=u + 1, max_value=n - 1))
        edges.add((u, v))
    edges = sorted(edges)
    weighted = draw(st.booleans())
    if weighted:
        ws = [draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False)) for _ in edges]
        return Graph.build(edges, ws, node_count=n)
    return Graph.build(edges, node_count=n)


class TestStationaryDistribution:
    def test_path3(self):
        pi = stationary_distribution(path_graph(3))
        assert np.allclose(pi.probs, [0.25, 0.50, 0.25], atol=0)

    def test_complete4(self):
        pi = stationary_distribution(complete_graph(4))
        assert np.allclose(pi.probs, [0.25] * 4, atol=0)

    def test_weighted_triangle(self):
        g = Graph.build([(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])
        pi = stationary_distribution(g)
        assert np.allclose(pi.probs, [1 / 3, 1 / 4, 5 / 12], atol=1e-15)

    def test_disconnected_rejected_naming_components(self):
        with pytest.raises(GraphStructureError, match=r"\[0, 1\].*\[2, 3\]"):
            Graph.build([(0, 1), (2, 3)], node_count=4)

    def test_disconnected_message_is_bounded(self):
        with pytest.raises(GraphStructureError) as exc:
            Graph.build([(0, 1)], node_count=3000)
        msg = str(exc.value)
        assert "2999 components" in msg and "[0, 1]" in msg
        assert len(msg) < 1024

    def test_zero_weight_edge_rejected(self):
        with pytest.raises(InvalidWeightsError):
            Graph.build([(0, 1), (1, 2)], [1.0, 0.0])

    def test_single_node_rejected(self):
        with pytest.raises(GraphStructureError):
            Graph(1, ())

    def test_self_loop_rejected(self):
        with pytest.raises(GraphStructureError):
            Graph.build([(0, 0), (0, 1)])


class TestLazyKernel:
    def test_k2_half(self):
        k = lazy_kernel(complete_graph(2), 0.5)
        assert np.array_equal(k.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_path3_row(self):
        k = lazy_kernel(path_graph(3), 0.25)
        assert np.allclose(k.matrix[1], [0.375, 0.25, 0.375], atol=0)

    def test_laziness_out_of_range(self):
        for eps in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                lazy_kernel(path_graph(3), eps)

    @given(connected_graphs(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_kernel_invariants(self, g, eps):
        k = lazy_kernel(g, eps)
        assert np.abs(k.matrix.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(np.diag(k.matrix) == eps)
        assert np.all(np.diag(k.base) == 0.0)
        pi = k.pi.probs
        flows = pi[:, None] * k.matrix
        assert np.abs(flows - flows.T).max() <= 1e-12
        # stationarity preserved for both base and lazy kernel
        assert np.abs(pi @ k.base - pi).max() <= 1e-10
        assert np.abs(pi @ k.matrix - pi).max() <= 1e-10


class TestMixingProfile:
    def test_k2_mixes_in_one_step(self):
        prof = mixing_profile(lazy_kernel(complete_graph(2), 0.5))
        assert prof.tv[1] == 0.0
        assert prof.t_mix_of(1 / 8) == 1

    def test_tmix_weakly_decreasing_in_eps(self):
        prof = mixing_profile(lazy_kernel(path_graph(5), 0.5))
        tols = [0.25, 0.125, 0.05, 0.01, 1e-4]
        tmix = [prof.t_mix_of(e) for e in tols]
        assert all(a <= b for a, b in zip(tmix, tmix[1:]))

    def test_spectral_bound_on_random_graphs(self):
        # exact mixing time never exceeds the classical spectral bound
        for seed in range(6):
            g = None
            for trial in range(100):
                try:
                    g = erdos_renyi_graph(20, 0.25, seed=1000 * seed + trial)
                    break
                except GraphStructureError:
                    continue
            assert g is not None
            prof = mixing_profile(lazy_kernel(g, 0.5), target=1e-6)
            for eps in (0.25, 0.125, 1e-2, 1e-4):
                assert prof.t_mix_of(eps) <= prof.spectral_bound(eps)

    def test_t_mix_reads_a_kept_profile_that_reaches_eps(self, monkeypatch):
        real = graphs_module.mixing_profile
        # ER(30) takes the dense product, star(300) the column gathers
        for g in (erdos_renyi_graph(30, 0.15, seed=1), star_graph(300)):
            k = lazy_kernel(g, 0.5)
            profiles = {eps: real(k, target=eps) for eps in (1e-2, 1e-4, 1e-6)}
            fresh = {eps: prof.t_mix_of(eps) for eps, prof in profiles.items()}
            # a curve's prefix is the same bits whatever its target
            curves = [profiles[eps].tv for eps in (1e-2, 1e-4, 1e-6)]
            for short, long in zip(curves, curves[1:]):
                assert same_bits(long[:len(short)], short)
            calls = []
            monkeypatch.setattr(graphs_module, "mixing_profile",
                                lambda *a, **kw: calls.append(kw["target"]) or real(*a, **kw))
            assert k.t_mix(1e-4) == fresh[1e-4]
            assert k.t_mix(1e-2) == fresh[1e-2]
            assert k.t_mix(1e-6) == fresh[1e-6]
            assert k.t_mix(1e-4) == fresh[1e-4]
            assert calls == [1e-4, 1e-6]

    def test_t_mix_keeps_a_curve_cut_off_at_max_t(self, monkeypatch):
        # rounding keeps path(5)'s worst-start TV near 2e-16, so 1e-300 is never reached
        k = lazy_kernel(path_graph(5), 0.5)
        calls = []
        real = graphs_module.mixing_profile
        monkeypatch.setattr(graphs_module, "mixing_profile",
                            lambda *a, **kw: calls.append(kw["target"]) or real(*a, **kw))
        for eps in (1e-300, 1e-301):
            with pytest.raises(InsufficientDataError):
                k.t_mix(eps)
        assert k.t_mix(0.125) == mixing_profile(k, target=0.125).t_mix_of(0.125)
        assert calls == [1e-300]

    @pytest.mark.parametrize("make", [
        lambda: complete_graph(2),
        lambda: complete_graph(4),
        lambda: cycle_graph(20),
        lambda: path_graph(30),
        lambda: star_graph(9),
        lambda: erdos_renyi_graph(30, 0.15, seed=1),
        lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], [1.0, 2.5, 0.3, 7.0, 0.01]),
        # past one row block: a star on 0..129 with two arms of 10 nodes at its centre, so
        # the rows of the first block are positive from t = 11 and the arm ends from t = 20
        lambda: Graph.build([(0, v) for v in range(1, 131)] + [(0, 140)]
                            + [(v, v + 1) for v in range(130, 139)]
                            + [(v, v + 1) for v in range(140, 149)]),
    ])
    @pytest.mark.parametrize("laziness", [0.2, 0.9])
    def test_floor_at_the_first_positive_power(self, make, laziness):
        k = lazy_kernel(make(), laziness)
        t0, eps0 = mixing_profile(k, target=k.pi.pi_min / 2.0).floor
        positive = [np.linalg.matrix_power(k.matrix, t).min() > 0.0 for t in range(1, t0 + 1)]
        assert positive == [False] * (t0 - 1) + [True]
        assert eps0 > 0.0

    def test_curve_non_increasing_and_flagged(self):
        prof = mixing_profile(lazy_kernel(path_graph(6), 0.5), max_t=3, target=1e-12)
        assert prof.unreached
        assert prof.floor is None  # P^t has a zero entry until t = 5
        assert np.all(np.diff(prof.tv) <= 1e-12)
        with pytest.raises(InsufficientDataError):
            prof.t_mix_of(1e-9)

    def test_holds_one_power_and_a_row_block(self):
        k = lazy_kernel(erdos_renyi_graph(1000, 0.01, seed=0), 0.5)  # a gather-path kernel
        k.matrix  # the kernel's own array is not the profile's
        tracemalloc.start()
        try:
            mixing_profile(k, target=0.125)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 8 MB power, a 1 MB scratch of ROW_BLOCK rows, and the column gathers' indices,
        # weights and one gather (about 0.6 MB)
        assert peak < 10_000_000, peak

    @pytest.mark.parametrize("make,gathers", [
        (lambda: complete_graph(4), False),
        (lambda: erdos_renyi_graph(30, 0.15, seed=1), False),
        (lambda: star_graph(60), False),
        (lambda: complete_graph(400), False),
        (lambda: star_graph(300), True),
        (lambda: cycle_graph(300), True),
        (lambda: erdos_renyi_graph(1000, 0.01, seed=0), True),
    ], ids=["K4", "er30", "star60", "K400", "star300", "cycle300", "er1000"])
    def test_dense_kernels_multiply_and_sparse_ones_gather(self, monkeypatch, make, gathers):
        # the dense product is one 2-d matmul per block; a gather stacks (c, 1, d) @ (c, d, m)
        k = lazy_kernel(make(), 0.5)
        k.matrix
        shapes = []
        real = np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda a, b, **kw: shapes.append((a.ndim, b.ndim)) or real(a, b, **kw))
        mixing_profile(k, max_t=3)
        assert shapes and set(shapes) == ({(3, 3)} if gathers else {(2, 2)})
        nonzeros = k.neighbour_table().support.sum()
        assert (nonzeros * graphs_module.GATHER_DENSITY <= k.node_count ** 2) == gathers

    def test_long_double_curve_in_closed_form(self):
        # lazy C4's kernel and law are exact in binary, and its worst-start TV is 2^-(t+1)
        tv = long_double_curve(lazy_kernel(cycle_graph(4), 0.5))
        assert same_bits(tv, np.concatenate(([0.75], 0.5 ** np.arange(2, len(tv) + 1))))
        # lazy K4's is 3/4 3^-t; its kernel holds 1/6 rounded, which moves the powers by ulps
        tv = long_double_curve(lazy_kernel(complete_graph(4), 0.5))
        np.testing.assert_allclose(tv, 0.75 * 3.0 ** -np.arange(len(tv)), rtol=0, atol=1e-15)

    @given(connected_graphs())
    @settings(max_examples=15, deadline=None)
    def test_power_iteration_converges(self, g):
        k = lazy_kernel(g, 0.5)
        prof = mixing_profile(k, target=1e-9, max_t=50000)
        t = 4 * prof.t_mix_of(1e-9)
        rng = np.random.default_rng(0)
        for _ in range(10):
            alpha = rng.dirichlet(np.ones(g.node_count))
            out = alpha @ np.linalg.matrix_power(k.matrix, t)
            assert np.abs(out - k.pi.probs).max() <= 1e-8

    def test_iteration_oracle_matches_closed_form(self):
        for g in (path_graph(4), cycle_graph(5), star_graph(6),
                  Graph.build([(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])):
            k = lazy_kernel(g, 0.5)
            assert np.abs(stationary_by_iteration(k) - k.pi.probs).max() <= 1e-10


class TestParsers:
    def test_edge_list_roundtrip(self):
        text = "0 1\n1 2 2.5\n"
        g = parse_edge_list(text)
        assert g.node_count == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.weights.tolist() == [1.0, 2.5]

    def test_edge_list_unweighted(self):
        g = parse_edge_list("0 1\n1 2\n# comment\n\n2 3\n")
        assert g.weights is None
        assert g.node_count == 4

    def test_edge_list_bad_line(self):
        with pytest.raises(GraphStructureError, match="line 2"):
            parse_edge_list("0 1\n0 1 2 3\n")

    def test_json_graph(self):
        g = parse_graph_json(json.dumps({"nodes": 3, "edges": [[0, 1], [1, 2, 2.5]]}))
        assert g.node_count == 3
        assert g.weights.tolist() == [1.0, 2.5]

    def test_json_missing_keys(self):
        with pytest.raises(GraphStructureError):
            parse_graph_json({"edges": [[0, 1]]})

    @pytest.mark.parametrize("nodes", [4.9, "3", True, float("nan")])
    def test_json_node_count_must_be_an_integer(self, nodes):
        # 0.3.3 built 4 nodes from 4.9 and took "3"
        edges = [[0, 1], [1, 2]]
        with pytest.raises(GraphStructureError, match="node count must be an integer"):
            parse_graph_json({"nodes": nodes, "edges": edges})
        assert parse_graph_json({"nodes": 3.0, "edges": edges}).node_count == 3


class TestGenerators:
    def test_shapes(self):
        assert path_graph(5).edge_count == 4
        assert cycle_graph(6).edge_count == 6
        assert complete_graph(4).edge_count == 6
        assert star_graph(7).edge_count == 6
        assert star_graph(7).degrees()[0] == 6

    def test_er_deterministic(self):
        g1 = erdos_renyi_graph(20, 0.3, seed=42)
        g2 = erdos_renyi_graph(20, 0.3, seed=42)
        assert np.array_equal(g1.edges, g2.edges)

    def test_er_bad_p(self):
        with pytest.raises(ParameterError):
            erdos_renyi_graph(10, 0.0, seed=1)


FORK_GRAPHS = {
    "K4": lambda: complete_graph(4),
    "K2": lambda: complete_graph(2),
    "er30": lambda: erdos_renyi_graph(30, 0.15, seed=1),
    "star9": lambda: star_graph(9),
    "path6": lambda: path_graph(6),
    "weighted": lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
                                    [1.0, 2.5, 0.3, 7.0, 0.01]),
}


class TestMove:
    """``NeighbourTable.move``: token counts per node after one walk step."""

    @pytest.mark.parametrize("name", sorted(FORK_GRAPHS))
    @pytest.mark.parametrize("which", ["lazy", "base"])
    def test_conserves_counts_on_the_support(self, name, which):
        k = lazy_kernel(FORK_GRAPHS[name](), 0.5)
        table, weights = ((k.neighbour_table(), k.matrix) if which == "lazy"
                          else (k.base_neighbour_table(), k.base))
        n = k.node_count
        rng = np.random.default_rng(0)
        starts = [np.eye(n, dtype=np.int64)[u] * 1000 for u in range(n)]
        starts.append(rng.integers(0, 50, size=n))
        for counts in starts:
            before = counts.copy()
            out = table.move(counts, rng)
            assert out.dtype == np.int64 and out.sum() == counts.sum()
            assert np.array_equal(counts, before)
            assert not out[counts @ weights == 0.0].any()

    @pytest.mark.parametrize("name,node", [("K4", 1), ("star9", 0), ("weighted", 3)])
    def test_one_step_matches_kernel_row(self, name, node):
        k = lazy_kernel(FORK_GRAPHS[name](), 0.5)
        tokens = 200_000
        counts = np.zeros(k.node_count, dtype=np.int64)
        counts[node] = tokens
        out = k.neighbour_table().move(counts, np.random.default_rng(11))
        support = k.matrix[node] > 0.0
        _, p = stats.chisquare(out[support], tokens * k.matrix[node, support])
        assert p > 1e-3


class TestForkTable:
    """The fork draw's tables: first-target rows, destinations, cumulative rows and the
    ordered-pair rows of the dense draw."""

    @staticmethod
    def pair_law(k, u):
        """The exact law p_a p_b / (1 - sum p^2), a != b, of the ordered pair a pair leaving
        u lands on, as an n x n array (the single edge twice at degree 1)."""
        p = k.base[u]
        if np.count_nonzero(p) == 1:
            return np.outer(p, p)
        law = np.outer(p, p) / (1.0 - np.sum(p**2))
        np.fill_diagonal(law, 0.0)
        return law

    @pytest.mark.parametrize("name", sorted(FORK_GRAPHS))
    def test_shape_is_directed_edges_by_width(self, name):
        g = FORK_GRAPHS[name]()
        k = lazy_kernel(g, 0.5)
        table = k.fork_table()
        n, w = table.first.shape
        assert (n, w) == k.base_neighbour_table().nbr.shape
        # the first targets' positive cells are the directed edges, each once
        u, c = np.nonzero(table.first)
        directed = sorted(map(tuple, np.vstack([g.edges, g.edges[:, ::-1]]).tolist()))
        assert sorted(zip(u.tolist(), table.dest[u, c].tolist())) == directed
        assert table.cum.shape == table.dest.shape == (n, w)
        assert table.pair_rows().shape == (n, w * w)
        assert table.pair_rows() is table.pair_rows() and k.fork_table() is table

    @pytest.mark.parametrize("name", sorted(FORK_GRAPHS))
    def test_rows(self, name):
        k = lazy_kernel(FORK_GRAPHS[name](), 0.5)
        table = k.fork_table()
        pairs = table.pair_rows()  # builds ``pair_a`` and ``pair_b`` too
        degree = k.base_neighbour_table().support
        for u in range(k.node_count):
            row = pairs[u]
            a, b = table.dest[u, table.pair_a], table.dest[u, table.pair_b]
            law = np.zeros((k.node_count, k.node_count))
            np.add.at(law, (a, b), row)
            assert np.abs(law - self.pair_law(k, u)).max() <= 1e-12
            # every positive cell is a real ordered pair
            hit = row > 0
            assert np.all(k.base[u, a[hit]] > 0) and np.all(k.base[u, b[hit]] > 0)
            if degree[u] == 1:
                assert row.max() == 1.0
                continue
            assert np.all(a[hit] != b[hit])
            # numpy's rounding remainder lands in the last column: it carries mass
            assert row[-1] > 0

    @pytest.mark.parametrize("name", sorted(FORK_GRAPHS))
    def test_two_stages_give_distinct_pair_law(self, name):
        # the per-token draw: first targets from ``first``, then second targets from
        # ``second_cells``, read at 2^14 evenly spaced uniforms for each first target; each
        # second target's share of the uniforms is its share p_b / (1 - p_a) within 1/2^14
        k = lazy_kernel(FORK_GRAPHS[name](), 0.5)
        table = k.fork_table()
        n, w = table.first.shape
        grid = (np.arange(2**14) + 0.5) / 2**14
        for u in range(n):
            pair = np.zeros((n, n))
            for c in np.flatnonzero(table.first[u]):
                cells = table.second_cells(np.full(grid.size, u * w + c), grid.copy())
                second = np.bincount(table.dest.ravel()[cells], minlength=n) / grid.size
                pair[table.dest[u, c]] += table.first[u, c] * second
            assert np.abs(pair - self.pair_law(k, u)).max() <= 2.0 / grid.size


def _weighted_er(n, p, seed):
    edges = v030.erdos_renyi_edges(n, p, seed)
    weights = np.random.default_rng(seed).uniform(0.01, 10.0, size=len(edges)).tolist()
    return edges, weights


JSON_GRAPH = {"nodes": 6, "edges": [[4, 5, 0.25], [0, 1], [2, 1, 3.0], [0, 3], [3, 4], [2, 5, 1.75]]}
EDGE_LIST = "# a weighted 5-cycle with a chord\n4 0 2.5\n0 1\n1 2 0.125\n\n2 3 7\n3 4\n1 3 0.5\n"

# name -> (graph from srrw, (edges, weights, node_count) for the frozen 0.3.0 build)
FROZEN_CASES = {
    "K2": (lambda: complete_graph(2), lambda: ([(0, 1)], None, 2)),
    "K4": (lambda: complete_graph(4),
           lambda: ([(i, j) for i in range(4) for j in range(i + 1, 4)], None, 4)),
    "path6": (lambda: path_graph(6), lambda: ([(i, i + 1) for i in range(5)], None, 6)),
    "cycle7": (lambda: cycle_graph(7), lambda: ([(i, (i + 1) % 7) for i in range(7)], None, 7)),
    "star9": (lambda: star_graph(9), lambda: ([(0, i) for i in range(1, 9)], None, 9)),
    "er30": (lambda: erdos_renyi_graph(30, 0.15, seed=1),
             lambda: (v030.erdos_renyi_edges(30, 0.15, 1), None, 30)),
    "er1000": (lambda: erdos_renyi_graph(1000, 0.01, seed=0),
               lambda: (v030.erdos_renyi_edges(1000, 0.01, 0), None, 1000)),
    "weighted5": (FORK_GRAPHS["weighted"],
                  lambda: ([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], [1.0, 2.5, 0.3, 7.0, 0.01], None)),
    "weighted_er200": (lambda: Graph.build(*_weighted_er(200, 0.1, 3)),
                       lambda: (*_weighted_er(200, 0.1, 3), None)),
    "json": (lambda: parse_graph_json(json.dumps(JSON_GRAPH)),
             lambda: ([e[:2] for e in JSON_GRAPH["edges"]],
                      [e[2] if len(e) == 3 else 1.0 for e in JSON_GRAPH["edges"]], 6)),
    "edge_list": (lambda: parse_edge_list(EDGE_LIST),
                  lambda: ([(4, 0), (0, 1), (1, 2), (2, 3), (3, 4), (1, 3)],
                           [2.5, 1.0, 0.125, 7.0, 1.0, 0.5], None)),
}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def floor_by_plain_loop(k):
    """(t0, eps0): powers of the kernel by ``m @ P`` until every entry is positive."""
    m, t = k.matrix, 1
    while not m.min() > 0.0:
        m, t = m @ k.matrix, t + 1
    return t, float((m / k.pi.probs).min())


def t_mix_or_none(prof, eps):
    try:
        return prof.t_mix_of(eps)
    except InsufficientDataError:
        return None


def long_double_curve(k, max_t=20000, target=1e-10):
    """The worst-start TV curve of a plain ``m @ P`` loop in ``np.longdouble``, the curve
    ``mixing_profile`` approximates, as float64 with its stop and running minimum. The power
    is held transposed, and each product sums the kernel's nonzeros of every column, c
    columns of d nonzeros at a time."""
    assert np.finfo(np.longdouble).eps < 1e-18, "the oracle needs extended precision"
    pi = k.pi.probs.astype(np.longdouble)
    cols = k.matrix.T
    count = np.count_nonzero(cols, axis=1)
    chunks = []
    for d in np.flatnonzero(np.bincount(count)):
        ys = np.flatnonzero(count == d)
        idx = np.array([np.flatnonzero(cols[y]) for y in ys]).reshape(ys.size, d)
        w = np.take_along_axis(cols[ys], idx, axis=1).astype(np.longdouble)
        c = max(1, 1024 // d)
        chunks += [(ys[s:s + c], idx[s:s + c], w[s:s + c]) for s in range(0, ys.size, c)]
    power = cols.astype(np.longdouble)  # power[y, x] = P^t(x, y)
    tv = [1.0 - float(pi.min())]
    for t in range(1, max_t + 1):
        if t > 1:
            nxt = np.empty_like(power)
            for ys, idx, w in chunks:
                nxt[ys] = np.einsum("cd,cdx->cx", w, power[idx])
            power = nxt
        tv.append(float(0.5 * np.abs(power - pi[:, None]).sum(axis=0).max()))
        if tv[-1] <= target:
            break
    return np.minimum.accumulate(np.asarray(tv))


def assert_profile_close(prof, ref, target, max_t=20000):
    """Past one row block the left columns of each power come by detailed balance, and on
    sparse kernels by column gathers, so the curve may move by ulps: same length and flag as
    0.3.0's ``ref``, TV within 1e-14 of a long double loop, the same t_mix as ``ref`` at every
    eps >= target, and the floor of a plain loop, its eps0 within 1e-12 relative."""
    assert len(prof.tv) == len(ref.tv) and prof.unreached == ref.unreached
    exact = long_double_curve(prof.kernel, max_t, target)
    assert len(exact) == len(prof.tv) and np.abs(prof.tv - exact).max() <= 1e-14
    for eps in (0.5, 0.25, 0.125, 1e-2, 1e-4, 1e-8, 1e-10):
        if eps >= target:
            assert t_mix_or_none(prof, eps) == t_mix_or_none(ref, eps), eps
    t0, eps0 = floor_by_plain_loop(prof.kernel)
    assert prof.floor[0] == t0
    assert abs(prof.floor[1] - eps0) <= 1e-12 * eps0


def dense_base(node_count, edges, weights):
    """The dense base walk with each row divided by its edge-order weight total."""
    totals = v030.weight_totals(node_count, edges, weights)
    base = np.zeros((node_count, node_count))
    for (u, v), w in zip(edges, [1.0] * len(edges) if weights is None else weights):
        base[u, v] = w / totals[u]
        base[v, u] = w / totals[v]
    return base


def assert_matches_frozen(g, node_count, edges, weights, laziness):
    """Every quantity of ``g``'s kernel equals the dense construction with rows divided by
    the edge-order weight totals, bit for bit. Unweighted kernels equal 0.3.0's, whose
    dense row sums are the same integer degrees; weighted ones lie within 8 ulps of it."""
    assert g.node_count == node_count and same_bits(g.edges, np.asarray(edges, dtype=np.int64))
    assert (g.weights is None) == (weights is None)
    assert weights is None or same_bits(g.weights, np.asarray(weights))
    k = lazy_kernel(g, laziness)
    pi = v030.stationary(node_count, edges, weights)
    base = dense_base(node_count, edges, weights)
    frozen = v030.base_matrix(node_count, edges, weights)
    if weights is None:
        assert same_bits(base, frozen)
    else:
        np.testing.assert_array_max_ulp(base, frozen, maxulp=8)
    matrix = v030.lazy_matrix(base, laziness)
    assert same_bits(g.degrees(), v030.degrees(node_count, edges))
    assert same_bits(g.weight_totals(), v030.weight_totals(node_count, edges, weights))
    assert same_bits(k.pi.probs, pi)
    assert same_bits(k.base, base) and same_bits(k.matrix, matrix)
    for cum, dense in ((k.cumulative_rows(), matrix), (k.base_cumulative_rows(), base)):
        ref = np.cumsum(dense, axis=1)
        ref[:, -1] = 1.0
        assert same_bits(cum, ref)
    for table, dense in ((k.neighbour_table(), matrix), (k.base_neighbour_table(), base)):
        ref = v030.NeighbourTable(dense)
        for name in ("nbr", "prob", "support"):
            assert same_bits(getattr(table, name), getattr(ref, name)), name
    forks, ref = k.fork_table(), ForkTable(v030.NeighbourTable(base))
    assert same_bits(forks.pair_rows(), ref.pair_rows())
    for name in ("first", "cum", "dest", "pair_a", "pair_b"):
        assert same_bits(getattr(forks, name), getattr(ref, name)), name


class TestAgainstFrozenConstruction:
    """The edge-built graphs equal 0.3.0's, and their kernels its dense construction."""

    @pytest.mark.parametrize("name", sorted(FROZEN_CASES))
    def test_graph_and_kernel(self, name):
        make, raw = FROZEN_CASES[name]
        g = make()
        frozen = v030.build(*raw())
        for laziness in (0.5, 0.3):
            assert_matches_frozen(g, *frozen, laziness)

    @given(connected_graphs(), st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, g, laziness):
        frozen = v030.build(g.edges, g.weights, g.node_count)
        assert_matches_frozen(g, *frozen, laziness)

    # (edges, weights, node_count) that 0.3.0 rejected
    INVALID = [
        ([(0, 1), (2, 3)], None, 4),
        ([(0, 1)], None, 3000),
        ([(i, i + 1) for i in range(300)] + [(302, 303)], None, 304),
        ([(0, 1), (1, 2)], [1.0, 0.0], None),
        ([(0, 1), (1, 2)], [1.0, float("nan")], None),
        ([(0, 1), (1, 2)], [float("inf"), -1.0], None),
        ([(0, 0), (0, 1)], None, None),
        ([(1, 0), (2, 2)], None, None),
        ([(0, 1), (0, 1), (1, 2)], None, None),
        ([(1, 0), (0, 1)], None, None),
        ([(0, 1), (1, 5)], None, 3),
        ([(0, 1), (1, -1)], None, 3),
        ([(0, 1)], None, 1),
        ([(0, 1), (0, 1), (5, 6)], None, 3),
        ([(0, 7), (0, 7), (0, 1)], None, 3),
    ]

    @pytest.mark.parametrize("edges,weights,node_count", INVALID)
    def test_build_rejects_like_frozen(self, edges, weights, node_count):
        with pytest.raises(GraphStructureError) as frozen:
            v030.build(edges, weights, node_count)
        with pytest.raises(GraphStructureError) as now:
            Graph.build(edges, weights, node_count)
        assert type(now.value) is type(frozen.value) and str(now.value) == str(frozen.value)

    @pytest.mark.parametrize("n,edges,weights", [
        (3, ((1, 0), (1, 2)), None),
        (4, ((0, 1), (2, 3), (1, 2), (0, 1)), None),
        (4, ((0, 1), (2, 3), (1, 2), (0, 9), (2, 3)), None),
        (3, ((0, 1), (1, 2)), (1.0,)),
        (3, ((1, 2), (0, 1)), (2.0, 0.0)),
    ])
    def test_direct_construction_rejects_like_frozen(self, n, edges, weights):
        with pytest.raises(GraphStructureError) as frozen:
            v030.validate(n, edges, weights)
        with pytest.raises(GraphStructureError) as now:
            Graph(n, edges, weights)
        assert type(now.value) is type(frozen.value) and str(now.value) == str(frozen.value)

    @pytest.mark.parametrize("edges", [[(0, 1.5), (1, 2)], [(0, 1), (1, 2, 3)], [(0, 10**20)]])
    def test_build_rejects_non_integer_pairs(self, edges):
        with pytest.raises(GraphStructureError, match=r"\(u, v\) pairs of integers"):
            Graph.build(edges)

    def test_build_rejects_mismatched_weights(self):
        for weights in ([1.0], [1.0, 2.0, 3.0]):
            with pytest.raises(InvalidWeightsError, match="weights length"):
                Graph.build([(0, 1), (1, 2)], weights)

    @pytest.mark.parametrize("make,target", [
        (lambda: complete_graph(4), 1e-10),
        (lambda: cycle_graph(20), 1e-10),
        (lambda: erdos_renyi_graph(30, 0.15, seed=1), 1e-10),
        (lambda: erdos_renyi_graph(1000, 0.01, seed=0), 0.125),
    ])
    def test_mixing_profile(self, make, target):
        k = lazy_kernel(make(), 0.5)
        prof, ref = mixing_profile(k, target=target), v030.mixing_profile(k, target=target)
        if k.node_count <= ROW_BLOCK:
            # one row block: every power is the full product 0.3.0 took
            assert same_bits(prof.tv, ref.tv) and prof.floor == floor_by_plain_loop(k)
        assert_profile_close(prof, ref, target)
        assert prof.spectral_gap == ref.spectral_gap

    @pytest.mark.parametrize("make,laziness,max_t", [
        (lambda: erdos_renyi_graph(300, 0.03, seed=1), 0.5, 20000),
        (lambda: Graph.build(*_weighted_er(200, 0.1, 3)), 0.2, 20000),
        (lambda: Graph.build(*_weighted_er(200, 0.1, 3)), 0.9, 20000),
        (lambda: star_graph(300), 0.5, 20000),
        # a weighted star gathers, and its kernel's columns are not its rows
        (lambda: Graph.build([(0, v) for v in range(1, 300)], np.linspace(0.1, 3.0, 299)), 0.3,
         20000),
        (lambda: path_graph(200), 0.5, 2000),  # cut off long before 1e-10; P^t > 0 from t = 199
    ], ids=["er300", "weighted_er200-0.2", "weighted_er200-0.9", "star300", "weighted_star300-0.3",
            "path200"])
    def test_mixing_profile_past_one_row_block(self, make, laziness, max_t):
        k = lazy_kernel(make(), laziness)
        assert k.node_count > ROW_BLOCK
        target = 1e-10
        assert_profile_close(mixing_profile(k, max_t=max_t, target=target),
                             v030.mixing_profile(k, max_t=max_t, target=target), target, max_t)

    @pytest.mark.parametrize("make", [
        lambda: complete_graph(2),
        lambda: cycle_graph(20),
        lambda: erdos_renyi_graph(30, 0.15, seed=1),
        lambda: Graph.build([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], [1.0, 2.5, 0.3, 7.0, 0.01]),
    ])
    def test_spectral_gap(self, make):
        k = lazy_kernel(make(), 0.5)
        assert spectral_gap(k) == v030.spectral_gap(k)


class TestScale:
    """Graphs past the dense cap are built and walked in memory linear in n."""

    N = 100_000

    def test_complete_graph_edges_are_triu_indices(self):
        for n in (2, 3, 4, 7, 64, 301):
            assert same_bits(complete_graph(n).edges, np.column_stack(np.triu_indices(n, 1)))

    @pytest.mark.parametrize("make,read", [
        (lambda: 6000, complete_graph),  # K(6000)'s edges: 288 MB
        (lambda: lazy_kernel(star_graph(5000), 0.5), lambda k: k.neighbour_table()),  # 400 MB
        # from K(400)'s fork table, 3.8 MB, to its pair rows, 509 MB
        (lambda: lazy_kernel(complete_graph(400), 0.5).fork_table(), ForkTable.pair_rows),
    ], ids=["complete_graph", "neighbour_table", "fork_table"])
    def test_tables_past_the_byte_cap_raise_before_allocating(self, make, read):
        made = make()
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"past the cap of {TABLE_BYTE_CAP} bytes"):
                read(made)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("n", [NODE_CAP + 1, 10**12])
    @pytest.mark.parametrize("build", [
        path_graph, cycle_graph, complete_graph, star_graph,
        lambda n: erdos_renyi_graph(n, 0.5, seed=0),
        lambda n: Graph.build([[0, n - 1]]),  # inline edges
        lambda n: Graph.build([[0, 1]], node_count=n),
        lambda n: parse_graph_json({"nodes": n, "edges": [[0, 1]]}),  # a graph file
        lambda n: Graph(n, np.array([[0, 1]])),
    ], ids=["path", "cycle", "complete", "star", "erdos_renyi", "build_inferred", "build_given",
            "json", "Graph"])
    def test_node_count_past_the_cap_raises_before_allocating(self, build, n):
        # NODE_CAP nodes is the largest graph whose smallest lazy neighbour table, n rows of
        # two 16-byte slots, fits the byte cap
        assert 32 * NODE_CAP == TABLE_BYTE_CAP
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"past the cap of {NODE_CAP} nodes"):
                build(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def runs_without_dense_arrays(self, make_graph):
        # the graph is built inside the traced window, so its validation counts too
        n = self.N
        tracemalloc.start()
        try:
            k = lazy_kernel(make_graph(), 0.5)
            trace = run_population(k, PolicySpec.uniform(n, a_long=1, q_fork=0.05),
                                   TrapProfile.uniform(n, 0.02), z0=500, horizon=5, rng_seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.horizon == 5 and trace.conservation_violations() == 0
        # a single dense n x n float64 array would be 8 n^2 = 80 GB
        assert peak < 2_000 * n, peak

    def test_cycle_runs_without_dense_arrays(self):
        self.runs_without_dense_arrays(lambda: cycle_graph(self.N))

    def test_weighted_cycle_runs_without_dense_arrays(self):
        # weighted row totals are summed over the edges, not over dense rows
        def make_graph():
            edges = cycle_graph(self.N).edges
            return Graph(self.N, edges, np.random.default_rng(5).uniform(0.5, 2.0, self.N))
        self.runs_without_dense_arrays(make_graph)

    def test_graph_holds_its_edges_once(self):
        tracemalloc.start()
        try:
            g = cycle_graph(self.N)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count == self.N
        # the (n, 2) int64 edge array is 1.6 MB; one Python tuple per edge would be 12 MB
        assert retained < 4 << 20, retained

    def test_dense_arrays_raise_before_allocating(self):
        k = lazy_kernel(cycle_graph(self.N), 0.5)
        assert k.node_count > DENSE_NODE_CAP
        reads = [lambda: k.matrix, lambda: k.base, k.cumulative_rows, k.base_cumulative_rows,
                 lambda: mixing_profile(k)]
        for read in reads:
            tracemalloc.start()
            try:
                with pytest.raises(ParameterError, match="capped at 2000 nodes"):
                    read()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak
