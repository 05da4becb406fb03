import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srrw.errors import (
    GraphStructureError,
    InsufficientDataError,
    InvalidWeightsError,
    ParameterError,
)
from srrw.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    lazy_kernel,
    mixing_profile,
    parse_edge_list,
    parse_graph_json,
    path_graph,
    power_iterate,
    star_graph,
    stationary_by_iteration,
    stationary_distribution,
)


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
        assert prof.tv_at(1) == 0.0
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

    def test_curve_non_increasing_and_flagged(self):
        prof = mixing_profile(lazy_kernel(path_graph(6), 0.5), max_t=3, target=1e-12)
        assert prof.unreached
        assert np.all(np.diff(prof.tv) <= 1e-12)
        with pytest.raises(InsufficientDataError):
            prof.t_mix_of(1e-9)

    @given(connected_graphs())
    @settings(max_examples=15, deadline=None)
    def test_power_iteration_converges(self, g):
        k = lazy_kernel(g, 0.5)
        prof = mixing_profile(k, target=1e-9, max_t=50000)
        t = 4 * prof.t_mix_of(1e-9)
        rng = np.random.default_rng(0)
        for _ in range(10):
            alpha = rng.dirichlet(np.ones(g.node_count))
            out = power_iterate(k, alpha, t)
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
        assert g.edges == ((0, 1), (1, 2))
        assert g.weights == (1.0, 2.5)

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
        assert g.weights == (1.0, 2.5)

    def test_json_missing_keys(self):
        with pytest.raises(GraphStructureError):
            parse_graph_json({"edges": [[0, 1]]})


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
        assert g1.edges == g2.edges

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


class TestForkTable:
    """Second-target rows, one per directed edge u -> a of the base walk."""

    def edges(self, k):
        """(u, column of a, a, edge row) for every directed edge."""
        table = k.fork_table()
        dest = table.dest
        width = dest.shape[1]
        for u in range(k.node_count):
            for c in range(width - k.base_neighbour_table().support[u], width):
                yield u, c, int(dest[u, c]), int(table.edge_end[u] - c)

    @pytest.mark.parametrize("name", sorted(FORK_GRAPHS))
    def test_shape_is_directed_edges_by_width(self, name):
        g = FORK_GRAPHS[name]()
        k = lazy_kernel(g, 0.5)
        table = k.fork_table()
        assert table.second.shape == (2 * g.edge_count, k.base_neighbour_table().width)
        assert sorted(e for *_, e in self.edges(k)) == list(range(2 * g.edge_count))
        assert k.fork_table() is table

    @pytest.mark.parametrize("name", sorted(FORK_GRAPHS))
    def test_rows(self, name):
        k = lazy_kernel(FORK_GRAPHS[name](), 0.5)
        table = k.fork_table()
        degree = k.base_neighbour_table().support
        for u, c, a, e in self.edges(k):
            row, dest = table.second[e], table.dest[table.edge_dest[e]]
            assert k.base[u, a] > 0
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            # the last column carries mass and is a real neighbour
            assert row[-1] > 0 and k.base[u, dest[-1]] > 0
            if degree[u] == 1:
                assert row[-1] == 1.0 and dest[-1] == a
                continue
            assert row[dest == a].sum() == 0.0 and dest[-1] != a
            for b in np.flatnonzero(k.base[u]):
                assert row[(dest == b) & (row > 0)].sum() == pytest.approx(
                    0.0 if b == a else k.base[u, b] / (1.0 - k.base[u, a]), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(FORK_GRAPHS))
    def test_two_stages_give_distinct_pair_law(self, name):
        k = lazy_kernel(FORK_GRAPHS[name](), 0.5)
        table = k.fork_table()
        for u in range(k.node_count):
            p = k.base[u]
            pair = np.zeros((k.node_count, k.node_count))
            for c in np.flatnonzero(table.first[u]):
                e = table.edge_end[u] - c
                np.add.at(pair[table.dest[u, c]], table.dest[table.edge_dest[e]],
                          table.first[u, c] * table.second[e])
            if np.count_nonzero(p) == 1:
                expected = np.outer(p, p)
            else:
                expected = np.outer(p, p) / (1.0 - np.sum(p**2))
                np.fill_diagonal(expected, 0.0)
            assert np.abs(pair - expected).max() <= 1e-12
