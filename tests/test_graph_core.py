"""Tests for repro.graph.graph and repro.graph.generators."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi, regular_grid, rmat
from repro.graph.graph import CsrGraph


class TestCsrGraph:
    def test_from_edges_basic(self):
        graph = CsrGraph.from_edges(4, [(0, 1), (0, 2), (2, 3), (3, 0)])
        assert graph.num_vertices == 4
        assert graph.num_edges == 4
        assert sorted(graph.neighbors(0).tolist()) == [1, 2]
        assert graph.neighbors(1).tolist() == []
        assert graph.out_degree(0) == 2

    def test_from_arrays_matches_from_edges(self):
        edges = [(0, 1), (2, 1), (1, 3), (3, 3)]
        a = CsrGraph.from_edges(4, edges)
        b = CsrGraph.from_arrays(4, np.array([e[0] for e in edges]), np.array([e[1] for e in edges]))
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)

    def test_empty_graph(self):
        graph = CsrGraph.from_edges(3, [])
        assert graph.num_edges == 0
        assert graph.out_degree().tolist() == [0, 0, 0]

    def test_weights_follow_edges(self):
        graph = CsrGraph.from_edges(3, [(2, 0), (0, 1)], weights=[5.0, 7.0])
        assert graph.weights[graph.indptr[0] : graph.indptr[1]].tolist() == [7.0]
        assert graph.weights[graph.indptr[2] : graph.indptr[3]].tolist() == [5.0]

    def test_edge_sources(self):
        graph = CsrGraph.from_edges(3, [(0, 1), (2, 1), (1, 2)])
        assert np.array_equal(graph.edge_sources(), np.array([0, 1, 2]))

    def test_out_of_range_edges_rejected(self):
        with pytest.raises(ValueError):
            CsrGraph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError):
            CsrGraph.from_edges(2, [(-1, 0)])

    def test_invalid_csr_arrays_rejected(self):
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 2]), np.array([0]))  # indptr end mismatch
        with pytest.raises(ValueError):
            CsrGraph(np.array([1, 1]), np.array([], dtype=np.int64))  # indptr[0] != 0
        with pytest.raises(ValueError):
            CsrGraph(np.array([0, 1]), np.array([5]))  # destination out of range

    def test_neighbors_bounds_checked(self):
        graph = CsrGraph.from_edges(2, [(0, 1)])
        with pytest.raises(IndexError):
            graph.neighbors(2)

    def test_describe(self):
        graph = CsrGraph.from_edges(10, [(0, 1)] * 5)
        assert "10 vertices" in graph.describe()


class TestGenerators:
    def test_rmat_size_and_determinism(self):
        graph = rmat(10, avg_degree=4, seed=5)
        assert graph.num_vertices == 1024
        assert graph.num_edges == 4096
        again = rmat(10, avg_degree=4, seed=5)
        assert np.array_equal(graph.indices, again.indices)

    def test_rmat_is_skewed(self):
        graph = rmat(12, avg_degree=8, seed=1)
        degrees = graph.out_degree()
        assert degrees.max() > 8 * degrees.mean()

    def test_rmat_invalid_parameters(self):
        with pytest.raises(ValueError):
            rmat(0)
        with pytest.raises(ValueError):
            rmat(8, avg_degree=0)
        with pytest.raises(ValueError):
            rmat(8, a=0.9, b=0.2, c=0.2)

    def test_erdos_renyi_is_not_skewed(self):
        graph = erdos_renyi(4096, avg_degree=8, seed=2)
        degrees = graph.out_degree()
        assert degrees.max() < 5 * degrees.mean()
        with pytest.raises(ValueError):
            erdos_renyi(0)

    def test_regular_grid_degrees(self):
        graph = regular_grid(4)
        degrees = graph.out_degree()
        # Corners have 2 neighbours, edges 3, interior 4.
        assert degrees.min() == 2
        assert degrees.max() == 4
        assert graph.num_edges == 2 * 2 * 4 * 3  # 24 undirected edges, both directions
        with pytest.raises(ValueError):
            regular_grid(0)
