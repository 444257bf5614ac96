"""Tests for repro.graph.algorithms and repro.graph.partition."""

import numpy as np
import pytest

from repro.graph.algorithms import (
    WorkProfile,
    average_teenage_follower,
    breadth_first_search,
    pagerank,
    single_source_shortest_paths,
    weakly_connected_components,
)
from repro.graph.generators import regular_grid, rmat
from repro.graph.graph import CsrGraph
from repro.graph.partition import partition_graph


@pytest.fixture
def small_graph() -> CsrGraph:
    #     0 -> 1 -> 2
    #     |         ^
    #     v         |
    #     3 --------+
    return CsrGraph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 2)])


class TestWorkProfile:
    def test_record_and_totals(self):
        profile = WorkProfile("demo")
        profile.record(10, 100)
        profile.record(5, 50)
        assert len(profile.traversed_edges) == 2
        assert sum(profile.traversed_edges) == 150
        assert sum(profile.active_vertices) == 15

    def test_scaled(self):
        profile = WorkProfile("demo", vertex_state_bytes=16, ops_per_edge=3)
        profile.record(10, 100)
        scaled = profile.scaled(4)
        assert scaled.traversed_edges == [400]
        assert scaled.active_vertices == [40]
        assert scaled.vertex_state_bytes == 16
        with pytest.raises(ValueError):
            profile.scaled(0)


class TestPageRank:
    def test_ranks_sum_to_one(self):
        graph = rmat(10, avg_degree=8, seed=3)
        ranks, profile = pagerank(graph, max_iterations=30)
        assert ranks.sum() == pytest.approx(1.0, abs=1e-6)
        assert len(profile.traversed_edges) <= 30

    def test_hub_has_higher_rank(self):
        # Star graph: everything points to vertex 0.
        graph = CsrGraph.from_edges(5, [(i, 0) for i in range(1, 5)])
        ranks, _ = pagerank(graph)
        assert ranks[0] == max(ranks)

    def test_work_profile_counts_all_edges_every_iteration(self):
        graph = rmat(8, avg_degree=4, seed=0)
        _, profile = pagerank(graph, max_iterations=5)
        assert all(edges == graph.num_edges for edges in profile.traversed_edges)

    def test_invalid_damping(self):
        graph = regular_grid(3)
        with pytest.raises(ValueError):
            pagerank(graph, damping=1.5)


class TestBfsAndSssp:
    def test_bfs_levels(self, small_graph):
        levels, profile = breadth_first_search(small_graph, source=0)
        assert levels[0] == 0
        assert levels[1] == 1
        assert levels[3] == 1
        assert levels[2] == 2
        assert levels[4] == -1  # unreachable
        assert len(profile.traversed_edges) == 3

    def test_bfs_default_source_is_highest_degree(self):
        graph = CsrGraph.from_edges(4, [(2, 0), (2, 1), (2, 3), (0, 1)])
        levels, _ = breadth_first_search(graph)
        assert levels[2] == 0

    def test_bfs_grid_levels_are_manhattan_distance(self):
        side = 5
        graph = regular_grid(side)
        levels, _ = breadth_first_search(graph, source=0)
        for row in range(side):
            for column in range(side):
                assert levels[row * side + column] == row + column

    def test_bfs_source_bounds(self, small_graph):
        with pytest.raises(IndexError):
            breadth_first_search(small_graph, source=99)

    def test_sssp_matches_bfs_on_unit_weights(self):
        graph = regular_grid(6)
        levels, _ = breadth_first_search(graph, source=0)
        distances, _ = single_source_shortest_paths(graph, source=0)
        assert np.array_equal(levels[levels >= 0], distances[np.isfinite(distances)].astype(int))

    def test_sssp_respects_weights(self):
        graph = CsrGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)], weights=[1.0, 1.0, 5.0])
        distances, _ = single_source_shortest_paths(graph, source=0)
        assert distances[2] == pytest.approx(2.0)

    def test_sssp_unreachable_is_inf(self, small_graph):
        distances, _ = single_source_shortest_paths(small_graph, source=0)
        assert np.isinf(distances[4])


class TestWccAndAtf:
    def test_wcc_two_components(self):
        graph = CsrGraph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
        labels, _ = weakly_connected_components(graph)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]
        assert labels[5] not in (labels[0], labels[3])

    def test_wcc_direction_does_not_matter(self):
        forward = CsrGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        labels, _ = weakly_connected_components(forward)
        assert len(set(labels.tolist())) == 1

    def test_atf_counts_teen_followers(self):
        # Vertices 1 and 2 follow vertex 0; only vertex 1 is a teenager.
        graph = CsrGraph.from_edges(3, [(1, 0), (2, 0)])
        mask = np.array([False, True, False])
        average, profile = average_teenage_follower(graph, teenage_mask=mask)
        assert average == pytest.approx(1.0 / 3.0)
        assert len(profile.traversed_edges) == 1

    def test_atf_mask_shape_checked(self):
        graph = regular_grid(2)
        with pytest.raises(ValueError):
            average_teenage_follower(graph, teenage_mask=np.array([True]))


class TestPartition:
    def test_hash_partition_balances_vertices(self):
        graph = rmat(12, avg_degree=8, seed=7)
        partition = partition_graph(graph, 16, vaults_per_cube=4, seed=0)
        assert partition.vertex_counts.sum() == graph.num_vertices
        assert partition.edge_counts.sum() == graph.num_edges
        assert partition.local_edges + partition.remote_edges == graph.num_edges
        # With 16 random partitions, ~15/16 of edges should be remote.
        assert 0.85 < partition.remote_fraction < 0.99

    def test_range_partition_on_grid_has_more_locality_than_hash(self):
        graph = regular_grid(32)
        hashed = partition_graph(graph, 8, strategy="hash", seed=1)
        ranged = partition_graph(graph, 8, strategy="range")
        assert ranged.remote_fraction < hashed.remote_fraction

    def test_degree_balanced_reduces_imbalance(self):
        graph = rmat(12, avg_degree=8, seed=7)
        hashed = partition_graph(graph, 32, strategy="hash", seed=0)
        balanced = partition_graph(graph, 32, strategy="degree_balanced")
        assert balanced.load_imbalance <= hashed.load_imbalance

    def test_inter_cube_split_consistent(self):
        graph = rmat(10, avg_degree=8, seed=2)
        partition = partition_graph(graph, 64, vaults_per_cube=32, seed=3)
        assert (
            partition.intra_cube_remote_edges + partition.inter_cube_remote_edges
            == partition.remote_edges
        )

    def test_single_vault_partition_is_all_local(self):
        graph = rmat(8, avg_degree=4, seed=1)
        partition = partition_graph(graph, 1)
        assert partition.remote_fraction == 0.0
        assert partition.load_imbalance == pytest.approx(1.0)

    def test_invalid_arguments(self):
        graph = regular_grid(3)
        with pytest.raises(ValueError):
            partition_graph(graph, 0)
        with pytest.raises(ValueError):
            partition_graph(graph, 4, vaults_per_cube=0)
        with pytest.raises(ValueError):
            partition_graph(graph, 4, strategy="metis")
