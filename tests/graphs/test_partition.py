"""Partitioner registry, both shipped partitioners, and the Partition
record's derived metrics (boundary, edge cut, balance)."""

import numpy as np
import pytest

from repro.graphs import (
    Partition,
    available_partitioners,
    compute_partition,
    register_partitioner,
)
from repro.graphs.build import from_edge_list
from repro.graphs.generators import grid_2d, path_graph, road_network, small_world
from repro.graphs.partition import PARTITIONERS

from tests.helpers import random_connected_graph


class TestRegistry:
    def test_both_shipped_partitioners_registered(self):
        assert set(available_partitioners()) >= {"contiguous", "ldd"}

    def test_unknown_partitioner_rejected(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="unknown partitioner"):
            compute_partition(g, "metis", 2)

    def test_register_and_dispatch(self):
        def halves(graph, n_shards, seed):
            return (np.arange(graph.n) * n_shards) // max(graph.n, 1)

        register_partitioner("halves-test", halves, overwrite=True)
        try:
            part = compute_partition(path_graph(10), "halves-test", 2)
            assert part.method == "halves-test"
            assert part.shard_sizes().tolist() == [5, 5]
            assert part.edge_cut == 1
        finally:
            PARTITIONERS.pop("halves-test", None)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_partitioner("contiguous", lambda g, s, seed: None)

    def test_bad_labels_rejected(self):
        register_partitioner(
            "broken-test", lambda g, s, seed: np.zeros(g.n + 1), overwrite=True
        )
        register_partitioner(
            "out-of-range-test",
            lambda g, s, seed: np.full(g.n, s, dtype=np.int64),
            overwrite=True,
        )
        try:
            with pytest.raises(ValueError, match="shape"):
                compute_partition(path_graph(4), "broken-test", 2)
            with pytest.raises(ValueError, match="outside"):
                compute_partition(path_graph(4), "out-of-range-test", 2)
        finally:
            PARTITIONERS.pop("broken-test", None)
            PARTITIONERS.pop("out-of-range-test", None)

    def test_n_shards_bounds(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="n_shards"):
            compute_partition(g, "contiguous", 0)
        with pytest.raises(ValueError, match="exceeds"):
            compute_partition(g, "contiguous", 5)


@pytest.mark.parametrize("method", ["contiguous", "ldd"])
class TestPartitioners:
    def test_valid_partition_of_grid(self, method):
        g = grid_2d(8, 9)
        part = compute_partition(g, method, 4, seed=3)
        assert isinstance(part, Partition)
        assert part.labels.shape == (g.n,)
        assert part.n_shards == 4
        assert part.shard_sizes().sum() == g.n
        # every shard non-empty and reasonably balanced on a grid
        assert part.shard_sizes().min() >= 1
        assert part.balance < 2.0

    def test_boundary_is_exactly_cross_arc_tails(self, method):
        g = small_world(80, 4, seed=5)
        part = compute_partition(g, method, 3, seed=1)
        labels = part.labels
        expected = set()
        for u in range(g.n):
            for v in g.neighbors(u):
                if labels[u] != labels[v]:
                    expected.add(u)
        assert set(part.boundary_vertices.tolist()) == expected
        # boundary_of partitions the boundary set by shard
        recombined = np.concatenate(
            [part.boundary_of(s) for s in range(part.n_shards)]
        )
        assert sorted(recombined.tolist()) == sorted(expected)

    def test_edge_cut_counts_undirected_edges(self, method):
        g = grid_2d(6, 6)
        part = compute_partition(g, method, 2, seed=0)
        labels = part.labels
        cut = sum(
            1
            for u, v, _w in g.iter_edges()
            if labels[u] != labels[v]
        )
        assert part.edge_cut == cut

    def test_single_shard_has_no_boundary(self, method):
        g = grid_2d(5, 5)
        part = compute_partition(g, method, 1)
        assert part.n_shards == 1
        assert part.edge_cut == 0
        assert len(part.boundary_vertices) == 0
        assert part.balance == 1.0

    def test_deterministic_per_seed(self, method):
        g = small_world(60, 4, seed=9)
        a = compute_partition(g, method, 3, seed=7)
        b = compute_partition(g, method, 3, seed=7)
        assert np.array_equal(a.labels, b.labels)

    def test_disconnected_graph_fully_labeled(self, method):
        # two components + an isolated vertex: every vertex gets a shard
        g = from_edge_list(7, [(0, 1), (1, 2), (3, 4), (4, 5)])
        part = compute_partition(g, method, 2, seed=2)
        assert part.labels.min() >= 0
        assert part.shard_sizes().sum() == 7


def _random_label_cut(g, n_shards: int) -> int:
    """Edge cut of an arbitrary equal-size labeling."""
    labels = np.random.default_rng(0).permutation(np.arange(g.n) % n_shards)
    return sum(1 for u, v, _w in g.iter_edges() if labels[u] != labels[v])


class TestContiguousLocality:
    def test_contiguous_cut_beats_random_labels_on_grid(self):
        """The point of the RCM range partition: far fewer cut edges
        than an arbitrary equal-size labeling."""
        g = grid_2d(12, 12)
        part = compute_partition(g, "contiguous", 4, seed=0)
        assert part.edge_cut < _random_label_cut(g, 4) / 2


class TestLddStructure:
    def test_clusters_have_bounded_hop_radius(self):
        """Every vertex was claimed through a BFS wave from some center,
        so intra-cluster hop distances stay small on a bounded-degree
        graph; sanity-check shards are contiguous unions of such balls
        by verifying balance stays bounded by the largest cluster."""
        g = grid_2d(10, 10)
        part = compute_partition(g, "ldd", 4, seed=1)
        assert part.balance < 2.0
        assert part.shard_sizes().min() > 0

    def test_ldd_cut_beats_random_labels_on_road(self):
        """Ball growing keeps a road map's shards local: under half the
        cut of an arbitrary equal-size labeling, at bounded balance."""
        g, _coords = road_network(800, seed=1)
        part = compute_partition(g, "ldd", 4, seed=0)
        assert part.balance < 2.0
        assert part.edge_cut < _random_label_cut(g, 4) / 2

    def test_weighted_graph_accepted(self):
        g = random_connected_graph(70, 160, seed=3)
        part = compute_partition(g, "ldd", 3, seed=4)
        assert part.shard_sizes().sum() == g.n
