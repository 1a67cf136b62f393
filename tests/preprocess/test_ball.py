"""Unit + property tests for the truncated Dijkstra ball search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dijkstra
from repro.graphs.generators import figure2_graph, grid_2d, path_graph, star_graph
from repro.preprocess import ball_search, sort_adjacency_by_weight

from tests.helpers import random_connected_graph


class TestBasics:
    def test_source_settles_first(self):
        g = grid_2d(4, 4)
        ball = ball_search(g, 5, 6)
        assert ball.order[0] == 5
        assert ball.dist[0] == 0.0
        assert ball.hops[0] == 0
        assert ball.parent[0] == -1

    def test_distances_sorted(self):
        g = random_connected_graph(50, 120, seed=1)
        ball = ball_search(g, 0, 20)
        assert (np.diff(ball.dist) >= 0).all()

    def test_matches_dijkstra_prefix(self):
        """Settled set = the ρ closest vertices by true distance."""
        g = random_connected_graph(60, 150, seed=2, weight_high=10**6)
        rho = 17
        ball = ball_search(g, 3, rho, include_ties=False)
        ref = np.sort(dijkstra(g, 3).dist)
        assert np.allclose(np.sort(ball.dist), ref[:rho])

    def test_parent_is_earlier_settle(self):
        g = random_connected_graph(40, 90, seed=3)
        ball = ball_search(g, 0, 25)
        seen = set()
        for v, p in zip(ball.order.tolist(), ball.parent.tolist()):
            if p != -1:
                assert p in seen
            seen.add(v)

    def test_bad_args(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            ball_search(g, 9, 2)
        with pytest.raises(ValueError):
            ball_search(g, 0, 0)


class TestTies:
    def test_include_ties_extends_through_distance_class(self):
        g = star_graph(8)  # all leaves at distance 1
        ball = ball_search(g, 0, 3, include_ties=True)
        assert len(ball) == 9  # source + all 8 tied leaves

    def test_exact_mode_stops_at_rho(self):
        g = star_graph(8)
        ball = ball_search(g, 0, 3, include_ties=False)
        assert len(ball) == 3

    def test_r_rho_unaffected_by_ties_mode(self):
        g = random_connected_graph(40, 90, seed=4, weight_high=5)
        for rho in (3, 9, 15):
            a = ball_search(g, 0, rho, include_ties=True)
            b = ball_search(g, 0, rho, include_ties=False)
            assert a.r_rho(rho) == b.r_rho(rho)


class TestRRho:
    def test_self_counting_convention(self):
        """r_1 = 0: the closest vertex to v is v itself (DESIGN.md pin)."""
        g = random_connected_graph(20, 45, seed=5)
        ball = ball_search(g, 7, 5)
        assert ball.r_rho(1) == 0.0

    def test_r_2_is_lightest_incident_edge(self):
        g = random_connected_graph(20, 45, seed=6)
        ball = ball_search(g, 7, 5)
        assert ball.r_rho(2) == g.neighbor_weights(7).min()

    def test_monotone_in_rho(self):
        g = random_connected_graph(50, 110, seed=7)
        ball = ball_search(g, 0, 30)
        values = [ball.r_rho(r) for r in range(1, 31)]
        assert values == sorted(values)

    def test_beyond_component_returns_radius(self):
        g = path_graph(4)
        ball = ball_search(g, 0, 99)
        assert ball.complete
        assert ball.r_rho(99) == 3.0

    def test_invalid_rho(self):
        ball = ball_search(path_graph(3), 0, 2)
        with pytest.raises(ValueError):
            ball.r_rho(0)

    def test_prefix_size_counts_ties(self):
        g = star_graph(6)
        ball = ball_search(g, 0, 4, include_ties=True)
        assert ball.prefix_size(2) == 7  # source + 6 tied leaves


class TestMinHopTree:
    def test_hops_minimal_over_shortest_paths(self):
        # 0-1-2-3 all weight 1; plus 0-4 (1.5), 4-3 (1.5): two shortest
        # paths to 3 with 3 vs 2 hops.
        from repro.graphs import from_edge_list

        g = from_edge_list(
            5,
            [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 4, 1.5), (4, 3, 1.5)],
        )
        ball = ball_search(g, 0, 5)
        idx = {int(v): i for i, v in enumerate(ball.order)}
        assert ball.hops[idx[3]] == 2
        assert ball.parent[idx[3]] == 4


class TestLightestEdgesRestriction:
    def test_requires_sorted_on_weighted(self):
        g = random_connected_graph(20, 45, seed=8)
        with pytest.raises(ValueError, match="weight-sorted"):
            ball_search(g, 0, 4, lightest_edges=True)

    def test_sorted_graph_allows_restriction(self):
        g = sort_adjacency_by_weight(random_connected_graph(30, 70, seed=9))
        ball = ball_search(g, 0, 5, lightest_edges=True, weight_sorted=True)
        assert len(ball) >= 5

    def test_interior_exact(self):
        """With ample rho, the restricted search still finds the true
        nearest vertices (Lemma 4.2's correctness argument)."""
        g = sort_adjacency_by_weight(
            random_connected_graph(40, 100, seed=10, weight_high=10**6)
        )
        rho = 12
        full = ball_search(g, 0, rho, include_ties=False)
        restricted = ball_search(
            g, 0, rho, include_ties=False, lightest_edges=True, weight_sorted=True
        )
        assert np.allclose(full.dist, restricted.dist)
        assert restricted.edges_scanned <= full.edges_scanned

    def test_unweighted_no_sorting_needed(self):
        g = grid_2d(5, 5)
        ball = ball_search(g, 0, 6, lightest_edges=True)
        assert len(ball) >= 6

    def test_edges_scanned_capped(self):
        g = figure2_graph(8)
        rho = 4  # much smaller than the biclique degree 16
        ball = ball_search(g, 0, rho, include_ties=False, lightest_edges=True)
        # each settle scans at most rho arcs
        assert ball.edges_scanned <= rho * len(ball)


class TestSortAdjacency:
    def test_rows_sorted(self):
        g = random_connected_graph(25, 60, seed=11)
        s = sort_adjacency_by_weight(g)
        for u in range(s.n):
            ws = s.neighbor_weights(u)
            assert (np.diff(ws) >= 0).all()

    def test_same_graph(self):
        g = random_connected_graph(25, 60, seed=11)
        s = sort_adjacency_by_weight(g)
        assert np.allclose(dijkstra(g, 0).dist, dijkstra(s, 0).dist)


@given(n=st.integers(6, 30), seed=st.integers(0, 10**6), rho=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_ball_prefix_property(n, seed, rho):
    """Property: ball distances equal the sorted Dijkstra prefix and the
    settle count is max(rho, tie closure) within the component size."""
    g = random_connected_graph(n, 2 * n, seed=seed, weight_high=9)
    ball = ball_search(g, 0, rho, include_ties=True)
    ref = np.sort(dijkstra(g, 0).dist)
    take = len(ball)
    assert np.allclose(ball.dist, ref[:take])
    if not ball.complete:
        assert take >= min(rho, n)
        boundary = ball.dist[-1]
        assert np.sum(ref <= boundary) == take  # ties fully included
