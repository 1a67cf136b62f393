"""Batched ball-search engine: exact parity with the scalar reference.

The batched engine promises *bit-identical* results to the scalar heap
search on every output field — settle order, distances, min-hop depths,
parents, edges scanned, completeness — plus identical r_ρ arrays, ball
trees, and (k,ρ)-pipeline outputs.  This suite pins that promise across
every graph family in :mod:`repro.graphs.generators` and the edge cases
that break naive vectorizations (zero-weight ties, disconnected
components, ρ ≥ n, single vertices, lightest-edge caps, tiny slot
blocks that force multi-block runs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import from_edge_list
from repro.graphs.generators import (
    binary_tree,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    figure2_graph,
    greedy_bad_tree,
    grid_2d,
    grid_3d,
    path_graph,
    random_geometric,
    road_network,
    scale_free,
    star_graph,
)
from repro.graphs.weights import random_integer_weights, uniform_weights
from repro.preprocess import (
    ball_search,
    batched_ball_search,
    batched_ball_trees,
    build_ball_tree,
    build_kr_graph,
    compute_radii_sweep,
    scalar_radii,
    sort_adjacency_by_weight,
)

from tests.helpers import (
    random_connected_graph,
    scalar_kr_graph,
    scalar_shortcut_counts,
)


def assert_balls_equal(a, b, ctx=""):
    assert a.source == b.source, ctx
    for field in ("order", "dist", "hops", "parent"):
        got_a, got_b = getattr(a, field), getattr(b, field)
        assert np.array_equal(got_a, got_b), f"{ctx}: {field} differs"
        assert got_a.dtype == got_b.dtype, f"{ctx}: {field} dtype differs"
    assert a.edges_scanned == b.edges_scanned, ctx
    assert a.complete == b.complete, ctx


def assert_backend_parity(graph, rho, *, include_ties=True, **kwargs):
    sources = np.arange(graph.n, dtype=np.int64)
    batched = batched_ball_search(
        graph, sources, rho, include_ties=include_ties, **kwargs
    )
    assert len(batched) == graph.n
    for s, got in zip(sources, batched):
        ref = ball_search(
            graph, int(s), rho, include_ties=include_ties, **kwargs
        )
        assert_balls_equal(ref, got, ctx=f"source {s} rho {rho}")


#: every generator family, small enough for exhaustive all-sources parity
FAMILIES = [
    ("path", lambda: path_graph(17)),
    ("cycle", lambda: cycle_graph(16)),
    ("star", lambda: star_graph(9)),
    ("complete", lambda: complete_graph(8)),
    ("binary_tree", lambda: binary_tree(4)),
    ("grid_2d", lambda: grid_2d(5, 7)),
    ("grid_2d_diag", lambda: grid_2d(4, 5, diagonals=True)),
    ("grid_3d", lambda: grid_3d(3, 3, 3)),
    ("erdos_renyi", lambda: erdos_renyi(40, 100, seed=3)),
    ("scale_free", lambda: scale_free(40, attach=3, seed=4)),
    ("road_network", lambda: road_network(60, seed=5)[0]),
    ("random_geometric", lambda: random_geometric(50, 0.25, seed=6)[0]),
    ("figure2", lambda: figure2_graph(5)),
    ("greedy_bad_tree", lambda: greedy_bad_tree(3, 8)),
]


class TestFamilyParity:
    @pytest.mark.parametrize("name,factory", FAMILIES)
    @pytest.mark.parametrize("include_ties", [True, False])
    def test_unit_weights(self, name, factory, include_ties):
        g = factory()
        assert_backend_parity(g, 6, include_ties=include_ties)

    @pytest.mark.parametrize("name,factory", FAMILIES)
    def test_integer_weights(self, name, factory):
        g = random_integer_weights(factory(), low=1, high=30, seed=11)
        assert_backend_parity(g, 7)

    @pytest.mark.parametrize("name,factory", FAMILIES)
    def test_float_weights(self, name, factory):
        g = uniform_weights(factory(), low=0.1, high=9.0, seed=12)
        assert_backend_parity(g, 5, include_ties=False)


class TestEdgeCases:
    def test_disconnected_components(self):
        g = from_edge_list(
            11,
            [
                (0, 1, 1.0),
                (1, 2, 2.0),
                (3, 4, 1.5),
                (5, 6, 1.0),
                (6, 7, 0.5),
                (7, 5, 0.5),
            ],
        )
        for rho in (1, 2, 4, 50):
            assert_backend_parity(g, rho)
            assert_backend_parity(g, rho, include_ties=False)

    def test_rho_exceeding_n(self):
        g = random_connected_graph(25, 60, seed=1)
        assert_backend_parity(g, g.n + 10)

    def test_zero_weight_ties(self):
        g = from_edge_list(
            7,
            [
                (0, 1, 0.0),
                (1, 2, 0.0),
                (2, 3, 1.0),
                (0, 4, 1.0),
                (4, 5, 0.0),
                (3, 5, 0.0),
                (5, 6, 2.0),
            ],
        )
        for rho in (1, 2, 3, 7):
            assert_backend_parity(g, rho)
            assert_backend_parity(g, rho, include_ties=False)

    def test_heavy_tie_classes(self):
        """Many equal distances stress the (dist, hops, id) settle order."""
        g = random_integer_weights(
            erdos_renyi(50, 140, seed=7), low=1, high=3, seed=8
        )
        assert_backend_parity(g, 9)
        assert_backend_parity(g, 9, include_ties=False)

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        for rho in (1, 3):
            assert_backend_parity(g, rho)

    def test_rho_one_zero_closure(self):
        g = from_edge_list(4, [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 0.0)])
        assert_backend_parity(g, 1)
        assert_backend_parity(g, 1, include_ties=False)

    def test_lightest_edges_restriction(self):
        g = sort_adjacency_by_weight(
            random_connected_graph(40, 110, seed=9, weight_high=50)
        )
        assert_backend_parity(
            g, 5, include_ties=False, lightest_edges=True, weight_sorted=True
        )
        assert_backend_parity(
            g, 5, include_ties=True, lightest_edges=True, weight_sorted=True
        )

    def test_tiny_slot_blocks(self):
        """Multi-block runs (scratch reset between blocks) stay exact."""
        g = random_connected_graph(30, 70, seed=10)
        sources = np.arange(g.n, dtype=np.int64)
        a = batched_ball_search(g, sources, 6)
        b = batched_ball_search(g, sources, 6, slot_block=4)
        for x, y in zip(a, b):
            assert_balls_equal(x, y)

    def test_subset_and_repeated_sources(self):
        g = random_connected_graph(30, 70, seed=13)
        sources = np.array([5, 5, 0, 29, 5], dtype=np.int64)
        balls = batched_ball_search(g, sources, 4)
        for s, got in zip(sources, balls):
            assert_balls_equal(ball_search(g, int(s), 4), got)

    def test_input_validation(self):
        from repro.preprocess import batched_radii

        g = path_graph(4)
        with pytest.raises(ValueError, match="out of range"):
            batched_ball_search(g, np.array([9]), 2)
        with pytest.raises(ValueError, match="rho"):
            batched_ball_search(g, np.array([0]), 0)
        with pytest.raises(ValueError, match="weight-sorted"):
            batched_ball_search(
                g if not g.is_unweighted else random_connected_graph(6, 8),
                np.array([0]),
                2,
                lightest_edges=True,
            )
        # every public batched entry point rejects bad sources the same way
        with pytest.raises(ValueError, match="out of range"):
            batched_radii(g, np.array([0, 7, 2]), (2,))
        with pytest.raises(ValueError, match="out of range"):
            batched_ball_trees(g, np.array([-2]), 2)


class TestRadiiParity:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: random_connected_graph(60, 150, seed=2, weight_high=40),
            lambda: grid_2d(8, 8),
            lambda: from_edge_list(6, [(0, 1, 1.0), (2, 3, 1.0)]),
        ],
    )
    def test_sweep_bit_identical(self, factory):
        g = factory()
        rhos = [1, 2, 5, 16, g.n + 5]
        table = scalar_radii(g, np.arange(g.n, dtype=np.int64), rhos)
        scalar = dict(zip(rhos, table.T))
        batched = compute_radii_sweep(g, rhos)
        for rho in rhos:
            assert np.array_equal(scalar[rho], batched[rho]), rho

    def test_njobs_slot_fanout(self):
        g = random_connected_graph(50, 120, seed=3)
        serial = compute_radii_sweep(g, [3, 8], n_jobs=1)
        fanned = compute_radii_sweep(g, [3, 8], n_jobs=3)
        for rho in (3, 8):
            assert np.array_equal(serial[rho], fanned[rho])


class TestTreeParity:
    @pytest.mark.parametrize("include_ties", [True, False])
    def test_batched_trees_match_per_ball_construction(self, include_ties):
        g = random_connected_graph(45, 110, seed=4, weight_high=20)
        sources = np.arange(g.n, dtype=np.int64)
        radii, trees = batched_ball_trees(
            g, sources, 8, include_ties=include_ties
        )
        for s, tree in zip(sources, trees):
            ball = ball_search(g, int(s), 8, include_ties=include_ties)
            ref = build_ball_tree(ball)
            assert radii[s] == ball.r_rho(8)
            assert tree.source == ref.source
            for field in (
                "vertices",
                "dist",
                "depth",
                "parent",
                "child_ptr",
                "child_idx",
            ):
                assert np.array_equal(
                    getattr(tree, field), getattr(ref, field)
                ), (s, field)


class TestPipelineParity:
    @pytest.mark.parametrize("heuristic", ["full", "greedy", "dp"])
    @pytest.mark.parametrize("include_ties", [True, False])
    def test_build_kr_graph_bit_identical(self, heuristic, include_ties):
        g = random_connected_graph(55, 130, seed=5, weight_high=25)
        a = scalar_kr_graph(
            g, 2, 7, heuristic=heuristic, include_ties=include_ties
        )
        b = build_kr_graph(g, 2, 7, heuristic=heuristic, include_ties=include_ties)
        assert a.graph == b.graph  # identical shortcut edge sets
        assert np.array_equal(a.radii, b.radii)
        assert a.added_edges == b.added_edges
        assert a.new_edges == b.new_edges


class TestCountParity:
    def test_shortcut_counts_identical_across_backends(self):
        from repro.preprocess import count_shortcuts_sweep

        g = random_connected_graph(50, 120, seed=14, weight_high=20)
        kwargs = dict(ks=[1, 2], rhos=[3, 6], heuristics=("greedy", "dp", "full"))
        a = scalar_shortcut_counts(g, **kwargs)
        b = count_shortcuts_sweep(g, **kwargs)
        assert a.totals == b.totals


class TestSortedAdjacencyCache:
    def test_cache_returns_same_object(self):
        g = random_connected_graph(20, 50, seed=7)
        assert sort_adjacency_by_weight(g) is sort_adjacency_by_weight(g)

    def test_cache_is_per_graph(self):
        g1 = random_connected_graph(20, 50, seed=8)
        g2 = random_connected_graph(20, 50, seed=9)
        assert sort_adjacency_by_weight(g1) is not sort_adjacency_by_weight(g2)

    def test_cache_evicts_on_collection(self):
        import gc

        from repro.preprocess.ball import _SORTED_CACHE

        g = random_connected_graph(15, 35, seed=10)
        sort_adjacency_by_weight(g)
        key = id(g)
        assert key in _SORTED_CACHE
        del g
        gc.collect()
        assert key not in _SORTED_CACHE


@given(
    n=st.integers(5, 34),
    seed=st.integers(0, 10**6),
    rho=st.integers(1, 14),
    weight_high=st.integers(1, 12),
    include_ties=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_batched_scalar_parity_property(n, seed, rho, weight_high, include_ties):
    """Property: full-field parity on random weighted graphs (small
    weights force heavy distance-tie classes, the hardest case for the
    (dist, hops, id) settle-order reconstruction)."""
    g = random_connected_graph(n, 2 * n, seed=seed, weight_high=weight_high)
    sources = np.arange(g.n, dtype=np.int64)
    batched = batched_ball_search(g, sources, rho, include_ties=include_ties)
    for s, got in zip(sources, batched):
        ref = ball_search(g, int(s), rho, include_ties=include_ties)
        assert_balls_equal(ref, got, ctx=f"n={n} seed={seed} s={s}")
