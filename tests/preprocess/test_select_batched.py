"""Parity + property tests for the forest-level selection engine.

The engine (`repro.preprocess.select_batched`) must reproduce the
per-tree walkers (`dp_select` / `greedy_select` / `full_select`) bit for
bit on every tree of every block — same selections, same ordering, same
dtypes — across all generator families, ρ-prefix sizes, zero-weight tie
classes, and ρ ≥ n, and the selections themselves must satisfy the
(k,ρ)-ball covering invariant they exist to establish.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.build import from_edge_list
from repro.graphs.generators import (
    greedy_bad_tree,
    grid_2d,
    path_graph,
    road_network,
    scale_free,
)
from repro.graphs.weights import random_integer_weights
from repro.preprocess import (
    ball_search,
    batched_select,
    batched_tree_block,
    block_from_trees,
    build_ball_tree,
    build_kr_graph,
    count_shortcuts_sweep,
    dp_count,
    dp_select,
    dp_table,
    forest_counts,
    forest_dp_tables,
    forest_select,
    forest_shortcuts,
    full_count,
    full_select,
    greedy_count,
    greedy_select,
    scalar_select,
    scalar_tree_block,
)

from tests.helpers import (
    random_connected_graph,
    scalar_kr_graph,
    scalar_shortcut_counts,
)

HEURISTIC_FNS = {
    "dp": (dp_select, dp_count),
    "greedy": (greedy_select, greedy_count),
    "full": (full_select, full_count),
}


def zero_weight_tie_graph():
    return from_edge_list(
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


def family_graphs():
    """One representative per generator family, ties included."""
    road, _ = road_network(120, seed=3)
    return {
        "path": path_graph(24),
        "grid": grid_2d(7, 7),
        "road": random_integer_weights(road, low=1, high=100, seed=4),
        "web": scale_free(100, attach=3, seed=9),
        "greedy_bad": greedy_bad_tree(k=3, leaves=12),
        "random": random_connected_graph(60, 150, seed=5),
        "tie_heavy": random_integer_weights(grid_2d(6, 6), low=1, high=2, seed=1),
        "zero_ties": zero_weight_tie_graph(),
    }


def scalar_block(graph, rho, *, include_ties=True):
    """Trees via the scalar reference route, stacked into a block."""
    trees = [
        build_ball_tree(
            ball_search(graph, s, rho, include_ties=include_ties)
        )
        for s in range(graph.n)
    ]
    return trees, block_from_trees(trees)


class TestForestParity:
    """Forest engine vs per-tree walkers, bit for bit."""

    @pytest.mark.parametrize("name", sorted(family_graphs()))
    @pytest.mark.parametrize("heuristic", ["dp", "greedy", "full"])
    def test_families(self, name, heuristic):
        g = family_graphs()[name]
        select, count = HEURISTIC_FNS[heuristic]
        for rho in (3, 8, g.n + 7):  # includes rho >= n
            trees, blk = scalar_block(g, rho)
            for k in (1, 2, 3):
                sels = forest_select(blk, heuristic, k)
                counts = forest_counts(blk, heuristic, k)
                assert len(sels) == len(trees)
                for i, tree in enumerate(trees):
                    ref = select(tree, k)
                    assert sels[i].dtype == ref.dtype
                    assert np.array_equal(ref, sels[i])
                    assert counts[i] == count(tree, k)

    def test_dp_tables_match_scalar(self):
        g = random_connected_graph(50, 120, seed=7)
        trees, blk = scalar_block(g, 12)
        for k in (1, 3):
            F, child_sum = forest_dp_tables(blk, k)
            assert F.shape == (len(blk), k + 1)
            for i, tree in enumerate(trees):
                lo, hi = blk.offsets[i], blk.offsets[i + 1]
                assert np.array_equal(dp_table(tree, k), F[lo:hi])

    def test_rho_prefix_sizes(self):
        """Selections on every prefix trim equal per-prefix tree walks."""
        g = random_integer_weights(grid_2d(8, 8), low=1, high=3, seed=2)
        balls = [ball_search(g, s, 20) for s in range(g.n)]
        trees = [build_ball_tree(b) for b in balls]
        blk = block_from_trees(trees)
        for rho in (1, 2, 5, 13):
            sizes = np.array([b.prefix_size(rho) for b in balls])
            sub = blk.trim(sizes)
            for k in (1, 2):
                sels = forest_select(sub, "dp", k)
                for i, ball in enumerate(balls):
                    ref = dp_select(build_ball_tree(ball, int(sizes[i])), k)
                    assert np.array_equal(ref, sels[i])

    def test_shortcut_triples_order(self):
        """forest_shortcuts equals the scalar per-tree concatenation."""
        g = random_connected_graph(40, 100, seed=11)
        trees, blk = scalar_block(g, 9)
        for heuristic in ("dp", "greedy", "full"):
            src, dst, w = forest_shortcuts(blk, heuristic, 2)
            srcs, dsts, ws = [], [], []
            for tree in trees:
                chosen = HEURISTIC_FNS[heuristic][0](tree, 2)
                srcs.append(np.full(len(chosen), tree.source, dtype=np.int64))
                dsts.append(tree.vertices[chosen])
                ws.append(tree.dist[chosen])
            assert np.array_equal(src, np.concatenate(srcs))
            assert np.array_equal(dst, np.concatenate(dsts))
            assert np.array_equal(w, np.concatenate(ws))

    def test_validation(self):
        _, blk = scalar_block(path_graph(5), 5)
        with pytest.raises(ValueError):
            forest_select(blk, "nope", 2)
        with pytest.raises(ValueError):
            forest_counts(blk, "nope", 2)
        with pytest.raises(ValueError):
            forest_select(blk, "dp", 0)
        with pytest.raises(ValueError):
            forest_counts(blk, "greedy", 0)

    def test_empty_block(self):
        blk = block_from_trees([])
        for heuristic in ("dp", "greedy", "full"):
            assert forest_select(blk, heuristic, 2) == []
            assert len(forest_counts(blk, heuristic, 2)) == 0
            src, dst, w = forest_shortcuts(blk, heuristic, 2)
            assert len(src) == len(dst) == len(w) == 0
        with pytest.raises(ValueError):
            forest_select(blk, "nope", 2)


class TestTreeBlock:
    def test_roundtrip(self):
        g = random_connected_graph(30, 70, seed=3)
        trees, blk = scalar_block(g, 8)
        assert blk.num_trees == len(trees)
        assert len(blk) == sum(len(t) for t in trees)
        for i in range(len(trees)):
            t0, t1 = trees[i], blk.tree(i)
            for f in ("vertices", "dist", "depth", "parent", "child_ptr", "child_idx"):
                assert np.array_equal(getattr(t0, f), getattr(t1, f))
            assert t0.source == t1.source

    def test_trim_matches_prefix_trees(self):
        g = random_connected_graph(30, 70, seed=4)
        balls = [ball_search(g, s, 12) for s in range(g.n)]
        blk = block_from_trees([build_ball_tree(b) for b in balls])
        sizes = np.maximum(1, blk.sizes() // 2)
        sub = blk.trim(sizes)
        for i, ball in enumerate(balls):
            ref = build_ball_tree(ball, int(sizes[i]))
            got = sub.tree(i)
            for f in ("vertices", "dist", "depth", "parent", "child_ptr", "child_idx"):
                assert np.array_equal(getattr(ref, f), getattr(got, f))

    def test_trim_validation(self):
        _, blk = scalar_block(path_graph(6), 6)
        with pytest.raises(ValueError):
            blk.trim(np.zeros(blk.num_trees, dtype=np.int64))
        with pytest.raises(ValueError):
            blk.trim(blk.sizes() + 1)
        with pytest.raises(ValueError):
            blk.trim(np.ones(blk.num_trees + 1, dtype=np.int64))

    @pytest.mark.parametrize("include_ties", [True, False])
    def test_batched_block_matches_scalar_route(self, include_ties):
        """batched_tree_block (direct slot-engine emission, multi-block)
        equals ball_search + build_ball_tree + block_from_trees."""
        g = random_integer_weights(grid_2d(7, 7), low=1, high=3, seed=6)
        sources = np.arange(g.n, dtype=np.int64)
        radii, blk = batched_tree_block(
            g, sources, 9, include_ties=include_ties, slot_block=11
        )
        trees = [
            build_ball_tree(
                ball_search(g, int(s), 9, include_ties=include_ties)
            )
            for s in sources
        ]
        ref = block_from_trees(trees)
        for f in ("sources", "offsets", "vertices", "dist", "depth", "parent"):
            assert np.array_equal(getattr(ref, f), getattr(blk, f))
        expect_radii = [
            ball_search(g, int(s), 9).r_rho(9) for s in sources
        ]
        assert np.array_equal(radii, np.array(expect_radii))


class TestBackendSelectDispatch:
    """The scalar reference against the batched engine, entry point by
    entry point."""

    @pytest.mark.parametrize("heuristic", ["dp", "greedy", "full"])
    @pytest.mark.parametrize("include_ties", [True, False])
    def test_compute_shortcuts_parity(self, heuristic, include_ties):
        g = random_connected_graph(70, 180, seed=8)
        sources = np.arange(g.n, dtype=np.int64)
        out_s = scalar_select(
            g, sources, 7, 2, heuristic, include_ties=include_ties
        )
        out_b = batched_select(
            g, sources, 7, 2, heuristic, include_ties=include_ties
        )
        for a, b in zip(out_s, out_b):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_compute_shortcuts_unknown_heuristic(self):
        g = path_graph(5)
        for select in (scalar_select, batched_select):
            with pytest.raises(ValueError):
                select(g, np.arange(g.n), 3, 2, "nope")

    def test_compute_tree_block_parity(self):
        g = random_connected_graph(40, 90, seed=9)
        sources = np.arange(g.n, dtype=np.int64)
        r_s, blk_s = scalar_tree_block(g, sources, 6)
        r_b, blk_b = batched_tree_block(g, sources, 6)
        assert np.array_equal(r_s, r_b)
        for f in ("sources", "offsets", "vertices", "dist", "depth", "parent"):
            assert np.array_equal(getattr(blk_s, f), getattr(blk_b, f))

    @pytest.mark.parametrize("heuristic", ["dp", "greedy", "full"])
    def test_build_kr_graph_backend_parity(self, heuristic):
        """End-to-end: the pipeline equals the scalar per-tree walk route
        on every output."""
        g = family_graphs()["tie_heavy"]
        k = 1 if heuristic == "full" else 3
        pre_s = scalar_kr_graph(g, k, 8, heuristic=heuristic)
        pre_b = build_kr_graph(g, k, 8, heuristic=heuristic)
        assert pre_s.graph == pre_b.graph
        assert np.array_equal(pre_s.radii, pre_b.radii)
        assert pre_s.added_edges == pre_b.added_edges
        assert pre_s.new_edges == pre_b.new_edges

    def test_batched_select_empty_sources(self):
        g = path_graph(6)
        radii, src, dst, w = batched_select(
            g, np.empty(0, dtype=np.int64), 3, 2, "dp"
        )
        assert len(radii) == len(src) == len(dst) == len(w) == 0

    def test_batched_select_validates_before_searching(self):
        g = path_graph(6)
        with pytest.raises(ValueError):
            batched_select(g, np.arange(g.n), 3, 2, "nope")
        with pytest.raises(ValueError):
            batched_select(g, np.arange(g.n), 3, 0, "dp")


class TestCountSweepParity:
    """The reworked count sweep (forest counts + hoisted full rule)."""

    @pytest.mark.parametrize("include_ties", [True, False])
    def test_matches_per_tree_reference(self, include_ties):
        g = random_integer_weights(grid_2d(7, 7), low=1, high=2, seed=3)
        ks, rhos = (1, 2, 3), (2, 6, 12)
        counts = count_shortcuts_sweep(
            g,
            ks=ks,
            rhos=rhos,
            heuristics=("greedy", "dp", "full"),
            include_ties=include_ties,
        )
        # Independent reference: the pre-forest per-tree walk.
        rho_max = max(rhos)
        expect = {
            h: {(k, r): 0 for k in ks for r in rhos}
            for h in ("greedy", "dp", "full")
        }
        for s in range(g.n):
            ball = ball_search(g, s, rho_max, include_ties=include_ties)
            for rho in rhos:
                t = (
                    ball.prefix_size(rho)
                    if include_ties
                    else min(rho, len(ball))
                )
                tree = build_ball_tree(ball, t)
                for k in ks:
                    expect["greedy"][(k, rho)] += greedy_count(tree, k)
                    expect["dp"][(k, rho)] += dp_count(tree, k)
                    expect["full"][(k, rho)] += full_count(tree)
        for h in expect:
            for key in expect[h]:
                assert counts.totals[h][key] == expect[h][key], (h, key)

    def test_scalar_backend_route(self):
        g = grid_2d(6, 6)
        a = scalar_shortcut_counts(g, ks=(2,), rhos=(5, 9))
        b = count_shortcuts_sweep(g, ks=(2,), rhos=(5, 9))
        assert a.totals == b.totals


def covered_within_k(tree, selected, k) -> bool:
    """(k,ρ)-ball property: every tree node within k hops of the source
    using tree edges + the selected source shortcuts."""
    hop = np.full(len(tree), np.iinfo(np.int64).max)
    hop[0] = 0
    sel = set(int(s) for s in selected)
    for i in range(1, len(tree)):
        hop[i] = 1 if i in sel else hop[tree.parent[i]] + 1
    return bool((hop <= k).all())


class TestCoverageInvariant:
    @pytest.mark.parametrize("heuristic", ["dp", "greedy", "full"])
    def test_selected_shortcuts_cover(self, heuristic):
        """Applying the engine's selections brings every ball node within
        k hops of its source — on every family, every tree."""
        for name, g in family_graphs().items():
            trees, blk = scalar_block(g, 10)
            for k in (1, 2, 3):
                eff_k = 1 if heuristic == "full" else k
                sels = forest_select(blk, heuristic, k)
                for i, tree in enumerate(trees):
                    assert covered_within_k(tree, sels[i], eff_k), (
                        name,
                        heuristic,
                        k,
                        i,
                    )


@given(
    n=st.integers(6, 40),
    seed=st.integers(0, 10**6),
    rho=st.integers(1, 50),
    k=st.integers(1, 4),
    weight_high=st.integers(1, 3),
    include_ties=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_batched_select_property(n, seed, rho, k, weight_high, include_ties):
    """Random graphs, tiny weight ranges (heavy tie classes), random
    (k, ρ): the fused batched selection path stays bit-identical to the
    scalar walkers end to end."""
    g = random_connected_graph(
        n, int(1.8 * n), seed=seed, weight_high=weight_high
    )
    sources = np.arange(g.n, dtype=np.int64)
    for heuristic in ("dp", "greedy", "full"):
        got = batched_select(
            g, sources, rho, k, heuristic, include_ties=include_ties,
            slot_block=7,
        )
        ref = scalar_select(
            g, sources, rho, k, heuristic, include_ties=include_ties
        )
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)
