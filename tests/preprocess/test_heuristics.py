"""Unit + property tests for the greedy and DP shortcut heuristics."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import greedy_bad_tree, grid_2d, path_graph
from repro.preprocess import (
    ball_search,
    build_ball_tree,
    dp_count,
    dp_select,
    dp_table,
    full_select,
    greedy_count,
    greedy_select,
)

from tests.helpers import random_connected_graph


def make_tree(graph, source, rho, **kw):
    return build_ball_tree(ball_search(graph, source, rho, **kw))


def covered_within_k(tree, selected, k) -> bool:
    """Check the (k,ρ)-ball property: every tree node within k hops of the
    source using tree edges + shortcuts from the source."""
    hop = np.full(len(tree), np.iinfo(np.int64).max)
    hop[0] = 0
    sel = set(int(s) for s in selected)
    for i in range(1, len(tree)):
        via_parent = hop[tree.parent[i]] + 1
        hop[i] = 1 if i in sel else via_parent
    return bool((hop <= k).all())


class TestGreedy:
    def test_selects_depth_ki_plus_1(self):
        tree = make_tree(path_graph(12), 0, 12)
        sel = greedy_select(tree, 3)
        assert tree.depth[sel].tolist() == [4, 7, 10]

    def test_count_matches_select(self):
        g = random_connected_graph(50, 120, seed=0)
        tree = make_tree(g, 0, 30)
        for k in (1, 2, 3, 4):
            assert greedy_count(tree, k) == len(greedy_select(tree, k))

    def test_coverage(self):
        g = random_connected_graph(60, 130, seed=1)
        tree = make_tree(g, 0, 40)
        for k in (1, 2, 3):
            assert covered_within_k(tree, greedy_select(tree, k), k)

    def test_shallow_tree_needs_nothing(self):
        tree = make_tree(grid_2d(3, 3), 4, 9)  # depth <= 2
        assert greedy_count(tree, 2) == 0

    def test_invalid_k(self):
        tree = make_tree(path_graph(3), 0, 3)
        with pytest.raises(ValueError):
            greedy_count(tree, 0)
        with pytest.raises(ValueError):
            greedy_select(tree, 0)


class TestDP:
    def test_count_matches_select(self):
        g = random_connected_graph(50, 120, seed=2)
        tree = make_tree(g, 0, 30)
        for k in (1, 2, 3, 4):
            assert dp_count(tree, k) == len(dp_select(tree, k))

    def test_coverage(self):
        g = random_connected_graph(60, 130, seed=3)
        tree = make_tree(g, 0, 40)
        for k in (1, 2, 3):
            assert covered_within_k(tree, dp_select(tree, k), k)

    def test_never_worse_than_greedy(self):
        for seed in range(5):
            g = random_connected_graph(60, 140, seed=seed)
            tree = make_tree(g, 0, 35)
            for k in (1, 2, 3, 4):
                assert dp_count(tree, k) <= greedy_count(tree, k)

    def test_adversarial_tree(self):
        """§4.2.1's example: greedy adds ~leaves edges, DP adds one."""
        g = greedy_bad_tree(k=3, leaves=25)
        tree = make_tree(g, 0, g.n)
        assert greedy_count(tree, 3) == 25
        assert dp_count(tree, 3) == 1
        sel = dp_select(tree, 3)
        assert len(sel) == 1
        assert tree.depth[sel[0]] <= 3

    def test_chain(self):
        """Chain of length L needs ceil((L-k)/k) shortcuts for k-hop cover
        ... DP must match the closed form."""
        for L, k in [(10, 2), (10, 3), (7, 1), (12, 4)]:
            tree = make_tree(path_graph(L + 1), 0, L + 1)
            expect = max(0, -(-(L - k) // k))  # ceil((L-k)/k)
            assert dp_count(tree, k) == expect

    def test_select_realizes_count_optimum(self):
        """Regression pin for the dead child_sum1 removal: on every
        family, dp_select must still emit exactly dp_count's optimum
        number of shortcuts, and they must cover within k."""
        graphs = [
            path_graph(20),
            grid_2d(6, 6),
            greedy_bad_tree(k=3, leaves=15),
            random_connected_graph(50, 120, seed=9),
            random_connected_graph(50, 120, seed=10, weight_high=2),
        ]
        for g in graphs:
            tree = make_tree(g, 0, min(30, g.n))
            for k in (1, 2, 3, 4):
                sel = dp_select(tree, k)
                assert len(sel) == dp_count(tree, k)
                assert covered_within_k(tree, sel, k)

    def test_table_shape_and_row0(self):
        tree = make_tree(path_graph(5), 0, 5)
        F = dp_table(tree, 2)
        assert F.shape == (5, 3)
        assert (F[0] == 0).all()

    def test_invalid_k(self):
        tree = make_tree(path_graph(3), 0, 3)
        with pytest.raises(ValueError):
            dp_count(tree, 0)


class TestDPOptimality:
    """DP vs exhaustive search over all shortcut subsets on small trees."""

    @staticmethod
    def brute_force_optimum(tree, k) -> int:
        nodes = list(range(1, len(tree)))
        for size in range(0, len(nodes) + 1):
            for subset in itertools.combinations(nodes, size):
                if covered_within_k(tree, subset, k):
                    return size
        return len(nodes)

    @given(n=st.integers(4, 12), seed=st.integers(0, 10**5), k=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force(self, n, seed, k):
        g = random_connected_graph(n, int(1.5 * n), seed=seed, weight_high=6)
        tree = make_tree(g, 0, n)
        assert dp_count(tree, k) == self.brute_force_optimum(tree, k)


class TestFullSelect:
    def test_selects_depth_ge_2(self):
        g = random_connected_graph(40, 90, seed=4)
        tree = make_tree(g, 0, 25)
        sel = full_select(tree)
        assert set(sel.tolist()) == set(np.flatnonzero(tree.depth >= 2).tolist())

    def test_coverage_k1(self):
        g = random_connected_graph(40, 90, seed=5)
        tree = make_tree(g, 0, 25)
        assert covered_within_k(tree, full_select(tree), 1)

    def test_invalid_k(self):
        tree = make_tree(path_graph(3), 0, 3)
        with pytest.raises(ValueError):
            full_select(tree, 0)


class TestHeuristicTable:
    """One name table, the production engine's: every entry point checks
    names against ``select_batched.HEURISTIC_RULES``."""

    def test_scalar_walkers_cover_the_same_names(self):
        from repro.preprocess.scalar import HEURISTICS
        from repro.preprocess.select_batched import HEURISTIC_RULES

        assert HEURISTICS.keys() == HEURISTIC_RULES.keys()

    @pytest.mark.parametrize(
        "entry",
        ["build_kr_graph", "batched_select", "scalar_select", "count_shortcuts_sweep"],
    )
    def test_unknown_name_rejected_alike(self, entry):
        from repro.preprocess import (
            batched_select,
            build_kr_graph,
            count_shortcuts_sweep,
            scalar_select,
        )

        g = path_graph(5)
        sources = np.arange(g.n)
        call = {
            "build_kr_graph": lambda: build_kr_graph(g, 2, 3, heuristic="nope"),
            "batched_select": lambda: batched_select(g, sources, 3, 2, "nope"),
            "scalar_select": lambda: scalar_select(g, sources, 3, 2, "nope"),
            "count_shortcuts_sweep": lambda: count_shortcuts_sweep(
                g, ks=(2,), rhos=(3,), heuristics=("dp", "nope")
            ),
        }[entry]
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "unknown heuristic 'nope'; try ['dp', 'full', 'greedy']"
