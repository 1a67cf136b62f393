"""Equivariance/invariance properties via graph transformations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dijkstra, radius_stepping
from repro.engine import solve_with_engine
from repro.graphs.generators import grid_2d, path_graph
from repro.graphs.transform import (
    permute_vertices,
    random_permutation,
    reverse_graph,
    scale_weights,
    to_bidirected,
)

from tests.helpers import random_connected_graph


class TestPermute:
    def test_preserves_sizes_and_degrees(self):
        g = random_connected_graph(30, 70, seed=0)
        perm = random_permutation(g.n, seed=1)
        h = permute_vertices(g, perm)
        assert (h.n, h.m) == (g.n, g.m)
        assert np.array_equal(h.degrees()[perm], g.degrees())

    def test_identity(self):
        g = grid_2d(4, 5)
        h = permute_vertices(g, np.arange(g.n))
        assert h == g

    def test_edges_relabeled(self):
        g = path_graph(4)
        perm = np.array([3, 1, 0, 2])
        h = permute_vertices(g, perm)
        for u, v, w in g.iter_edges():
            assert h.has_edge(int(perm[u]), int(perm[v]))
            assert h.edge_weight(int(perm[u]), int(perm[v])) == w

    def test_rejects_non_permutation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            permute_vertices(g, np.array([0, 0, 2]))
        with pytest.raises(ValueError):
            permute_vertices(g, np.array([0, 1]))

    @given(seed=st.integers(0, 10**4), pseed=st.integers(0, 10**4))
    @settings(max_examples=20, deadline=None)
    def test_solver_equivariance(self, seed, pseed):
        """d_new(perm[s], perm[v]) == d_old(s, v) for every solver."""
        g = random_connected_graph(20, 45, seed=seed, weight_high=9)
        perm = random_permutation(g.n, seed=pseed)
        h = permute_vertices(g, perm)
        s = 0
        ref = dijkstra(g, s).dist
        inv = np.empty_like(perm)
        inv[perm] = np.arange(g.n)
        assert np.allclose(dijkstra(h, int(perm[s])).dist[perm], ref)
        assert np.allclose(
            solve_with_engine("bellman-ford", h, int(perm[s])).dist[perm], ref
        )
        rng = np.random.default_rng(seed)
        radii = rng.uniform(0, 5, g.n)
        assert np.allclose(
            radius_stepping(h, int(perm[s]), radii[inv]).dist[perm], ref
        )


class TestPermuteDeterministicRows:
    def test_rows_sorted_by_new_head_id(self):
        """Within each relabeled row, arcs are sorted ascending by new
        head id — the canonical order every CSR builder produces — so a
        permuted graph is bit-identical to one rebuilt from scratch."""
        g = random_connected_graph(40, 90, seed=11)
        perm = random_permutation(g.n, seed=12)
        h = permute_vertices(g, perm)
        for v in range(h.n):
            row = h.indices[h.indptr[v] : h.indptr[v + 1]]
            assert np.all(np.diff(row) >= 0), f"row {v} not head-sorted"

    def test_round_trip_bit_identical(self):
        """permute then un-permute restores the exact original arrays —
        only true when the row order is canonical, not heap order."""
        g = random_connected_graph(35, 80, seed=13)
        perm = random_permutation(g.n, seed=14)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(g.n)
        back = permute_vertices(permute_vertices(g, perm), inv)
        assert np.array_equal(back.indptr, g.indptr)
        assert np.array_equal(back.indices, g.indices)
        assert np.array_equal(back.weights, g.weights)

    def test_content_hash_stable_across_equivalent_perms(self):
        """Two routes to the same numbering give the same content hash."""
        g = random_connected_graph(25, 55, seed=15)
        perm = random_permutation(g.n, seed=16)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(g.n)
        h1 = permute_vertices(g, perm)
        h2 = permute_vertices(permute_vertices(h1, inv), perm)
        assert h1.content_hash() == h2.content_hash()


class TestReverseGraph:
    def test_symmetric_graph_fixed_point(self):
        """Our builders store undirected graphs symmetrically, so
        reversal is the identity on them."""
        g = random_connected_graph(30, 70, seed=20)
        assert reverse_graph(g) == g

    def test_directed_arcs_flip(self):
        from repro.graphs.build import from_arc_arrays

        tails = np.array([0, 0, 1, 2], dtype=np.int64)
        heads = np.array([1, 2, 2, 3], dtype=np.int64)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        g = from_arc_arrays(4, tails, heads, w, symmetrize=False, validate=False)
        r = reverse_graph(g)
        assert (r.n, r.num_arcs) == (g.n, g.num_arcs)
        for t, h, wt in zip(tails, heads, w):
            assert r.edge_weight(int(h), int(t)) == wt

    def test_involution(self):
        from repro.graphs.build import from_arc_arrays

        rng = np.random.default_rng(21)
        tails = rng.integers(0, 12, 40).astype(np.int64)
        heads = (tails + rng.integers(1, 11, 40)) % 12
        w = rng.uniform(0.1, 5.0, 40)
        g = from_arc_arrays(12, tails, heads, w, symmetrize=False, validate=False)
        rr = reverse_graph(reverse_graph(g))
        assert np.array_equal(rr.indptr, g.indptr)
        assert np.array_equal(rr.indices, g.indices)
        assert np.array_equal(rr.weights, g.weights)


class TestToBidirected:
    def test_symmetric_graph_unchanged(self):
        g = random_connected_graph(30, 70, seed=22)
        assert to_bidirected(g) == g

    def test_directed_arc_becomes_edge(self):
        from repro.graphs.build import from_arc_arrays

        g = from_arc_arrays(
            3,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            np.array([5.0, 7.0]),
            symmetrize=False,
            validate=False,
        )
        b = to_bidirected(g)
        assert b.has_edge(1, 0) and b.has_edge(2, 1)
        assert b.edge_weight(1, 0) == 5.0

    def test_antiparallel_pair_keeps_min_weight(self):
        from repro.graphs.build import from_arc_arrays

        g = from_arc_arrays(
            2,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            np.array([9.0, 2.0]),
            symmetrize=False,
            validate=False,
        )
        b = to_bidirected(g)
        assert b.edge_weight(0, 1) == 2.0
        assert b.edge_weight(1, 0) == 2.0


class TestScaleWeights:
    def test_distances_scale(self):
        g = random_connected_graph(25, 60, seed=2)
        ref = dijkstra(g, 0).dist
        h = scale_weights(g, 3.5)
        assert np.allclose(dijkstra(h, 0).dist, 3.5 * ref)

    def test_steps_invariant_when_radii_scale(self):
        """Scaling weights and radii together leaves the d_i sequence —
        hence the step count — unchanged."""
        g = random_connected_graph(25, 60, seed=3, weight_high=20)
        rng = np.random.default_rng(3)
        radii = rng.uniform(0, 10, g.n)
        a = radius_stepping(g, 0, radii)
        b = radius_stepping(scale_weights(g, 7.0), 0, radii * 7.0)
        assert a.steps == b.steps
        assert np.allclose(b.dist, 7.0 * a.dist)

    def test_rejects_bad_factor(self):
        g = path_graph(3)
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                scale_weights(g, bad)

    def test_rejects_negative_and_nan_regression(self):
        """Regression: a negative factor must never flip the metric and
        NaN must never poison the weights — both raise, nothing is
        returned."""
        g = random_connected_graph(10, 20, seed=4)
        with pytest.raises(ValueError, match="positive and finite"):
            scale_weights(g, -2.5)
        with pytest.raises(ValueError, match="positive and finite"):
            scale_weights(g, np.nan)
        # the input graph was not mutated by the failed calls
        assert np.all(g.weights > 0)

    def test_rejects_bool_factor(self):
        """bool is an int subclass: True would silently scale by 1."""
        g = path_graph(3)
        with pytest.raises(TypeError, match="bool"):
            scale_weights(g, True)
        with pytest.raises(TypeError, match="bool"):
            scale_weights(g, np.True_)

    def test_rejects_array_factor(self):
        """A per-edge array factor would desynchronize weights from the
        arc list; only real scalars are accepted."""
        g = path_graph(3)
        with pytest.raises(TypeError):
            scale_weights(g, np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            scale_weights(g, [2.0])
        # 0-d / shape-(1,) arrays are genuine scalars — accepted
        assert scale_weights(g, np.float64(2.0)).edge_weight(0, 1) == 2.0
