"""Unit tests for the shared relaxation kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import RelaxationKernel, gather_frontier_arcs
from repro.graphs import from_edge_list
from repro.graphs.csr import CSRGraph

from tests.helpers import random_connected_graph


class TestRelax:
    def test_source_relax_improves_neighbors(self):
        g = from_edge_list(4, [(0, 1, 2.0), (0, 2, 5.0), (2, 3, 1.0)])
        k = RelaxationKernel(g, 0)
        improved = k.relax_source(0)
        assert improved.tolist() == [1, 2]
        assert k.dist.tolist() == [0.0, 2.0, 5.0, np.inf]
        assert k.relaxations == g.degree(0)

    def test_exclude_settled_filters_arcs(self):
        g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        k = RelaxationKernel(g, 0)
        k.relax_source(0)
        # arcs back into the settled source are dropped
        improved, n_arcs = k.relax(np.array([1]), exclude_settled=True)
        assert n_arcs == 1
        assert improved.tolist() == [2]

    def test_arc_mask(self):
        g = from_edge_list(3, [(0, 1, 1.0), (0, 2, 10.0)])
        k = RelaxationKernel(g, 0)
        light = g.weights <= 5.0
        improved, n_arcs = k.relax(
            np.array([0]), exclude_settled=False, arc_mask=light
        )
        assert improved.tolist() == [1]
        assert n_arcs == 1
        assert np.isinf(k.dist[2])

    def test_quiescence_returns_zero_arcs(self):
        g = from_edge_list(2, [(0, 1, 1.0)])
        k = RelaxationKernel(g, 0)
        k.relax_source(0)
        k.settle(np.array([1]))
        improved, n_arcs = k.relax(np.array([1]), exclude_settled=True)
        assert n_arcs == 0 and len(improved) == 0

    def test_bad_source(self):
        with pytest.raises(ValueError):
            RelaxationKernel(from_edge_list(2, [(0, 1, 1.0)]), 5)

    def test_bool_source_is_not_a_mask(self):
        """``dist[True] = 0.0`` would zero every entry, and ``True`` is
        not vertex 1 either: a bool or float source is rejected."""
        g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        for bad in (True, np.True_, 1.0):
            with pytest.raises(TypeError, match="source"):
                RelaxationKernel(g, bad)


class TestParentTracking:
    def test_tie_does_not_rewrite_parent(self):
        """Regression: an arc that merely *ties* a pre-existing distance
        must not steal the parent of an already-correct vertex (the seed
        engines compared against post-scatter distances, so it did)."""
        g = from_edge_list(3, [(0, 1, 1.0), (0, 2, 2.0), (1, 2, 1.0)])
        k = RelaxationKernel(g, 0, track_parents=True)
        k.relax_source(0)
        assert k.parent.tolist() == [-1, 0, 0]
        # relaxing 1 offers 2 a tying path 0->1->2 of the same weight 2
        improved, _ = k.relax(np.array([1]), exclude_settled=True)
        assert len(improved) == 0
        assert k.parent[2] == 0, "non-improving arc rewrote the parent"

    def test_improvement_does_rewrite_parent(self):
        g = from_edge_list(3, [(0, 1, 1.0), (0, 2, 5.0), (1, 2, 1.0)])
        k = RelaxationKernel(g, 0, track_parents=True)
        k.relax_source(0)
        k.relax(np.array([1]), exclude_settled=True)
        assert k.dist[2] == 2.0
        assert k.parent[2] == 1

    def test_zero_weight_tie_cycle_impossible(self):
        """With strict-improvement wins, zero-weight ties cannot create a
        parent cycle."""
        g = from_edge_list(3, [(0, 1, 0.0), (1, 2, 0.0), (0, 2, 0.0)])
        k = RelaxationKernel(g, 0, track_parents=True)
        frontier = k.relax_source(0)
        while len(frontier):
            frontier, _ = k.relax(frontier, exclude_settled=True)
        # follow parents from every vertex; must terminate at the source
        for v in range(3):
            seen = set()
            while v != 0:
                assert v not in seen, "parent cycle"
                seen.add(v)
                v = int(k.parent[v])


class TestGatherReExport:
    def test_core_bfs_reexports_kernel_gather(self):
        from repro.core.bfs import gather_frontier_arcs as legacy

        assert legacy is gather_frontier_arcs


# --------------------------------------------------------------------- #
# Spec on random input: multigraphs with parallel arcs and zero weights,
# arbitrary tentative distances, settled sets and frontiers.
# --------------------------------------------------------------------- #
@st.composite
def kernel_states(draw):
    n = draw(st.integers(1, 9))
    vertex = st.integers(0, n - 1)
    edges = draw(
        st.lists(
            st.tuples(vertex, vertex, st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0])),
            max_size=24,
        )
    )
    # both arcs of every edge, parallel arcs kept, self loops dropped
    arcs = sorted(
        (a, b, w) for u, v, w in edges if u != v for a, b in ((u, v), (v, u))
    )
    counts = np.bincount([a for a, _, _ in arcs], minlength=n)
    graph = CSRGraph(
        np.concatenate([[0], np.cumsum(counts)]),
        np.array([b for _, b, _ in arcs], dtype=np.int64),
        np.array([w for _, _, w in arcs], dtype=np.float64),
        validate=False,
    )
    dist = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 3.5, 5.0, 8.0, math.inf]),
            min_size=n,
            max_size=n,
        )
    )
    settled = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    frontier = draw(st.lists(vertex, unique=True))
    mask = draw(
        st.none()
        | st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs))
    )
    return graph, dist, settled, frontier, mask


@given(
    state=kernel_states(),
    exclude_settled=st.booleans(),
    track_parents=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_relax_spec(state, exclude_settled, track_parents):
    """``relax`` returns exactly the sorted, distinct vertices whose
    ``dist`` strictly dropped, counts exactly the filtered arcs, lowers
    each head to its best candidate, and hands a parent only to a tail
    whose arc realizes the new distance."""
    graph, dist, settled, frontier, mask = state
    kernel = RelaxationKernel(graph, 0, track_parents=track_parents)
    kernel.dist[:] = dist
    kernel.settled[:] = settled
    before = kernel.dist.copy()
    parent_before = None if kernel.parent is None else kernel.parent.copy()
    arc_mask = None if mask is None else np.array(mask, dtype=bool)

    improved, n_arcs = kernel.relax(
        np.array(frontier, dtype=np.int64),
        exclude_settled=exclude_settled,
        arc_mask=arc_mask,
    )

    kept = [
        (u, int(graph.indices[a]), float(graph.weights[a]))
        for u in frontier
        for a in range(graph.indptr[u], graph.indptr[u + 1])
        if (arc_mask is None or arc_mask[a])
        and not (exclude_settled and settled[graph.indices[a]])
    ]
    assert n_arcs == len(kept)
    want = before.copy()
    for u, v, w in kept:
        want[v] = min(want[v], before[u] + w)
    assert np.array_equal(kernel.dist, want)
    dropped = np.flatnonzero(kernel.dist < before)
    assert improved.tolist() == dropped.tolist()
    if track_parents:
        moved = np.flatnonzero(kernel.parent != parent_before)
        assert set(moved.tolist()) <= set(dropped.tolist())
        for v in dropped.tolist():
            u = int(kernel.parent[v])
            assert any(
                t == u and h == v and before[u] + w == kernel.dist[v]
                for t, h, w in kept
            )


int64s = st.lists(
    st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1), max_size=40
)


@given(values=int64s)
@settings(max_examples=200, deadline=None)
def test_unique_matches_numpy(values):
    """The hash-free dedup equals ``np.unique`` value for value and in
    dtype, on empty and length-1 input too, and leaves its input alone."""
    arr = np.array(values, dtype=np.int64)
    copy = arr.copy()
    got = RelaxationKernel.unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(arr, copy)
