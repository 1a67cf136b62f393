"""Engine-parity suite: every registered engine, one ground truth.

The registry's whole promise is that any engine answers any query with
exact distances.  This suite runs every registered engine over a graph
gauntlet — random weighted, disconnected, single-vertex, zero-weight
edges, infinite radii — and compares against the sequential Dijkstra
oracle and SciPy, in the style of ``tests/test_scipy_reference.py``.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.core import dijkstra, dijkstra_minhop, radius_stepping_bst
from repro.engine import (
    DeltaSchedule,
    DeltaStarSchedule,
    RadiusBucketSchedule,
    RelaxationKernel,
    RhoSchedule,
    available_engines,
    get_engine,
    register_engine,
    run_engine,
    solve_with_engine,
    suggest_delta,
)
from repro.graphs import from_edge_list, unit_weights
from repro.graphs.build import from_arc_arrays
from repro.graphs.generators import (
    erdos_renyi,
    grid_2d,
    path_graph,
    road_network,
    scale_free,
    small_world,
    star_graph,
)
from repro.graphs.weights import random_integer_weights, uniform_weights
from repro.preprocess import build_kr_graph

from tests.helpers import assert_valid_parents, random_connected_graph

ALL_ENGINES = available_engines()
PARENT_ENGINES = tuple(e for e in ALL_ENGINES if get_engine(e).supports_parents)


def scipy_dist(graph, source):
    mat = csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(graph.n, graph.n)
    )
    return scipy_dijkstra(mat, directed=False, indices=source)


@pytest.fixture(scope="module")
def weighted_case():
    g = random_connected_graph(60, 150, seed=11, weight_high=40)
    pre = build_kr_graph(g, k=2, rho=10, heuristic="dp")
    return pre.graph, pre.radii, scipy_dist(g, 0)


class TestDistanceParity:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_weighted_kr_graph(self, engine, weighted_case):
        graph, radii, ref = weighted_case
        res = solve_with_engine(engine, graph, 0, radii)
        assert np.allclose(res.dist, ref, equal_nan=True)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_unit_grid(self, engine):
        g = grid_2d(7, 9)
        res = solve_with_engine(engine, g, 0, 2.0)
        assert np.allclose(res.dist, scipy_dist(g, 0))

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_disconnected(self, engine):
        g = unit_weights(from_edge_list(5, [(0, 1, 1.0), (2, 3, 1.0)]))
        res = solve_with_engine(engine, g, 0, 1.0)
        assert res.dist[1] == 1.0
        assert np.isinf(res.dist[2:]).all()

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_single_vertex(self, engine):
        g = from_edge_list(1, [])
        res = solve_with_engine(engine, g, 0, 0.0)
        assert res.dist.tolist() == [0.0]

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_zero_weight_edges(self, engine):
        g = from_edge_list(4, [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 0.0)])
        res = solve_with_engine(engine, g, 0, 0.5)
        assert res.dist.tolist() == [0.0, 0.0, 1.0, 1.0]

    @pytest.mark.parametrize("engine", ("vectorized", "bucket", "bst"))
    def test_infinite_radii(self, engine):
        """r(v) = ∞ turns Radius-Stepping into single-step Bellman–Ford;
        the treap reference handles the ∞-key convention too (the Line
        11 case analysis is a membership test, not a distance test)."""
        g = random_connected_graph(30, 70, seed=5)
        res = solve_with_engine(engine, g, 0, np.full(g.n, math.inf))
        assert np.allclose(res.dist, dijkstra(g, 0).dist)
        assert res.steps == 1

    @pytest.mark.parametrize("engine", ("vectorized", "bucket", "bst"))
    def test_mixed_inf_radii(self, engine):
        g = random_connected_graph(30, 70, seed=6)
        radii = np.zeros(g.n)
        radii[::3] = math.inf
        res = solve_with_engine(engine, g, 0, radii)
        assert np.allclose(res.dist, dijkstra(g, 0).dist)

    def test_bst_inf_radii_matches_vectorized_instrumentation(self):
        """Beyond distances: the treap engine must agree with the
        vectorized engine on steps/substeps under ∞ keys."""
        g = random_connected_graph(25, 60, seed=7, weight_high=12)
        radii = np.zeros(g.n)
        radii[1::2] = math.inf
        a = solve_with_engine("vectorized", g, 0, radii)
        b = solve_with_engine("bst", g, 0, radii)
        assert np.array_equal(a.dist, b.dist)
        assert (a.steps, a.substeps) == (b.steps, b.substeps)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_random_graphs_exact_integer_distances(self, engine, seed):
        """Integer weights sum exactly in float64, so every engine must be
        *bit-identical* to Dijkstra, not merely close."""
        g = random_connected_graph(40, 90, seed=seed, weight_high=25)
        res = solve_with_engine(engine, g, 0, 5.0)
        assert np.array_equal(res.dist, dijkstra(g, 0).dist)


def _family_graphs():
    """One graph per generator family, continuous uniform weights.

    Continuous weights make the shortest-path tree unique (almost
    surely, and verified for these pinned seeds), so *parents* — not
    just distances — must be bit-identical across every engine: the
    kernel's parent rule is "last strict improver", and with a unique
    SPT there is exactly one improver at each vertex's final distance.
    """
    road, _coords = road_network(80, seed=21)
    return {
        "road": uniform_weights(road, low=0.5, high=2.0, seed=22),
        "power-law": uniform_weights(
            scale_free(70, attach=3, seed=23), low=0.5, high=2.0, seed=24
        ),
        "small-world": uniform_weights(
            small_world(64, k=6, p=0.2, seed=25), low=0.5, high=2.0, seed=26
        ),
        "random": uniform_weights(
            erdos_renyi(60, 150, seed=27), low=0.5, high=2.0, seed=28
        ),
    }


FAMILY_GRAPHS = _family_graphs()


class TestCrossEngineFamilies:
    """The PR-6 acceptance suite: every registered engine, every graph
    family, bit-identical ``dist``/``parent`` — plus the tie-heavy and
    ∞-distance corners where only distances (and parent *validity*) are
    pinned."""

    @pytest.mark.parametrize("family", sorted(FAMILY_GRAPHS))
    @pytest.mark.parametrize("engine", PARENT_ENGINES)
    def test_dist_and_parent_bit_identical(self, engine, family):
        g = FAMILY_GRAPHS[family]
        ref = solve_with_engine("dijkstra", g, 0, None, track_parents=True)
        res = solve_with_engine(engine, g, 0, None, track_parents=True)
        assert np.array_equal(res.dist, ref.dist)
        assert np.array_equal(res.parent, ref.parent)

    @pytest.mark.parametrize("family", sorted(FAMILY_GRAPHS))
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_dist_bit_identical_integer_weights(self, engine, family):
        """Integer reweighting of each family: ties galore, but integer
        sums are exact in float64 so distances stay bit-identical (this
        also covers the parentless ``bst`` reference)."""
        g = random_integer_weights(FAMILY_GRAPHS[family], low=1, high=30, seed=31)
        ref = solve_with_engine("dijkstra", g, 1, None)
        res = solve_with_engine(engine, g, 1, None)
        assert np.array_equal(res.dist, ref.dist)

    @pytest.mark.parametrize("engine", PARENT_ENGINES)
    def test_infinite_distance_vertices(self, engine):
        """Disconnected input: unreachable vertices must come back with
        dist = inf and parent = -1 from every engine (np.array_equal
        treats matching infs as equal)."""
        g = from_edge_list(
            9,
            [(0, 1, 1.5), (1, 2, 2.0), (2, 3, 0.5), (4, 5, 1.0), (5, 6, 3.0)],
        )
        ref = solve_with_engine("dijkstra", g, 0, None, track_parents=True)
        res = solve_with_engine(engine, g, 0, None, track_parents=True)
        assert np.isinf(res.dist[4:]).all()
        assert np.array_equal(res.dist, ref.dist)
        assert np.array_equal(res.parent, ref.parent)
        assert (res.parent[4:] == -1).all()

    @pytest.mark.parametrize("engine", PARENT_ENGINES)
    def test_zero_weight_edges_parents_valid(self, engine):
        """Zero-weight edges create genuinely tied shortest paths, where
        the winning parent legitimately depends on relaxation order —
        so distances must stay bit-identical but parents are only
        required to *realize* those distances."""
        g = from_edge_list(
            6,
            [
                (0, 1, 0.0),
                (0, 2, 1.0),
                (1, 2, 1.0),
                (2, 3, 0.0),
                (3, 4, 2.0),
                (2, 4, 2.0),
                (4, 5, 0.0),
            ],
        )
        ref = solve_with_engine("dijkstra", g, 0, None)
        res = solve_with_engine(engine, g, 0, None, track_parents=True)
        assert np.array_equal(res.dist, ref.dist)
        assert_valid_parents(g, res.dist, res.parent, 0)


_PARITY_CASES = [
    pytest.param(50, 120, seed, 60, 8, id=str(seed)) for seed in range(4)
] + [pytest.param(80, 200, 13, 50, 12, id="n80-rho12")]


class TestBucketTreapEquivalence:
    """The flat-frontier schedule yields the same ``d_i`` and splits as
    Algorithm 2's ordered sets, so it must agree with the faithful treap
    reference on *instrumentation*, not just distances: steps, substeps
    and every step's (radius, substeps, settled).  Relaxation totals are
    not compared: the treap re-relaxes its whole active set every
    substep, the engine only the vertices that changed
    (``test_relabel_equivariance.py`` pins the engine's totals)."""

    @pytest.mark.parametrize("n, m, seed, weight_high, rho", _PARITY_CASES)
    def test_full_parity(self, n, m, seed, weight_high, rho):
        g = random_connected_graph(n, m, seed=seed, weight_high=weight_high)
        pre = build_kr_graph(g, k=2, rho=rho, heuristic="dp")
        a = radius_stepping_bst(pre.graph, 0, pre.radii, track_trace=True)
        b = run_engine(
            pre.graph, 0, RadiusBucketSchedule(pre.radii), track_trace=True
        )
        assert np.array_equal(a.dist, b.dist)
        assert (a.steps, a.substeps, a.max_substeps) == (
            b.steps,
            b.substeps,
            b.max_substeps,
        )
        assert [(t.radius, t.substeps, t.settled) for t in a.trace] == [
            (t.radius, t.substeps, t.settled) for t in b.trace
        ]

    def test_bucket_matches_treap_reference(self):
        g = random_connected_graph(45, 110, seed=9, weight_high=30)
        a = radius_stepping_bst(g, 0, 7.0)
        b = solve_with_engine("bucket", g, 0, 7.0)
        assert np.array_equal(a.dist, b.dist)
        assert (a.steps, a.substeps) == (b.steps, b.substeps)


def _bound(schedule, n=8):
    """``schedule`` bound to a fresh kernel on an ``n``-vertex path
    (source 0); tests set tentative distances by hand through
    :func:`_improve`, as relaxations would."""
    g = from_edge_list(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    kernel = RelaxationKernel(g, 0)
    schedule.bind(kernel)
    return kernel


def _improve(kernel, schedule, dists):
    """Lower ``{vertex: δ}`` and tell the schedule (its decrease-key)."""
    verts = np.array(sorted(dists), dtype=np.int64)
    kernel.dist[verts] = [dists[v] for v in verts.tolist()]
    schedule.push(verts)


FRONTIER_SCHEDULES = [
    pytest.param(lambda: RadiusBucketSchedule(None), id="radius"),
    pytest.param(lambda: DeltaSchedule(1.0), id="delta"),
    pytest.param(lambda: DeltaStarSchedule(1.0), id="delta-star"),
    pytest.param(lambda: RhoSchedule(1), id="rho"),
]


class TestFlatFrontier:
    """The one flat frontier behind the radius, ∆, ∆* and ρ schedules:
    ``d_i`` and every split at schedule level, split order (δ, v)."""

    def test_rho_beyond_frontier_gives_max(self):
        for rho, want in ((2, 4.0), (3, 6.0), (10, 6.0)):
            s = RhoSchedule(rho)
            k = _bound(s)
            _improve(k, s, {1: 2.0, 2: 6.0, 3: 4.0})
            assert s.next_bound() == want
        # next_bound is a peek: the split still sees the whole frontier
        assert s.split_active(math.inf).tolist() == [1, 3, 2]

    def test_rho_partition_picks_kth_distance(self):
        dists = {1: 5.0, 2: 1.0, 3: 9.0, 4: 3.0, 5: 7.0}
        for rho, want in ((1, 1.0), (3, 5.0), (5, 9.0)):
            s = RhoSchedule(rho)
            k = _bound(s)
            _improve(k, s, dists)
            assert s.next_bound() == want

    def test_all_infinite_radii_drain_in_one_step(self):
        s = RadiusBucketSchedule(np.full(8, math.inf))
        k = _bound(s)
        _improve(k, s, {3: 5.0, 1: 2.0, 2: 2.0})
        assert s.next_bound() == math.inf
        assert s.split_active(math.inf).tolist() == [1, 2, 3]
        assert len(s.split_active(math.inf)) == 0  # drained
        g = random_connected_graph(30, 70, seed=5)
        res = run_engine(
            g, 0, RadiusBucketSchedule(np.full(g.n, math.inf)), track_trace=True
        )
        assert res.steps == 1
        assert (res.trace[0].radius, res.trace[0].settled) == (math.inf, g.n - 1)

    def test_radius_bound_mixes_finite_and_infinite_keys(self):
        radii = np.zeros(8)
        radii[1] = math.inf
        s = RadiusBucketSchedule(radii)
        k = _bound(s)
        _improve(k, s, {1: 1.0, 2: 3.0})
        assert s.next_bound() == 3.0  # δ(2) + 0 beats δ(1) + ∞
        k.settle(s.split_active(3.0))
        assert s.next_bound() is None

    def test_delta_boundary_settles_in_its_step(self):
        s = DeltaSchedule(4.0)
        k = _bound(s)
        _improve(k, s, {1: 2.0, 2: 4.0, 3: 4.5})
        assert s.next_bound() == 4.0
        assert s.split_active(4.0).tolist() == [1, 2]
        assert s.split_active(math.inf).tolist() == [3]  # above the bound stayed
        g = from_edge_list(4, [(0, 1, 2.0), (0, 2, 4.0), (0, 3, 4.5)])
        res = run_engine(g, 0, DeltaSchedule(4.0), track_trace=True)
        assert [(t.radius, t.settled) for t in res.trace] == [(4.0, 2), (8.0, 1)]

    @pytest.mark.parametrize("make", FRONTIER_SCHEDULES)
    def test_settled_never_reenter_a_split(self, make):
        s = make()
        k = _bound(s)
        s.push(np.empty(0, dtype=np.int64))
        assert s.next_bound() is None
        _improve(k, s, {1: 1.0, 2: 2.0, 3: 3.0})
        k.settle(np.array([2]))
        _improve(k, s, {3: 1.5})  # a re-improved vertex is listed once
        assert s.next_bound() is not None
        assert s.split_active(math.inf).tolist() == [1, 3]
        k.settle(np.array([1, 3]))
        _improve(k, s, {4: 2.5})
        k.settle(np.array([4]))
        assert s.next_bound() is None
        assert len(s.split_active(math.inf)) == 0

    @pytest.mark.parametrize("make", FRONTIER_SCHEDULES)
    def test_frontier_is_history_free(self, make):
        """Decrease-keys leave no trace: a frontier that saw δ(1) = 5, 4
        and then 3 answers like one that only ever saw δ(1) = 3."""
        a, b = make(), make()
        ka, kb = _bound(a), _bound(b)
        _improve(ka, a, {1: 5.0, 2: 7.0, 3: 3.0})
        _improve(ka, a, {1: 4.0})
        _improve(ka, a, {1: 3.0, 2: 6.5})
        _improve(kb, b, {1: 3.0, 2: 6.5, 3: 3.0})
        assert a.next_bound() == b.next_bound()
        assert a.split_active(4.0).tolist() == b.split_active(4.0).tolist() == [1, 3]
        assert a.split_active(math.inf).tolist() == [2]

    @pytest.mark.parametrize("make", FRONTIER_SCHEDULES)
    def test_split_keeps_vertices_above_the_bound(self, make):
        """A split takes δ ≤ bound, ties at the bound included, in
        (δ, v) order; the rest waits for a later split."""
        s = make()
        k = _bound(s)
        _improve(k, s, {4: 2.0, 1: 3.0, 2: 2.0, 3: 3.5})
        assert s.split_active(3.0).tolist() == [2, 4, 1]
        assert s.next_bound() is not None
        assert s.split_active(math.inf).tolist() == [3]

    @pytest.mark.parametrize("make", FRONTIER_SCHEDULES)
    def test_next_bound_is_a_peek(self, make):
        s = make()
        k = _bound(s)
        _improve(k, s, {1: 2.0, 2: 1.0, 3: 2.0})
        assert s.next_bound() == s.next_bound()
        assert s.split_active(math.inf).tolist() == [2, 1, 3]

    @pytest.mark.parametrize("make", FRONTIER_SCHEDULES)
    def test_engine_splits_in_dist_vertex_order(self, make):
        """Whole runs on a tie-heavy graph: every split the driver gets
        is sorted by (δ, v), and the run stays exact."""
        g = random_integer_weights(
            random_connected_graph(60, 150, seed=3), low=1, high=4, seed=4
        )
        s = make()
        splits = []
        split_active = s.split_active

        def recording_split(bound):
            active = split_active(bound)
            splits.append((active, s._kernel.dist[active].copy()))
            return active

        s.split_active = recording_split
        res = run_engine(g, 0, s)
        assert np.array_equal(res.dist, dijkstra(g, 0).dist)
        assert len(splits) == res.steps
        for active, dist in splits:
            order = np.lexsort((active, dist))
            assert np.array_equal(order, np.arange(len(active)))

    @pytest.mark.parametrize("make", FRONTIER_SCHEDULES)
    def test_split_matches_lazy_heap(self, make):
        """Random improvements and settles: the split yields the fresh
        entries of a lazy binary heap, in its pop order."""
        import heapq

        n = 200
        rng = np.random.default_rng(7)
        s = make()
        k = _bound(s, n)
        heap = []
        for v in range(1, n):
            _improve(k, s, {v: float(rng.uniform(0, 100))})
            heapq.heappush(heap, (k.dist[v], v))
        for v in rng.choice(np.arange(1, n), 60, replace=False).tolist():
            _improve(k, s, {v: k.dist[v] * 0.5})
            heapq.heappush(heap, (k.dist[v], v))
        k.settle(rng.choice(np.arange(1, n), 40, replace=False))
        want = []
        while heap:
            key, v = heapq.heappop(heap)
            if not k.settled[v] and key == k.dist[v]:
                want.append(v)
        assert s.split_active(math.inf).tolist() == want


class TestScheduleSemantics:
    def test_bellman_ford_schedule_single_step(self):
        """Bellman–Ford is the radius schedule at r ≡ ∞."""
        g = random_connected_graph(25, 60, seed=1)
        res = run_engine(g, 0, RadiusBucketSchedule(math.inf))
        assert res.steps == 1
        assert np.allclose(res.dist, dijkstra(g, 0).dist)

    def test_scalar_infinite_radius_matches_infinite_array(self):
        """A scalar ``r ≡ ∞`` (the shard router's overlay solve) takes
        the same step, substeps, relaxations, distances and parents as
        an array of ``∞`` radii, seeded runs and zero-weight ties
        included."""
        grid = grid_2d(6, 7)
        tails = np.repeat(np.arange(grid.n), grid.degrees())
        edge = tails < grid.indices
        weights = np.random.default_rng(4).integers(0, 3, int(edge.sum()))
        g = from_arc_arrays(grid.n, tails[edge], grid.indices[edge], weights)
        seeds = (np.array([3, 17, 29]), np.array([2.0, 0.0, 5.0]))
        for source, seeded in ((0, None), (None, seeds)):
            runs = [
                run_engine(
                    g, source, RadiusBucketSchedule(radii), seeds=seeded,
                    track_parents=True,
                )
                for radii in (math.inf, np.full(g.n, math.inf))
            ]
            a, b = runs
            assert (a.steps, a.substeps, a.relaxations) == (
                b.steps, b.substeps, b.relaxations
            )
            assert np.array_equal(a.dist, b.dist)
            assert np.array_equal(a.parent, b.parent)

    def test_delta_schedule_boundaries_monotone(self):
        g = random_connected_graph(25, 60, seed=2, weight_high=10)
        res = run_engine(g, 0, DeltaSchedule(4.0), track_trace=True)
        radii_seq = [t.radius for t in res.trace]
        assert radii_seq == sorted(radii_seq)
        assert all(r % 4.0 == 0 for r in radii_seq)

    def test_delta_schedule_rejects_bad_delta(self):
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                DeltaSchedule(bad)

    def test_parents_valid_across_schedules(self):
        g = random_connected_graph(35, 80, seed=3)
        for engine in PARENT_ENGINES:
            res = solve_with_engine(engine, g, 2, 5.0, track_parents=True)
            assert_valid_parents(g, res.dist, res.parent, 2)

    def test_rho_schedule_rejects_bad_rho(self):
        for bad in (0, -3):
            with pytest.raises(ValueError):
                RhoSchedule(bad)

    def test_delta_star_schedule_rejects_bad_delta(self):
        for bad in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError):
                DeltaStarSchedule(bad)

    def test_rho_one_settles_like_dijkstra(self):
        """ρ = 1 must settle one frontier vertex per step (plus exact
        ties), interpolating down to batched Dijkstra."""
        g = random_connected_graph(30, 70, seed=8, weight_high=1000)
        res = run_engine(g, 0, RhoSchedule(1), track_trace=True)
        ref = solve_with_engine("dijkstra", g, 0, None, track_trace=True)
        assert np.array_equal(res.dist, ref.dist)
        assert res.steps == ref.steps

    def test_rho_n_single_step(self):
        """ρ ≥ n pops the whole frontier every step — Bellman–Ford-like
        step counts on a connected graph."""
        g = random_connected_graph(25, 60, seed=9)
        res = run_engine(g, 0, RhoSchedule(g.n))
        assert np.allclose(res.dist, dijkstra(g, 0).dist)
        assert res.steps <= 2

    def test_rho_steps_shrink_as_rho_grows(self):
        g = random_connected_graph(120, 300, seed=10)
        steps = [
            run_engine(g, 0, RhoSchedule(rho)).steps for rho in (1, 8, 64)
        ]
        assert steps[0] >= steps[1] >= steps[2]

    def test_delta_star_bounds_float_with_frontier_min(self):
        """∆*-stepping's d_i = min + ∆ floats with the frontier: every
        traced radius must exceed its step's minimum fresh key by
        exactly ∆, and the sequence must be strictly increasing."""
        g = random_connected_graph(40, 100, seed=11, weight_high=15)
        res = run_engine(g, 0, DeltaStarSchedule(4.0), track_trace=True)
        assert np.array_equal(res.dist, dijkstra(g, 0).dist)
        radii_seq = [t.radius for t in res.trace]
        assert radii_seq == sorted(radii_seq)

    def test_delta_star_heavy_arcs_excluded_from_substeps(self):
        """A graph whose only route crosses a heavy arc: the heavy edge
        must still be relaxed (once, at settle time) and the distances
        must stay exact."""
        g = from_edge_list(4, [(0, 1, 1.0), (1, 2, 50.0), (2, 3, 1.0)])
        res = run_engine(g, 0, DeltaStarSchedule(2.0), track_parents=True)
        assert res.dist.tolist() == [0.0, 1.0, 51.0, 52.0]
        assert res.parent.tolist() == [-1, 0, 1, 2]


class TestDeltaSchedule:
    """∆-stepping as a schedule: exact for every ∆, and ∆ sets the step
    count."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("delta", [1.0, 7.0, 100.0, None])
    def test_matches_dijkstra(self, seed, delta):
        g = random_connected_graph(30, 70, seed=seed, weight_high=20)
        res = run_engine(g, 0, DeltaSchedule(delta))
        assert np.allclose(res.dist, dijkstra(g, 0).dist)

    def test_huge_delta_single_step(self):
        """∆ ≥ max distance → a Bellman–Ford-like single step."""
        g = random_connected_graph(20, 50, seed=1, weight_high=5)
        assert run_engine(g, 0, DeltaSchedule(1e9)).steps == 1

    def test_small_delta_many_steps(self):
        g = random_integer_weights(grid_2d(5, 5), low=1, high=10, seed=2)
        fine = run_engine(g, 0, DeltaSchedule(1.0))
        coarse = run_engine(g, 0, DeltaSchedule(50.0))
        assert fine.steps > coarse.steps

    def test_trace(self):
        g = random_connected_graph(20, 45, seed=3, weight_high=10)
        res = run_engine(g, 0, DeltaSchedule(10.0), track_trace=True)
        assert len(res.trace) == res.steps
        assert sum(t.substeps for t in res.trace) == res.substeps
        assert res.max_substeps == max(t.substeps for t in res.trace)

    def test_suggest_delta_positive(self):
        g = random_connected_graph(30, 60, seed=0)
        assert suggest_delta(g) > 0

    def test_suggest_delta_degenerate_weight_ranges(self):
        """Regression: all-zero weights used to suggest ∆ = inf
        (``min_positive_weight`` is inf when no weight is positive);
        degenerate ranges must clamp to a positive finite floor."""
        all_zero = uniform_weights(
            random_connected_graph(20, 45, seed=3, weighted=False),
            low=0.0,
            high=0.0,
        )
        d = suggest_delta(all_zero)
        assert d > 0 and math.isfinite(d)
        res = run_engine(all_zero, 0, DeltaSchedule())  # default ∆ is usable
        assert np.all(res.dist == 0.0)

    def test_suggest_delta_edgeless(self):
        from repro.graphs.csr import CSRGraph

        lonely = CSRGraph(
            np.zeros(4, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0),
        )
        d = suggest_delta(lonely)
        assert d > 0 and math.isfinite(d)


class TestBellmanFordEngine:
    """``r ≡ ∞``: one step whose substeps are Bellman–Ford rounds.  Line 2
    relaxes the source first, so the substeps are the source's min-hop
    eccentricity, the last one confirming quiescence."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dijkstra(self, seed):
        g = random_connected_graph(35, 80, seed=seed)
        res = solve_with_engine("bellman-ford", g, 1)
        assert np.allclose(res.dist, dijkstra(g, 1).dist)

    def test_path_substeps_equal_length(self):
        res = solve_with_engine("bellman-ford", path_graph(6), 0)
        assert res.substeps == 5
        assert res.steps == 1

    def test_star_one_substep(self):
        res = solve_with_engine("bellman-ford", star_graph(5), 0)
        assert res.substeps == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_substeps_equal_minhop_radius(self, seed):
        g = random_connected_graph(40, 90, seed=seed)
        res = solve_with_engine("bellman-ford", g, 0)
        _, hops, _ = dijkstra_minhop(g, 0)
        assert res.substeps == hops.max()


class TestRegistry:
    def test_known_engines_present(self):
        assert set(ALL_ENGINES) >= {
            "vectorized",
            "bucket",
            "bst",
            "dijkstra",
            "delta",
            "delta-star",
            "rho",
            "bellman-ford",
        }
        assert "unweighted" not in ALL_ENGINES  # unit weights run vectorized

    def test_only_the_treap_reference_lacks_parents(self):
        assert set(ALL_ENGINES) - set(PARENT_ENGINES) == {"bst"}

    def test_parent_engines_are_the_benchmark_sweep(self):
        """perfbench sweeps every parent-tracking engine and prints
        ``engine.sweep.<name>_ms`` for each, the names BENCHMARK.json
        declares: a registry change that breaks the benchmark fails
        here.  A fresh interpreter sees only the built-in engines, as a
        benchmark run does (tests may register plugins)."""
        root = Path(__file__).resolve().parents[2]
        spec = json.loads((root / "BENCHMARK.json").read_text())
        declared = {
            m["name"].removeprefix("engine.sweep.").removesuffix("_ms")
            for m in spec["per_layer"]
            if m["name"].startswith("engine.sweep.")
        }
        code = (
            "from layers import sweep_engines\n"
            "from repro.engine import available_engines, get_engine\n"
            "parents = [e for e in available_engines()"
            " if get_engine(e).supports_parents]\n"
            "assert sweep_engines() == parents, (sweep_engines(), parents)\n"
            "print(' '.join(parents))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root / "perfbench")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert set(out.stdout.split()) == declared

    def test_unknown_engine_lists_names(self):
        with pytest.raises(ValueError, match="registered engines"):
            get_engine("quantum")

    def test_parent_support_enforced(self):
        g = grid_2d(3, 3)
        with pytest.raises(ValueError, match="does not track parents"):
            solve_with_engine("bst", g, 0, 0.0, track_parents=True)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("vectorized", lambda *a, **k: None)

    def test_invalid_names_rejected(self):
        for bad in ("", "auto"):
            with pytest.raises(ValueError):
                register_engine(bad, lambda *a, **k: None)

    def test_custom_schedule_plugin(self):
        """A third-party schedule registers and serves like a built-in —
        the extension path examples/engine_plugins.py demonstrates."""

        class EveryReachedSchedule:
            """One step over every reached, unsettled vertex."""

            name = "test-every-reached"

            def bind(self, kernel):
                self.kernel = kernel

            def push(self, improved):
                pass  # the active set is read off the kernel each step

            def _pending(self):
                return np.isfinite(self.kernel.dist) & ~self.kernel.settled

            def next_bound(self):
                return math.inf if self._pending().any() else None

            def split_active(self, bound):
                return np.flatnonzero(self._pending())

        def solve(graph, source, radii, *, track_parents, track_trace, ledger, obs):
            return run_engine(
                graph,
                source,
                EveryReachedSchedule(),
                track_parents=track_parents,
                track_trace=track_trace,
                ledger=ledger,
                obs=obs,
            )

        spec = register_engine("test-every-reached", solve, overwrite=True)
        try:
            g = random_connected_graph(20, 50, seed=4)
            res = solve_with_engine("test-every-reached", g, 0, None)
            assert np.allclose(res.dist, dijkstra(g, 0).dist)
            assert spec.name in available_engines()
        finally:
            import repro.engine.registry as reg

            reg._REGISTRY.pop("test-every-reached", None)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    @pytest.mark.parametrize(
        "source, error",
        [
            (True, TypeError),
            (np.True_, TypeError),
            (2.0, TypeError),
            (-1, ValueError),
            (25, ValueError),
        ],
    )
    def test_bad_source_raises_alike_on_every_engine(self, engine, source, error):
        """A bool must never solve from vertex 1, nor a float from its
        integer part: the dispatcher checks the source once, for every
        engine (the treap reference and plugins included)."""
        g = grid_2d(5, 5)
        with pytest.raises(error, match="source"):
            solve_with_engine(engine, g, source, np.ones(25))
