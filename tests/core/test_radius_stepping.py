"""Unit + property tests for the vectorized Radius-Stepping engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    as_radii,
    bfs,
    bfs_levels,
    dijkstra,
    dijkstra_minhop,
    radius_stepping,
)
from repro.engine import RadiusBucketSchedule, run_engine, solve_with_engine
from repro.graphs import from_edge_list, unit_weights
from repro.graphs.generators import grid_2d, path_graph, scale_free, star_graph
from repro.graphs.weights import random_integer_weights
from repro.pram import Ledger

from tests.helpers import assert_valid_parents, random_connected_graph


class TestCorrectnessAnyRadii:
    """§3: 'The algorithm is correct for any radii r(·).'"""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_radii(self, seed):
        g = random_connected_graph(40, 90, seed=seed)
        rng = np.random.default_rng(seed)
        radii = rng.uniform(0, 30, size=g.n)
        res = radius_stepping(g, 0, radii)
        assert np.allclose(res.dist, dijkstra(g, 0).dist)

    @given(
        n=st.integers(5, 25),
        seed=st.integers(0, 10**6),
        radius=st.floats(0, 100, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_radius_property(self, n, seed, radius):
        g = random_connected_graph(n, 2 * n, seed=seed, weight_high=10)
        res = radius_stepping(g, 0, radius)
        assert np.allclose(res.dist, dijkstra(g, 0).dist)

    def test_disconnected(self):
        g = from_edge_list(5, [(0, 1, 2.0), (2, 3, 1.0)])
        res = radius_stepping(g, 0, 1.0)
        assert res.dist[1] == 2.0
        assert np.isinf(res.dist[2:]).all()

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        res = radius_stepping(g, 0, 0.0)
        assert res.steps == 0 and res.dist[0] == 0.0

    def test_zero_weight_edges(self):
        g = from_edge_list(3, [(0, 1, 0.0), (1, 2, 1.0)])
        res = radius_stepping(g, 0, 0.0)
        assert res.dist.tolist() == [0.0, 0.0, 1.0]


class TestDegenerations:
    """§3's r = 0 / ∆ / ∞ special cases."""

    def test_zero_radius_is_dijkstra_steps(self):
        g = random_connected_graph(25, 60, seed=1, weight_high=10**6)
        res = radius_stepping(g, 0, 0.0)
        # distinct weights -> essentially one settle per step
        assert res.steps >= g.n - 5
        assert res.max_substeps == 1

    def test_infinite_radius_is_bellman_ford(self):
        g = random_connected_graph(25, 60, seed=2)
        res = radius_stepping(g, 0, np.inf)
        bf = solve_with_engine("bellman-ford", g, 0)
        assert res.steps == 1
        # Algorithm 1's Line 2 relaxes N(s) before the substep loop, so the
        # rounds after it are the source's min-hop eccentricity.
        _, hops, _ = dijkstra_minhop(g, 0)
        assert res.substeps == bf.substeps == hops.max()
        assert np.allclose(res.dist, bf.dist)

    def test_unweighted_zero_radius_counts_bfs_levels(self):
        g = grid_2d(5, 8)
        res = radius_stepping(g, 0, 0.0)
        _, rounds = bfs_levels(g, 0)
        assert res.steps == rounds


class TestUnitWeights:
    """§3.4: on unit weights the ordered sets reduce to a flat BFS-style
    frontier (Lemma 3.10), which is the frontier ``radius_stepping``
    runs at any weights; these pin its semantics on hop metrics."""

    def test_zero_radius_counts_bfs_levels(self):
        g = grid_2d(6, 7)
        res = radius_stepping(g, 0, 0.0)
        assert res.steps == bfs(g, 0).steps
        assert np.allclose(res.dist, bfs(g, 0).dist)

    def test_distances_are_hops(self):
        res = radius_stepping(path_graph(8), 0, 2.0)
        assert res.dist.tolist() == list(range(8))

    def test_unit_weights_give_the_hop_metric(self):
        g = from_edge_list(3, [(0, 1, 2.5), (1, 2, 1.0)])
        res = radius_stepping(unit_weights(g), 0, 0.0)
        assert res.dist.tolist() == [0.0, 1.0, 2.0]

    def test_scale_free_few_steps(self):
        """Hubs keep the hop diameter tiny, so even moderate radii collapse
        the run to a handful of steps (the paper's §5.3 webgraph story)."""
        g = scale_free(300, attach=3, seed=0)
        bfs_steps = radius_stepping(g, 0, 0.0).steps
        ball_steps = radius_stepping(g, 0, 2.0).steps
        assert ball_steps <= bfs_steps

    def test_disconnected(self):
        g = from_edge_list(5, [(0, 1, 1.0), (2, 3, 1.0)])
        res = radius_stepping(g, 0, 1.0)
        assert res.dist[1] == 1.0
        assert np.isinf(res.dist[2:]).all()

    def test_single_vertex(self):
        res = radius_stepping(from_edge_list(1, []), 0, 0.0)
        assert res.steps == 0 and res.dist[0] == 0.0

    def test_trace(self):
        g = grid_2d(5, 5)
        res = radius_stepping(g, 0, 1.0, track_trace=True)
        assert len(res.trace) == res.steps
        assert sum(t.settled for t in res.trace) == g.n - 1
        radii_seq = [t.radius for t in res.trace]
        assert radii_seq == sorted(radii_seq)


class TestInstrumentation:
    def test_trace_consistency(self):
        g = random_connected_graph(30, 70, seed=3)
        res = radius_stepping(g, 0, 5.0, track_trace=True)
        assert len(res.trace) == res.steps
        assert sum(t.substeps for t in res.trace) == res.substeps
        assert sum(t.settled for t in res.trace) == res.reached - 1  # source
        radii_seq = [t.radius for t in res.trace]
        assert radii_seq == sorted(radii_seq), "d_i must be non-decreasing"

    def test_parents(self):
        g = random_connected_graph(30, 70, seed=4)
        res = radius_stepping(g, 2, 10.0, track_parents=True)
        assert_valid_parents(g, res.dist, res.parent, 2)

    def test_ledger_charges(self):
        g = random_connected_graph(20, 50, seed=5)
        ledger = Ledger()
        radius_stepping(g, 0, 3.0, ledger=ledger)
        assert ledger.work > 0 and ledger.depth > 0
        assert "substep relax" in ledger.by_label

    def test_relaxations_counted(self):
        g = star_graph(5)
        res = radius_stepping(g, 0, 0.0)
        assert res.relaxations > 0


class TestAsRadii:
    def test_none_is_zeros(self):
        g = path_graph(3)
        assert np.array_equal(as_radii(g, None), np.zeros(3))

    def test_scalar_broadcast(self):
        g = path_graph(3)
        assert np.array_equal(as_radii(g, 2.5), np.full(3, 2.5))

    def test_array_passthrough(self):
        g = path_graph(3)
        r = np.array([0.0, 1.0, 2.0])
        assert np.array_equal(as_radii(g, r), r)

    def test_rejects_negative(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            as_radii(g, -1.0)
        with pytest.raises(ValueError):
            as_radii(g, np.array([0.0, -2.0, 0.0]))

    def test_rejects_nan(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            as_radii(g, np.array([0.0, np.nan, 0.0]))

    def test_rejects_bad_shape(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            as_radii(g, np.zeros(4))

    def test_one_definition_beside_the_schedule(self):
        from repro.engine.schedules import as_radii as schedule_as_radii

        assert as_radii is schedule_as_radii

    def test_schedule_normalizes_through_it(self):
        """``RadiusBucketSchedule`` takes what ``as_radii`` takes."""
        g = path_graph(4)
        for radii in (None, 1.0, math.inf, np.full(4, 2.0)):
            res = run_engine(g, 0, RadiusBucketSchedule(radii))
            assert res.dist.tolist() == [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="non-negative"):
            run_engine(g, 0, RadiusBucketSchedule(-1.0))
        with pytest.raises(ValueError, match="shape"):
            run_engine(g, 0, RadiusBucketSchedule(np.zeros(5)))

    def test_bad_source(self):
        with pytest.raises(ValueError):
            radius_stepping(path_graph(3), 7, 0.0)


class TestMonotonicity:
    def test_larger_radii_fewer_steps(self):
        """Growing every radius can only merge annuli (d_i grows)."""
        g = random_integer_weights(grid_2d(8, 8), low=1, high=50, seed=6)
        steps = [
            radius_stepping(g, 0, float(r)).steps for r in (0, 10, 50, 200, 10**9)
        ]
        assert steps[0] >= steps[1] >= steps[2] >= steps[3] >= steps[-1]
        assert steps[-1] == 1
