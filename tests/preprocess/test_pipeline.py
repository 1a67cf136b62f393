"""End-to-end preprocessing invariants (the heart of the reproduction).

After ``build_kr_graph(g, k, ρ)``:
* all pairwise distances are unchanged,
* Radius-Stepping with the returned radii takes ≤ k+2 substeps per step
  (Theorem 3.2) and ≤ ⌈n/ρ⌉(1+⌈log₂ ρL⌉) steps (Theorem 3.3),
* every ball member is within k hops (the (k,ρ)-graph property).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import max_steps_bound, max_substeps_bound
from repro.core import dijkstra, dijkstra_minhop, radius_stepping
from repro.graphs.generators import grid_2d, scale_free
from repro.graphs.weights import random_integer_weights
from repro.preprocess import build_kr_graph, build_sharded_kr_graph

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def weighted_grid():
    return random_integer_weights(grid_2d(12, 12), low=1, high=40, seed=0)


class TestDistancePreservation:
    @pytest.mark.parametrize("heuristic", ["full", "greedy", "dp"])
    def test_distances_unchanged(self, weighted_grid, heuristic):
        g = weighted_grid
        pre = build_kr_graph(g, 2, 10, heuristic=heuristic)
        for src in (0, 77):
            assert np.allclose(
                dijkstra(pre.graph, src).dist, dijkstra(g, src).dist
            )


class TestTheoremBounds:
    @pytest.mark.parametrize("heuristic", ["full", "greedy", "dp"])
    @pytest.mark.parametrize("k,rho", [(1, 4), (2, 8), (3, 16)])
    def test_substeps_and_steps(self, weighted_grid, heuristic, k, rho):
        g = weighted_grid
        pre = build_kr_graph(g, k, rho, heuristic=heuristic)
        k_eff = 1 if heuristic == "full" else k
        sub_bound = max_substeps_bound(k_eff)
        step_bound = max_steps_bound(pre.graph.n, rho, pre.graph.max_weight)
        for src in (0, 60, 143):
            res = radius_stepping(pre.graph, src, pre.radii)
            assert res.max_substeps <= sub_bound
            assert res.steps <= step_bound

    @given(
        n=st.integers(10, 40),
        seed=st.integers(0, 10**5),
        k=st.integers(1, 3),
        rho=st.integers(2, 12),
    )
    @settings(max_examples=20, deadline=None)
    def test_bounds_property(self, n, seed, k, rho):
        g = random_connected_graph(n, 2 * n, seed=seed, weight_high=16)
        pre = build_kr_graph(g, k, rho, heuristic="dp")
        res = radius_stepping(pre.graph, 0, pre.radii)
        assert np.allclose(res.dist, dijkstra(g, 0).dist)
        assert res.max_substeps <= max_substeps_bound(k)
        assert res.steps <= max_steps_bound(
            pre.graph.n, rho, pre.graph.max_weight
        )


class TestKRhoProperty:
    def test_ball_members_within_k_hops(self, weighted_grid):
        """The direct (k,ρ)-graph check: every vertex within distance
        r_ρ(v) of v has min-hop distance ≤ k in the augmented graph."""
        g = weighted_grid
        k, rho = 2, 8
        pre = build_kr_graph(g, k, rho, heuristic="dp")
        for v in range(0, g.n, 13):
            dist, hops, _ = dijkstra_minhop(pre.graph, v)
            ball = dist <= pre.radii[v]
            assert int(ball.sum()) >= rho
            assert (hops[ball] <= k).all()


class TestAccounting:
    def test_full_adds_most(self, weighted_grid):
        g = weighted_grid
        full = build_kr_graph(g, 2, 10, heuristic="full")
        greedy = build_kr_graph(g, 2, 10, heuristic="greedy")
        dp = build_kr_graph(g, 2, 10, heuristic="dp")
        assert dp.added_edges <= greedy.added_edges <= full.added_edges

    def test_dp_gap_on_scale_free(self):
        """§5.2: hubs off the (ki+1)-layer make greedy pay, DP does not —
        at least twice DP's shortcut edges on a weighted power-law graph."""
        web = random_integer_weights(
            scale_free(600, attach=4, seed=9), low=1, high=100, seed=10
        )
        greedy = build_kr_graph(web, 3, 32, heuristic="greedy")
        dp = build_kr_graph(web, 3, 32, heuristic="dp")
        assert greedy.added_edges > 0
        assert dp.added_edges * 2 <= greedy.added_edges

    def test_new_edges_le_added(self, weighted_grid):
        pre = build_kr_graph(weighted_grid, 2, 10, heuristic="dp")
        assert pre.new_edges <= pre.added_edges
        assert pre.edge_factor >= 0

    def test_rho_1_adds_nothing(self, weighted_grid):
        pre = build_kr_graph(weighted_grid, 1, 1, heuristic="full")
        assert pre.added_edges == 0
        assert np.array_equal(pre.radii, np.zeros(weighted_grid.n))

    def test_steps_independent_of_k(self, weighted_grid):
        """§5.3: the step count depends only on ρ, never on k."""
        g = weighted_grid
        counts = []
        for k in (1, 2, 4):
            pre = build_kr_graph(g, k, 12, heuristic="dp")
            counts.append(radius_stepping(pre.graph, 5, pre.radii).steps)
        assert len(set(counts)) == 1


class TestValidation:
    def test_bad_heuristic(self, weighted_grid):
        with pytest.raises(ValueError, match="heuristic"):
            build_kr_graph(weighted_grid, 2, 5, heuristic="magic")

    def test_bad_k_rho(self, weighted_grid):
        with pytest.raises(ValueError):
            build_kr_graph(weighted_grid, 0, 5)
        with pytest.raises(ValueError):
            build_kr_graph(weighted_grid, 2, 0)

    def test_njobs_parity(self):
        g = random_connected_graph(30, 70, seed=9)
        a = build_kr_graph(g, 2, 6, heuristic="dp", n_jobs=1)
        b = build_kr_graph(g, 2, 6, heuristic="dp", n_jobs=2)
        assert a.graph == b.graph
        assert np.array_equal(a.radii, b.radii)


class TestStageTiming:
    """Every build times exactly its own stages, into the result and,
    when a registry is given, into ``preprocess_stage_seconds{stage}``."""

    BUILDS = {
        "single": (
            lambda g, **kw: build_kr_graph(g, 2, 6, **kw),
            {"reorder", "ball_shortcuts", "merge"},
        ),
        "sharded": (
            lambda g, **kw: build_sharded_kr_graph(g, 2, 6, n_shards=2, **kw),
            {"partition", "shard_preprocess", "overlay"},
        ),
    }

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_stage_seconds_names_every_stage(self, weighted_grid, build):
        run, stages = self.BUILDS[build]
        timed = run(weighted_grid).stage_seconds
        assert set(timed) == stages
        assert all(s >= 0.0 for s in timed.values())

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_registry_observes_each_stage_once(self, weighted_grid, build):
        from repro.obs import MetricsRegistry
        from repro.obs.expo import parse, render

        run, stages = self.BUILDS[build]
        reg = MetricsRegistry()
        timed = run(weighted_grid, registry=reg).stage_seconds
        exp = parse(render(reg))
        for stage in stages:
            assert exp.value("preprocess_stage_seconds_count", stage=stage) == 1.0
            assert exp.value(
                "preprocess_stage_seconds_sum", stage=stage
            ) == pytest.approx(timed[stage])
        assert len(exp.series("preprocess_stage_seconds_count")) == len(stages)
