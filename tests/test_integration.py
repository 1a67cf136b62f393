"""Cross-module integration tests: the full paper pipeline end to end.

Each test exercises: generate graph → weight it → preprocess into a
(k,ρ)-graph → solve with both Radius-Stepping engines → validate against
Dijkstra and both theorem bounds.  This is the contract a downstream user
relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    build_kr_graph,
    dijkstra,
    max_steps_bound,
    max_substeps_bound,
    radius_stepping,
    radius_stepping_bst,
)
from repro.core import (
    PreprocessedSSSP,
    bfs,
    landmark_sssp,
)
from repro.engine import DeltaSchedule, run_engine, solve_with_engine
from repro.graphs import generators, random_integer_weights, unit_weights

from tests.helpers import assert_valid_parents, random_connected_graph


def _family(name, seed):
    if name == "grid2d":
        return generators.grid_2d(9, 9)
    if name == "grid3d":
        return generators.grid_3d(4, 4, 4)
    if name == "scale_free":
        return generators.scale_free(90, 2, seed=seed)
    if name == "road":
        return generators.road_network(90, seed=seed)[0]
    if name == "erdos":
        return generators.erdos_renyi(80, 160, seed=seed)
    raise AssertionError(name)


FAMILIES = ("grid2d", "grid3d", "scale_free", "road", "erdos")


class TestFullPipelineAllFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("weighted", [False, True])
    def test_preprocess_then_solve(self, family, weighted):
        g = _family(family, seed=7)
        g = random_integer_weights(g, seed=1) if weighted else unit_weights(g)
        k, rho = 2, 8
        pre = build_kr_graph(g, k, rho, heuristic="dp")
        ref = dijkstra(g, 0)
        res = radius_stepping(pre.graph, 0, pre.radii)
        assert np.allclose(res.dist, ref.dist)
        assert res.max_substeps <= max_substeps_bound(k)
        assert res.steps <= max_steps_bound(pre.graph.n, rho, pre.graph.max_weight)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_solvers_agree(self, family):
        g = random_integer_weights(_family(family, seed=3), seed=5)
        ref = dijkstra(g, 1).dist
        assert np.allclose(solve_with_engine("bellman-ford", g, 1).dist, ref)
        assert np.allclose(run_engine(g, 1, DeltaSchedule(2000.0)).dist, ref)
        assert np.allclose(radius_stepping(g, 1, 100.0).dist, ref)
        assert np.allclose(radius_stepping_bst(g, 1, 100.0).dist, ref)
        assert np.allclose(landmark_sssp(g, 1, t=6, seed=0).dist, ref)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bfs_is_unweighted_sssp(self, family):
        g = unit_weights(_family(family, seed=11))
        assert np.allclose(bfs(g, 0).dist, dijkstra(g, 0).dist)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unit_weight_full_pipeline(self, family):
        """Unit weights through PreprocessedSSSP on every family: the
        default engine, parents included (§3.4 needs no engine of its
        own)."""
        g = unit_weights(_family(family, seed=13))
        sp = PreprocessedSSSP(g, k=2, rho=6, heuristic="dp")
        res = sp.solve(0, track_parents=True)
        assert res.algorithm == "radius-stepping"
        assert np.array_equal(res.dist, dijkstra(g, 0).dist)
        assert_valid_parents(sp.graph, res.dist, res.parent, 0)


class TestMultiSourceConsistency:
    def test_steps_shrink_with_rho(self):
        """The headline empirical claim: steps ≈ c/ρ."""
        from repro.preprocess import compute_radii_sweep

        g = random_integer_weights(generators.grid_2d(14, 14), seed=2)
        sweep = compute_radii_sweep(g, [1, 4, 16, 49])
        means = []
        for rho in (1, 4, 16, 49):
            steps = [
                radius_stepping(g, s, sweep[rho]).steps for s in (0, 50, 120)
            ]
            means.append(np.mean(steps))
        assert means[0] > means[1] > means[2] > means[3]
        # strongly sublinear: rho=16 cuts steps by far more than 4x
        assert means[0] / means[2] > 10


class TestPublicApi:
    def test_quickstart_snippet(self):
        """The exact snippet from repro.__doc__ must work."""
        from repro import generators as gens

        g = random_integer_weights(gens.grid_2d(10, 10), seed=0)
        pre = build_kr_graph(g, k=2, rho=8, heuristic="dp")
        res = radius_stepping(pre.graph, 0, pre.radii)
        assert np.allclose(res.dist, dijkstra(g, 0).dist)

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


@given(
    n=st.integers(8, 30),
    seed=st.integers(0, 10**6),
    k=st.integers(1, 3),
    rho=st.integers(1, 10),
    heuristic=st.sampled_from(["full", "greedy", "dp"]),
)
@settings(max_examples=25, deadline=None)
def test_pipeline_property(n, seed, k, rho, heuristic):
    """Random (family, k, ρ, heuristic): exactness + both bounds, always."""
    g = random_connected_graph(n, 2 * n, seed=seed, weight_high=12)
    pre = build_kr_graph(g, k, rho, heuristic=heuristic)
    res = radius_stepping(pre.graph, seed % n, pre.radii)
    assert np.allclose(res.dist, dijkstra(g, seed % n).dist)
    k_eff = 1 if heuristic == "full" else k
    assert res.max_substeps <= max_substeps_bound(k_eff)
    assert res.steps <= max_steps_bound(pre.graph.n, rho, pre.graph.max_weight)
