"""Differential validation against SciPy's independent SSSP implementation.

Every in-repo cross-check (engine vs engine, solver vs Dijkstra) shares
this library's CSR kernel and conventions; a shared misconception would
slip through all of them.  `scipy.sparse.csgraph` is a fully independent
implementation, so agreement here rules out that failure class for the
graph builders, the weight models, and every solver at once.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro import PreprocessedSSSP, build_kr_graph, dijkstra, radius_stepping
from repro.core import landmark_sssp
from repro.engine import DeltaSchedule, run_engine, solve_with_engine
from repro.graphs import generators, random_integer_weights, unit_weights

from tests.helpers import random_connected_graph


def to_scipy(graph):
    return csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(graph.n, graph.n)
    )


def scipy_dist(graph, source):
    return scipy_dijkstra(to_scipy(graph), directed=False, indices=source)


FAMILY_BUILDERS = {
    "grid2d": lambda: generators.grid_2d(11, 13),
    "grid3d": lambda: generators.grid_3d(5, 4, 6),
    "scale_free": lambda: generators.scale_free(150, 3, seed=2),
    "road": lambda: generators.road_network(150, seed=2)[0],
    "figure2": lambda: generators.figure2_graph(5),
}


class TestAgainstScipy:
    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_dijkstra_matches(self, family):
        g = random_integer_weights(FAMILY_BUILDERS[family](), seed=4)
        for s in (0, g.n // 2):
            assert np.allclose(dijkstra(g, s).dist, scipy_dist(g, s))

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_radius_stepping_pipeline_matches(self, family):
        g = random_integer_weights(FAMILY_BUILDERS[family](), seed=5)
        pre = build_kr_graph(g, k=2, rho=8, heuristic="dp")
        res = radius_stepping(pre.graph, 0, pre.radii)
        assert np.allclose(res.dist, scipy_dist(g, 0))

    def test_all_baselines_match(self):
        g = random_connected_graph(80, 200, seed=6, weight_high=99)
        ref = scipy_dist(g, 3)
        assert np.allclose(solve_with_engine("bellman-ford", g, 3).dist, ref)
        assert np.allclose(run_engine(g, 3, DeltaSchedule(25.0)).dist, ref)
        assert np.allclose(landmark_sssp(g, 3, t=7, seed=1).dist, ref)

    def test_facade_matches(self):
        g = random_connected_graph(70, 160, seed=7)
        sp = PreprocessedSSSP(g, k=2, rho=10)
        assert np.allclose(sp.distances(9), scipy_dist(g, 9))

    def test_unweighted_matches(self):
        g = unit_weights(generators.scale_free(120, 2, seed=8))
        assert np.allclose(dijkstra(g, 0).dist, scipy_dist(g, 0))

    def test_disconnected_inf_convention_matches(self):
        from repro.graphs import from_edge_list

        g = from_edge_list(6, [(0, 1, 2.0), (2, 3, 1.0), (4, 5, 7.0)])
        ours = dijkstra(g, 0).dist
        theirs = scipy_dist(g, 0)
        assert np.array_equal(np.isinf(ours), np.isinf(theirs))
        assert np.allclose(ours[np.isfinite(ours)], theirs[np.isfinite(theirs)])
