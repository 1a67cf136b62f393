"""Tests for the amortized PreprocessedSSSP facade."""

import numpy as np
import pytest

from repro.core import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.graphs.generators import grid_2d, road_network, scale_free
from repro.graphs.weights import random_integer_weights

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def weighted_solver():
    g = random_connected_graph(60, 140, seed=0, weight_high=30)
    return g, PreprocessedSSSP(g, k=2, rho=12, heuristic="dp")


class TestCorrectness:
    def test_matches_dijkstra_from_many_sources(self, weighted_solver):
        g, sp = weighted_solver
        for s in (0, 17, 42):
            assert np.allclose(sp.distances(s), dijkstra(g, s).dist)

    def test_augmentation_preserves_metric(self, weighted_solver):
        """Shortcuts carry exact shortest-path weights (Lemma 4.1), so
        queries on the augmented graph return input-graph distances."""
        g, sp = weighted_solver
        assert sp.graph.m >= g.m
        assert np.allclose(sp.distances(5), dijkstra(g, 5).dist)

    def test_parents_realize_distances(self, weighted_solver):
        g, sp = weighted_solver
        res = sp.solve(3, track_parents=True)
        v = int(np.argmax(np.where(np.isfinite(res.dist), res.dist, -1)))
        path = res.path_to(v)
        assert path[0] == 3 and path[-1] == v


class TestEngines:
    def test_auto_picks_vectorized_on_unit_graph(self):
        """Unit weights need no engine of their own: the flat frontier is
        §3.4's, and it tracks parents."""
        g = grid_2d(8, 8)
        sp = PreprocessedSSSP(g, k=1, rho=2, heuristic="full")
        assert sp.graph.is_unweighted
        assert sp.resolve_engine("auto") == "vectorized"
        res = sp.solve(0, track_parents=True)
        assert res.algorithm == "radius-stepping"
        path = res.path_to(63)
        assert path[0] == 0 and path[-1] == 63
        assert len(path) - 1 == res.dist[63] == dijkstra(g, 0).dist[63]

    def test_auto_picks_vectorized_on_weighted(self, weighted_solver):
        _, sp = weighted_solver
        assert sp.solve(0).algorithm == "radius-stepping"

    @pytest.mark.parametrize("family", ["unit-grid", "random", "scale-free", "road"])
    def test_auto_is_vectorized_on_every_family(self, family):
        """``auto`` names one engine whatever the graph: its answer, with
        parents, is ``vectorized``'s bit for bit."""
        make = {
            "unit-grid": lambda: grid_2d(9, 9),
            "random": lambda: random_connected_graph(80, 200, seed=3),
            "scale-free": lambda: random_integer_weights(
                scale_free(80, seed=2), low=1, high=20, seed=2
            ),
            "road": lambda: random_integer_weights(
                road_network(90, seed=1)[0], low=1, high=40, seed=1
            ),
        }
        g = make[family]()
        sp = PreprocessedSSSP(g, k=2, rho=8)
        assert sp.resolve_engine("auto") == "vectorized"
        auto = sp.solve(0, track_parents=True)
        ref = sp.solve(0, engine="vectorized", track_parents=True)
        assert np.array_equal(auto.dist, ref.dist)
        assert np.array_equal(auto.parent, ref.parent)
        assert np.allclose(auto.dist, dijkstra(g, 0).dist)

    def test_registered_plugin_leaves_auto_alone(self, weighted_solver):
        """Registering an engine adds an explicit name; ``auto`` still
        resolves to ``vectorized`` and the plugin runs only when named."""
        import repro.engine.registry as registry

        calls = []

        def solve(graph, source, radii, **kwargs):
            calls.append(source)
            return registry.solve_with_engine("dijkstra", graph, source, radii)

        registry.register_engine("test-named-only", solve, supports_parents=False)
        try:
            g, sp = weighted_solver
            assert sp.resolve_engine("auto") == "vectorized"
            assert sp.resolve_engine("test-named-only") == "test-named-only"
            sp.solve(4)
            assert calls == []
            res = sp.solve(4, engine="test-named-only")
            assert len(calls) == 1
            assert np.allclose(res.dist, dijkstra(g, 4).dist)
        finally:
            registry._REGISTRY.pop("test-named-only", None)

    def test_plugin_error_propagates(self, weighted_solver):
        """An engine's ``ValueError`` reaches the caller: no other engine
        is tried in its place."""
        import repro.engine.registry as registry

        def solve(graph, source, radii, **kwargs):
            raise ValueError("test engine: not applicable to this graph")

        registry.register_engine("test-inapplicable", solve)
        try:
            _, sp = weighted_solver
            with pytest.raises(ValueError, match="not applicable"):
                sp.solve(0, engine="test-inapplicable")
            assert sp.solve(0).algorithm == "radius-stepping"
        finally:
            registry._REGISTRY.pop("test-inapplicable", None)

    def test_engines_agree(self, weighted_solver):
        _, sp = weighted_solver
        a = sp.solve(7, engine="vectorized")
        b = sp.solve(7, engine="bst")
        assert np.allclose(a.dist, b.dist)
        assert (a.steps, a.substeps) == (b.steps, b.substeps)

    def test_bad_engine_rejected(self, weighted_solver):
        _, sp = weighted_solver
        with pytest.raises(ValueError):
            sp.solve(0, engine="quantum")

    def test_bst_engine_rejects_parent_tracking(self, weighted_solver):
        _, sp = weighted_solver
        with pytest.raises(ValueError):
            sp.solve(0, engine="bst", track_parents=True)


class TestAmortization:
    def test_query_counter(self, weighted_solver):
        g = random_connected_graph(30, 70, seed=1)
        sp = PreprocessedSSSP(g, k=1, rho=6, heuristic="full")
        sp.solve_many([0, 1, 2])
        assert sp.queries_answered == 3

    def test_mean_steps_beats_dijkstra(self):
        """The whole point: preprocessed queries take far fewer rounds."""
        g = random_connected_graph(150, 400, seed=2, weight_high=10**4)
        sp = PreprocessedSSSP(g, k=2, rho=24, heuristic="dp")
        sources = [0, 50, 100]
        base = np.mean([dijkstra(g, s).steps for s in sources])
        assert sp.mean_steps(sources) * 2 < base

    def test_substep_bound_holds_on_hub_graph(self):
        web = scale_free(200, attach=3, seed=5)
        sp = PreprocessedSSSP(web, k=3, rho=16, heuristic="dp")
        res = sp.solve(0)
        assert res.max_substeps <= 3 + 2


class TestSourceValidation:
    """Both query entry points check every source before any id
    translation: a bool is not vertex 0/1 (``dist[True] = 0.0`` would
    zero the whole row), a float is not truncated, and a negative id
    does not wrap through the reordering permutation to vertex n + v."""

    @pytest.fixture(scope="class", params=["natural", "rcm"])
    def facade(self, request):
        return PreprocessedSSSP(grid_2d(5, 5), k=2, rho=4, reorder=request.param)

    @pytest.mark.parametrize("bad", [True, False, np.True_])
    def test_bool_rejected(self, facade, bad):
        with pytest.raises(TypeError, match="bool"):
            facade.solve(bad)
        with pytest.raises(TypeError, match="bool"):
            facade.solve_many([0, bad])

    @pytest.mark.parametrize("bad", [2.0, 2.7, np.float64(3.0), "4"])
    def test_non_integer_rejected(self, facade, bad):
        with pytest.raises(TypeError, match="integer vertex id"):
            facade.solve(bad)
        with pytest.raises(TypeError, match="integer vertex id"):
            facade.solve_many([bad])

    @pytest.mark.parametrize("bad", [-1, -3, 25, np.int64(26)])
    def test_out_of_range_rejected(self, facade, bad):
        with pytest.raises(ValueError, match="out of range"):
            facade.solve(bad)
        with pytest.raises(ValueError, match="out of range"):
            facade.solve_many([1, bad])

    def test_rejected_batch_is_not_charged(self, facade):
        before = facade.queries_answered
        with pytest.raises(ValueError):
            facade.solve_many([0, 1, -1])
        assert facade.queries_answered == before

    def test_numpy_integer_sources_accepted(self, facade):
        ref = dijkstra(grid_2d(5, 5), 7).dist
        assert np.array_equal(facade.solve(np.int32(7)).dist, ref)
        (res,) = facade.solve_many(np.array([7], dtype=np.int64))
        assert np.array_equal(res.dist, ref)
