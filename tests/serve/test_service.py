"""RoutingService facade: cold/warm construction, queries, stats."""

import numpy as np
import pytest

from repro.core import dijkstra
from repro.serve import (
    ArtifactGraphMismatchError,
    KNearest,
    RoutingService,
)

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(60, 140, seed=29, weight_high=30)


@pytest.fixture(scope="module")
def service(graph):
    return RoutingService(graph, k=2, rho=8, cache_capacity=16)


class TestConstruction:
    def test_requires_graph_or_solver(self):
        with pytest.raises(ValueError, match="graph or a solver"):
            RoutingService()

    def test_warm_start_round_trip(self, graph, service, tmp_path):
        path = tmp_path / "svc.npz"
        service.save_artifact(path)
        warm = RoutingService.from_artifact(
            path, expect_graph=graph, cache_capacity=16
        )
        for s in (0, 11, 37):
            assert np.array_equal(warm.distances(s), service.distances(s))
        assert warm.stats()["rho"] == service.stats()["rho"]

    def test_from_artifact_rejects_wrong_graph(self, service, tmp_path):
        path = tmp_path / "svc.npz"
        service.save_artifact(path)
        other = random_connected_graph(60, 140, seed=77)
        with pytest.raises(ArtifactGraphMismatchError):
            RoutingService.from_artifact(path, expect_graph=other)

    def test_from_artifact_rejects_preprocessing_knobs(
        self, graph, service, tmp_path
    ):
        """k/rho/heuristic would be silently ignored (the artifact fixes
        the preprocessing) — they must be rejected, not swallowed."""
        path = tmp_path / "svc.npz"
        service.save_artifact(path)
        with pytest.raises(TypeError, match="artifact fixes the preprocessing"):
            RoutingService.from_artifact(path, expect_graph=graph, k=4)
        with pytest.raises(TypeError, match="rebuild"):
            RoutingService.from_artifact(
                path, expect_graph=graph, heuristic="greedy"
            )


class TestQueries:
    def test_distances(self, graph, service):
        assert np.array_equal(service.distances(3), dijkstra(graph, 3).dist)

    def test_default_config_works_on_unit_weight_graphs(self):
        """On a unit-weight graph auto resolves to the general engine,
        which tracks parents, so the default track_parents=True service
        routes with paths."""
        from repro.graphs.generators import grid_2d

        g = grid_2d(6, 6)
        svc = RoutingService(g, k=2, rho=4)
        route = svc.route(0, 5)
        assert route.distance == dijkstra(g, 0).dist[5]
        assert route.path is not None
        assert svc.stats()["engine"] == "vectorized"

    def test_explicit_parentless_engine_rejected_at_construction(self):
        from repro.graphs.generators import grid_2d
        from repro.serve import QueryPlanner
        from repro.core.solver import PreprocessedSSSP

        sp = PreprocessedSSSP(grid_2d(5, 5), k=1, rho=2, heuristic="full")
        with pytest.raises(ValueError, match="does not track parents"):
            QueryPlanner(sp, engine="bst", track_parents=True)

    def test_route(self, graph, service):
        route = service.route(3, 50)
        assert route.distance == dijkstra(graph, 3).dist[50]
        assert route.path is not None  # service tracks parents by default

    def test_nearest(self, graph, service):
        near = service.nearest(8, 4)
        assert np.array_equal(near.distances, np.sort(dijkstra(graph, 8).dist)[1:5])

    def test_batch_mixed(self, graph, service):
        answers = service.batch([(2, 9), 2, KNearest(2, 3)])
        ref = dijkstra(graph, 2).dist
        assert answers[0].distance == ref[9]
        assert np.array_equal(answers[1], ref)
        assert len(answers[2].vertices) == 3

    def test_warm_sources(self, service):
        service.warm([40, 41])
        before = service.stats()["solves"]
        service.distances(40)
        assert service.stats()["solves"] == before


class TestStats:
    def test_stats_surface(self, graph):
        svc = RoutingService(graph, k=2, rho=8, cache_capacity=4)
        svc.distances(0)
        svc.route(0, 5)
        s = svc.stats()
        assert s["n"] == graph.n
        assert s["k"] == 2 and s["rho"] == 8
        assert s["hits"] == 1 and s["misses"] == 1
        assert s["queries_answered"] >= 1
        assert s["engine"] == "vectorized"
        assert s["cached_rows"] == 1

    def test_strided_depots_share_one_lru(self):
        """64 depots on a stride of 8 fit the default 256-row cache: the
        second and third rounds of their routes are all hits."""
        from repro.graphs.generators import grid_2d
        from repro.graphs.weights import random_integer_weights

        g = random_integer_weights(grid_2d(24, 24), low=1, high=30, seed=2)
        svc = RoutingService(g, k=2, rho=8)
        depots = range(0, 512, 8)
        for _ in range(3):
            for s in depots:
                svc.route(s, g.n - 1 - s)
        s = svc.stats()
        assert (s["hits"], s["misses"], s["evictions"]) == (128, 64, 0)


def test_served_misses_feed_live_step_telemetry():
    """The in-process solve path passes the observer into the engine, so
    a served miss fills the per-step histograms, not only run totals."""
    from repro.graphs.generators import grid_2d
    from repro.graphs.weights import random_integer_weights
    from repro.obs import MetricsRegistry
    from repro.obs.expo import parse, render

    g = random_integer_weights(grid_2d(12, 12), low=1, high=9, seed=1)
    svc = RoutingService(g, k=2, rho=16)
    registry = MetricsRegistry()
    svc.instrument(registry)
    svc.route(0, 143)
    svc.nearest(70, 5)
    exp = parse(render(registry))
    engine = svc.stats()["engine"]
    assert exp.value("engine_solves_total", engine=engine) == 2
    steps = exp.value("engine_solve_steps_sum", engine=engine)
    assert steps >= 2
    assert exp.value("engine_step_settled_count", engine=engine) == steps
    assert exp.value("engine_step_substeps_count", engine=engine) == steps
    assert exp.value("engine_step_substeps_sum", engine=engine) == exp.value(
        "engine_solve_substeps_sum", engine=engine
    )
