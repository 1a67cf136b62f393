"""One serving surface: the router's stitched rows ride the QueryPlanner,
and every shard is a RoutingService.

The router answers through the same planner core the single-graph
service does, so it inherits single-flight: concurrent misses on one
source stitch it once.  Every shard, local or remote, reports its
``per_shard`` entry from its own service's ``stats()``, so the two
transports report one shape.  Row sources never point back at their
planner, so a dropped surface frees its row cache at once, without
waiting for a cyclic garbage collection.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.dijkstra import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.graphs.generators import grid_2d
from repro.graphs.weights import random_integer_weights
from repro.obs import MetricsRegistry
from repro.obs.expo import parse, render
from repro.serve import QueryPlanner, RoutingService, ShardCluster, ShardRouter

K, RHO = 2, 12
N_SHARDS = 3
N_THREADS = 8


@pytest.fixture(scope="module")
def graph():
    return random_integer_weights(grid_2d(8, 11), low=1, high=30, seed=5)


@pytest.fixture(scope="module")
def sharded(graph):
    from repro.preprocess import build_sharded_kr_graph

    return build_sharded_kr_graph(
        graph, K, RHO, n_shards=N_SHARDS, partition="ldd", heuristic="dp"
    )


@pytest.mark.usefixtures("short_switch_interval")
class TestRouterSingleFlight:
    def test_concurrent_misses_stitch_once(self, monkeypatch, graph, sharded):
        router = ShardRouter(sharded=sharded)
        source = 17
        backend = router.backends[router.shard_of(source)]
        real = backend.source_row
        calls: list[int] = []

        def slow(local_source, **kwargs):
            calls.append(local_source)
            time.sleep(0.2)
            return real(local_source, **kwargs)

        monkeypatch.setattr(backend, "source_row", slow)
        barrier = threading.Barrier(N_THREADS)
        rows: list[np.ndarray] = []
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                barrier.wait()
                rows.append(router.distances(source))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert not errors, errors
        assert len(calls) == 1
        stitched = router.stats()["stitched"]
        assert stitched["hits"] + stitched["misses"] == N_THREADS
        ref = dijkstra(graph, source).dist
        assert len(rows) == N_THREADS
        for row in rows:
            assert row is rows[0]
            assert np.array_equal(row, ref)


class TestOneStatsPath:
    def test_local_and_remote_per_shard_entries_agree(self, sharded):
        """A local router and a cluster router over the same shards
        report the same per-shard keys — and, after the same query, the
        same values."""
        local = ShardRouter(sharded=sharded)
        local.distances(5)
        with ShardCluster(sharded) as cluster:
            cluster.router.distances(5)
            remote = cluster.router.stats()["per_shard"]
        ours = local.stats()["per_shard"]
        assert len(ours) == len(remote) == N_SHARDS
        for a, b in zip(ours, remote):
            assert set(a) == set(b)
            assert a == b

    def test_engine_is_none_when_no_shard_answers(self, sharded):
        with ShardCluster(
            sharded, retries=0, backoff=0.01, request_timeout=0.5
        ) as cluster:
            for server in cluster.shard_servers:
                if server is not None:
                    server.close()
            stats = cluster.router.stats()
        assert stats["engine"] is None
        assert stats["queries_answered"] == 0
        assert all(entry["unavailable"] for entry in stats["per_shard"])


class TestInstrumentMoves:
    """Instrumenting a second registry moves the surface: the first
    registry's scrape loses its planner series, the second carries them
    under the new ``service`` label."""

    @staticmethod
    def _services(registry) -> set:
        exp = parse(render(registry))
        return {
            dict(labels)["service"]
            for labels in exp.series("planner_cache_lookups_total")
        }

    @pytest.mark.parametrize("kind", ["service", "router"])
    def test_second_registry_takes_the_series(self, kind, graph, sharded):
        if kind == "service":
            surface = RoutingService(graph, k=K, rho=RHO)
        else:
            surface = ShardRouter(sharded=sharded)
        first, second = MetricsRegistry(), MetricsRegistry()
        old = surface.instrument(first)
        surface.distances(3)
        assert self._services(first) == {old}
        new = surface.instrument(second)
        assert new != old
        assert self._services(first) == set()
        assert self._services(second) == {new}
        assert surface.instrument(second) == new  # idempotent


class TestPlannerLifetime:
    """A row source that referenced its planner would put the planner
    in a reference cycle; its cached rows would then outlive the last
    user until a full collection."""

    def test_dropped_planners_die_without_a_collection(self, graph, sharded):
        gc.collect()
        gc.disable()
        try:
            service = RoutingService(graph, k=K, rho=RHO)
            service.instrument(MetricsRegistry())
            service.distances(3)
            ref = weakref.ref(service.planner)
            del service
            assert ref() is None

            router = ShardRouter(sharded=sharded)
            router.instrument(MetricsRegistry())
            router.route(3, 40)
            refs = [weakref.ref(router._planner)] + [
                weakref.ref(backend.service.planner)
                for backend in router.backends
                if backend is not None
            ]
            del router
            assert all(r() is None for r in refs)

            planner = QueryPlanner(PreprocessedSSSP(graph, k=K, rho=RHO))
            planner.distances(3)
            ref = weakref.ref(planner)
            del planner
            assert ref() is None
        finally:
            gc.enable()
