"""Remote-shard parity and fault injection over a live ShardCluster.

The acceptance bar of the transport seam: a front-end router whose
backends fetch rows **over real HTTP sockets** must be bit-identical to
the in-process ShardRouter over the same sharded preprocessing — for
every registered engine, under both shipped partitioners.  Integer
weights make float sums exact, so parity is ``np.array_equal``, not
``allclose``.

Fault injection pins the degraded-mode contract: killing a shard server
mid-operation turns queries touching it into a *typed* failure naming
the shard — ``ShardUnavailableError`` in process, a 503 JSON body over
HTTP — within the configured deadline, never a hang.  A healthy-shard
query keeps working: degradation is per-shard, not cluster-wide.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine.registry import available_engines, get_engine
from repro.graphs.generators import grid_2d
from repro.graphs.weights import random_integer_weights
from repro.serve import ShardCluster, ShardRouter, ShardUnavailableError
from repro.serve.backends import decode_rows, encode_rows

K, RHO = 2, 12
N_SHARDS = 3
PARTITIONERS = ("contiguous", "ldd")


@pytest.fixture(scope="module")
def graph():
    return random_integer_weights(grid_2d(8, 11), low=1, high=30, seed=5)


@pytest.fixture(scope="module")
def sharded(graph):
    from repro.preprocess import build_sharded_kr_graph

    return {
        part: build_sharded_kr_graph(
            graph, K, RHO, n_shards=N_SHARDS, partition=part, heuristic="dp"
        )
        for part in PARTITIONERS
    }


class TestRemoteParity:
    @pytest.mark.parametrize("partition", PARTITIONERS)
    @pytest.mark.parametrize("engine", available_engines())
    def test_every_engine_bit_identical_over_the_wire(
        self, engine, partition, graph, sharded
    ):
        track_parents = get_engine(engine).supports_parents
        local = ShardRouter(
            sharded=sharded[partition], engine=engine, track_parents=track_parents
        )
        with ShardCluster(
            sharded[partition], engine=engine, track_parents=track_parents
        ) as cluster:
            remote = cluster.router
            rng = np.random.default_rng(hash((engine, partition)) % 2**32)
            for s in map(int, rng.choice(graph.n, size=3, replace=False)):
                a, b = local.distances(s), remote.distances(s)
                assert a.tobytes() == b.tobytes()  # bit-identical
            for s, t in [(0, graph.n - 1), (3, graph.n // 2)]:
                a, b = local.route(s, t), remote.route(s, t)
                assert a.distance == b.distance
                assert a.path == b.path
            a, b = local.nearest(1, 6), remote.nearest(1, 6)
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.distances, b.distances)

    @pytest.mark.parametrize("partition", PARTITIONERS)
    def test_unit_weight_graph(self, partition):
        """A unit-weight augmented graph serves on the default engine,
        parents included, bit-identically over the wire."""
        from repro.preprocess import build_sharded_kr_graph

        g = grid_2d(7, 9)
        sh = build_sharded_kr_graph(
            g, 1, 2, n_shards=N_SHARDS, partition=partition, heuristic="full"
        )
        local = ShardRouter(sharded=sh)
        with ShardCluster(sh) as cluster:
            for s in (0, 30, g.n - 1):
                assert np.array_equal(
                    local.distances(s), cluster.router.distances(s)
                )
            a, b = local.route(0, g.n - 1), cluster.router.route(0, g.n - 1)
            assert a.distance == b.distance == 14.0
            assert a.path == b.path and a.path[0] == 0 and a.path[-1] == g.n - 1

    def test_http_front_end_round_trip(self, graph, sharded):
        """The full three-hop path: client JSON -> front end -> binary
        row fetches -> stitched JSON answer."""
        local = ShardRouter(sharded=sharded["ldd"])
        with ShardCluster(sharded["ldd"]) as cluster:
            with urllib.request.urlopen(
                f"{cluster.url}/distances/5", timeout=10
            ) as resp:
                doc = json.loads(resp.read())
            want = local.distances(5)
            got = np.array(
                [np.inf if d is None else d for d in doc["distances"]]
            )
            assert np.array_equal(got, want)
            st = json.loads(
                urllib.request.urlopen(f"{cluster.url}/stats", timeout=10).read()
            )
            assert len(st["backends"]) == N_SHARDS
            assert all(row["kind"] == "remote" for row in st["backends"])
            assert st["shards"] == N_SHARDS


class TestFaultInjection:
    @pytest.fixture()
    def cluster(self, sharded):
        with ShardCluster(
            sharded["contiguous"], timeout=1.0, retries=1, backoff=0.02
        ) as c:
            yield c

    def _shard_of(self, cluster, shard):
        """Some vertex owned by ``shard``."""
        return int(np.flatnonzero(cluster.router.topology_info.labels == shard)[0])

    def test_killed_shard_yields_typed_503_within_deadline(self, cluster):
        victim = 1
        cluster.shard_servers[victim].close()
        source = self._shard_of(cluster, 0)  # stitching still needs shard 1
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(
                f"{cluster.url}/distances/{source}", timeout=30
            ) as resp:
                pytest.fail(f"expected 503, got 200: {resp.read()[:100]!r}")
        except urllib.error.HTTPError as exc:
            elapsed = time.perf_counter() - t0
            doc = json.loads(exc.read())
            assert exc.code == 503
            assert doc["error"] == "ShardUnavailable"
            assert doc["shard"] == victim
            assert doc["endpoint"] == cluster.shard_urls[victim]
            # deadline + retry budget, with slack — never a hang
            assert elapsed < 15.0

    def test_killed_shard_raises_in_process(self, cluster):
        victim = 2
        cluster.shard_servers[victim].close()
        source = self._shard_of(cluster, 0)
        with pytest.raises(ShardUnavailableError) as exc:
            cluster.router.distances(source)
        assert exc.value.shard == victim
        health = cluster.router.healthz()
        assert health["status"] == "degraded"
        assert victim in health["backends"]["unhealthy"]
        st = cluster.router.stats()
        row = st["backends"][victim]
        assert row["healthy"] is False and row["consecutive_failures"] >= 1
        assert st["per_shard"][victim]["unavailable"] is True

    def test_cached_stitches_survive_a_dead_shard(self, cluster):
        """Rows stitched before the failure keep serving from the
        router's LRU — a dead shard degrades *new* work only."""
        source = self._shard_of(cluster, 0)
        before = cluster.router.distances(source)
        cluster.shard_servers[1].close()
        after = cluster.router.distances(source)
        assert np.array_equal(before, after)

    def test_cached_routes_survive_a_dead_shard(self, cluster):
        """A route from a cached stitched row is a parent walk: it needs
        no shard, not even the target's."""
        labels = cluster.router.topology_info.labels
        source = self._shard_of(cluster, 0)
        cluster.router.distances(source)
        cluster.shard_servers[1].close()
        for target in map(int, np.flatnonzero(labels == 1)[::5]):
            route = cluster.router.route(source, target)
            assert route.distance == cluster.router.distances(source)[target]
            assert route.path[0] == source and route.path[-1] == target

    def test_slow_shard_bounded_by_deadline(self, sharded):
        """A shard that stalls past the deadline surfaces as typed
        unavailability in bounded time, not a pinned thread."""
        with ShardCluster(
            sharded["contiguous"], timeout=0.4, retries=0, backoff=0.01
        ) as cluster:
            victim = 1
            backend = cluster.router.backends[victim]
            service = cluster.shard_servers[victim].service

            original = service.solve_seeded

            def stalled(seed, **kw):
                time.sleep(2.0)  # well past the 0.4s deadline
                return original(seed, **kw)

            service.solve_seeded = stalled
            try:
                source = self._shard_of(cluster, 0)
                t0 = time.perf_counter()
                with pytest.raises(ShardUnavailableError) as exc:
                    cluster.router.distances(source)
                elapsed = time.perf_counter() - t0
                assert exc.value.shard == victim
                assert "timed out" in exc.value.reason
                assert elapsed < 1.8  # ~timeout, never the shard's stall
                assert not backend.healthy
            finally:
                service.solve_seeded = original


class TestStoppedRemoteStitch:
    """A cold route over the wire: one row fetch and one seeded solve,
    stopped at the target, the same route the in-process router gives."""

    _WIRE = ("source_rows", "seeded_solves", "frame_bytes_sent", "frame_bytes_received")

    def _wire(self, router) -> dict:
        table = router.stats()["backends"]
        return {key: sum(row[key] for row in table) for key in self._WIRE}

    @pytest.mark.parametrize("partition", PARTITIONERS)
    def test_cold_routes_match_local(self, partition, graph, sharded):
        from repro.core.dijkstra import dijkstra

        local = ShardRouter(sharded=sharded[partition])
        rng = np.random.default_rng(7)
        sources = rng.choice(graph.n, 12, replace=False)
        targets = rng.integers(0, graph.n, 12)
        with ShardCluster(sharded[partition]) as cluster:
            remote = cluster.router
            for s, t in zip(map(int, sources), map(int, targets)):
                a, b = local.route(s, t), remote.route(s, t)
                assert a.distance == b.distance == dijkstra(graph, s).dist[t]
                assert a.path == b.path
            st = remote.stats()["stitched"]
            assert st["partial_solves"] == st["misses"] == len(sources)
            # local and remote count the same traffic for the same stitches
            assert self._wire(local) == self._wire(remote)

    def test_cold_route_and_distances_wire(self, sharded):
        sh = sharded["ldd"]
        labels = sh.labels
        s = 4
        t = int(np.flatnonzero(labels != labels[s])[0])
        n_a = int(np.count_nonzero(labels == labels[s]))
        n_c = int(np.count_nonzero(labels == labels[t]))
        with ShardCluster(sh) as cluster:
            router = cluster.router
            before = self._wire(router)
            router.route(s, t)
            after = self._wire(router)
            delta = {key: after[key] - before[key] for key in self._WIRE}
            header = 20  # the RROW frame header
            assert delta == {
                "source_rows": 1,
                "seeded_solves": 1,
                "frame_bytes_sent": header + 8 * n_c,
                # the source row with its parents, the stopped solve's
                # distance and parent rows
                "frame_bytes_received": 2 * header + 16 * (n_a + n_c),
            }
            before = after
            router.distances(s + 1)
            after = self._wire(router)
            assert after["source_rows"] - before["source_rows"] == 1
            assert 1 <= after["seeded_solves"] - before["seeded_solves"] <= N_SHARDS
            # the source row with its parents, as a 2-row frame, and
            # every shard's full solve with its parent row (the grid is
            # connected, so the overlay reaches every shard)
            n_a = int(np.count_nonzero(labels == labels[s + 1]))
            assert after["frame_bytes_received"] - before["frame_bytes_received"] == (
                (1 + N_SHARDS) * header + 16 * (n_a + len(labels))
            )

    def test_internal_stop_and_parents_are_validated(self, sharded):
        """``?stop=`` and ``?parents=`` take integers in range; anything
        else is a 400 from the shard, not a solve."""
        sh = sharded["contiguous"]
        n0 = len(sh.shard_vertices[0])
        seed = np.full(n0, np.inf)
        seed[0] = 0.0
        frame = encode_rows([seed])
        with ShardCluster(sh) as cluster:
            base = cluster.shard_urls[0]
            for query in ("stop=abc", "stop=1.5", "stop=-1", f"stop={n0}",
                          "stop=0,x", "stop=0&parents=2"):
                assert _http_error(f"{base}/internal/solve?{query}", frame) == 400
            for query in ("parents=2", "parents=yes", "parents=-1"):
                assert _http_error(f"{base}/internal/row/0?{query}") == 400
            # a valid stop: the row is final wherever it is finite
            t = n0 - 1
            with urllib.request.urlopen(
                f"{base}/internal/solve?parents=1&stop={t}", data=frame, timeout=10
            ) as resp:
                dist, parent = decode_rows(resp.read())
            full = cluster.shard_servers[0].service.solve_seeded(seed, track_parents=True)
            reached = np.isfinite(dist)
            assert reached[t] and np.array_equal(dist[reached], full.dist[reached])
            assert np.array_equal(parent[reached], full.parent[reached])
            assert np.all(parent[~reached] == -1)
            with urllib.request.urlopen(
                f"{base}/internal/row/0?parents=1", timeout=10
            ) as resp:
                dist, parent = decode_rows(resp.read())
            want = cluster.shard_servers[0].service.source_row(0, parents=True)
            assert np.array_equal(dist, want[0]) and np.array_equal(parent, want[1])


    def test_parentless_shard_servers(self, graph, sharded):
        """A front end that tracks parents over shard servers that track
        none: ``/internal/row?parents=1`` answers the distance row
        alone, and a cold route stitches in full instead of failing."""
        from contextlib import ExitStack

        from repro.core.dijkstra import dijkstra
        from repro.serve import RoutingHTTPServer
        from repro.serve.artifacts import ShardTopology
        from repro.serve.service import shard_services

        sh = sharded["ldd"]
        with ExitStack() as stack:
            urls = [
                None if service is None else stack.enter_context(RoutingHTTPServer(service)).url
                for service in shard_services(sh, track_parents=False)
            ]
            router = stack.enter_context(
                ShardRouter.remote(ShardTopology.from_sharded(sh), urls)
            )
            local = ShardRouter(sharded=sh)
            for s, t in [(0, graph.n - 1), (3, graph.n // 2), (40, 41)]:
                route, want = router.route(s, t), local.route(s, t)
                assert route.distance == want.distance == dijkstra(graph, s).dist[t]
                hops = [dijkstra(graph, u).dist[v] for u, v in zip(route.path, route.path[1:])]
                assert route.path[0] == s and route.path[-1] == t
                assert sum(hops) == route.distance
            st = router.stats()["stitched"]
            assert (st["misses"], st["partial_solves"]) == (3, 0)
            with urllib.request.urlopen(f"{urls[0]}/internal/row/0?parents=1", timeout=10) as resp:
                assert decode_rows(resp.read()).shape[0] == 1


def _http_error(url: str, data: bytes | None = None) -> int:
    try:
        with urllib.request.urlopen(url, data=data, timeout=10) as resp:
            pytest.fail(f"expected an HTTP error, got 200 from {url}: {resp.read()[:80]!r}")
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code
