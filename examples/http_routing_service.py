#!/usr/bin/env python
"""Routing over the wire: the HTTP front end and a tiny JSON client.

The serving stack ends at a network boundary: ``repro.serve.http``
exposes one :class:`~repro.serve.service.RoutingService` through a
stdlib ``ThreadingHTTPServer``, every request thread calling the same
thread-safe planner (one locked LRU cache, single-flight solves).  This
example stands the whole thing up on a loopback socket:

1. **boot** — preprocess a road network, persist the artifact, then
   warm-start the service from it (the production boot path) and
   start the HTTP server on an ephemeral port,
2. **client** — a ~30-line ``urllib`` JSON client (the kind of thing a
   microservice consumer would write) issues single-source, route,
   k-nearest and batch requests, validating answers against Dijkstra,
3. **concurrency** — 8 client threads fire a mixed workload at the
   server; every answer must match the serial reference and the
   planner's books must balance (hits + misses == lookups),
4. **error contract** — malformed requests come back as structured
   4xx JSON, not stack traces,
5. **graceful shutdown** — the server drains and releases the socket.

Run:  python examples/http_routing_service.py

The same endpoints work from the shell::

    curl http://127.0.0.1:8080/route/3/94
    curl http://127.0.0.1:8080/nearest/3/5
    curl -X POST http://127.0.0.1:8080/batch \
         -d '{"queries": [{"type": "route", "source": 3, "target": 94}]}'
"""

import json
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro import RoutingService, dijkstra
from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.serve import RoutingHTTPServer


class RoutingClient:
    """Tiny stdlib JSON client for the routing HTTP API."""

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(
            f"{self.base_url}{path}", timeout=self.timeout
        ) as resp:
            return json.loads(resp.read())

    def healthz(self) -> dict:
        return self._get("/healthz")

    def stats(self) -> dict:
        return self._get("/stats")

    def distances(self, source: int) -> np.ndarray:
        doc = self._get(f"/distances/{source}")
        return np.array(
            [np.inf if d is None else d for d in doc["distances"]]
        )

    def route(self, source: int, target: int) -> dict:
        return self._get(f"/route/{source}/{target}")

    def nearest(self, source: int, k: int) -> dict:
        return self._get(f"/nearest/{source}/{k}")

    def batch(self, queries: list) -> list:
        data = json.dumps({"queries": queries}).encode()
        req = urllib.request.Request(
            f"{self.base_url}/batch",
            data=data,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return json.loads(resp.read())["answers"]


def main(n: int = 600, k: int = 2, rho: int = 16, threads: int = 8) -> None:
    g, _coords = road_network(n, seed=3)
    graph = random_integer_weights(g, low=1, high=100, seed=4)
    print(f"road network: {graph.n} vertices, {graph.m} edges")

    # -- 1. boot: preprocess once, persist, warm-start, serve ---------------
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "road.kr.npz"
        RoutingService(graph, k=k, rho=rho).save_artifact(artifact)
        service = RoutingService.from_artifact(
            artifact, expect_graph=graph, cache_capacity=64
        )
    with RoutingHTTPServer(service) as server:
        client = RoutingClient(server.url)
        print(f"HTTP server listening on {server.url}")
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["shards"] == 1  # single service = one-shard special case

        # -- 2. the client walks every endpoint --------------------------
        ref = dijkstra(graph, 3)
        row = client.distances(3)
        assert np.array_equal(row, ref.dist), "row must match Dijkstra"
        route = client.route(3, 94)
        assert route["distance"] == ref.dist[94]
        assert route["path"][0] == 3 and route["path"][-1] == 94
        near = client.nearest(3, 5)
        assert near["distances"] == np.sort(ref.dist)[1:6].tolist()
        answers = client.batch(
            [
                {"type": "route", "source": 3, "target": 94},
                {"type": "nearest", "source": 3, "k": 5},
                {"type": "distances", "source": 17},
            ]
        )
        assert answers[0]["distance"] == ref.dist[94]
        print(
            f"endpoints OK: route 3->94 distance {route['distance']:.0f} "
            f"({len(route['path'])} hops), {near['count']} nearest, "
            f"batch of {len(answers)} coalesced"
        )

        # -- 3. concurrent mixed workload --------------------------------
        errors: list = []
        hubs = list(range(0, 24))

        def hammer(i: int) -> None:
            try:
                c = RoutingClient(server.url)
                for r in range(5):
                    s, t = hubs[(i * 3 + r) % 24], hubs[(i * 5 + r + 1) % 24]
                    got = c.route(s, t)
                    assert got["distance"] == service.route(s, t).distance
                    c.batch(
                        [
                            {"type": "nearest", "source": s, "k": 4},
                            {"type": "route", "source": t, "target": s},
                        ]
                    )
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert not errors, errors
        stats = client.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        print(
            f"{threads} concurrent clients: zero errors, "
            f"{stats['hits']} hits / {stats['misses']} misses over "
            f"{stats['lookups']} lookups, {stats['solves']} solver runs, "
            f"{stats['single_flight_waits']} single-flight waits"
        )

        # -- 4. the error contract ----------------------------------------
        try:
            client.route(3, -1)
            raise AssertionError("negative target must be rejected")
        except urllib.error.HTTPError as exc:
            body = json.loads(exc.read())
            assert exc.code == 400
            print(
                f"error contract: GET /route/3/-1 -> {exc.code} "
                f"{body['error']}: {body['message']}"
            )

        url = server.url
    # -- 5. graceful shutdown (the `with` exit drained the server) ----------
    try:
        urllib.request.urlopen(f"{url}/healthz", timeout=2)
        raise AssertionError("server must be down after close")
    except urllib.error.URLError:
        print("graceful shutdown: socket released, in-flight requests drained")


if __name__ == "__main__":
    main()
