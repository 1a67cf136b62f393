#!/usr/bin/env python
"""Routing service end to end: persist, warm-start, cache, bulk-serve.

The serving subsystem (``repro.serve``) turns the paper's
"preprocess once, query many" model (§5.4) into an operational loop:

1. **cold start** — preprocess a road network into a (k,ρ)-graph and
   stand up a :class:`~repro.serve.service.RoutingService`,
2. **persist** — save the preprocessing as a checksummed ``.npz``
   artifact,
3. **warm start** — boot a second service from the artifact (no
   (k,ρ)-construction at all) and verify it against the graph hash,
4. **query traffic** — run a mixed batch of single-source,
   point-to-point and k-nearest queries through the caching planner,
   repeat it to show the LRU cache absorbing the repeats,
5. **bulk rows** — stack one ``solve_many`` fan-out into an
   (n_sources × n) distance matrix,
   and validate every answer against Dijkstra on the input graph.

Run:  python examples/routing_service.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import RoutingService, dijkstra
from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.serve import KNearest, load_artifact

K, RHO = 2, 24


def main(n: int = 1200, k: int = K, rho: int = RHO) -> None:
    g, _coords = road_network(n, seed=3)
    graph = random_integer_weights(g, low=1, high=100, seed=4)
    print(f"road network: {graph.n} vertices, {graph.m} edges")

    # -- 1. cold start -------------------------------------------------------
    t0 = time.perf_counter()
    service = RoutingService(graph, k=k, rho=rho, cache_capacity=64)
    t_cold = time.perf_counter() - t0
    print(f"cold start (build_kr_graph k={k} rho={rho}): {t_cold * 1e3:.1f} ms")

    with tempfile.TemporaryDirectory() as tmp:
        # -- 2. persist ------------------------------------------------------
        artifact = Path(tmp) / "road.kr.npz"
        service.save_artifact(artifact)
        print(f"artifact saved: {artifact.stat().st_size / 1024:.0f} KiB")

        # -- 3. warm start ---------------------------------------------------
        t0 = time.perf_counter()
        warm = RoutingService.from_artifact(
            artifact, expect_graph=graph, cache_capacity=64
        )
        t_warm = time.perf_counter() - t0
        print(
            f"warm start from artifact: {t_warm * 1e3:.1f} ms "
            f"({t_cold / t_warm:.0f}x faster than cold)"
        )
        pre = load_artifact(artifact, expect_graph=graph)
        assert pre.graph == service.solver.graph, "round trip must be exact"
        assert np.array_equal(pre.radii, service.solver.radii)

    # -- 4. query traffic through the planner --------------------------------
    rng = np.random.default_rng(7)
    hubs = rng.choice(graph.n, 6, replace=False).tolist()
    requests = [
        (hubs[0], hubs[1]),            # point-to-point
        hubs[2],                       # single-source
        KNearest(hubs[0], 5),          # k closest facilities
        (hubs[0], hubs[3]),            # same source again: no new solve
        (hubs[4], hubs[5]),
    ]
    t0 = time.perf_counter()
    answers = warm.batch(requests)
    t_miss = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm.batch(requests)
    t_hit = time.perf_counter() - t0
    s = warm.stats()
    print(
        f"mixed batch of {len(requests)}: first pass {t_miss * 1e3:.1f} ms "
        f"(cache misses), repeat {t_hit * 1e3:.2f} ms (cache hits, "
        f"{t_miss / max(t_hit, 1e-9):.0f}x)"
    )
    print(
        f"planner stats: {s['hits']} hits, {s['misses']} misses, "
        f"{s['coalesced']} coalesced; only {s['solves']} solver runs "
        f"served {2 * len(requests)} requests"
    )

    route = answers[0]
    ref = dijkstra(graph, route.source)
    assert route.distance == ref.dist[route.target], "route must be exact"
    assert route.path is not None and route.path[0] == route.source
    assert route.path[-1] == route.target
    print(
        f"route {route.source} -> {route.target}: distance {route.distance:.0f}, "
        f"{len(route.path)} hops (shortcuts included); matches Dijkstra"
    )
    nearest = answers[2]
    assert np.array_equal(
        np.sort(ref.dist)[1 : len(nearest.distances) + 1], nearest.distances
    ), "k-nearest distances must be the k smallest"

    # -- 5. bulk rows -------------------------------------------------------
    bulk_sources = rng.choice(graph.n, 16, replace=False)
    matrix = np.stack(
        [r.dist for r in warm.solver.solve_many(bulk_sources, n_jobs=2)]
    )
    for s, row in zip(bulk_sources, matrix):
        assert np.array_equal(row, dijkstra(graph, int(s)).dist)
    closest = int(matrix.sum(axis=1).argmin())
    print(
        f"distance matrix ({len(bulk_sources)} x {graph.n}) from one "
        f"solve_many fan-out, every row exact; most central source: "
        f"vertex {int(bulk_sources[closest])}"
    )


if __name__ == "__main__":
    main()
