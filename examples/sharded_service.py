#!/usr/bin/env python
"""Sharded serving end to end: partition, preprocess per shard, stitch.

The single-graph pipeline scales until one box can no longer hold (or
rebuild) the whole (k,ρ)-preprocessing.  The sharded architecture splits
the graph into vertex shards, preprocesses each shard independently
(this is where a multi-box deployment would fan out), and answers
cross-shard queries by stitching through a small **boundary overlay** —
cut edges at their original weight plus exact within-shard distances
between boundary vertices.  Overlay shortest paths equal full-graph
shortest paths, so the stitched metric is *bit-identical* to the
unsharded service on integer weights.

This example walks the full lifecycle:

1. **partition** — compare the two shipped partitioners (`contiguous`
   RCM ranges vs `ldd` ball growing) on edge cut and balance,
2. **cold start** — `ShardRouter` builds the per-shard preprocessing
   and the overlay in one call,
3. **parity** — full rows, routes and k-nearest answers checked
   bit-for-bit against the unsharded `RoutingService` and Dijkstra,
   including a route that crosses shard boundaries,
4. **persist + warm start** — save the checksummed bundle directory
   (manifest + one artifact per shard + overlay + topology) and boot a
   second router from it with `from_artifact`,
5. **operations** — the router speaks the same query surface as the
   single service, so `/stats` topology and `healthz` shard counts come
   for free (and it drops behind `RoutingHTTPServer` unchanged).

Run:  python examples/sharded_service.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import RoutingService, dijkstra
from repro.graphs import compute_partition
from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.serve import KNearest, ShardRouter

K, RHO = 2, 24
N_SHARDS = 4


def main(n: int = 1200, n_shards: int = N_SHARDS, k: int = K, rho: int = RHO) -> None:
    g, _coords = road_network(n, seed=3)
    graph = random_integer_weights(g, low=1, high=100, seed=4)
    print(f"road network: {graph.n} vertices, {graph.m} edges, {n_shards} shards")

    # -- 1. partitioner face-off --------------------------------------------
    for method in ("contiguous", "ldd"):
        part = compute_partition(graph, method, n_shards, seed=0)
        print(
            f"partition {method:<10}: edge cut {part.edge_cut:>4} "
            f"({part.edge_cut / graph.m:.1%} of edges), "
            f"balance {part.balance:.2f}, "
            f"boundary {len(part.boundary_vertices)} vertices"
        )

    # -- 2. cold start: shard, preprocess each shard, build the overlay -----
    t0 = time.perf_counter()
    router = ShardRouter(
        graph, n_shards=n_shards, partition="contiguous", k=k, rho=rho
    )
    t_cold = time.perf_counter() - t0
    print(f"sharded cold start (k={k} rho={rho}): {t_cold * 1e3:.1f} ms")

    # -- 3. parity against the unsharded service ----------------------------
    service = RoutingService(graph, k=k, rho=rho)
    rng = np.random.default_rng(7)
    sources = [int(s) for s in rng.choice(graph.n, 4, replace=False)]
    for s in sources:
        assert np.array_equal(router.distances(s), service.distances(s))
    print(f"full rows from {len(sources)} sources: bit-identical to unsharded")

    # a route that must cross shard boundaries: endpoints in different
    # shards, verified hop by hop against Dijkstra on the input graph
    s, t = sources[0], next(
        int(v)
        for v in range(graph.n - 1, -1, -1)
        if router.shard_of(v) != router.shard_of(sources[0])
    )
    route = router.route(s, t)
    ref = dijkstra(graph, s)
    assert route.distance == ref.dist[t], "stitched route must be exact"
    assert route.path is not None and route.path[0] == s and route.path[-1] == t
    print(
        f"cross-shard route {s} (shard {router.shard_of(s)}) -> "
        f"{t} (shard {router.shard_of(t)}): distance {route.distance:.0f}, "
        f"{len(route.path)} hops; matches Dijkstra"
    )

    near = router.nearest(s, 5)
    want = service.nearest(s, 5)
    assert np.array_equal(near.vertices, want.vertices)
    assert np.array_equal(near.distances, want.distances)

    # -- 4. persist the bundle, warm start from it ---------------------------
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "road.shards"
        router.save_artifact(bundle)
        size = sum(p.stat().st_size for p in bundle.iterdir())
        members = sorted(p.name for p in bundle.iterdir())
        print(f"bundle saved: {size / 1024:.0f} KiB, members {members}")

        t0 = time.perf_counter()
        warm = ShardRouter.from_artifact(bundle, expect_graph=graph)
        t_warm = time.perf_counter() - t0
        print(
            f"warm start from bundle: {t_warm * 1e3:.1f} ms "
            f"({t_cold / t_warm:.0f}x faster than cold)"
        )
        answers = warm.batch([(s, t), sources[1], KNearest(s, 5)])
        assert answers[0].distance == route.distance
        assert np.array_equal(answers[1], service.distances(sources[1]))
        print("warm router batch: bit-identical to the unsharded service")

    # -- 5. operational surface ----------------------------------------------
    stats = router.stats()
    health = router.healthz()
    assert health["shards"] == n_shards
    per_shard = ", ".join(
        f"shard {e['shard']}: {e['vertices']}v/{e['boundary']}b"
        for e in stats["topology"]["shards"]
    )
    print(
        f"healthz: {health['status']}, {health['shards']} shards "
        f"(artifact v{health['artifact_version']})"
    )
    print(
        f"topology: {per_shard}; overlay "
        f"{stats['topology']['overlay']['vertices']} vertices / "
        f"{stats['topology']['overlay']['edges']} edges"
    )
    print(
        f"stitched-row cache: {stats['stitched']['hits']} hits, "
        f"{stats['stitched']['misses']} misses; "
        f"{stats['queries_answered']} shard-level solves "
        f"(per stitch: one source row plus one seeded solve per shard)"
    )


if __name__ == "__main__":
    main()
