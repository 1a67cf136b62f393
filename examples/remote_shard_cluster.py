#!/usr/bin/env python
"""Multi-box sharded serving: remote shard backends over HTTP.

``examples/sharded_service.py`` stitches shards that all live in one
process.  This example lifts that seam onto the network: every shard is
served by its **own HTTP server** (in production, its own box), and the
front-end router fetches source rows and seeded shard solves across
the wire as compact binary float64 frames — so the stitched answers
stay *bit-identical* to the in-process router, sockets and all.

The walkthrough:

1. **preprocess + persist** — build the sharded (k,ρ)-preprocessing
   once and save the checksummed bundle directory; stamp per-shard
   endpoint hints into its manifest (``stamp_endpoints``), which is how
   a real deployment records where each shard lives,
2. **boot the cluster** — ``ShardCluster`` starts one
   ``RoutingHTTPServer`` per shard plus a stitching front end whose
   ``RemoteBackend`` transports pool connections, bound every request
   by a deadline, and retry transient failures with interruptible
   backoff,
3. **parity over the wire** — rows and cross-shard routes from the
   remote router compared bit-for-bit against the in-process
   ``ShardRouter`` on the same bundle,
4. **observability** — the front end's ``/stats`` now carries a
   ``backends`` table (kind, endpoint, health, consecutive failures,
   p50 row-fetch latency),
5. **degraded mode** — kill one shard server and watch the contract:
   queries needing it fail *typed* (``ShardUnavailableError`` → HTTP
   503 naming the shard) within the deadline, cached stitches keep
   serving, ``healthz`` flips to ``degraded``, and recovery is just
   the shard coming back.

Run:  python examples/remote_shard_cluster.py
"""

import json
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.serve import (
    ShardCluster,
    ShardRouter,
    ShardUnavailableError,
    load_shard_topology,
    stamp_endpoints,
)

K, RHO = 2, 24
N_SHARDS = 3


def main(n: int = 900, n_shards: int = N_SHARDS, k: int = K, rho: int = RHO) -> None:
    g, _coords = road_network(n, seed=7)
    graph = random_integer_weights(g, low=1, high=100, seed=8)
    print(f"road network: {graph.n} vertices, {graph.m} edges, {n_shards} shards")

    # -- 1. preprocess once, persist the bundle -----------------------------
    local = ShardRouter(graph, n_shards=n_shards, k=k, rho=rho, partition="ldd")
    with tempfile.TemporaryDirectory() as tmp:
        bundle = Path(tmp) / "bundle"
        local.save_artifact(bundle)
        # a deployment stamps where each shard will be served; the
        # front-end box then needs only the bundle's manifest + overlay
        stamp_endpoints(
            bundle,
            [f"http://127.0.0.1:{7000 + s}" for s in range(n_shards)],
        )
        topo = load_shard_topology(bundle)
        print(
            f"bundle saved; manifest hints: "
            f"{', '.join(e.rsplit(':', 1)[-1] for e in topo.endpoints)} "
            f"(ports the shard boxes would bind)"
        )

        # -- 2. boot shard servers + front end on ephemeral ports -----------
        with ShardCluster(bundle, timeout=2.0, retries=1, backoff=0.05) as cluster:
            print(f"front end at {cluster.url}")
            for s, url in enumerate(cluster.shard_urls):
                print(f"  shard {s} served at {url}")

            # -- 3. parity over the wire ------------------------------------
            rng = np.random.default_rng(0)
            for s in map(int, rng.choice(graph.n, size=4, replace=False)):
                assert (
                    cluster.router.distances(s).tobytes()
                    == local.distances(s).tobytes()
                )
            r_local = local.route(0, graph.n - 1)
            r_remote = cluster.router.route(0, graph.n - 1)
            assert r_remote.distance == r_local.distance
            assert r_remote.path == r_local.path
            print(
                "remote stitching bit-identical to in-process "
                f"(route 0 -> {graph.n - 1}: distance {r_remote.distance:g}, "
                f"{len(r_remote.path)} hops)"
            )

            # the JSON front end sees the same answers
            with urllib.request.urlopen(
                f"{cluster.url}/distances/0", timeout=10
            ) as resp:
                doc = json.loads(resp.read())
            assert doc["reachable"] == int(np.isfinite(local.distances(0)).sum())

            # -- 4. the backends table --------------------------------------
            table = cluster.router.stats()["backends"]
            print("backends:")
            for row in table:
                p50 = row["row_fetch_p50_ms"]
                print(
                    f"  shard {row['shard']}: {row['kind']:<6} "
                    f"{row['endpoint']} healthy={row['healthy']} "
                    f"p50={p50 if p50 is None else f'{p50:.1f}ms'}"
                )
            assert all(row["kind"] == "remote" for row in table)

            # -- 5. degraded mode: kill one shard ---------------------------
            victim = 1
            warm_source = int(np.flatnonzero(topo.labels == 0)[0])
            warm_row = cluster.router.distances(warm_source)  # cache it
            cluster.shard_servers[victim].close()
            try:
                cold = int(np.flatnonzero(topo.labels == 0)[1])
                cluster.router.distances(cold)
                raise AssertionError("expected the dead shard to surface")
            except ShardUnavailableError as exc:
                print(f"typed failure names the culprit: {exc}")
                assert exc.shard == victim
            try:
                urllib.request.urlopen(f"{cluster.url}/distances/{cold}", timeout=10)
                raise AssertionError("expected HTTP 503")
            except urllib.error.HTTPError as exc:
                body = json.loads(exc.read())
                assert exc.code == 503 and body["shard"] == victim
                print(
                    f"HTTP front end: 503 {body['error']} "
                    f"(shard {body['shard']} at {body['endpoint']})"
                )
            # cached stitches keep serving; health reports the hole
            assert np.array_equal(cluster.router.distances(warm_source), warm_row)
            health = cluster.router.healthz()
            assert health["status"] == "degraded"
            assert victim in health["backends"]["unhealthy"]
            print(
                "degraded, not down: cached rows still serve, healthz = "
                f"{health['status']} (unhealthy: {health['backends']['unhealthy']})"
            )
    print("done.")


if __name__ == "__main__":
    main()
