"""Remote-shard stitch overhead: what the network seam actually costs.

The transport refactor's claim is that moving shard backends across
HTTP keeps answers bit-identical and costs only the wire: binary row
frames (no JSON float laundering), pooled connections, and one seeded
solve per reached shard per stitch (``POST /internal/solve``).  This
bench measures and **gates** that claim on a loopback
:class:`~repro.serve.cluster.ShardCluster`:

1. **Parity first** — remote answers are asserted bit-identical to the
   in-process router before any timing is trusted.
2. **Cold-stitch overhead** — p50 over fresh sources of a full stitched
   ``distances()`` on the remote router vs the in-process router over
   the *same* sharded preprocessing, gated by
   ``BENCH_REMOTE_MAX_OVERHEAD`` (fraction; loopback default 1.0 —
   CI relaxes via env because shared runners jitter at the ms scale).

Results land in ``BENCH_remote.json`` (path via ``BENCH_REMOTE_JSON``).
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.preprocess import build_sharded_kr_graph
from repro.serve import ShardCluster, ShardRouter

pytestmark = pytest.mark.paper_artifact("remote shard stitch overhead")

N, K, RHO = 3000, 2, 24
N_SHARDS = 4
COLD_SOURCES = 12


@pytest.fixture(scope="module")
def sharded_case():
    g, _coords = road_network(N, seed=31)
    g = random_integer_weights(g, low=1, high=100, seed=32)
    sharded = build_sharded_kr_graph(
        g, K, RHO, n_shards=N_SHARDS, partition="ldd", heuristic="dp"
    )
    return g, sharded


def _cold_p50_ms(router, sources) -> float:
    samples = []
    for s in sources:
        t0 = time.perf_counter()
        router.distances(int(s))
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


class TestRemoteStitchOverhead:
    def test_overhead_gate_and_artifact(self, sharded_case, report_sink):
        g, sharded = sharded_case
        rng = np.random.default_rng(33)
        sources = rng.choice(g.n, size=COLD_SOURCES, replace=False)

        local = ShardRouter(sharded=sharded)
        with ShardCluster(sharded) as cluster:
            remote = cluster.router

            # -- 1. parity before timing: identical bits over the wire
            for s in map(int, sources[:4]):
                assert remote.distances(s).tobytes() == local.distances(s).tobytes()

            # fresh routers so every timed source is a cold stitch
            local = ShardRouter(sharded=sharded)
            local_p50 = _cold_p50_ms(local, sources)

        with ShardCluster(sharded) as cluster:
            remote_p50 = _cold_p50_ms(cluster.router, sources)

        overhead = remote_p50 / local_p50 - 1.0
        max_overhead = float(os.environ.get("BENCH_REMOTE_MAX_OVERHEAD", "1.0"))
        payload = {
            "workload": (
                f"road_network(n={g.n}, m={g.m}), {N_SHARDS} ldd shards, "
                f"cold stitched distances() p50 over {COLD_SOURCES} sources"
            ),
            "cold_stitch_p50_ms": {
                "local": round(local_p50, 3),
                "remote": round(remote_p50, 3),
            },
            "remote_overhead": round(overhead, 4),
            "gate_max_overhead": max_overhead,
        }
        out_path = os.environ.get("BENCH_REMOTE_JSON", "BENCH_remote.json")
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        report_sink.append(
            (
                f"remote shard stitch (road n={g.n}, {N_SHARDS} shards)",
                f"cold stitch p50: local {local_p50:.1f}ms, "
                f"remote {remote_p50:.1f}ms ({overhead:+.1%})",
            )
        )
        # The gate: crossing the wire must not blow up the stitch —
        # loopback remote stays within the configured fraction of the
        # in-process router on cold stitched queries.
        assert overhead <= max_overhead, payload
