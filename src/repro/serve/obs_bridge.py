"""Scrape-time bridge from serving counters to metric families.

Every planner — a service's, each local shard's, and the router's
stitched-row planner — already keeps exact counters of its own (LRU
hits/misses, single-flight waits) for ``GET /stats``.  Putting
those numbers on ``GET /metrics`` must cost the hot path *nothing*, so
instead of double-counting at every probe,
:meth:`PlannerSurface.instrument
<repro.serve.surface.PlannerSurface.instrument>` — one implementation
for the service and the router — registers a weakly-held **collector**
with the registry; at scrape time the collector snapshots the planners'
``stats()`` and this module shapes the snapshots into Prometheus
families.  One scrape therefore always agrees with a simultaneous
``GET /stats`` — they read the same counters.

Series identity: every family carries a ``service`` label (a
process-unique instance tag minted by :func:`next_instance_label`, so
two surfaces sharing the process-global registry never collide); the
``planner_*`` families add a ``shard`` label (``"0"`` for the
single-graph service — it *is* the one-shard special case).  The
router's stitched-row planner reports as ``router_stitched_*``, not
``planner_*``, so ``planner_*`` sums still equal the shard totals of
``GET /stats``.
"""

from __future__ import annotations

import itertools
import threading

from ..obs.metrics import MetricFamily, Sample

__all__ = [
    "backend_families",
    "next_instance_label",
    "planner_cache_families",
    "stitched_cache_families",
]

_INSTANCE_SEQ = itertools.count()
_INSTANCE_LOCK = threading.Lock()


def next_instance_label(prefix: str) -> str:
    """A process-unique ``service`` label value, e.g. ``"service-0"``,
    ``"router-1"`` — minted once per :meth:`instrument` call."""
    with _INSTANCE_LOCK:
        return f"{prefix}-{next(_INSTANCE_SEQ)}"


def planner_cache_families(
    entries: list[tuple[tuple[tuple[str, str], ...], dict]],
) -> list[MetricFamily]:
    """Planner-counter families from ``(labels, planner.stats())`` pairs.

    ``labels`` is the base label tuple (``service`` + ``shard``); cache
    lookups split into ``outcome="hit"`` / ``"miss"`` series whose sum
    is the lookup total, matching the planner's own
    ``hits + misses == lookups`` invariant.
    """
    lookups = MetricFamily(
        "planner_cache_lookups_total",
        "counter",
        "source-row cache probes by outcome (hit + miss = all lookups)",
    )
    evictions = MetricFamily(
        "planner_cache_evictions_total", "counter", "LRU rows evicted"
    )
    rows = MetricFamily(
        "planner_cached_rows", "gauge", "source rows currently cached"
    )
    solves = MetricFamily(
        "planner_solves_total", "counter", "cache-missing sources solved"
    )
    batches = MetricFamily(
        "planner_batches_total", "counter", "coalesced solve_many fan-outs"
    )
    coalesced = MetricFamily(
        "planner_coalesced_total",
        "counter",
        "batch queries answered from another query's row in the same batch",
    )
    waits = MetricFamily(
        "planner_single_flight_waits_total",
        "counter",
        "concurrent misses that waited on another thread's solve",
    )
    partial = MetricFamily(
        "planner_partial_solves_total",
        "counter",
        "misses answered by a run stopped at the step that settled them",
    )
    extensions = MetricFamily(
        "planner_extensions_total",
        "counter",
        "cached rows that did not cover a query and were solved further",
    )
    inflight = MetricFamily(
        "planner_inflight_solves", "gauge", "sources being solved right now"
    )
    for base, st in entries:
        lookups.samples.append(
            Sample("", base + (("outcome", "hit"),), float(st["hits"]))
        )
        lookups.samples.append(
            Sample("", base + (("outcome", "miss"),), float(st["misses"]))
        )
        evictions.samples.append(Sample("", base, float(st["evictions"])))
        rows.samples.append(Sample("", base, float(st["cached_rows"])))
        solves.samples.append(Sample("", base, float(st["solves"])))
        batches.samples.append(Sample("", base, float(st["batches"])))
        coalesced.samples.append(Sample("", base, float(st["coalesced"])))
        waits.samples.append(Sample("", base, float(st["single_flight_waits"])))
        partial.samples.append(Sample("", base, float(st["partial_solves"])))
        extensions.samples.append(Sample("", base, float(st["extensions"])))
        inflight.samples.append(Sample("", base, float(st["inflight"])))
    return [
        lookups,
        evictions,
        rows,
        solves,
        batches,
        coalesced,
        waits,
        partial,
        extensions,
        inflight,
    ]


def stitched_cache_families(
    base: tuple[tuple[str, str], ...], stitched: dict
) -> list[MetricFamily]:
    """The shard router's stitched-row planner counters as metric
    families."""
    lookups = MetricFamily(
        "router_stitched_lookups_total",
        "counter",
        "stitched-row cache probes by outcome",
    )
    lookups.samples.append(
        Sample("", base + (("outcome", "hit"),), float(stitched["hits"]))
    )
    lookups.samples.append(
        Sample("", base + (("outcome", "miss"),), float(stitched["misses"]))
    )
    evictions = MetricFamily(
        "router_stitched_evictions_total",
        "counter",
        "stitched rows evicted from the router LRU",
    )
    evictions.samples.append(Sample("", base, float(stitched["evictions"])))
    rows = MetricFamily(
        "router_stitched_rows", "gauge", "stitched rows currently cached"
    )
    rows.samples.append(Sample("", base, float(stitched["cached_rows"])))
    return [lookups, evictions, rows]


def backend_families(
    entries: list[tuple[tuple[tuple[str, str], ...], object]],
) -> list[MetricFamily]:
    """Per-shard-backend health, latency and wire families.

    ``entries`` pairs a base label tuple (``service`` + ``shard`` +
    ``kind``) with a backend exposing ``backend_stats()`` and
    ``fetch_snapshot()`` (:class:`~repro.serve.backends._BaseBackend`).
    The row-fetch histogram renders with cumulative ``le`` buckets like
    any registered histogram, so the scrape parser treats it
    identically.
    """
    from ..obs.metrics import _fmt_bound

    healthy = MetricFamily(
        "shard_backend_healthy",
        "gauge",
        "1 while the backend's last request cycle succeeded",
    )
    consecutive = MetricFamily(
        "shard_backend_consecutive_failures",
        "gauge",
        "request cycles failed in a row (0 = healthy)",
    )
    failures = MetricFamily(
        "shard_backend_failures_total",
        "counter",
        "failed request attempts (retries counted individually)",
    )
    fetch = MetricFamily(
        "shard_backend_row_fetch_seconds",
        "histogram",
        "row-fetch latency per backend (source rows and seeded solves)",
    )
    calls = MetricFamily(
        "shard_backend_calls_total",
        "counter",
        "source_row and solve_seeded calls per backend",
    )
    frame_bytes = MetricFamily(
        "shard_backend_frame_bytes_total",
        "counter",
        "row-frame bytes per backend and direction (a local backend "
        "counts what the same frames would carry)",
    )
    for base, backend in entries:
        st = backend.backend_stats()
        healthy.samples.append(Sample("", base, 1.0 if st["healthy"] else 0.0))
        consecutive.samples.append(
            Sample("", base, float(st["consecutive_failures"]))
        )
        failures.samples.append(Sample("", base, float(st["failures_total"])))
        for call, key in (("source_row", "source_rows"), ("solve_seeded", "seeded_solves")):
            calls.samples.append(Sample("", base + (("call", call),), float(st[key])))
        for direction in ("sent", "received"):
            frame_bytes.samples.append(
                Sample(
                    "",
                    base + (("direction", direction),),
                    float(st[f"frame_bytes_{direction}"]),
                )
            )
        bounds, counts, total, count = backend.fetch_snapshot()
        acc = 0
        for bound, c in zip(bounds, counts):
            acc += c
            fetch.samples.append(
                Sample("_bucket", base + (("le", _fmt_bound(bound)),), acc)
            )
        acc += counts[-1]
        fetch.samples.append(Sample("_bucket", base + (("le", "+Inf"),), acc))
        fetch.samples.append(Sample("_sum", base, total))
        fetch.samples.append(Sample("_count", base, count))
    return [healthy, consecutive, failures, fetch, calls, frame_bytes]
