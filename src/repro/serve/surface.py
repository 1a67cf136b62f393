"""The query-surface protocol every serving front end is written against.

Serving has two implementations of one surface: the single-graph
:class:`~repro.serve.service.RoutingService` and the shard-routed
:class:`~repro.serve.router.ShardRouter`.  The HTTP front end (and any
future async/gRPC front end) is constructed against this protocol, not
a concrete class — sharded serving is a drop-in behind the same JSON
API.

The surface is the contract the planner answer records define:
``distances`` returns a read-only full distance row in *input-graph*
vertex ids, ``route`` a :class:`~repro.serve.planner.Route`,
``nearest`` a :class:`~repro.serve.planner.Nearest`, ``batch`` a list
of those in input order, ``warm`` pre-solves sources, ``stats`` a
JSON-serializable counter/topology snapshot, and ``healthz`` the
liveness payload (status plus shard topology).  Implementations must be
safe to call from many threads — the HTTP server drives one instance
from every worker thread.

Both implementations share :class:`PlannerSurface`: the query methods
are answered by one :class:`~repro.serve.planner.QueryPlanner` (over
engine rows for the service, over stitched rows for the router), and
:meth:`~PlannerSurface.instrument` with its scrape collector is written
once.
"""

from __future__ import annotations

import math
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..obs.metrics import EngineTelemetry, MetricFamily, Sample, get_default_registry
from .obs_bridge import next_instance_label, planner_cache_families
from .planner import Nearest, QueryPlanner, Route

__all__ = ["PlannerSurface", "QuerySurface", "json_finite"]


def json_finite(value) -> float | None:
    """``float(value)``, or ``None`` when it is not finite.

    ``stats()`` payloads are served verbatim as JSON, and ``NaN`` /
    ``Infinity`` are not JSON — every surface implementation sanitizes
    unmeasured diagnostics (a hand-built preprocessing record, and an
    artifact saved from one, carries ``nan`` locality) through this one
    helper so they agree on ``null``.
    """
    value = float(value)
    return value if math.isfinite(value) else None


@runtime_checkable
class QuerySurface(Protocol):
    """Structural protocol for a query-serving backend.

    ``runtime_checkable`` so front ends can fail fast at construction
    (method presence only — signatures are this module's docs).
    """

    def distances(self, source: int) -> np.ndarray:
        """Full distance row from ``source`` (read-only, input ids)."""
        ...

    def route(self, source: int, target: int) -> Route:
        """Exact distance plus (when tracked) a realizing path."""
        ...

    def nearest(self, source: int, k: int) -> Nearest:
        """The ``k`` closest reachable vertices to ``source``."""
        ...

    def batch(self, queries: Sequence) -> list:
        """Mixed query batch, answered in input order."""
        ...

    def warm(self, sources: Iterable[int]) -> None:
        """Pre-solve known-hot sources."""
        ...

    def stats(self) -> dict:
        """JSON-serializable counters + topology snapshot."""
        ...

    def healthz(self) -> dict:
        """Liveness payload: ``status`` plus shard topology summary."""
        ...


class PlannerSurface:
    """What both query surfaces share: the query methods, answered by
    ``self._planner``, and :meth:`instrument` with its scrape collector.

    A subclass sets ``_planner``, names its ``service`` label prefix in
    ``_obs_prefix``, lists its in-process shard services in
    :meth:`_shard_services`, and may add families of its own in
    :meth:`_surface_families`.
    """

    _planner: QueryPlanner
    _obs_prefix = "service"
    _obs_registry = None
    _obs_label = ""

    def distances(self, source: int) -> np.ndarray:
        """All input-graph distances from ``source`` (read-only row)."""
        return self._planner.distances(source)

    def route(self, source: int, target: int) -> Route:
        """Exact distance ``source → target`` plus (when parents are
        tracked) a path whose hops carry exact input-graph distances."""
        return self._planner.route(source, target)

    def nearest(self, source: int, k: int) -> Nearest:
        """The ``k`` closest vertices to ``source``."""
        return self._planner.nearest(source, k)

    def batch(self, queries: Sequence) -> list:
        """Mixed batch (query records, ints, or ``(s, t)`` pairs) —
        deduplicated, coalesced onto one solve, answered in order."""
        return self._planner.execute(queries)

    def warm(self, sources: Iterable[int]) -> None:
        """Pre-solve known-hot sources (depots, landmarks) at boot."""
        self._planner.warm(sources)

    def source_row(
        self, source: int, *, parents: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """The full cached row of ``source`` as a ``(dist, parent)``
        pair of one cached row — what a shard answers for step 1 of the
        router's stitch (``GET /internal/row/{s}[?parents=1]``).
        ``parent`` is ``None`` without ``parents`` or on a surface that
        does not track parents."""
        if not parents:
            return self._planner.distances(source), None
        return self._planner.full_row(source)

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def _shard_services(self) -> list:
        """``(shard id, RoutingService)`` for every shard served in
        this process: their solvers feed engine telemetry and their
        planners the ``planner_*`` families."""
        raise NotImplementedError

    def _surface_families(self, base: tuple) -> list[MetricFamily]:
        """Families beyond the per-shard planner counters."""
        return []

    def instrument(self, registry=None) -> str:
        """Attach this surface to a metrics registry; returns its
        ``service`` label value.

        Two things happen, neither touching the query hot path:

        * one :class:`~repro.obs.metrics.EngineTelemetry` observer is
          installed on every in-process shard's solver, so every solve
          folds its step/substep/relaxation counts into the per-engine
          histograms (the ``engine`` label already distinguishes what
          matters across shards);
        * a scrape-time collector (held by weak reference — a dropped
          surface silently leaves the scrape) is registered that shapes
          each in-process shard's planner counters into ``planner_*``
          families under a process-unique ``service`` label and the
          shard's ``shard`` label, plus the surface's own families and
          ``service_queries_answered_total``.

        ``registry=None`` uses the process-global default.  Idempotent
        per registry; instrumenting a second registry moves the surface
        (one observer, one label): its collector leaves the first
        registry's scrape.  The HTTP front end calls this automatically
        for any surface that has it.
        """
        if registry is None:
            registry = get_default_registry()
        if self._obs_registry is registry:
            return self._obs_label
        if self._obs_registry is not None:
            self._obs_registry.unregister_collector(self._collect_metrics)
        self._obs_registry = registry
        self._obs_label = next_instance_label(self._obs_prefix)
        telemetry = EngineTelemetry(registry)
        for _shard, service in self._shard_services():
            service.solver.set_observer(telemetry)
        registry.register_collector(self._collect_metrics)
        return self._obs_label

    def _collect_metrics(self) -> list[MetricFamily]:
        """Scrape-time collector: per-shard planner counters, the
        surface's own families, and the query total."""
        svc = ("service", self._obs_label)
        services = self._shard_services()
        fams = planner_cache_families(
            [
                ((svc, ("shard", str(shard))), service.planner.stats())
                for shard, service in services
            ]
        )
        fams.extend(self._surface_families((svc,)))
        queries = MetricFamily(
            "service_queries_answered_total",
            "counter",
            "SSSP queries answered (the amortization denominator)",
        )
        answered = sum(service.solver.queries_answered for _, service in services)
        queries.samples.append(Sample("", (svc,), float(answered)))
        fams.append(queries)
        return fams
