"""`ShardRouter` — exact cross-shard query serving over shard backends.

The sharded counterpart of :class:`~repro.serve.service.RoutingService`:
a pure **stitching core** (no I/O of its own) over one
:class:`~repro.serve.backends.ShardBackend` per shard, behind the same
:class:`~repro.serve.surface.QuerySurface` — so the HTTP front end (or
any embedder typed against the surface) cannot tell the difference,
and neither can clients: answers are **bit-identical** to the
unsharded service on integer-weighted graphs.

Every step is one seeded Radius-Stepping solve
(:func:`~repro.engine.driver.run_engine` with ``seeds=``): Algorithm 1
is exact from any initial tentative distances, so exact distances on a
shard's boundary give exact distances inside it.  A query from source
``s`` (shard ``A``) is answered in three steps:

1. ``rowA`` — shard ``A``'s backend answers ``s`` from its own cached
   row (its own engine, on its own augmented (k,ρ)-graph).  For every
   vertex of ``A`` reached without leaving the shard, this is already
   the true distance (an induced subgraph keeps every arc among its
   vertices).
2. **Overlay solve** — one seeded solve on the prebuilt overlay graph,
   seeded on ``∂A`` with ``rowA[∂A]``, at ``r ≡ ∞`` (Bellman–Ford: the
   overlay has no radii, and one step of rounds suits its few, dense
   vertices).  Because overlay arcs are
   original cut edges plus exact within-shard boundary distances, the
   result ``ov_dist[b]`` is the true full-graph distance ``d(s, b)``
   for *every* boundary vertex of every shard: any shortest path
   decomposes into maximal intra-shard segments joined by cut edges,
   and each piece is an overlay arc (or a seed).
3. **Shard solves** — a shard ``C`` answers one
   ``backend.solve_seeded`` seeded with ``ov_dist`` on ``∂C``; its
   answer is ``C``'s part of the row.  Shard ``A`` is seeded with ``s``
   at 0 plus only the boundary vertices the overlay strictly improved,
   which covers re-entrant paths that leave the source shard and come
   back.  A full row (``/distances``, ``warm``, a nearest query) takes
   one such solve per shard with a finite boundary distance.  A route
   takes one per shard that holds a target, passed ``stop=`` its
   targets: Line 10 never changes a settled vertex, so the shard may
   end the solve once they are settled, and it answers ``∞`` past the
   run's bound.  That row is final on the targets' shards wherever it
   is finite, and it answers routes to those vertices only; the
   planner stitches the first query on the source it does not cover
   in full.  Both rows come from one stitch, stopped at different
   points.

Every candidate distance is a float sum of input weights; on integer
weights (< 2⁵³) such sums are exact, the candidate set contains the
true distance, and all candidates dominate it — so the stitched row is
the exact metric, bit for bit what the unsharded planner computes.
With parents tracked, the source row comes with its parents
(``backend.source_row(local, parents=True)``), and one rule joins
three forests into one parent array over the whole graph: the source
row's parents on ``A``, the overlay's on the boundary vertices it
improved (a cut arc or an exact within-shard distance arc), then each
shard solve's, on ``A`` only where that solve strictly improved the
source row.  A route is the same parent walk an engine row takes —
composite hops whose weights are exact input-graph distances (the same
contract as :class:`~repro.serve.planner.Route` on the augmented
graph).  A stopped solve is a prefix of the full one, parents
included, so a route takes the same path from a stopped row as from a
full row: what was cached does not change it.  A route from a cached
row calls no backend.

Where the rows come *from* is the backend's business: every shard is
a :class:`~repro.serve.service.RoutingService`, either in process
behind a :class:`~repro.serve.backends.LocalBackend` (the classic
single-box router, built by the constructor) or behind a shard server
across the wire, reached by a
:class:`~repro.serve.backends.RemoteBackend` (built by
:meth:`ShardRouter.remote`).  Remote rows travel as raw float64 frames,
so remote stitching preserves the bit-identity contract; a shard down
past its retry budget surfaces as a typed
:class:`~repro.serve.backends.ShardUnavailableError` (→ HTTP 503
naming the shard) instead of a hang.

A stitched row is one more exact SSSP row, so it sits behind the same
:class:`~repro.serve.planner.QueryPlanner` an engine row does: the
stitcher is the router planner's row source.  The router therefore
shares the service's validation, LRU, batch coalescing and
single-flight — concurrent misses on one source stitch it once, and
every other thread waits for that row.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Sequence

import numpy as np

from ..engine.driver import run_engine
from ..engine.registry import available_engines, get_engine
from ..engine.schedules import RadiusBucketSchedule
from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from ..obs.trace import span
from ..preprocess.pipeline import ShardedPreprocessResult, build_sharded_kr_graph
from .artifacts import (
    SHARDED_ARTIFACT_VERSION,
    ShardTopology,
    load_shard_topology,
    load_sharded_artifact,
    save_sharded_artifact,
)
from .backends import (
    LocalBackend,
    RemoteBackend,
    ShardBackend,
    ShardUnavailableError,
)
from .obs_bridge import backend_families, stitched_cache_families
from .planner import QueryPlanner, _Row
from .service import shard_services
from .surface import PlannerSurface

__all__ = ["ShardRouter"]

#: planner counter keys summed across shards for the aggregate stats
#: block (every shard's service reports them in its ``stats()``).
_AGG_KEYS = (
    "capacity",
    "cached_rows",
    "hits",
    "misses",
    "lookups",
    "evictions",
    "coalesced",
    "batches",
    "solves",
    "single_flight_waits",
    "partial_solves",
    "extensions",
    "inflight",
)

#: what ``per_shard`` reports of each shard's own ``stats()``.
_SHARD_KEYS = (
    *_AGG_KEYS,
    "engine",
    "queries_answered",
    "reorder",
    "locality",
)

#: the stitched planner counters ``stats()["stitched"]`` reports.
_STITCHED_KEYS = (
    "capacity",
    "cached_rows",
    "hits",
    "misses",
    "lookups",
    "evictions",
    "partial_solves",
    "extensions",
)


class _Stitcher:
    """The row source of the router's planner: rows stitched from one
    source row, one overlay solve and seeded shard solves.

    One stitch builds every row.  A full row (``/distances``, ``warm``,
    a nearest rule) solves every reached shard in full; a route rule
    (targets, no ``settled`` count) solves only its targets' shards,
    each stopped once its targets are settled.  Line 10 never changes a
    settled vertex, so the stopped row is a prefix of the full one, its
    parents included: a route takes the same path whatever was cached.

    Owns the topology-derived arrays and does no I/O of its own — every
    shard row comes from a backend.  It holds the backends and never
    the router or its planner (see :meth:`QueryPlanner.from_rows`).
    """

    engine = "stitched"

    def __init__(
        self,
        topology: ShardTopology,
        shard_vertices: list[np.ndarray],
        backends: list[ShardBackend | None],
        track_parents: bool,
    ) -> None:
        self.n = topology.n
        self.graph_hash = topology.source_hash
        self.shard_vertices = shard_vertices
        self._labels = topology.labels
        self._backends = backends
        self._track_parents = track_parents
        # local[v] = shard-local id of original vertex v
        self._local = np.full(self.n, -1, dtype=np.int64)
        for verts in shard_vertices:
            self._local[verts] = np.arange(len(verts), dtype=np.int64)
        # overlay bookkeeping: boundary vertices per shard, in both
        # overlay-local and shard-local ids (ascending original id)
        ovv = topology.overlay_vertices
        self._ov_vertices = ovv
        self._overlay = topology.overlay_graph
        self.boundary_ov = [
            np.flatnonzero(self._labels[ovv] == s) if len(ovv) else ovv
            for s in range(topology.n_shards)
        ]
        self._boundary_local = [self._local[ovv[b]] for b in self.boundary_ov]

    def solve(self, sources: list[int], stops: list) -> list[_Row]:
        rows = []
        for source, stop in zip(sources, stops):
            with span("router.stitch", source=source):
                full = stop is None or stop.settled
                rows.append(self._stitch(source, None if full else stop.targets))
        return rows

    def _stitch(self, source: int, targets: tuple[int, ...] | None) -> _Row:
        """The row of ``source``: full when ``targets`` is ``None``,
        else final on the targets' shards wherever it is finite and on
        the targets (an unreached target is unreachable).

        Parents join by the module docstring's one rule.  In ``A``'s own
        solve only the vertices its seeds strictly improved take the
        solve's parents, so no walk returns to the overlay once it
        follows the source row, and every path telescopes exactly.  A
        source shard that tracks no parents sends none: the stitch is
        then full, and ``A``'s solve gives its parents throughout.
        """
        shard_a = int(self._labels[source])
        with span("router.source_row", shard=shard_a):
            row_a, parent_a = self._backends[shard_a].source_row(
                int(self._local[source]), parents=self._track_parents
            )
        if self._track_parents and parent_a is None:
            targets = None
        seed_dist = row_a[self._boundary_local[shard_a]]
        finite = seed_dist < np.inf
        with span("router.overlay_solve", seeds=int(finite.sum())):
            overlay = run_engine(
                self._overlay,
                None,
                RadiusBucketSchedule(math.inf),
                seeds=(self.boundary_ov[shard_a][finite], seed_dist[finite]),
                track_parents=self._track_parents,
            )
        dist = np.full(self.n, np.inf)
        parent = None
        if self._track_parents:
            parent = np.full(self.n, -1, dtype=np.int64)
            if parent_a is not None:
                verts = self.shard_vertices[shard_a]
                tree = parent_a >= 0
                parent[verts[tree]] = verts[parent_a[tree]]
            ovv = self._ov_vertices
            tree = overlay.parent >= 0
            parent[ovv[tree]] = ovv[overlay.parent[tree]]
        if targets is None:
            shards, final = range(len(self._backends)), None
        else:
            targets = np.asarray(targets, dtype=np.int64)
            labels = self._labels[targets]
            shards = np.unique(labels).tolist()
            final = np.zeros(self.n, dtype=bool)
            final[targets] = True
        for shard_c in shards:
            backend_c = self._backends[shard_c]
            if backend_c is None:
                continue
            b_local = self._boundary_local[shard_c]
            d_b = overlay.dist[self.boundary_ov[shard_c]]
            seed = np.full(len(self.shard_vertices[shard_c]), np.inf)
            if shard_c == shard_a:
                # only what the overlay strictly improved: a boundary
                # vertex seeded at its own row_a distance would cut it
                # off from the source in the parent forest
                take = d_b < row_a[b_local]
                seed[self._local[source]] = 0.0
            else:
                take = d_b < np.inf
                if not take.any():
                    continue  # nothing reaches C: all of it is unreachable
            seed[b_local[take]] = d_b[take]
            stop = None
            if final is not None:
                stop = self._local[targets[labels == shard_c]].tolist()
            with span("router.fold_shard", shard=shard_c, boundary=int(take.sum())):
                dist_c, parent_c = backend_c.solve_seeded(
                    seed, track_parents=self._track_parents, stop=stop
                )
            verts = self.shard_vertices[shard_c]
            dist[verts] = dist_c
            if final is not None:
                final[verts] |= dist_c < np.inf
            if parent is not None:
                tree = parent_c >= 0
                if shard_c == shard_a and parent_a is not None:
                    tree &= dist_c < row_a
                parent[verts[tree]] = verts[parent_c[tree]]
        if final is None:
            return _Row(dist, parent)
        reached = dist[final]
        reached = reached[reached < np.inf]
        bound = float(reached.max()) if len(reached) else 0.0
        return _Row(dist, parent, bound, final=final)


class ShardRouter(PlannerSurface):
    """Shard-routed implementation of the serving query surface.

    Parameters
    ----------
    graph: input graph — sharded-preprocessed on a cold start (ignored
        when ``sharded`` is given).
    sharded: an existing :class:`ShardedPreprocessResult` to serve
        (e.g. from :func:`repro.serve.artifacts.load_sharded_artifact`).
    topology, backends: the transport-agnostic construction — a
        :class:`~repro.serve.artifacts.ShardTopology` plus one
        :class:`~repro.serve.backends.ShardBackend` (or ``None`` for an
        empty shard) per shard.  Mutually exclusive with
        ``graph``/``sharded``; :meth:`remote` is the usual way in.
    n_shards, partition, partition_seed: forwarded to
        :func:`~repro.preprocess.build_sharded_kr_graph` on a cold
        start (``n_shards`` is required then).
    k, rho, heuristic, preprocess_jobs: per-shard preprocessing knobs.
    engine: engine selector for every local shard service.
    cache_capacity: LRU size for the router's stitched rows *and* each
        local shard service's row cache (the source rows of step 1;
        seeded shard solves are not cached).
    track_parents: record predecessors so :meth:`route` returns stitched
        paths.
    """

    _obs_prefix = "router"

    def __init__(
        self,
        graph: CSRGraph | None = None,
        *,
        sharded: ShardedPreprocessResult | None = None,
        topology: ShardTopology | None = None,
        backends: Sequence[ShardBackend | None] | None = None,
        n_shards: int | None = None,
        partition: str = "contiguous",
        partition_seed: int = 0,
        k: int = 2,
        rho: int = 32,
        heuristic: str = "dp",
        engine: str = "auto",
        cache_capacity: int = 256,
        track_parents: bool = True,
        preprocess_jobs: int = 1,
    ) -> None:
        if backends is not None:
            if topology is None:
                raise ValueError("backends require a topology")
            if graph is not None or sharded is not None:
                raise ValueError(
                    "pass either graph/sharded (local shards) or "
                    "topology+backends, not both"
                )
        else:
            if sharded is None:
                if graph is None:
                    raise ValueError("provide either a graph or a sharded result")
                if n_shards is None:
                    raise ValueError("n_shards is required for a cold start")
                sharded = build_sharded_kr_graph(
                    graph,
                    k,
                    rho,
                    n_shards=n_shards,
                    partition=partition,
                    partition_seed=partition_seed,
                    heuristic=heuristic,
                    n_jobs=preprocess_jobs,
                )
            topology = ShardTopology.from_sharded(sharded)
        self._sharded = sharded
        self._topo = topology
        shard_vertices = (
            sharded.shard_vertices
            if sharded is not None
            else topology.shard_vertices()
        )
        if backends is None:
            services = shard_services(
                sharded,
                engine=engine,
                cache_capacity=cache_capacity,
                track_parents=track_parents,
            )
            backends = [
                None if service is None else LocalBackend(s, service)
                for s, service in enumerate(services)
            ]
        else:
            backends = list(backends)
            if len(backends) != topology.n_shards:
                raise ValueError(
                    f"expected {topology.n_shards} backends (None for "
                    f"empty shards), got {len(backends)}"
                )
            for s, backend in enumerate(backends):
                if backend is None and len(shard_vertices[s]):
                    raise ValueError(
                        f"shard {s} holds {len(shard_vertices[s])} "
                        "vertices but has no backend"
                    )
        self._backends: list[ShardBackend | None] = backends
        self._stitcher = _Stitcher(topology, shard_vertices, backends, track_parents)
        self._planner = QueryPlanner.from_rows(self._stitcher, capacity=cache_capacity)

    # ------------------------------------------------------------------ #
    # Construction / persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        *,
        expect_graph: CSRGraph | None = None,
        mmap: bool = False,
        **kwargs,
    ) -> "ShardRouter":
        """Warm start from a sharded bundle directory.

        Mirrors :meth:`RoutingService.from_artifact`: the bundle *is*
        the preprocessing (partition included), so partitioning and
        preprocessing knobs are rejected; remaining keyword arguments
        are the serving knobs of the constructor.  ``mmap=True`` keeps
        every shard's augmented CSR memory-mapped off its member file.
        """
        baked = {
            "graph",
            "sharded",
            "topology",
            "backends",
            "n_shards",
            "partition",
            "partition_seed",
            "k",
            "rho",
            "heuristic",
            "preprocess_jobs",
        }
        rejected = baked & kwargs.keys()
        if rejected:
            raise TypeError(
                f"from_artifact does not accept {sorted(rejected)}: the "
                "bundle fixes the partition and preprocessing; rebuild "
                "with ShardRouter(graph, ...) to change them"
            )
        sharded = load_sharded_artifact(path, expect_graph=expect_graph, mmap=mmap)
        return cls(sharded=sharded, **kwargs)

    @classmethod
    def remote(
        cls,
        bundle: str | Path | ShardTopology,
        endpoints: Sequence[str | None] | None = None,
        *,
        expect_graph: CSRGraph | None = None,
        timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        pool_size: int = 4,
        cache_capacity: int = 256,
        track_parents: bool = True,
    ) -> "ShardRouter":
        """A front-end router over shard servers across the wire.

        ``bundle`` is a sharded bundle directory (only its manifest,
        overlay and topology members need to exist locally — the
        per-shard payloads live on the shard boxes) or an
        already-loaded :class:`~repro.serve.artifacts.ShardTopology`.
        ``endpoints`` lists one ``"http://host:port"`` per shard
        (``None`` for empty shards); omit it to use the hints stamped
        into the bundle manifest
        (:func:`~repro.serve.artifacts.stamp_endpoints`).

        ``timeout`` / ``retries`` / ``backoff`` are each
        :class:`~repro.serve.backends.RemoteBackend`'s deadline and
        bounded-retry budget; past it, queries touching that shard
        raise :class:`~repro.serve.backends.ShardUnavailableError`
        (→ 503 from the HTTP front end).  Row responses are checked
        against the topology's per-shard vertex counts, so a miswired
        endpoint fails loudly instead of stitching another shard's
        distances.
        """
        if isinstance(bundle, ShardTopology):
            topo = bundle
        else:
            topo = load_shard_topology(bundle, expect_graph=expect_graph)
        if endpoints is None:
            endpoints = topo.endpoints
            if endpoints is None:
                raise ValueError(
                    "no endpoints given and none stamped in the bundle "
                    "manifest (see stamp_endpoints)"
                )
        endpoints = list(endpoints)
        if len(endpoints) != topo.n_shards:
            raise ValueError(
                f"expected {topo.n_shards} endpoints (None for empty "
                f"shards), got {len(endpoints)}"
            )
        counts = np.bincount(topo.labels, minlength=topo.n_shards)
        backends: list[ShardBackend | None] = []
        for s, ep in enumerate(endpoints):
            if ep is None:
                backends.append(None)
                continue
            backends.append(
                RemoteBackend(
                    ep,
                    shard=s,
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                    pool_size=pool_size,
                    expect_n=int(counts[s]),
                )
            )
        return cls(
            topology=topo,
            backends=backends,
            cache_capacity=cache_capacity,
            track_parents=track_parents,
        )

    def save_artifact(self, path: str | Path) -> Path:
        """Persist the sharded preprocessing as a bundle directory."""
        if self._sharded is None:
            raise RuntimeError(
                "a remote router holds only the bundle topology, not the "
                "per-shard payloads — save the bundle where it was built"
            )
        return save_sharded_artifact(path, self._sharded)

    def close(self) -> None:
        """Close every backend (idempotent).

        Releases remote connection pools and interrupts any in-flight
        retry backoff, so a request sleeping toward a dead shard fails
        fast instead of finishing its budget.  Local backends are
        unaffected; the router remains usable for local shards only.
        """
        for backend in self._backends:
            if backend is not None:
                backend.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Observability (instrument() comes from PlannerSurface)
    # ------------------------------------------------------------------ #
    def _shard_services(self) -> list:
        """Local shards only: a remote shard's planner counters and
        engine telemetry live on its own server's scrape."""
        return [
            (s, backend.service)
            for s, backend in enumerate(self._backends)
            if isinstance(backend, LocalBackend)
        ]

    def _surface_families(self, base: tuple) -> list:
        """The stitched-row cache and per-backend health/latency."""
        fams = stitched_cache_families(base, self._planner.stats())
        fams.extend(
            backend_families(
                [
                    (base + (("shard", str(s)), ("kind", backend.kind)), backend)
                    for s, backend in enumerate(self._backends)
                    if backend is not None
                ]
            )
        )
        return fams

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def sharded(self) -> ShardedPreprocessResult | None:
        """The underlying sharded preprocessing (``None`` on a remote
        router — the payloads live on the shard boxes)."""
        return self._sharded

    @property
    def topology_info(self) -> ShardTopology:
        """The routing topology (labels, overlay, partition metadata)."""
        return self._topo

    @property
    def backends(self) -> tuple[ShardBackend | None, ...]:
        """Per-shard backends (``None`` entries for empty shards)."""
        return tuple(self._backends)

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return self._topo.n_shards

    def shard_of(self, vertex: int) -> int:
        """The shard a vertex lives in (input-graph ids)."""
        return int(self._topo.labels[check_vertex(vertex, "vertex", self._topo.n)])

    def topology(self) -> dict:
        """Shard topology: per-shard vertex/boundary counts and the
        overlay size.

        Every shard's engine resolves in its own service, so it reports
        ``None`` here; :meth:`stats` fills it in from the shard's stats.
        """
        shards = [
            {
                "shard": s,
                "vertices": int(len(verts)),
                "boundary": int(len(boundary)),
                "engine": None,
            }
            for s, (verts, boundary) in enumerate(
                zip(self._stitcher.shard_vertices, self._stitcher.boundary_ov)
            )
        ]
        return {
            "shards": shards,
            "overlay": {
                "vertices": int(len(self._topo.overlay_vertices)),
                "edges": int(self._topo.overlay_graph.m),
            },
        }

    def stats(self) -> dict:
        """Aggregated shard counters plus sharding topology.

        Every shard is a :class:`~repro.serve.service.RoutingService`,
        so its ``per_shard`` entry is read one way whatever the
        transport: from ``backend.stats()`` — the service's own
        ``stats()`` in process, its ``GET /stats`` across the wire.  An
        entry carries the shard's planner counters, resolved engine,
        ``queries_answered`` and preprocessing provenance (``reorder``,
        sanitized ``locality``); the counters are also summed into the
        top level.  ``engine`` is the engine every answering shard runs,
        ``"mixed"`` when they differ and ``None`` when no shard
        answered.  A shard whose server is
        unreachable appears as ``{"unavailable": true}`` instead of
        failing the whole call.

        ``stitched`` is the router's own stitched-row cache;
        ``backends`` has one row per shard backend (kind, endpoint,
        health, consecutive failures, p50 row-fetch latency in ms); the
        satellite topology and the ``engines`` registry listing ride
        along as in the service's ``stats()``.
        """
        agg = dict.fromkeys(_AGG_KEYS, 0)
        engines = set()
        per_shard = []
        backends_table = []
        topo = self.topology()
        for s, backend in enumerate(self._backends):
            if backend is None:
                continue
            backends_table.append(backend.backend_stats())
            shard = topo["shards"][s]
            entry = {key: shard[key] for key in ("shard", "vertices", "boundary")}
            per_shard.append(entry)
            try:
                pstats = backend.stats()
            except ShardUnavailableError as exc:
                entry.update(unavailable=True, error=str(exc))
                continue
            engines.add(pstats["engine"])
            shard["engine"] = pstats["engine"]
            for key in _AGG_KEYS:
                agg[key] += pstats[key]
            entry.update((key, pstats[key]) for key in _SHARD_KEYS)
        if len(engines) == 1:
            engine = engines.pop()
        else:
            engine = "mixed" if engines else None
        stitched = self._planner.stats()
        return {
            **agg,
            "engine": engine,
            "queries_answered": sum(e.get("queries_answered", 0) for e in per_shard),
            "n": self._topo.n,
            "k": self._topo.k,
            "rho": self._topo.rho,
            "heuristic": self._topo.heuristic,
            "shards": self.n_shards,
            "partition": self._topo.partition_method,
            "partition_seed": self._topo.partition_seed,
            "edge_cut": self._topo.edge_cut,
            "balance": self._topo.balance,
            "artifact_version": SHARDED_ARTIFACT_VERSION,
            "stitched": {key: stitched[key] for key in _STITCHED_KEYS},
            "backends": backends_table,
            "engines": {
                name: get_engine(name).description
                for name in available_engines()
            },
            "per_shard": per_shard,
            "topology": topo,
        }

    def healthz(self) -> dict:
        """Liveness payload with the shard topology summary.

        With remote backends, unhealthy shards (down past their retry
        budget on the last request cycle) are named and the status
        degrades — an all-local router keeps the classic three-field
        payload.
        """
        payload = {
            "status": "ok",
            "shards": self.n_shards,
            "artifact_version": SHARDED_ARTIFACT_VERSION,
        }
        remote = [b for b in self._backends if b is not None and b.kind == "remote"]
        if remote:
            unhealthy = [b.shard for b in remote if not b.healthy]
            payload["backends"] = {
                "remote": len(remote),
                "unhealthy": unhealthy,
            }
            if unhealthy:
                payload["status"] = "degraded"
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardRouter(n={self._topo.n}, shards={self.n_shards}, "
            f"partition={self._topo.partition_method!r}, "
            f"cut={self._topo.edge_cut}, "
            f"overlay={len(self._topo.overlay_vertices)})"
        )
