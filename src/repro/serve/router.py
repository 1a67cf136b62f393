"""`ShardRouter` — exact cross-shard query serving over shard backends.

The sharded counterpart of :class:`~repro.serve.service.RoutingService`:
a pure **stitching core** (virtual-source overlay Dijkstra + per-shard
fold — no I/O of its own) over one :class:`~repro.serve.backends.ShardBackend`
per shard, behind the same :class:`~repro.serve.surface.QuerySurface` —
so the HTTP front end (or any embedder typed against the surface)
cannot tell the difference, and neither can clients: answers are
**bit-identical** to the unsharded service on integer-weighted graphs.

How a query from source ``s`` (shard ``A``) is answered exactly:

1. ``rowA`` — shard ``A``'s backend solves ``s`` on its own augmented
   (k,ρ)-graph.  For every vertex of ``A`` reached without leaving the
   shard, this is already the true distance (an induced subgraph keeps
   every arc among its vertices).
2. **Overlay solve** — append a virtual source to the overlay,
   connected to each boundary vertex ``b ∈ ∂A`` with weight
   ``rowA[b]``, and run one Dijkstra from it.  Because overlay arcs are
   original cut edges plus exact within-shard boundary distances, the
   result ``ov_dist[b]`` is the true full-graph distance ``d(s, b)``
   for *every* boundary vertex of every shard: any shortest path
   decomposes into maximal intra-shard segments joined by cut edges,
   and each piece is an overlay arc (or the virtual seed).
3. **Stitch** — for each shard ``C``, fetch its finite boundary rows in
   one batched ``backend.rows(...)`` call and fold
   ``ov_dist[b] + d_C(b, ·)`` into the full row with a min-scatter
   (these boundary rows are the hot working set each shard's LRU
   caches across queries).  Folding ``C = A`` too covers re-entrant
   paths that leave the source shard and come back.

Every candidate distance is a float sum of input weights; on integer
weights (< 2⁵³) such sums are exact, the candidate set contains the
true distance, and all candidates dominate it — so the stitched min is
the exact metric, bit for bit what the unsharded planner computes.
Routes are stitched the same way: source-shard path → overlay parent
chain → target-shard path, with composite hops whose weights are exact
input-graph distances (the same contract as
:class:`~repro.serve.planner.Route` on the augmented graph).

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
shares the service's validation, striped LRU, batch coalescing and
single-flight — concurrent misses on one source stitch it once, and
every other thread waits for that row.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.dijkstra import dijkstra
from ..engine.registry import available_engines, get_engine
from ..graphs.build import from_arc_arrays
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
from .planner import QueryPlanner
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
    "inflight",
)

#: what ``per_shard`` reports of each shard's own ``stats()``.
_SHARD_KEYS = (
    *_AGG_KEYS,
    "engine",
    "queries_answered",
    "preferred_engine",
    "reorder",
    "locality",
)

#: the stitched planner counters ``stats()["stitched"]`` reports.
_STITCHED_KEYS = ("capacity", "cached_rows", "hits", "misses", "lookups", "evictions")


class _Stitched:
    """One cached stitched row: the full read-only distance row plus the
    overlay solve it was stitched from (kept for route reconstruction)."""

    __slots__ = ("dist", "ov_dist", "ov_parent")

    def __init__(
        self,
        dist: np.ndarray,
        ov_dist: np.ndarray,
        ov_parent: np.ndarray | None,
    ) -> None:
        dist.setflags(write=False)
        ov_dist.setflags(write=False)
        self.dist = dist
        self.ov_dist = ov_dist
        self.ov_parent = ov_parent


class _Stitcher:
    """The row source of the router's planner: exact full rows stitched
    from shard backend rows over the boundary overlay.

    Owns the topology-derived arrays and does no I/O of its own — every
    row comes from a backend.  It holds the backends and never the
    router or its planner (see :meth:`QueryPlanner.from_rows`).
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
        self._n_ov = len(ovv)
        self._ov_tails = np.repeat(
            np.arange(self._n_ov, dtype=np.int64), self._overlay.degrees()
        )
        self.boundary_ov = [
            np.flatnonzero(self._labels[ovv] == s) if self._n_ov else ovv
            for s in range(topology.n_shards)
        ]
        self._boundary_local = [self._local[ovv[b]] for b in self.boundary_ov]

    def solve(self, sources: list[int]) -> list[_Stitched]:
        rows = []
        for source in sources:
            with span("router.stitch", source=source):
                rows.append(self._stitch(source))
        return rows

    def path(self, row: _Stitched, source: int, target: int) -> tuple[int, ...] | None:
        distance = float(row.dist[target])
        if not self._track_parents or not np.isfinite(distance):
            return None
        return self._route_path(int(source), int(target), row, distance)

    def _virtual_solve(self, seeds_ov: np.ndarray, seed_dist: np.ndarray):
        """One Dijkstra from a virtual source appended to the overlay,
        wired to the source shard's boundary at the rowA distances."""
        n_ov = self._n_ov
        us = np.concatenate(
            [self._ov_tails, np.full(len(seeds_ov), n_ov, dtype=np.int64)]
        )
        vs = np.concatenate([self._overlay.indices, seeds_ov])
        ws = np.concatenate([self._overlay.weights, seed_dist])
        virt = from_arc_arrays(n_ov + 1, us, vs, ws, symmetrize=True, validate=False)
        return dijkstra(virt, n_ov, track_parents=self._track_parents)

    def _stitch(self, source: int) -> _Stitched:
        shard_a = int(self._labels[source])
        backend_a = self._backends[shard_a]
        with span("router.source_row", shard=shard_a):
            row_a = backend_a.source_row(int(self._local[source]))
        dist = np.full(self.n, np.inf)
        dist[self.shard_vertices[shard_a]] = row_a
        ov_dist = np.full(self._n_ov, np.inf)
        ov_parent: np.ndarray | None = None
        seeds_ov = self.boundary_ov[shard_a]
        seed_dist = row_a[self._boundary_local[shard_a]]
        finite = np.isfinite(seed_dist)
        if self._n_ov and finite.any():
            with span("router.overlay_solve", seeds=int(finite.sum())):
                res = self._virtual_solve(seeds_ov[finite], seed_dist[finite])
            ov_dist = res.dist[: self._n_ov]
            ov_parent = res.parent
            for shard_c in range(len(self._backends)):
                b_ov = self.boundary_ov[shard_c]
                if len(b_ov) == 0:
                    continue
                d_b = ov_dist[b_ov]
                ok = np.isfinite(d_b)
                if not ok.any():
                    continue
                backend_c = self._backends[shard_c]
                verts = self.shard_vertices[shard_c]
                with span(
                    "router.fold_shard", shard=shard_c, boundary=int(ok.sum())
                ):
                    rows_c = backend_c.rows(
                        [int(b) for b in self._boundary_local[shard_c][ok]]
                    )
                    best = dist[verts]
                    for row_c, db in zip(rows_c, d_b[ok]):
                        np.minimum(best, db + row_c, out=best)
                    dist[verts] = best
        return _Stitched(dist, ov_dist, ov_parent)

    def _translate(self, shard: int, path) -> list[int] | None:
        if path is None:
            return None
        verts = self.shard_vertices[shard]
        return [int(verts[v]) for v in path]

    def _route_path(
        self, source: int, target: int, st: _Stitched, distance: float
    ) -> tuple[int, ...] | None:
        shard_a = int(self._labels[source])
        shard_b = int(self._labels[target])
        local_t = int(self._local[target])
        if shard_b == shard_a:
            # prefer the pure intra-shard path when it realizes the
            # exact stitched distance (it usually does)
            direct = self._backends[shard_a].route(
                int(self._local[source]), local_t
            )
            if direct.path is not None and direct.distance == distance:
                return tuple(self._translate(shard_a, direct.path))
        if st.ov_parent is None:
            return None
        # entry point: the first boundary vertex of the target shard
        # (ascending original id — deterministic) on an optimal path;
        # the finite candidate rows come back in one batched fetch
        candidates = [
            (int(b_ov), int(local_b))
            for b_ov, local_b in zip(
                self.boundary_ov[shard_b], self._boundary_local[shard_b]
            )
            if np.isfinite(st.ov_dist[b_ov])
        ]
        rows_b = self._backends[shard_b].rows([lb for _, lb in candidates])
        entry = -1
        for (b_ov, _local_b), row_b in zip(candidates, rows_b):
            if st.ov_dist[b_ov] + row_b[local_t] == distance:
                entry = b_ov
                break
        if entry < 0:
            # only reachable on non-exactly-representable weights, where
            # no boundary decomposition reproduces the min bit for bit
            return None
        # overlay parent chain: virtual source -> ... -> entry
        chain: list[int] = []
        at = entry
        while at != self._n_ov:
            chain.append(at)
            at = int(st.ov_parent[at])
        chain.reverse()
        first = chain[0]  # boundary vertex of shard A the path exits at
        seg_a = self._backends[shard_a].route(
            int(self._local[source]), int(self._local[self._ov_vertices[first]])
        )
        if seg_a.path is None:
            return None
        path = self._translate(shard_a, seg_a.path)
        # overlay hops are composite edges (cut arcs or within-shard
        # distance arcs) — their endpoints are the stitch points
        for b_ov in chain[1:]:
            path.append(int(self._ov_vertices[b_ov]))
        seg_b = self._backends[shard_b].route(
            int(self._local[self._ov_vertices[entry]]), local_t
        )
        if seg_b.path is None:
            return None
        tail = self._translate(shard_b, seg_b.path)
        if tail and path and tail[0] == path[-1]:
            tail = tail[1:]
        path.extend(tail)
        return tuple(path)


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
    cache_capacity: LRU size for the router's stitched full rows *and*
        each local shard service's row cache (the shards' hot entries
        are the boundary rows stitching re-reads on every query).
    cache_stripes: lock stripes for the router's stitched-row cache and
        for each local shard service's row cache.
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
        cache_stripes: int = 8,
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
                cache_stripes=cache_stripes,
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
        self._planner = QueryPlanner.from_rows(
            self._stitcher, capacity=cache_capacity, stripes=cache_stripes
        )

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
        ``queries_answered`` and preprocessing provenance
        (``preferred_engine``, ``reorder``, sanitized ``locality``); the
        counters are also summed into the top level.  ``engine`` is the
        engine every answering shard runs, ``"mixed"`` when they differ
        and ``None`` when no shard answered.  A shard whose server is
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
