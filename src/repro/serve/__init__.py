"""Query-serving subsystem: persist, share, cache, serve — sharded or not.

The paper's operating model — preprocess once, query many (§5.4) —
becomes a production serving story in cooperating parts:

* :mod:`~repro.serve.artifacts` — the (k,ρ)-preprocessing persisted as
  a versioned, checksummed ``.npz`` bundle; a server warm-starts in
  milliseconds instead of re-running ``build_kr_graph``.  Sharded
  preprocessing persists as a manifest-checksummed bundle *directory*
  of per-shard artifacts plus the boundary overlay.
* :mod:`~repro.serve.planner` — :class:`QueryPlanner`: an LRU
  source-row cache over a row source (engine rows, or the router's
  stitched rows), request deduplication, and coalescing of mixed
  single-source / point-to-point / k-nearest batches onto one fan-out
  — thread-safe via one lock over one LRU and single-flight in-flight
  solve tracking, so a threaded front end drives one planner from every
  worker thread.  A route or nearest miss stops at the step that
  settles its answer, and the row answers what its bound covers.
* :mod:`~repro.serve.surface` — :class:`QuerySurface`, the protocol
  every front end is constructed against, and the query methods and
  ``instrument()`` both implementations share.
* :mod:`~repro.serve.service` — :class:`RoutingService`, the
  synchronous single-graph facade (see
  ``examples/routing_service.py``).
* :mod:`~repro.serve.router` — :class:`ShardRouter`, the sharded
  implementation of the same surface: every shard is a
  :class:`RoutingService`, and exact cross-shard rows are stitched
  from one overlay solve and one seeded solve per shard behind the
  same planner core, bit-identical answers (see
  ``examples/sharded_service.py``).
* :mod:`~repro.serve.backends` — :class:`ShardBackend`, the
  transport seam under the router: :class:`LocalBackend` wraps an
  in-process shard service, :class:`RemoteBackend` speaks HTTP to a
  shard server on another box (pooled connections, deadlines, bounded
  retries), both bit-identical to the stitch layer above.
* :mod:`~repro.serve.cluster` — :class:`ShardCluster`, a one-call
  bootstrap of N shard servers plus a remote-stitching front end
  (see ``examples/remote_shard_cluster.py``).
* :mod:`~repro.serve.http` — :class:`RoutingHTTPServer`, a
  stdlib-only threaded JSON front end over any query surface (see
  ``examples/http_routing_service.py``), with ``GET /metrics``
  (Prometheus text over :mod:`repro.obs`), per-request ``X-Request-Id``
  tracing, and a ``GET /debug/slow`` slow-query log.
* :mod:`~repro.serve.obs_bridge` — scrape-time collectors that put the
  planner/router counters on ``/metrics`` with zero hot-path cost.
"""

from .artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    SHARDED_ARTIFACT_FORMAT,
    SHARDED_ARTIFACT_VERSION,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactGraphMismatchError,
    ArtifactVersionError,
    ShardTopology,
    load_artifact,
    load_shard_topology,
    load_sharded_artifact,
    load_solver,
    save_artifact,
    save_sharded_artifact,
    stamp_endpoints,
)
from .backends import (
    LocalBackend,
    RemoteBackend,
    ShardBackend,
    ShardUnavailableError,
)
from .cluster import ShardCluster
from .http import RoutingHTTPServer, serve
from .planner import (
    KNearest,
    Nearest,
    PointToPoint,
    QueryPlanner,
    Route,
    SingleSource,
    nearest_from_row,
    normalize_query,
)
from .router import ShardRouter
from .service import RoutingService
from .surface import QuerySurface, json_finite

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "SHARDED_ARTIFACT_FORMAT",
    "SHARDED_ARTIFACT_VERSION",
    "ArtifactCorruptError",
    "ArtifactError",
    "ArtifactGraphMismatchError",
    "ArtifactVersionError",
    "KNearest",
    "LocalBackend",
    "Nearest",
    "PointToPoint",
    "QueryPlanner",
    "QuerySurface",
    "RemoteBackend",
    "Route",
    "RoutingHTTPServer",
    "RoutingService",
    "ShardBackend",
    "ShardCluster",
    "ShardRouter",
    "ShardTopology",
    "ShardUnavailableError",
    "SingleSource",
    "json_finite",
    "load_artifact",
    "load_shard_topology",
    "load_sharded_artifact",
    "load_solver",
    "nearest_from_row",
    "normalize_query",
    "save_artifact",
    "save_sharded_artifact",
    "serve",
    "stamp_endpoints",
]
