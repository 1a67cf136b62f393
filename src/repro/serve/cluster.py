"""One-call bootstrap of a multi-process-shaped shard cluster.

:class:`ShardCluster` turns a sharded bundle into the full serving
topology the README's multi-box quickstart describes — N shard servers
plus one stitching front end — inside a single process.  Each shard
gets its own :class:`~repro.serve.service.RoutingService` — built by
:func:`~repro.serve.service.shard_services`, as a local router's shards
are — behind its own :class:`~repro.serve.http.RoutingHTTPServer`
(bound to an ephemeral port), and the front end is a
:meth:`ShardRouter.remote <repro.serve.router.ShardRouter.remote>`
router whose :class:`~repro.serve.backends.RemoteBackend` transports
speak real HTTP to those servers: ``GET /internal/ready`` at boot, then
per stitch one ``GET /internal/row/{s}?parents=1`` to the source's
shard and ``POST /internal/solve`` calls (a seed row in, a distance and
parent row out): one to each reached shard for a full row, and for a
route one to each target's shard with ``?stop=`` its targets.  A
router that tracks no parents asks for neither parent row.  Every byte
crosses a socket exactly as it would between boxes, so the cluster is
both the integration harness for the remote stitch path and a faithful
local stand-in for a deployment: what passes here passes across
machines.

Shutdown ordering is the subtle part.  ``close()`` interrupts the
router's backends *first* — :meth:`RemoteBackend.close` sets the
closed event, waking any handler thread sleeping in retry backoff —
then drains the front-end server, then the shard servers.  Closing the
front end first would deadlock-by-timeout: its handler threads can be
blocked inside a backend's backoff sleep, and ``close()`` joins them.

>>> with ShardCluster("bundle_dir") as cluster:
...     requests_get(cluster.url + "/distances/0")   # stitched remotely
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from ..graphs.csr import CSRGraph
from ..preprocess.pipeline import ShardedPreprocessResult
from .artifacts import ShardTopology, load_sharded_artifact
from .http import RoutingHTTPServer
from .router import ShardRouter
from .service import shard_services

__all__ = ["ShardCluster"]


class ShardCluster:
    """N in-process shard servers + one remote-stitching front end.

    Parameters
    ----------
    bundle: a sharded bundle directory (as written by
        :func:`~repro.serve.artifacts.save_sharded_artifact`) or an
        in-memory
        :class:`~repro.preprocess.pipeline.ShardedPreprocessResult`.
    host: interface every server binds (loopback by default).
    router_port: front-end port (0 = ephemeral; shard servers are
        always ephemeral).
    engine / cache_capacity / track_parents: per-shard serving knobs,
        forwarded to each shard's
        :class:`~repro.serve.service.RoutingService`; ``cache_capacity``
        also sizes the front end's stitched-row LRU.
    timeout / retries / backoff: the front end's per-shard
        :class:`~repro.serve.backends.RemoteBackend` deadline and
        bounded-retry budget.
    request_timeout: per-socket-read timeout of every HTTP server.
    registry: metrics registry shared by the front end and every shard
        server (``None`` = the process-global default).  Each surface
        mints its own ``service`` label, so series never collide.
    mmap: memory-map shard payloads when ``bundle`` is a path.
    verbose: per-request logging on every server.
    """

    def __init__(
        self,
        bundle: str | Path | ShardedPreprocessResult,
        *,
        host: str = "127.0.0.1",
        router_port: int = 0,
        engine: str = "auto",
        cache_capacity: int = 256,
        track_parents: bool = True,
        timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        request_timeout: float = 10.0,
        registry=None,
        expect_graph: CSRGraph | None = None,
        mmap: bool = False,
        verbose: bool = False,
    ) -> None:
        if isinstance(bundle, ShardedPreprocessResult):
            sharded = bundle
        else:
            sharded = load_sharded_artifact(
                bundle, expect_graph=expect_graph, mmap=mmap
            )
        self._shard_servers: list[RoutingHTTPServer | None] = []
        self._front: RoutingHTTPServer | None = None
        self._router: ShardRouter | None = None
        try:
            services = shard_services(
                sharded,
                engine=engine,
                cache_capacity=cache_capacity,
                track_parents=track_parents,
            )
            for service in services:
                if service is None:
                    self._shard_servers.append(None)
                    continue
                server = RoutingHTTPServer(
                    service,
                    host=host,
                    port=0,
                    registry=registry,
                    request_timeout=request_timeout,
                    verbose=verbose,
                )
                self._shard_servers.append(server.start())
            endpoints = [
                server.url if server is not None else None
                for server in self._shard_servers
            ]
            self._router = ShardRouter.remote(
                ShardTopology.from_sharded(sharded),
                endpoints,
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                cache_capacity=cache_capacity,
                track_parents=track_parents,
            )
            # fail at construction, not first query, if a shard server
            # came up wrong — ready-probe every backend once
            for s, backend in enumerate(self._router.backends):
                if backend is None:
                    continue
                health = backend.healthz()
                if health.get("status") == "unreachable":
                    raise RuntimeError(
                        f"shard {s} server at {backend.endpoint} failed "
                        f"its readiness probe: {health}"
                    )
            self._front = RoutingHTTPServer(
                self._router,
                host=host,
                port=router_port,
                registry=registry,
                request_timeout=request_timeout,
                verbose=verbose,
            ).start()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """Base URL of the stitching front end."""
        return self._front.url

    @property
    def shard_urls(self) -> list[str | None]:
        """Per-shard server base URLs (``None`` for empty shards)."""
        return [s.url if s is not None else None for s in self._shard_servers]

    @property
    def router(self) -> ShardRouter:
        """The front end's remote :class:`ShardRouter` (in-process
        queries against it take the same wire path as HTTP ones)."""
        return self._router

    @property
    def shard_servers(self) -> Sequence[RoutingHTTPServer | None]:
        """The shard servers themselves — tests kill one to exercise
        the degraded-mode contract."""
        return tuple(self._shard_servers)

    def close(self) -> None:
        """Tear down in deadlock-free order (idempotent).

        Backends first (wakes handler threads sleeping in retry
        backoff), then the front end (its handlers now fail fast and
        drain), then the shard servers.
        """
        if self._router is not None:
            self._router.close()
        if self._front is not None:
            self._front.close()
            self._front = None
        for server in self._shard_servers:
            if server is not None:
                server.close()
        self._shard_servers = []

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
