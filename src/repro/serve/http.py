"""HTTP front end — the network face of any query surface.

A stdlib-only JSON API over the serving stack.  The server is
constructed against the :class:`~repro.serve.surface.QuerySurface`
protocol, not a concrete class, so the single-graph
:class:`~repro.serve.service.RoutingService` and the sharded
:class:`~repro.serve.router.ShardRouter` are interchangeable behind the
same endpoints — sharded serving is a drop-in.  A
:class:`~http.server.ThreadingHTTPServer` dispatches each request on
its own thread straight into the thread-safe surface (one locked LRU
per planner, single-flight solves underneath), so concurrent clients
share cached rows and coalesce duplicate misses exactly like
in-process callers.  No framework, no dependencies — the container
this repo targets has only the scientific stack.

Endpoints
---------
===========================  ====================================================
``GET /healthz``             liveness probe → ``{"status": "ok", "shards": N,
                             "artifact_version": V}`` (a single-graph
                             service reports ``shards: 1``)
``GET /stats``               surface counters + topology (JSON): the
                             resolved ``engine``, shard count, per-shard
                             vertex/boundary counts, and (single-graph)
                             the ``engines`` registry with descriptions
``GET /metrics``             Prometheus text exposition of the server's
                             registry (request latency histograms by
                             endpoint, planner cache counters, engine
                             step/relaxation histograms, shard-stitch
                             counters — :mod:`repro.obs`)
``GET /debug/slow``          the slow-query log: span trees of recent
                             requests over the ``slow_ms`` threshold
``GET /distances/{s}``       full distance row from ``s`` (``null`` = unreachable)
``GET /route/{s}/{t}``       distance and (when tracked) path ``s → t``
``GET /nearest/{s}/{k}``     the ``k`` closest reachable vertices to ``s``
``POST /batch``              mixed query list, answered as one coalesced batch
``GET /internal/ready``      cheap readiness probe for cluster bootstrap
``GET /internal/row/{s}``    one cached distance row as a compact binary
                             frame (with ``?parents=1`` its parent row
                             too, from the same cached row, when the
                             surface tracks parents)
``POST /internal/solve``     one seeded solve: a seed row in, its distance
                             row (and with ``?parents=1`` its parent row)
                             out, one frame each way; ``?stop=t1,t2,...``
                             (shard-local ids) ends it once every ``t`` is
                             settled, with ``inf`` (parent ``-1``) past
                             the run's bound
===========================  ====================================================

The ``/internal/*`` surface is the shard-to-router wire: rows travel as
raw little-endian float64 frames (:func:`repro.serve.backends.encode_rows`
— no JSON float round-trip, so a front-end
:class:`~repro.serve.backends.RemoteBackend` stitches bit-identical
answers).  ``/internal/row`` is the surface's ``source_row`` and
``/internal/solve`` its ``solve_seeded``.  A malformed frame, a bad
seed row (wrong length, NaN, negative), a ``parents`` flag other than 0
or 1, and a ``stop`` target that is no integer or lies outside the
shard are each a 400.  A surface that does not track parents answers
``?parents=1`` on ``/internal/row`` with the distance row alone.

Error contract: request problems (malformed paths, non-integer ids,
out-of-range vertices, negative ``k``, bad JSON) map to **4xx** with a
JSON body ``{"error": <type>, "message": <detail>}``; unexpected
server-side failures (a typed :class:`~repro.serve.artifacts.ArtifactError`,
an engine blow-up) map to **5xx** with the same shape.  ``Infinity`` is
not valid JSON, so unreachable distances serialize as ``null``.  A
front-end router whose shard backend is down past its retry budget
raises :class:`~repro.serve.backends.ShardUnavailableError`, which maps
to **503** with the failing shard named —
``{"error": "ShardUnavailable", "shard": 2, ...}`` — the typed
degraded-mode contract (the request fails within the backend's
deadline/retry budget; it never hangs).

Observability: every response — error paths included — carries an
``X-Request-Id`` header (the client's, sanitized, when it sent one;
minted otherwise), which is also the id of the request's span tree in
``GET /debug/slow``.  Each request is counted into
``http_requests_total{endpoint,status}`` and timed into
``http_request_seconds{endpoint}`` on the server's registry, and the
surface is instrumented at construction when it supports it
(:meth:`PlannerSurface.instrument
<repro.serve.surface.PlannerSurface.instrument>`, shared by the
service and the router), so one scrape shows the whole stack.

Usage::

    service = RoutingService.from_artifact("road.kr.npz", expect_graph=g)
    with RoutingHTTPServer(service, port=8080) as server:   # starts serving
        print("listening on", server.url)
        ...
    # context exit = graceful shutdown: stop accepting, finish in-flight
    # requests, close the socket

``examples/http_routing_service.py`` drives a live server end to end
(including a concurrent client burst); ``POST /batch`` bodies look like::

    {"queries": [
        {"type": "distances", "source": 3},
        {"type": "route", "source": 3, "target": 94},
        {"type": "nearest", "source": 3, "k": 5}
    ]}
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..engine.driver import StopRule
from ..obs.expo import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.expo import render as render_metrics
from ..obs.metrics import get_default_registry
from ..obs.trace import SlowQueryLog, new_request_id, trace_request
from .backends import (
    ROWS_CONTENT_TYPE,
    ShardUnavailableError,
    decode_rows,
    encode_rows,
)
from .planner import KNearest, Nearest, PointToPoint, Route, SingleSource
from .surface import QuerySurface, json_finite

__all__ = ["RoutingHTTPServer", "serve"]

#: request bodies larger than this are refused with 413 (a batch of
#: thousands of queries fits in a few KiB; anything bigger is abuse).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: seconds between the accept loop's shutdown checks: ``close()`` waits
#: up to one interval for the loop to stop.
_POLL_INTERVAL = 0.05

_INT_RE = re.compile(r"[+-]?\d+\Z")

#: the endpoint label values request metrics may carry.  Labels must be
#: bounded — a scanner probing random paths must not mint one time
#: series per path — so anything unrecognized becomes ``"unknown"``.
_ENDPOINTS = frozenset(
    {"root", "healthz", "stats", "metrics", "debug", "distances",
     "route", "nearest", "batch", "internal"}
)

#: characters allowed in an echoed request id (visible ASCII only — a
#: client-supplied header is echoed back verbatim, and CR/LF would be a
#: response-splitting hole).
_REQUEST_ID_STRIP = re.compile(r"[^\x21-\x7e]")


def _endpoint_label(method: str, path: str) -> str:
    """The bounded ``endpoint`` label of a request path.

    Derived from the first path segment *before* routing, so error
    responses (404s, planner rejections) are attributed to the endpoint
    the client was aiming at.
    """
    parts = [p for p in urlparse(path).path.split("/") if p]
    if not parts:
        return "root"
    head = parts[0]
    return head if head in _ENDPOINTS else "unknown"


def _request_id(raw: str | None) -> str:
    """Accept a client's ``X-Request-Id`` (sanitized) or mint one."""
    if raw:
        cleaned = _REQUEST_ID_STRIP.sub("", raw)[:128]
        if cleaned:
            return cleaned
    return new_request_id()


class _RawResponse:
    """A pre-encoded response body (bypasses the JSON layer) — how
    ``GET /metrics`` returns Prometheus text from a JSON server."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


class _HTTPError(Exception):
    """Internal: carries an HTTP status for the error-mapping layer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _parse_int(text: str, what: str) -> int:
    if not _INT_RE.match(text):
        raise _HTTPError(400, f"{what} must be an integer, got {text!r}")
    return int(text)


def _parents_flag(query: str) -> bool:
    """The ``?parents=0|1`` flag of an internal request."""
    flag = parse_qs(query).get("parents", ["0"])[-1]
    if flag not in ("0", "1"):
        raise _HTTPError(400, f"parents must be 0 or 1, got {flag!r}")
    return flag == "1"


def _distances_payload(source: int, dist: np.ndarray) -> dict:
    finite = np.isfinite(dist)
    return {
        "type": "distances",
        "source": int(source),
        "n": int(len(dist)),
        "reachable": int(finite.sum()),
        "distances": [
            float(d) if ok else None for d, ok in zip(dist.tolist(), finite.tolist())
        ],
    }


def _route_payload(route: Route) -> dict:
    return {
        "type": "route",
        "source": int(route.source),
        "target": int(route.target),
        "distance": json_finite(route.distance),
        "reachable": bool(np.isfinite(route.distance)),
        "path": None if route.path is None else [int(v) for v in route.path],
    }


def _nearest_payload(near: Nearest, k: int) -> dict:
    return {
        "type": "nearest",
        "source": int(near.source),
        "k": int(k),
        "count": int(len(near.vertices)),
        "vertices": [int(v) for v in near.vertices],
        "distances": [float(d) for d in near.distances],
    }


def _answer_payload(query, answer) -> dict:
    if isinstance(query, SingleSource):
        return _distances_payload(query.source, answer)
    if isinstance(query, PointToPoint):
        return _route_payload(answer)
    return _nearest_payload(answer, query.k)


def _parse_batch_query(item, index: int):
    """One JSON batch entry → a planner query record.

    Values pass through untouched (including JSON ``true``/``false``):
    the planner's own validation is the single source of truth for what
    a vertex id is, and its ``TypeError``/``ValueError`` map to 400.
    """
    if not isinstance(item, dict):
        raise _HTTPError(400, f"query {index}: expected an object, got {item!r}")
    kind = item.get("type")
    try:
        if kind == "distances":
            return SingleSource(item["source"])
        if kind == "route":
            return PointToPoint(item["source"], item["target"])
        if kind == "nearest":
            return KNearest(item["source"], item["k"])
    except KeyError as exc:
        raise _HTTPError(400, f"query {index}: missing field {exc.args[0]!r}")
    raise _HTTPError(
        400,
        f"query {index}: unknown type {kind!r} "
        "(expected 'distances', 'route', or 'nearest')",
    )


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-routing/1.0"
    # Small responses over keep-alive connections otherwise sit out
    # Nagle + delayed-ACK (~40ms per exchange on loopback) — fatal for
    # the per-row internal fetches the remote stitch path makes.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        # Bound every socket read (idle keep-alive waits included) by
        # the server's request timeout: without it, one idle persistent
        # connection pins its handler thread in readline() for as long
        # as the client keeps it open (close() ends it at once).
        self.timeout = self.server.request_timeout
        super().setup()

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:
        self._respond("GET")

    def do_POST(self) -> None:
        self._respond("POST")

    def log_message(self, fmt: str, *args) -> None:
        if self.server.verbose:  # pragma: no cover - debug aid
            super().log_message(fmt, *args)

    # ------------------------------------------------------------------ #
    def _respond(self, method: str) -> None:
        self._body_read = False
        endpoint = _endpoint_label(method, self.path)
        request_id = _request_id(self.headers.get("X-Request-Id"))
        t0 = time.perf_counter()
        # the root span every instrumented layer underneath (planner,
        # router, solver) attaches its children to
        with trace_request(f"{method} {endpoint}", request_id) as trace:
            try:
                payload = self._route_request(method)
                status = 200
            except _HTTPError as exc:
                names = {
                    404: "NotFound", 408: "RequestTimeout", 411: "LengthRequired",
                    413: "PayloadTooLarge", 503: "ServerClosing",
                }
                status, payload = exc.status, {
                    "error": names.get(exc.status, "BadRequest"),
                    "message": str(exc),
                }
            except (ValueError, TypeError) as exc:
                # the planner's validation layer: out-of-range vertices,
                # bools-as-ids, negative k, malformed query records
                status, payload = 400, {
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
            except ShardUnavailableError as exc:
                # the degraded-mode contract: a shard down past its
                # retry budget names itself in a typed 503
                status, payload = 503, {
                    "error": "ShardUnavailable",
                    "shard": exc.shard,
                    "endpoint": exc.endpoint,
                    "message": str(exc),
                }
            except Exception as exc:  # typed server-side failures → 5xx
                status, payload = 500, {
                    "error": type(exc).__name__,
                    "message": str(exc),
                }
        self.server.observe_request(
            endpoint=endpoint,
            status=status,
            seconds=time.perf_counter() - t0,
            trace=trace,
            method=method,
        )
        if isinstance(payload, _RawResponse):
            body, content_type = payload.body, payload.content_type
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("X-Request-Id", request_id)
            if self._undrained_body():
                # this request carried a body we never (or never
                # correctly) drained — an error path refused it early, a
                # body arrived on a bodiless endpoint, or it used
                # chunked framing we don't decode; under HTTP/1.1
                # keep-alive the leftover bytes would be parsed as the
                # next request line (connection desync) — advertise and
                # perform a close instead.  send_header("Connection",
                # "close") also flips self.close_connection for us.
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)
        except OSError:  # pragma: no cover - client went away mid-write
            self.close_connection = True

    def _undrained_body(self) -> bool:
        """True when request body bytes may remain on the socket.

        Chunked transfer encoding always counts: we never decode it, so
        even a "read" body would leave its framing on the wire."""
        if self.headers.get("Transfer-Encoding"):
            return True
        if self._body_read:
            return False
        raw = (self.headers.get("Content-Length") or "").strip()
        try:
            return int(raw) > 0
        except ValueError:
            return False

    def _route_request(self, method: str):
        service = self.server.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if method == "POST":
            if parts == ["batch"]:
                return self._batch(service)
            if parts == ["internal", "solve"] and hasattr(service, "solve_seeded"):
                return self._solve_seeded(service, url.query)
            raise _HTTPError(404, f"no POST endpoint at {self.path!r}")
        if not parts:
            return {
                "service": "repro-routing",
                "endpoints": [
                    "GET /healthz",
                    "GET /stats",
                    "GET /metrics",
                    "GET /debug/slow",
                    "GET /distances/{s}",
                    "GET /route/{s}/{t}",
                    "GET /nearest/{s}/{k}",
                    "POST /batch",
                    "GET /internal/ready",
                    "GET /internal/row/{s}",
                    "POST /internal/solve",
                ],
            }
        if parts == ["healthz"]:
            return service.healthz()
        if parts == ["stats"]:
            return service.stats()
        if parts == ["metrics"]:
            return _RawResponse(
                render_metrics(self.server.registry).encode(),
                METRICS_CONTENT_TYPE,
            )
        if parts == ["debug", "slow"]:
            return self.server.slow_log.dump()
        if parts[0] == "distances" and len(parts) == 2:
            source = _parse_int(parts[1], "source")
            return _distances_payload(source, service.distances(source))
        if parts[0] == "route" and len(parts) == 3:
            source = _parse_int(parts[1], "source")
            target = _parse_int(parts[2], "target")
            return _route_payload(service.route(source, target))
        if parts[0] == "nearest" and len(parts) == 3:
            source = _parse_int(parts[1], "source")
            k = _parse_int(parts[2], "k")
            return _nearest_payload(service.nearest(source, k), k)
        if parts[0] == "internal":
            return self._internal(service, parts, url.query)
        raise _HTTPError(404, f"no GET endpoint at {self.path!r}")

    def _internal(self, service: QuerySurface, parts: list[str], query: str):
        """The shard-to-router wire: readiness + one binary row."""
        if parts == ["internal", "ready"]:
            health = service.healthz()
            return {"ready": health.get("status") == "ok", **health}
        if len(parts) == 3 and parts[1] == "row":
            source = _parse_int(parts[2], "source")
            if _parents_flag(query):
                rows = [
                    row
                    for row in service.source_row(source, parents=True)
                    if row is not None
                ]
            else:
                rows = [service.distances(source)]
            return _RawResponse(encode_rows(rows), ROWS_CONTENT_TYPE)
        raise _HTTPError(404, f"no GET endpoint at {self.path!r}")

    def _read_body(self) -> bytes:
        """The request body, under the checks every POST shares: all
        ``Content-Length`` bytes, or 503 if ``close()`` cut it short, 400
        if the client did, 408 if it stalled.  Only a whole body counts
        as read, so each error closes the connection."""
        length = self.headers.get("Content-Length")
        if length is None or not _INT_RE.match(length):
            raise _HTTPError(411, "POST requires a Content-Length header")
        length = int(length)
        if length < 0:
            # rfile.read(-1) would block reading until EOF/timeout,
            # pinning a handler thread per malicious request
            raise _HTTPError(400, "Content-Length must be non-negative")
        if length > MAX_BODY_BYTES:
            raise _HTTPError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _HTTPError(408, f"body stalled for {self.timeout} s") from None
        if len(raw) < length:
            if self.server._closing:
                raise _HTTPError(503, "server is closing")
            raise _HTTPError(400, f"body ended after {len(raw)} of {length} bytes")
        self._body_read = True  # connection stays reusable from here on
        return raw

    def _solve_seeded(self, service, query: str):
        """``POST /internal/solve``: one seed-row frame in, the distance
        row (plus, with ``?parents=1``, the parent row) out; ``?stop=``
        lists the shard-local targets that may end the solve."""
        parents = _parents_flag(query)
        stop = parse_qs(query).get("stop")
        rule = None
        if stop:
            rule = StopRule(
                targets=tuple(_parse_int(t, "stop target") for t in stop[-1].split(","))
            )
        seeds = decode_rows(self._read_body())  # a bad frame is a ValueError
        if seeds.shape[0] != 1:
            raise _HTTPError(400, f"expected one seed row, got {seeds.shape[0]}")
        res = service.solve_seeded(seeds[0], track_parents=parents, stop=rule)
        rows = [res.dist] if res.parent is None else [res.dist, res.parent]
        return _RawResponse(encode_rows(rows), ROWS_CONTENT_TYPE)

    def _batch(self, service: QuerySurface):
        raw = self._read_body()
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"request body is not valid JSON: {exc}")
        items = doc.get("queries") if isinstance(doc, dict) else doc
        if not isinstance(items, list):
            raise _HTTPError(
                400, "expected a JSON list or {'queries': [...]} body"
            )
        queries = [_parse_batch_query(item, i) for i, item in enumerate(items)]
        answers = service.batch(queries)
        return {
            "count": len(answers),
            "answers": [
                _answer_payload(q, a) for q, a in zip(queries, answers)
            ],
        }


class RoutingHTTPServer(ThreadingHTTPServer):
    """Threaded JSON front end over one query surface
    (:class:`~repro.serve.service.RoutingService`,
    :class:`~repro.serve.router.ShardRouter`, or anything else
    implementing :class:`~repro.serve.surface.QuerySurface`).

    Each connection is handled on its own thread; all of them funnel
    into the same surface, whose locked LRU caches and single-flight
    tables make that safe (and fast — see ``benchmarks/bench_scaling.py``).

    Use as a context manager for the full lifecycle, or call
    :meth:`start` / :meth:`close` explicitly::

        server = RoutingHTTPServer(service)      # port=0 → ephemeral
        server.start()                           # background accept loop
        ...
        server.close()                           # graceful: drain, then close

    ``close`` stops accepting, lets in-flight handlers finish
    (``block_on_close``), and releases the socket.  It shuts the read
    side of every open connection first, so a handler parked on an idle
    keep-alive socket sees end of stream and returns at once, while one
    answering a request still sends its response.
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        service: QuerySurface,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        request_timeout: float = 10.0,
        registry=None,
        slow_ms: float = 250.0,
        slow_capacity: int = 128,
    ) -> None:
        if not isinstance(service, QuerySurface):
            raise TypeError(
                f"{type(service).__name__} does not implement the "
                "QuerySurface protocol (distances/route/nearest/batch/"
                "warm/stats/healthz)"
            )
        super().__init__((host, port), _Handler)
        self.service = service
        self.verbose = verbose
        #: per-socket-read timeout (seconds).  Bounds how long an idle
        #: keep-alive connection can pin a handler thread while the
        #: server runs (:meth:`close` ends idle connections at once).
        self.request_timeout = request_timeout
        #: the metrics registry ``GET /metrics`` renders (the
        #: process-global default unless one is injected — tests inject
        #: a fresh one to assert in isolation).
        self.registry = registry if registry is not None else get_default_registry()
        #: threshold-triggered ring buffer behind ``GET /debug/slow``.
        self.slow_log = SlowQueryLog(threshold_ms=slow_ms, capacity=slow_capacity)
        self._requests_total = self.registry.counter(
            "http_requests_total",
            "HTTP requests by endpoint and status",
            ("endpoint", "status"),
        )
        self._request_seconds = self.registry.histogram(
            "http_request_seconds",
            "request latency by endpoint (routing + answer, excl. socket IO)",
            ("endpoint",),
        )
        # Instrumentation is duck-typed, NOT part of QuerySurface: a
        # minimal surface implementation without instrument() must keep
        # passing the isinstance gate above and serve untelemetered.
        instrument = getattr(service, "instrument", None)
        if callable(instrument):
            instrument(self.registry)
        self._thread: threading.Thread | None = None
        # accepted connections not yet shut down, for close()
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        # set by close() first: a body cut short after it is not the client's
        self._closing = False

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        # drop it before the socket closes: close() never shuts down a
        # descriptor the kernel may have handed to a new socket
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def observe_request(
        self, *, endpoint: str, status: int, seconds: float, trace, method: str
    ) -> None:
        """One finished request: fold into metrics and the slow log.

        Label children are resolved per call via the family dict (O(1));
        the slow log's under-threshold path is one comparison.
        """
        self._requests_total.labels(endpoint, status).inc()
        self._request_seconds.labels(endpoint).observe(seconds)
        self.slow_log.record(
            trace, method=method, endpoint=endpoint, status=int(status)
        )

    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        """Base URL of the bound socket (resolves ephemeral ports)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "RoutingHTTPServer":
        """Run the accept loop on a background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever,
            args=(_POLL_INTERVAL,),
            name="routing-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Graceful shutdown: stop the accept loop, end idle
        connections, drain handler threads, release the socket.
        Idempotent.  A request whose body is still arriving answers
        503 ``ServerClosing``."""
        self._closing = True
        if self._thread is not None:
            self.shutdown()
            self._thread.join()
            self._thread = None
        # no connection is accepted now; a reader gets what already
        # arrived, then end of stream
        with self._connections_lock:
            for conn in self._connections:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already went away
        self.server_close()

    def __enter__(self) -> "RoutingHTTPServer":
        # tolerate an already-running server: `with serve(svc) as s:`
        # hands us one that start()ed inside the helper
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve(
    service: QuerySurface,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    request_timeout: float = 10.0,
    registry=None,
    slow_ms: float = 250.0,
    slow_capacity: int = 128,
) -> RoutingHTTPServer:
    """Convenience: construct a :class:`RoutingHTTPServer` and start it."""
    return RoutingHTTPServer(
        service,
        host=host,
        port=port,
        verbose=verbose,
        request_timeout=request_timeout,
        registry=registry,
        slow_ms=slow_ms,
        slow_capacity=slow_capacity,
    ).start()
