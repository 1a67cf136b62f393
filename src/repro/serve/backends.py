"""Shard backends — the transport seam under the stitch layer.

The :class:`~repro.serve.router.ShardRouter` answers a query with one
source row from the source's shard, one solve on the boundary overlay,
and seeded shard solves: one per reached shard for a full row, one per
target shard, stopped at its targets, for a route (the stitching core).
What it calls is this module's :class:`ShardBackend` protocol —
``source_row`` / ``solve_seeded`` / ``stats`` / ``healthz`` — with two
implementations:

* :class:`LocalBackend` wraps a shard's
  :class:`~repro.serve.service.RoutingService` in process and makes
  the same calls a shard server's handlers make.  Zero transport
  cost, always healthy, bit-identical to the remote path (the parity
  suite pins it).
* :class:`RemoteBackend` speaks to a shard's
  :class:`~repro.serve.http.RoutingHTTPServer` over a pool of stdlib
  :class:`http.client.HTTPConnection` objects: per-request deadline,
  bounded retry-with-backoff on every call (each is idempotent), and
  ``X-Request-Id`` propagation from the ambient trace so one request id
  threads the front end's span tree *and* every shard's slow log.  Seed
  rows, distance rows and parent rows travel as a compact binary frame
  (:func:`encode_rows` / :func:`decode_rows` — raw little-endian
  float64, no JSON float round-trip, bit-identical by construction).

Degraded mode is typed: a shard that stays down past its retry budget
raises :class:`ShardUnavailableError` naming the shard and endpoint,
which the HTTP front end maps to a ``503`` — a dead shard degrades the
cluster loudly instead of hanging it.  ``close()`` is safe to call from
another thread while a request is sleeping between retries: the backoff
waits on an event, so shutdown interrupts it immediately instead of
blocking for the remaining budget.

Every backend tracks its own health (consecutive failures, failure
total), a row-fetch latency histogram (source rows and seeded solves
alike), and what it sent over the wire: ``source_row`` and
``solve_seeded`` calls and the frame bytes each way.  A
:class:`LocalBackend` moves no frames; it counts the bytes the same
call's frames would carry, so both transports report one number for
one stitch.  ``backend_stats()`` is the ``backends`` table of
``ShardRouter.stats()`` and the source of the ``shard_backend_*``
metric families.
"""

from __future__ import annotations

import http.client
import json
import socket
import struct
import threading
import time
from typing import Protocol, Sequence, runtime_checkable
from urllib.parse import urlparse

import numpy as np

from ..engine.driver import StopRule
from ..obs.metrics import LATENCY_BUCKETS, Histogram
from ..obs.trace import current_trace

__all__ = [
    "ROWS_CONTENT_TYPE",
    "LocalBackend",
    "RemoteBackend",
    "ShardBackend",
    "ShardUnavailableError",
    "decode_rows",
    "encode_rows",
]

#: content type of the binary row frame.
ROWS_CONTENT_TYPE = "application/x-repro-rows"

#: binary row frame header: magic, version, 3 pad bytes, row count
#: (u32), row length (u64) — then ``n_rows * row_len`` little-endian
#: float64 payload.
_ROWS_MAGIC = b"RROW"
_ROWS_VERSION = 1
_ROWS_HEADER = struct.Struct("<4sB3xIQ")


def _frame_bytes(n_rows: int, row_len: int) -> int:
    """Size of a frame of ``n_rows`` rows of ``row_len`` entries."""
    return _ROWS_HEADER.size + 8 * n_rows * row_len


class ShardUnavailableError(RuntimeError):
    """A shard backend is down past its retry budget (or closed).

    Carries the failing shard id and endpoint so the degraded-mode
    contract can *name* what is broken: the HTTP front end maps this to
    a ``503`` with ``{"error": "ShardUnavailable", "shard": ...}``.
    """

    def __init__(self, shard: int, endpoint: str | None, reason: str) -> None:
        where = f" at {endpoint}" if endpoint else ""
        super().__init__(f"shard {shard}{where} is unavailable: {reason}")
        self.shard = int(shard)
        self.endpoint = endpoint
        self.reason = reason


# --------------------------------------------------------------------- #
# Binary row frame
# --------------------------------------------------------------------- #
def encode_rows(rows: Sequence[np.ndarray]) -> bytes:
    """Frame distance rows as bytes: header + raw float64 payload.

    All rows must share one length.  The payload is the rows' exact
    float64 bit patterns — a decoded row compares bit-identical to the
    row it came from, which is what keeps remote stitching on the same
    exactness contract as local stitching (a parent row, as float64, is
    exact below 2⁵³).
    """
    if not rows:
        raise ValueError("encode_rows requires at least one row")
    mat = np.ascontiguousarray(np.stack([np.asarray(r) for r in rows]))
    mat = mat.astype("<f8", copy=False)
    header = _ROWS_HEADER.pack(
        _ROWS_MAGIC, _ROWS_VERSION, mat.shape[0], mat.shape[1]
    )
    return header + mat.tobytes()


def decode_rows(data: bytes, *, expect_len: int | None = None) -> np.ndarray:
    """Decode a frame into a read-only ``(n_rows, row_len)`` array.

    ``expect_len`` pins the row length the caller's topology implies —
    a mismatch means the endpoint serves a *different* shard (or graph)
    than the manifest claims, which must fail loudly, not stitch
    garbage.
    """
    if len(data) < _ROWS_HEADER.size:
        raise ValueError("row frame truncated before its header")
    magic, version, n_rows, row_len = _ROWS_HEADER.unpack_from(data)
    if magic != _ROWS_MAGIC:
        raise ValueError(f"bad row-frame magic {magic!r}")
    if version != _ROWS_VERSION:
        raise ValueError(f"unsupported row-frame version {version}")
    expected = _ROWS_HEADER.size + 8 * n_rows * row_len
    if len(data) != expected:
        raise ValueError(
            f"row frame holds {len(data)} bytes, header implies {expected}"
        )
    if expect_len is not None and row_len != expect_len:
        raise ValueError(
            f"row length {row_len} does not match the shard's vertex "
            f"count {expect_len} — endpoint serves a different shard?"
        )
    mat = np.frombuffer(data, dtype="<f8", offset=_ROWS_HEADER.size)
    mat = mat.reshape(n_rows, row_len)
    mat.setflags(write=False)
    return mat


# --------------------------------------------------------------------- #
# The protocol
# --------------------------------------------------------------------- #
@runtime_checkable
class ShardBackend(Protocol):
    """What the stitching core needs from one shard, transport-agnostic.

    Every shard is a :class:`~repro.serve.service.RoutingService`, and
    every row speaks *shard-local* vertex ids.  ``source_row`` returns
    the pair of the shard's cached float64 distance row of one source
    and, with ``parents``, its integer parent row from the same cached
    row (``None`` without ``parents`` or from a shard that does not
    track parents).
    ``solve_seeded`` takes a seed row over the shard's
    vertices (``inf`` = not a seed) and returns the seeded solve's
    distance row and, with ``track_parents``, its int64 parent row
    (``None`` otherwise).  With ``stop`` (shard-local target ids) the
    shard may end the solve once every target is settled, and then
    returns ``inf`` (parent ``-1``) past the run's bound: the row is
    final wherever it is finite, and a shard that ignores ``stop``
    returns a full row, which is as correct.  ``stats`` is the shard
    service's own ``stats()``.  ``backend_stats`` is the
    health/latency/wire snapshot the router's ``backends`` table and
    the ``shard_backend_*`` metric families are built from.
    """

    kind: str
    shard: int
    endpoint: str | None

    def source_row(
        self, local_source: int, *, parents: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]: ...

    def solve_seeded(
        self,
        seed: np.ndarray,
        *,
        track_parents: bool = False,
        stop: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]: ...

    def stats(self) -> dict: ...

    def healthz(self) -> dict: ...

    def backend_stats(self) -> dict: ...

    def close(self) -> None: ...


class _BaseBackend:
    """Shared health, row-fetch latency and wire bookkeeping."""

    kind = "abstract"

    def __init__(self, shard: int, endpoint: str | None) -> None:
        self.shard = int(shard)
        self.endpoint = endpoint
        self._health_lock = threading.Lock()
        self._consecutive_failures = 0
        self._failures_total = 0
        self._fetch_hist = Histogram(LATENCY_BUCKETS)
        # the wire counters of backend_stats(): calls of each kind and
        # row-frame bytes each way
        self._wire_lock = threading.Lock()
        self._wire = dict.fromkeys(
            ("source_rows", "seeded_solves", "frame_bytes_sent", "frame_bytes_received"),
            0,
        )

    # -- health ------------------------------------------------------- #
    @property
    def healthy(self) -> bool:
        """True while the last request cycle succeeded."""
        with self._health_lock:
            return self._consecutive_failures == 0

    @property
    def consecutive_failures(self) -> int:
        with self._health_lock:
            return self._consecutive_failures

    def _mark_attempt_failure(self) -> None:
        with self._health_lock:
            self._failures_total += 1

    def _mark_request_failure(self) -> None:
        with self._health_lock:
            self._consecutive_failures += 1

    def _mark_success(self) -> None:
        with self._health_lock:
            self._consecutive_failures = 0

    def _record_fetch(
        self, counter: str, seconds: float, sent: int, received: int
    ) -> None:
        """One finished ``source_row`` (``counter="source_rows"``) or
        ``solve_seeded`` (``"seeded_solves"``) call and its frame
        bytes."""
        self._fetch_hist.observe(seconds)
        with self._wire_lock:
            wire = self._wire
            wire[counter] += 1
            wire["frame_bytes_sent"] += sent
            wire["frame_bytes_received"] += received

    def fetch_snapshot(self) -> tuple[tuple[float, ...], list[int], float, int]:
        """(bounds, non-cumulative counts incl. +Inf, sum, count) of the
        row-fetch latency histogram — what the obs bridge renders."""
        counts, total, count = self._fetch_hist.snapshot()
        return self._fetch_hist.bounds, counts, total, count

    def backend_stats(self) -> dict:
        """One row of the router's ``backends`` table."""
        p50 = self._fetch_hist.quantile(0.5)
        with self._health_lock:
            consecutive = self._consecutive_failures
            failures = self._failures_total
        with self._wire_lock:
            wire = dict(self._wire)
        return {
            "shard": self.shard,
            "kind": self.kind,
            "endpoint": self.endpoint,
            "healthy": consecutive == 0,
            "consecutive_failures": consecutive,
            "failures_total": failures,
            "row_fetches": self._fetch_hist.count,
            "row_fetch_p50_ms": None if p50 is None else round(p50 * 1e3, 4),
            **wire,
        }

    def close(self) -> None:  # pragma: no cover - overridden where real
        pass


# --------------------------------------------------------------------- #
# In-process backend
# --------------------------------------------------------------------- #
class LocalBackend(_BaseBackend):
    """One shard served in process by its own
    :class:`~repro.serve.service.RoutingService`.

    Each method makes the call a shard server's handler makes for the
    matching request (``/internal/row``, ``/internal/solve``,
    ``/stats``, ``/internal/ready``), so ``stats`` is the service's own
    snapshot — a local shard reports exactly what a remote one does.
    """

    kind = "local"

    def __init__(self, shard: int, service) -> None:
        super().__init__(shard, endpoint=None)
        self.service = service

    def source_row(
        self, local_source: int, *, parents: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        t0 = time.perf_counter()
        dist, parent = self.service.source_row(int(local_source), parents=parents)
        self._record_fetch(
            "source_rows",
            time.perf_counter() - t0,
            0,
            _frame_bytes(1 if parent is None else 2, len(dist)),
        )
        return dist, parent

    def solve_seeded(
        self,
        seed: np.ndarray,
        *,
        track_parents: bool = False,
        stop: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        t0 = time.perf_counter()
        rule = StopRule(targets=tuple(map(int, stop))) if stop else None
        res = self.service.solve_seeded(
            seed, track_parents=track_parents, stop=rule
        )
        n = len(res.dist)
        self._record_fetch(
            "seeded_solves",
            time.perf_counter() - t0,
            _frame_bytes(1, n),
            _frame_bytes(2 if track_parents else 1, n),
        )
        return res.dist, res.parent

    def stats(self) -> dict:
        return self.service.stats()

    def healthz(self) -> dict:
        return {**self.service.healthz(), "shard": self.shard}


# --------------------------------------------------------------------- #
# Remote backend — the network seam
# --------------------------------------------------------------------- #
class RemoteBackend(_BaseBackend):
    """One shard served by a :class:`RoutingHTTPServer` across the wire.

    Parameters
    ----------
    endpoint: ``"http://host:port"`` (or bare ``"host:port"``) of the
        shard's server.
    shard: the shard id this endpoint must serve (error attribution).
    timeout: per-request deadline in seconds — connect and every socket
        read are bounded by it, so a hung shard surfaces as a typed
        error within the deadline instead of pinning a thread.
    retries: extra attempts after the first, on connection errors and
        5xx responses (every request this backend makes is idempotent —
        rows, seeded solves, stats).
    backoff: initial sleep between attempts, doubling per retry.  The
        sleep waits on the close event, so :meth:`close` from another
        thread interrupts it immediately.
    pool_size: connections kept alive for reuse (per backend).
    expect_n: the shard's vertex count per the bundle topology; row
        responses of any other length raise — a miswired endpoint must
        not stitch another shard's distances.
    """

    kind = "remote"

    def __init__(
        self,
        endpoint: str,
        *,
        shard: int,
        timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        pool_size: int = 4,
        expect_n: int | None = None,
    ) -> None:
        if "//" not in endpoint:
            endpoint = "http://" + endpoint
        parsed = urlparse(endpoint)
        if parsed.scheme != "http" or not parsed.hostname or not parsed.port:
            raise ValueError(
                f"endpoint must look like http://host:port, got {endpoint!r}"
            )
        super().__init__(shard, f"http://{parsed.hostname}:{parsed.port}")
        self._host = parsed.hostname
        self._port = int(parsed.port)
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff = float(backoff)
        self._backoff_cap = float(backoff_cap)
        self._expect_n = expect_n
        self._pool: list[http.client.HTTPConnection] = []
        self._pool_size = int(pool_size)
        self._pool_lock = threading.Lock()
        self._closed = threading.Event()

    # -- connection pool ---------------------------------------------- #
    def _acquire(self) -> http.client.HTTPConnection:
        with self._pool_lock:
            if self._pool:
                return self._pool.pop()
        conn = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        conn.connect()
        # request headers go out in one small write per GET; without
        # TCP_NODELAY each exchange can stall on Nagle + delayed-ACK
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def _release(self, conn: http.client.HTTPConnection) -> None:
        with self._pool_lock:
            if not self._closed.is_set() and len(self._pool) < self._pool_size:
                self._pool.append(conn)
                return
        conn.close()

    # -- request cycle ------------------------------------------------ #
    def _request(self, path: str, body: bytes | None = None) -> bytes:
        """One idempotent GET (or POST of ``body``) with deadline, retry
        and backoff.

        Returns the 200 response body.  Connection errors and 5xx
        responses are retried up to the budget with doubling,
        close-interruptible sleeps; exhaustion (or a close) raises
        :class:`ShardUnavailableError`.  A 4xx is the shard rejecting
        the request itself — not a liveness problem — and re-raises as
        the error type the JSON body names.
        """
        if self._closed.is_set():
            raise ShardUnavailableError(self.shard, self.endpoint, "backend closed")
        method = "GET" if body is None else "POST"
        headers = {} if body is None else {"Content-Type": ROWS_CONTENT_TYPE}
        trace = current_trace()
        if trace is not None:
            headers["X-Request-Id"] = trace.request_id
        delay = self._backoff
        reason = "no attempt made"
        for attempt in range(self._retries + 1):
            if attempt:
                if self._closed.wait(delay):
                    raise ShardUnavailableError(
                        self.shard, self.endpoint, "closed during retry backoff"
                    )
                delay = min(delay * 2.0, self._backoff_cap)
            try:
                conn = self._acquire()
            except OSError as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self._mark_attempt_failure()
                continue
            reusable = False
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
                reusable = True
                if resp.status == 200:
                    self._mark_success()
                    return payload
                if resp.status >= 500:
                    reason = f"HTTP {resp.status} on {path}"
                    self._mark_attempt_failure()
                    continue
                # 4xx: the shard is alive and rejecting this request —
                # surface the typed error, do not burn the retry budget
                self._mark_success()
                raise _client_error(resp.status, payload, path)
            except (OSError, http.client.HTTPException) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                self._mark_attempt_failure()
            finally:
                if reusable:
                    self._release(conn)
                else:
                    conn.close()
        self._mark_request_failure()
        raise ShardUnavailableError(self.shard, self.endpoint, reason)

    # -- backend surface ---------------------------------------------- #
    def source_row(
        self, local_source: int, *, parents: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        t0 = time.perf_counter()
        path = f"/internal/row/{int(local_source)}"
        body = self._request((path + "?parents=1") if parents else path)
        # a shard that tracks no parents sends the distance row alone
        rows = self._decode(body, *((1, 2) if parents else (1,)))
        self._record_fetch("source_rows", time.perf_counter() - t0, 0, len(body))
        return rows[0], rows[1].astype(np.int64) if len(rows) == 2 else None

    def solve_seeded(
        self,
        seed: np.ndarray,
        *,
        track_parents: bool = False,
        stop: Sequence[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        t0 = time.perf_counter()
        query = ["parents=1"] if track_parents else []
        if stop:
            query.append("stop=" + ",".join(str(int(t)) for t in stop))
        path = "/internal/solve" + ("?" + "&".join(query) if query else "")
        frame = encode_rows([seed])
        body = self._request(path, frame)
        mat = self._decode(body, 2 if track_parents else 1)
        self._record_fetch(
            "seeded_solves", time.perf_counter() - t0, len(frame), len(body)
        )
        return mat[0], mat[1].astype(np.int64) if track_parents else None

    def _decode(self, body: bytes, *expect_rows: int) -> np.ndarray:
        try:
            mat = decode_rows(body, expect_len=self._expect_n)
        except ValueError as exc:
            # a malformed or wrong-shard frame is a misconfiguration,
            # not a transient: fail the backend loudly, no retry
            self._mark_attempt_failure()
            self._mark_request_failure()
            raise ShardUnavailableError(self.shard, self.endpoint, str(exc))
        if mat.shape[0] not in expect_rows:
            self._mark_attempt_failure()
            self._mark_request_failure()
            raise ShardUnavailableError(
                self.shard,
                self.endpoint,
                f"asked for {' or '.join(map(str, expect_rows))} rows, "
                f"frame holds {mat.shape[0]}",
            )
        return mat

    def stats(self) -> dict:
        return json.loads(self._request("/stats"))

    def healthz(self) -> dict:
        """Best-effort readiness probe — unreachable is a *status*, not
        an exception (health checks must not throw)."""
        try:
            return json.loads(self._request("/internal/ready"))
        except ShardUnavailableError as exc:
            return {"status": "unreachable", "shard": self.shard, "error": str(exc)}

    def close(self) -> None:
        """Release the pool and interrupt any in-flight retry sleep.

        Idempotent and safe from any thread: a request sleeping between
        retries wakes immediately and raises
        :class:`ShardUnavailableError` instead of finishing its backoff
        budget — so cluster shutdown never blocks on a dead shard.
        """
        self._closed.set()
        with self._pool_lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RemoteBackend(shard={self.shard}, endpoint={self.endpoint!r}, "
            f"healthy={self.healthy})"
        )


def _client_error(status: int, body: bytes, path: str) -> Exception:
    """Re-raise a shard's 4xx as the error type its JSON body names."""
    try:
        doc = json.loads(body)
        name = str(doc.get("error", ""))
        message = str(doc.get("message", body[:200]))
    except (json.JSONDecodeError, UnicodeDecodeError):
        name, message = "", body[:200].decode("utf-8", "replace")
    detail = f"shard rejected {path}: {message}"
    if name == "TypeError":
        return TypeError(detail)
    if status == 400:
        return ValueError(detail)
    return RuntimeError(f"HTTP {status} — {detail}")
