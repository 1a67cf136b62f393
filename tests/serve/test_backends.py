"""Shard backends: the binary row codec, LocalBackend parity, and
RemoteBackend's transport semantics against a live loopback server.

The remote backend is the seam the whole multi-box story stands on, so
its contract is tested at the wire level: bit-identical source rows and
seeded solves (distances and parents) across the frame codec,
X-Request-Id propagation into the shard's slow log, bounded
retry with recovery on a flaky 5xx shard, fast typed failure on a dead
port, 4xx re-raised as the error type the shard names (not as
unavailability), and — the shutdown-ordering bugfix — ``close()`` from
another thread interrupting an in-flight retry backoff immediately.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.solver import PreprocessedSSSP
from repro.obs.trace import trace_request
from repro.serve import (
    LocalBackend,
    RemoteBackend,
    RoutingHTTPServer,
    RoutingService,
    ShardBackend,
    ShardUnavailableError,
)
from repro.serve.backends import decode_rows, encode_rows

from tests.helpers import random_connected_graph


# --------------------------------------------------------------------- #
# Binary row frame
# --------------------------------------------------------------------- #
class TestRowCodec:
    def test_round_trip_bit_identity(self):
        rng = np.random.default_rng(7)
        rows = [rng.random(23) * 1e6, np.arange(23, dtype=float)]
        rows[0][3] = np.inf  # unreachable vertices travel as raw inf
        mat = decode_rows(encode_rows(rows), expect_len=23)
        assert mat.shape == (2, 23)
        # bit-identical, not approximately equal
        for got, want in zip(mat, rows):
            assert got.tobytes() == np.asarray(want, dtype="<f8").tobytes()

    def test_decoded_rows_are_read_only(self):
        mat = decode_rows(encode_rows([np.zeros(4)]))
        with pytest.raises((ValueError, RuntimeError)):
            mat[0, 0] = 1.0

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            encode_rows([])

    def test_truncated_header(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_rows(b"RRO")

    def test_bad_magic(self):
        frame = bytearray(encode_rows([np.zeros(4)]))
        frame[:4] = b"JUNK"
        with pytest.raises(ValueError, match="magic"):
            decode_rows(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_rows([np.zeros(4)]))
        frame[4] = 99
        with pytest.raises(ValueError, match="version"):
            decode_rows(bytes(frame))

    def test_size_mismatch(self):
        frame = encode_rows([np.zeros(4)])
        with pytest.raises(ValueError, match="bytes"):
            decode_rows(frame + b"\x00" * 8)

    def test_expect_len_mismatch(self):
        frame = encode_rows([np.zeros(4)])
        with pytest.raises(ValueError, match="different shard"):
            decode_rows(frame, expect_len=5)


# --------------------------------------------------------------------- #
# Local backend
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_graph():
    return random_connected_graph(50, 110, seed=3, weight_high=30)


@pytest.fixture(scope="module")
def service(small_graph):
    solver = PreprocessedSSSP(small_graph, k=2, rho=8)
    return RoutingService(solver=solver, cache_capacity=16)


def _seed_row(n, seeds):
    """A seed row over ``n`` vertices: ``{vertex: distance}``, inf
    elsewhere."""
    row = np.full(n, np.inf)
    for v, d in seeds.items():
        row[v] = d
    return row


class TestLocalBackend:
    def test_protocol_conformance(self, service):
        backend = LocalBackend(0, service)
        assert isinstance(backend, ShardBackend)

    def test_rows_match_service(self, small_graph, service):
        backend = LocalBackend(2, service)
        single, _ = backend.source_row(5)
        assert np.array_equal(single, service.distances(5))
        # one seed at 0 is the source row itself
        dist, parent = backend.solve_seeded(_seed_row(small_graph.n, {5: 0.0}))
        assert np.array_equal(dist, single) and parent is None
        seed = _seed_row(small_graph.n, {1: 0.0, 9: 3.0})
        dist, parent = backend.solve_seeded(seed, track_parents=True)
        want = service.solve_seeded(seed, track_parents=True)
        assert np.array_equal(dist, want.dist)
        assert np.array_equal(parent, want.parent)
        assert np.array_equal(
            dist, np.minimum(service.distances(1), 3.0 + service.distances(9))
        )

    def test_backend_stats_shape(self, service):
        backend = LocalBackend(1, service)
        backend.source_row(0)
        st = backend.backend_stats()
        assert st["kind"] == "local"
        assert st["shard"] == 1
        assert st["endpoint"] is None
        assert st["healthy"] is True
        assert st["consecutive_failures"] == 0
        assert st["failures_total"] == 0
        assert st["row_fetches"] >= 1
        assert st["row_fetch_p50_ms"] is not None

    def test_healthz(self, service):
        backend = LocalBackend(0, service)
        assert backend.healthz()["status"] == "ok"

    def test_stopped_solve_is_final_where_finite(self, small_graph, service):
        """``stop`` may end the seeded solve at its targets; the answer
        is ``inf`` (parent ``-1``) past the bound and equals the full
        solve wherever it is finite."""
        backend = LocalBackend(0, service)
        seed = _seed_row(small_graph.n, {2: 0.0, 30: 4.0})
        full = service.solve_seeded(seed, track_parents=True)
        near = int(np.argsort(full.dist)[3])
        dist, parent = backend.solve_seeded(seed, track_parents=True, stop=[near])
        reached = np.isfinite(dist)
        assert reached[near] and not reached.all()
        assert np.array_equal(dist[reached], full.dist[reached])
        assert np.array_equal(parent[reached], full.parent[reached])
        assert np.all(parent[~reached] == -1)
        # an empty stop list is no stop
        dist, _ = backend.solve_seeded(seed, stop=[])
        assert np.array_equal(dist, full.dist)

    def test_source_row_with_parents_and_wire_counts(self, small_graph, service):
        backend = LocalBackend(0, service)
        dist, parent = backend.source_row(5, parents=True)
        assert np.array_equal(dist, service.distances(5))
        assert parent[5] == -1 and np.all(parent[dist < np.inf] >= -1)
        backend.solve_seeded(_seed_row(small_graph.n, {5: 0.0}), track_parents=True)
        # the RROW header is 20 bytes; each row adds 8 per vertex
        one_row, two_rows = 20 + 8 * small_graph.n, 20 + 16 * small_graph.n
        st = backend.backend_stats()
        assert (st["source_rows"], st["seeded_solves"]) == (1, 1)
        assert st["frame_bytes_sent"] == one_row
        assert st["frame_bytes_received"] == 2 * two_rows
        # a shard that tracks no parents sends its distance row alone
        parentless = LocalBackend(
            0, RoutingService(solver=service.solver, cache_capacity=4, track_parents=False)
        )
        dist, parent = parentless.source_row(5, parents=True)
        assert parent is None and np.array_equal(dist, service.distances(5))
        assert parentless.backend_stats()["frame_bytes_received"] == one_row


# --------------------------------------------------------------------- #
# Remote backend against a live loopback server
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def shard_server(small_graph):
    """A shard-shaped server: the whole graph as 'shard 0'."""
    service = RoutingService(small_graph, k=2, rho=8, cache_capacity=32)
    with RoutingHTTPServer(service, slow_ms=0.0) as server:
        yield service, server


def _backend(server, **kw):
    kw.setdefault("shard", 0)
    kw.setdefault("timeout", 5.0)
    return RemoteBackend(server.url, **kw)


class TestRemoteBackend:
    def test_protocol_conformance(self, shard_server):
        _svc, server = shard_server
        backend = _backend(server)
        try:
            assert isinstance(backend, ShardBackend)
        finally:
            backend.close()

    def test_source_row_bit_identical(self, small_graph, shard_server):
        service, server = shard_server
        backend = _backend(server, expect_n=small_graph.n)
        try:
            got, _ = backend.source_row(7)
            want = service.distances(7)
            assert got.tobytes() == want.tobytes()
        finally:
            backend.close()

    def test_solve_seeded_bit_identical(self, small_graph, shard_server):
        service, server = shard_server
        backend = _backend(server, expect_n=small_graph.n)
        seed = _seed_row(small_graph.n, {3: 0.0, 20: 7.0, 41: 1.0})
        try:
            want = service.solve_seeded(seed, track_parents=True)
            dist, parent = backend.solve_seeded(seed)
            assert dist.tobytes() == want.dist.tobytes() and parent is None
            dist, parent = backend.solve_seeded(seed, track_parents=True)
            assert dist.tobytes() == want.dist.tobytes()
            assert parent.dtype == np.int64
            assert np.array_equal(parent, want.parent)
            # no seed at all: nothing reachable, nothing rooted
            dist, parent = backend.solve_seeded(
                _seed_row(small_graph.n, {}), track_parents=True
            )
            assert np.isinf(dist).all() and (parent == -1).all()
        finally:
            backend.close()

    def test_stop_and_parents_bit_identical(self, small_graph, shard_server):
        """A stopped solve and a source row with parents cross the wire
        bit for bit, and the counters see the frames."""
        service, server = shard_server
        backend = _backend(server, expect_n=small_graph.n)
        seed = _seed_row(small_graph.n, {3: 0.0, 20: 7.0})
        try:
            local = LocalBackend(0, service)
            for stop in ([11], [11, 40]):
                want = local.solve_seeded(seed, track_parents=True, stop=stop)
                got = backend.solve_seeded(seed, track_parents=True, stop=stop)
                assert got[0].tobytes() == want[0].tobytes()
                assert np.array_equal(got[1], want[1])
            dist, parent = backend.source_row(9, parents=True)
            want = local.source_row(9, parents=True)
            assert dist.tobytes() == want[0].tobytes()
            assert parent.dtype == np.int64 and np.array_equal(parent, want[1])
            got, want = backend.backend_stats(), local.backend_stats()
            for key in ("source_rows", "seeded_solves", "frame_bytes_sent",
                        "frame_bytes_received"):
                assert got[key] == want[key] > 0
        finally:
            backend.close()

    def test_bad_seed_row_is_the_shards_400(self, small_graph, shard_server):
        _svc, server = shard_server
        backend = _backend(server, retries=0)
        try:
            with pytest.raises(ValueError, match="rejected"):
                backend.solve_seeded(np.zeros(small_graph.n + 1))
            with pytest.raises(ValueError, match="rejected"):
                backend.solve_seeded(_seed_row(small_graph.n, {0: -1.0}))
            assert backend.healthy
        finally:
            backend.close()

    def test_stats_and_healthz(self, shard_server):
        _svc, server = shard_server
        backend = _backend(server)
        try:
            st = backend.stats()
            assert st["shards"] == 1 and "engine" in st
            health = backend.healthz()
            assert health["ready"] is True and health["status"] == "ok"
        finally:
            backend.close()

    def test_request_id_propagates_to_shard_slow_log(self, shard_server):
        _svc, server = shard_server
        backend = _backend(server)
        try:
            with trace_request("stitch", request_id="front-end-req-42"):
                backend.source_row(11)
            entries = server.slow_log.dump()["entries"]
            assert any(e["request_id"] == "front-end-req-42" for e in entries)
        finally:
            backend.close()

    def test_4xx_raises_typed_error_not_unavailable(self, shard_server):
        _svc, server = shard_server
        backend = _backend(server, retries=0)
        try:
            with pytest.raises(ValueError, match="rejected"):
                backend.source_row(10_000)  # out of range -> shard's 400
            # the shard answered: that is not a liveness failure
            assert backend.healthy
            assert backend.backend_stats()["failures_total"] == 0
        finally:
            backend.close()

    def test_wrong_shard_frame_fails_without_retry(self, shard_server):
        _svc, server = shard_server
        # topology says this shard holds 9 vertices; the endpoint serves 50
        backend = _backend(server, retries=3, expect_n=9)
        try:
            with pytest.raises(ShardUnavailableError, match="different shard"):
                backend.source_row(1)
            st = backend.backend_stats()
            assert not backend.healthy
            # one failed cycle, no retry burn on a misconfiguration
            assert st["consecutive_failures"] == 1
            assert st["failures_total"] == 1
        finally:
            backend.close()

    def test_endpoint_validation(self):
        with pytest.raises(ValueError, match="http"):
            RemoteBackend("ftp://example:21", shard=0)
        with pytest.raises(ValueError, match="http"):
            RemoteBackend("http://example", shard=0)  # no port


class TestRemoteFailure:
    def _dead_port(self):
        """A port with nothing listening (bind-then-close)."""
        import socket

        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
        s.close()
        return port

    def test_dead_port_fails_fast_and_typed(self):
        port = self._dead_port()
        backend = RemoteBackend(
            f"http://127.0.0.1:{port}", shard=3, retries=1, backoff=0.01
        )
        try:
            t0 = time.perf_counter()
            with pytest.raises(ShardUnavailableError) as exc:
                backend.source_row(0)
            assert time.perf_counter() - t0 < 5.0
            assert exc.value.shard == 3
            assert f"127.0.0.1:{port}" in exc.value.endpoint
            st = backend.backend_stats()
            assert not backend.healthy
            assert st["consecutive_failures"] == 1
            assert st["failures_total"] == 2  # first attempt + one retry
            # healthz must report, not raise
            assert backend.healthz()["status"] == "unreachable"
        finally:
            backend.close()

    def test_retry_recovers_from_transient_5xx(self, small_graph):
        service = RoutingService(small_graph, k=2, rho=8)
        failures = {"left": 2}

        class Flaky:
            """Delegating surface whose distances fail twice, then heal."""

            def distances(self, source):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise RuntimeError("transient shard hiccup")
                return service.distances(source)

            def route(self, s, t):
                return service.route(s, t)

            def nearest(self, s, k):
                return service.nearest(s, k)

            def batch(self, queries):
                return service.batch(queries)

            def warm(self, sources):
                return service.warm(sources)

            def stats(self):
                return service.stats()

            def healthz(self):
                return service.healthz()

        with RoutingHTTPServer(Flaky()) as server:
            backend = RemoteBackend(
                server.url, shard=0, retries=3, backoff=0.01
            )
            try:
                row, _ = backend.source_row(4)
                assert np.array_equal(row, service.distances(4))
                st = backend.backend_stats()
                assert backend.healthy  # recovered within the budget
                assert st["failures_total"] == 2
                assert st["consecutive_failures"] == 0
            finally:
                backend.close()

    def test_close_interrupts_retry_backoff(self):
        """The shutdown-ordering bugfix: close() from another thread wakes
        a request sleeping between retries immediately — total time far
        under the backoff budget (which here is tens of seconds)."""
        port = self._dead_port()
        backend = RemoteBackend(
            f"http://127.0.0.1:{port}",
            shard=0,
            retries=50,
            backoff=0.5,
            backoff_cap=0.5,
        )
        outcome = {}

        def request():
            t0 = time.perf_counter()
            try:
                backend.source_row(0)
                outcome["error"] = None
            except ShardUnavailableError as exc:
                outcome["error"] = exc
            outcome["elapsed"] = time.perf_counter() - t0

        worker = threading.Thread(target=request)
        worker.start()
        time.sleep(0.2)  # let it enter the retry loop
        t_close = time.perf_counter()
        backend.close()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "request thread stuck past close()"
        assert time.perf_counter() - t_close < 2.0
        assert outcome["elapsed"] < 3.0  # not the ~25s backoff budget
        assert isinstance(outcome["error"], ShardUnavailableError)

    def test_request_after_close_raises_immediately(self):
        port = self._dead_port()
        backend = RemoteBackend(f"http://127.0.0.1:{port}", shard=2)
        backend.close()
        t0 = time.perf_counter()
        with pytest.raises(ShardUnavailableError, match="closed"):
            backend.source_row(0)
        assert time.perf_counter() - t0 < 0.5
        backend.close()  # idempotent
