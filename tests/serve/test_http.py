"""HTTP front end: endpoints, error mapping, concurrency, shutdown.

Drives a live :class:`~repro.serve.http.RoutingHTTPServer` over loopback
with stdlib ``urllib`` clients.  The acceptance bar: a concurrent mixed
workload (8 threads × single-source + point-to-point + k-nearest) comes
back with zero errors and answers bit-identical to a serial
:class:`~repro.serve.planner.QueryPlanner`; request problems map to 4xx,
server-side failures to 5xx, and shutdown is graceful.
"""

import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import dijkstra
from repro.graphs.generators import grid_2d
from repro.serve import QueryPlanner, RoutingHTTPServer, RoutingService

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def stack():
    g = random_connected_graph(60, 140, seed=11, weight_high=30)
    service = RoutingService(g, k=2, rho=8, cache_capacity=32)
    with RoutingHTTPServer(service) as server:
        yield g, service, server


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def _get_error(url: str):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            pytest.fail(f"expected an HTTP error, got 200: {resp.read()!r}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url: str, doc):
    data = json.dumps(doc).encode()
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return json.loads(resp.read())


def _post_error(url: str, raw: bytes):
    req = urllib.request.Request(
        url, data=raw, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=10):
            pytest.fail("expected an HTTP error")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


#: a valid ``POST /batch`` body, sent in parts by the raw-socket tests
_BATCH = json.dumps([{"type": "route", "source": 0, "target": 35}]).encode()


def _partial_batch(server, sent: int) -> socket.socket:
    """A raw connection that sent a ``POST /batch`` head and the first
    ``sent`` bytes of the body, once the server has accepted it."""
    sock = socket.create_connection(server.server_address[:2], timeout=10)
    head = (
        "POST /batch HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(_BATCH)}\r\n\r\n"
    )
    sock.sendall(head.encode() + _BATCH[:sent])
    deadline = time.monotonic() + 10
    while not server._connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return sock


def _raw_response(sock: socket.socket) -> tuple[int, str | None, dict]:
    """Status, ``Connection`` header and JSON body of one response."""
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return resp.status, resp.getheader("Connection"), json.loads(resp.read())


class TestEndpoints:
    def test_healthz(self, stack):
        _g, _svc, server = stack
        doc = _get(f"{server.url}/healthz")
        assert doc["status"] == "ok"
        # a single-graph service is the one-shard special case
        assert doc["shards"] == 1
        assert isinstance(doc["artifact_version"], int)

    def test_stats_topology(self, stack):
        g, _svc, server = stack
        doc = _get(f"{server.url}/stats")
        assert doc["shards"] == 1
        shards = doc["topology"]["shards"]
        assert len(shards) == 1
        assert shards[0]["vertices"] == g.n
        assert shards[0]["boundary"] == 0

    def test_index_lists_endpoints(self, stack):
        _g, _svc, server = stack
        doc = _get(server.url + "/")
        assert "GET /route/{s}/{t}" in doc["endpoints"]

    def test_stats(self, stack):
        _g, _svc, server = stack
        doc = _get(f"{server.url}/stats")
        assert doc["engine"]
        assert doc["capacity"] == 32
        assert doc["hits"] + doc["misses"] == doc["lookups"]
        assert "single_flight_waits" in doc

    def test_stats_names_the_served_engine(self, stack):
        """``auto`` is served as ``vectorized``, and ``engines`` lists
        every registered engine by name."""
        from repro.engine import available_engines

        _g, _svc, server = stack
        doc = _get(f"{server.url}/stats")
        assert doc["engine"] == "vectorized"
        assert set(doc["engines"]) == set(available_engines())

    def test_distances_row(self, stack):
        g, _svc, server = stack
        doc = _get(f"{server.url}/distances/7")
        ref = dijkstra(g, 7).dist
        assert doc["source"] == 7 and doc["n"] == g.n
        got = np.array(
            [np.inf if d is None else d for d in doc["distances"]]
        )
        assert np.array_equal(got, ref)
        assert doc["reachable"] == int(np.isfinite(ref).sum())

    def test_route_with_path(self, stack):
        g, _svc, server = stack
        doc = _get(f"{server.url}/route/3/41")
        ref = dijkstra(g, 3).dist
        assert doc["distance"] == ref[41]
        assert doc["reachable"] is True
        assert doc["path"][0] == 3 and doc["path"][-1] == 41

    def test_nearest(self, stack):
        g, _svc, server = stack
        doc = _get(f"{server.url}/nearest/11/5")
        ref = dijkstra(g, 11).dist
        assert doc["count"] == 5
        assert doc["distances"] == np.sort(ref)[1:6].tolist()
        assert 11 not in doc["vertices"]

    def test_unreachable_distance_serializes_as_null(self):
        """JSON has no Infinity — the wire format must stay parseable."""
        from repro.graphs import from_edge_list, unit_weights

        g = unit_weights(from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        svc = RoutingService(g, k=1, rho=1, heuristic="full")
        with RoutingHTTPServer(svc) as server:
            doc = _get(f"{server.url}/route/0/3")
            assert doc["distance"] is None
            assert doc["reachable"] is False
            row = _get(f"{server.url}/distances/0")
            assert row["distances"][3] is None
            assert row["distances"][1] == 1.0

    def test_batch_mixed(self, stack):
        g, _svc, server = stack
        ref = dijkstra(g, 5).dist
        doc = _post(
            f"{server.url}/batch",
            {
                "queries": [
                    {"type": "distances", "source": 5},
                    {"type": "route", "source": 5, "target": 20},
                    {"type": "nearest", "source": 5, "k": 3},
                ]
            },
        )
        assert doc["count"] == 3
        dists, route, near = doc["answers"]
        assert dists["type"] == "distances"
        assert dists["distances"][20] == ref[20]
        assert route["distance"] == ref[20]
        assert near["distances"] == np.sort(ref)[1:4].tolist()

    def test_batch_accepts_bare_list(self, stack):
        _g, _svc, server = stack
        doc = _post(f"{server.url}/batch", [{"type": "distances", "source": 0}])
        assert doc["count"] == 1


class TestErrorMapping:
    @pytest.mark.parametrize(
        "path, fragment",
        [
            ("/route/3/-1", "out of range"),          # planner range check
            ("/route/3/9999", "out of range"),
            ("/distances/abc", "must be an integer"),  # path validation
            ("/nearest/3/-2", "k must be >= 0"),       # negative k
            ("/route/3", "no GET endpoint"),           # wrong arity -> 404
            ("/unknown", "no GET endpoint"),
        ],
    )
    def test_bad_requests_are_4xx(self, stack, path, fragment):
        _g, _svc, server = stack
        status, body = _get_error(server.url + path)
        assert 400 <= status < 500
        assert fragment in body["message"]

    def test_malformed_json_body_is_400(self, stack):
        _g, _svc, server = stack
        status, body = _post_error(f"{server.url}/batch", b"{not json")
        assert status == 400
        assert "not valid JSON" in body["message"]

    def test_non_list_body_is_400(self, stack):
        _g, _svc, server = stack
        status, _body = _post_error(f"{server.url}/batch", b'{"queries": 3}')
        assert status == 400

    def test_unknown_query_type_is_400(self, stack):
        _g, _svc, server = stack
        status, body = _post_error(
            f"{server.url}/batch", json.dumps([{"type": "teleport"}]).encode()
        )
        assert status == 400
        assert "unknown type" in body["message"]

    def test_missing_field_is_400(self, stack):
        _g, _svc, server = stack
        status, body = _post_error(
            f"{server.url}/batch", json.dumps([{"type": "route", "source": 1}]).encode()
        )
        assert status == 400
        assert "missing field" in body["message"]

    def test_json_bool_vertex_is_400(self, stack):
        """JSON true must not silently become vertex 1 (the bool/int
        subclass bugfix, seen end to end through the wire)."""
        _g, _svc, server = stack
        status, body = _post_error(
            f"{server.url}/batch",
            json.dumps([{"type": "distances", "source": True}]).encode(),
        )
        assert status == 400
        assert "bool" in body["message"]

    def test_post_to_get_endpoint_is_404(self, stack):
        _g, _svc, server = stack
        status, _ = _post_error(f"{server.url}/healthz", b"{}")
        assert status == 404

    def test_internal_failure_is_500(self):
        """A server-side blow-up maps to 5xx with a typed JSON error,
        not a hung connection or an HTML traceback."""
        g = random_connected_graph(30, 70, seed=3)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")

        class Boom(RuntimeError):
            pass

        def explode(*a, **k):
            raise Boom("engine exploded")

        svc.distances = explode
        with RoutingHTTPServer(svc) as server:
            status, body = _get_error(f"{server.url}/distances/0")
        assert status == 500
        assert body["error"] == "Boom"
        assert "engine exploded" in body["message"]


class TestKeepAlive:
    """HTTP/1.1 persistent connections must never desync: an error
    response that leaves a POST body unread has to advertise and
    perform a close, while fully-consumed requests keep the socket."""

    @staticmethod
    def _conn(server):
        host, port = server.server_address[:2]
        return http.client.HTTPConnection(host, port, timeout=10)

    def test_get_requests_reuse_one_connection(self, stack):
        _g, _svc, server = stack
        conn = self._conn(server)
        try:
            for path in ("/healthz", "/stats", "/route/1/2"):
                conn.request("GET", path)
                resp = conn.getresponse()
                assert resp.status == 200
                resp.read()
                assert resp.getheader("Connection") != "close"
        finally:
            conn.close()

    def test_rejected_post_with_unread_body_closes_connection(self, stack):
        """Regression: a 404 for POST /healthz used to leave the body
        bytes on the socket — the next request on the same connection
        was parsed starting at the stale body (garbage 400/hang)."""
        _g, _svc, server = stack
        conn = self._conn(server)
        try:
            conn.request(
                "POST",
                "/healthz",
                body='{"stale": "body"}',
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_get_with_body_closes_connection(self, stack):
        """A body on a bodiless endpoint is never drained — the guard
        must close regardless of method (GET used to slip through and
        desync the next request on the socket)."""
        _g, _svc, server = stack
        conn = self._conn(server)
        try:
            conn.request("GET", "/healthz", body="xxxx")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            assert resp.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_negative_content_length_rejected_immediately(self, stack):
        """Content-Length: -1 used to reach rfile.read(-1), blocking a
        handler thread for the whole request timeout — it must 400 at
        once."""
        import socket
        import time

        _g, _svc, server = stack
        host, port = server.server_address[:2]
        t0 = time.perf_counter()
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n"
            )
            status_line = sock.recv(65536).split(b"\r\n", 1)[0]
        assert b"400" in status_line
        assert time.perf_counter() - t0 < 5.0

    def test_chunked_body_closes_connection(self, stack):
        """Chunked framing is never decoded, so its bytes always linger
        — the guard must close even without a Content-Length header."""
        import socket

        _g, _svc, server = stack
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            raw = sock.recv(65536)
        head = raw.split(b"\r\n\r\n", 1)[0].lower()
        assert b" 200 " in raw.split(b"\r\n", 1)[0]
        assert b"connection: close" in head

    def test_post_400_after_body_read_keeps_connection(self, stack):
        """A planner-level 400 (body fully drained) must not cost the
        connection: the follow-up request on the same socket works."""
        _g, _svc, server = stack
        conn = self._conn(server)
        try:
            conn.request(
                "POST",
                "/batch",
                body=json.dumps([{"type": "nearest", "source": 1, "k": -1}]),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 400
            resp.read()
            assert resp.getheader("Connection") != "close"
            conn.request("GET", "/healthz")
            follow = conn.getresponse()
            assert follow.status == 200
            assert json.loads(follow.read())["status"] == "ok"
        finally:
            conn.close()


class TestConcurrentServing:
    def test_concurrent_mixed_workload_zero_errors_serial_identical(self, stack):
        """The acceptance criterion: 8 client threads of mixed queries,
        zero errors, every answer bit-identical to a serial planner."""
        g, _svc, server = stack
        n_threads, reps = 8, 6
        serial = QueryPlanner(
            RoutingService(g, k=2, rho=8).solver, capacity=64, track_parents=True
        )
        errors: list[BaseException] = []
        results: dict[int, list] = {}
        barrier = threading.Barrier(n_threads)

        def client(i: int) -> None:
            try:
                barrier.wait()
                out = []
                for r in range(reps):
                    s = (i * 3 + r) % 24
                    t = (i * 5 + r + 1) % 24
                    out.append(("row", s, _get(f"{server.url}/distances/{s}")))
                    out.append(("route", s, t, _get(f"{server.url}/route/{s}/{t}")))
                    out.append(("near", s, _get(f"{server.url}/nearest/{s}/4")))
                    batch = _post(
                        f"{server.url}/batch",
                        [
                            {"type": "route", "source": s, "target": t},
                            {"type": "nearest", "source": t, "k": 3},
                        ],
                    )
                    out.append(("batch", s, t, batch))
                results[i] = out
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        def as_row(doc):
            return np.array(
                [np.inf if d is None else d for d in doc["distances"]]
            )

        for i, out in results.items():
            for item in out:
                if item[0] == "row":
                    _, s, doc = item
                    assert np.array_equal(as_row(doc), serial.distances(s))
                elif item[0] == "route":
                    _, s, t, doc = item
                    want = serial.route(s, t)
                    assert doc["distance"] == want.distance
                    assert tuple(doc["path"]) == want.path
                elif item[0] == "near":
                    _, s, doc = item
                    want = serial.nearest(s, 4)
                    assert doc["vertices"] == want.vertices.tolist()
                    assert doc["distances"] == want.distances.tolist()
                else:
                    _, s, t, doc = item
                    route, near = doc["answers"]
                    assert route["distance"] == serial.route(s, t).distance
                    want = serial.nearest(t, 3)
                    assert near["distances"] == want.distances.tolist()

        # server-side sanity: the planner saw concurrent traffic and its
        # books still balance
        stats = _get(f"{server.url}/stats")
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["cached_rows"] <= stats["capacity"]


class TestLifecycle:
    def test_graceful_shutdown(self):
        g = random_connected_graph(30, 70, seed=9)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        server = RoutingHTTPServer(svc).start()
        url = server.url
        assert _get(f"{url}/healthz")["status"] == "ok"
        server.close()
        with pytest.raises(urllib.error.URLError):
            _get(f"{url}/healthz")
        server.close()  # idempotent

    def test_idle_keepalive_connection_cannot_stall_shutdown(self):
        """Regression: close() joins non-daemon handler threads, and an
        idle HTTP/1.1 keep-alive connection used to pin its thread in
        readline() forever — shutdown hung until the client went away.
        The per-read request_timeout bounds the stall."""
        import time

        g = random_connected_graph(20, 40, seed=8)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        server = RoutingHTTPServer(svc, request_timeout=0.5).start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            # connection now idles open (keep-alive); close() must not
            # block past the request timeout waiting for it
            t0 = time.perf_counter()
            server.close()
            assert time.perf_counter() - t0 < 5.0
        finally:
            conn.close()

    def test_idle_keepalive_client_does_not_hold_close(self):
        """close() shuts the read side of every open connection, so a
        client idling on a keep-alive socket does not hold it for the
        default request_timeout (10 s)."""
        import time

        g = random_connected_graph(20, 40, seed=8)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        server = RoutingHTTPServer(svc).start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            t0 = time.perf_counter()
            server.close()
            assert time.perf_counter() - t0 < 0.5
        finally:
            conn.close()

    def test_request_in_flight_answers_through_close(self):
        """A request being answered when close() starts still gets its
        200: close() shuts only the read side, and the handler
        finishes its response before it sees end of stream."""
        import time

        g = random_connected_graph(20, 40, seed=8)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        real = svc.distances
        entered = threading.Event()

        def slow(source):
            entered.set()
            time.sleep(0.5)
            return real(source)

        svc.distances = slow
        server = RoutingHTTPServer(svc).start()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        answers: list = []

        def client() -> None:
            conn.request("GET", "/distances/3")
            resp = conn.getresponse()
            answers.append((resp.status, json.loads(resp.read())))

        thread = threading.Thread(target=client)
        try:
            thread.start()
            assert entered.wait(10)
            server.close()
            thread.join(10)
            assert not thread.is_alive()
        finally:
            conn.close()
        (status, doc), = answers
        assert status == 200
        want = dijkstra(g, 3).dist
        got = np.array([np.inf if d is None else d for d in doc["distances"]])
        assert np.array_equal(got, want)

    def test_connection_set_under_concurrent_clients(self):
        """More keep-alive clients than cores ask and then hang up or
        idle, under a short switch interval: each handler drops its
        connection from the set when it ends (a lost update would leave
        one behind), and close() ends the idle ones at once."""
        import sys
        import time

        g = random_connected_graph(20, 40, seed=8)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        server = RoutingHTTPServer(svc).start()
        host, port = server.server_address[:2]
        idle: list = []
        errors: list = []

        def client(i: int) -> None:
            try:
                conn = http.client.HTTPConnection(host, port, timeout=10)
                for t in range(5):
                    conn.request("GET", f"/route/{i}/{t}")
                    resp = conn.getresponse()
                    resp.read()
                    assert resp.status == 200
                if i % 2:
                    conn.close()
                else:
                    idle.append(conn)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        try:
            assert not errors, errors
            deadline = time.monotonic() + 10
            while len(server._connections) > len(idle) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(server._connections) == len(idle) == 8
            t0 = time.perf_counter()
            server.close()
            assert time.perf_counter() - t0 < 0.5
            assert not server._connections
        finally:
            server.close()
            for conn in idle:
                conn.close()

    def test_close_mid_body_answers_server_closing(self):
        """A valid body still arriving when close() starts is cut short
        by the server, not the client: 503 ``ServerClosing``, which a
        ``RemoteBackend`` retries, and never a 400."""
        svc = RoutingService(grid_2d(6, 6), k=1, rho=4, heuristic="full")
        server = RoutingHTTPServer(svc).start()
        sock = _partial_batch(server, 10)
        closer = threading.Thread(target=server.close)
        try:
            closer.start()
            status, connection, doc = _raw_response(sock)
            with contextlib.suppress(OSError):
                sock.sendall(_BATCH[10:])  # the rest arrives too late
            closer.join(10)
            assert not closer.is_alive()
        finally:
            sock.close()
            server.close()
        assert (status, doc["error"], connection) == (503, "ServerClosing", "close")

    def test_stalled_body_answers_request_timeout(self):
        """A body that stops arriving is the client's stall: 408 once
        ``request_timeout`` passes, not a server-fault 500."""
        svc = RoutingService(grid_2d(6, 6), k=1, rho=4, heuristic="full")
        server = RoutingHTTPServer(svc, request_timeout=0.5).start()
        sock = _partial_batch(server, 10)
        try:
            status, connection, doc = _raw_response(sock)
        finally:
            sock.close()
            server.close()
        assert (status, doc["error"], connection) == (408, "RequestTimeout", "close")

    def test_body_cut_short_by_the_client_names_the_short_read(self):
        """A client that shuts its write side mid-body gets a 400 that
        names the short body, not a JSON parse error."""
        svc = RoutingService(grid_2d(6, 6), k=1, rho=4, heuristic="full")
        server = RoutingHTTPServer(svc).start()
        sock = _partial_batch(server, 10)
        try:
            sock.shutdown(socket.SHUT_WR)
            status, connection, doc = _raw_response(sock)
        finally:
            sock.close()
            server.close()
        assert (status, connection) == (400, "close")
        assert doc["message"] == f"body ended after 10 of {len(_BATCH)} bytes"

    def test_idle_close_is_prompt(self):
        """The accept loop checks for shutdown every 0.05 s, so closing
        an idle server takes a fraction of ``serve_forever``'s default
        0.5 s poll.  Best of three start/close cycles rides out a busy
        host."""
        import time

        g = random_connected_graph(20, 40, seed=6)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        elapsed = []
        for _ in range(3):
            server = RoutingHTTPServer(svc).start()
            t0 = time.perf_counter()
            server.close()
            elapsed.append(time.perf_counter() - t0)
        assert min(elapsed) < 0.25, elapsed

    def test_double_start_rejected(self):
        g = random_connected_graph(20, 40, seed=4)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        with RoutingHTTPServer(svc) as server:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()

    def test_serve_helper(self):
        from repro.serve import serve

        g = random_connected_graph(20, 40, seed=4)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        server = serve(svc)
        try:
            assert _get(f"{server.url}/healthz")["status"] == "ok"
        finally:
            server.close()

    def test_non_surface_service_rejected(self):
        """The server is typed against QuerySurface and fails fast on
        anything that does not implement it."""
        with pytest.raises(TypeError, match="QuerySurface"):
            RoutingHTTPServer(object())

    def test_shard_router_is_a_drop_in(self):
        """The sharded surface behind the same JSON API: identical
        endpoints, bit-identical distances, topology in healthz/stats."""
        from repro.serve import ShardRouter

        g = random_connected_graph(48, 110, seed=13, weight_high=30)
        router = ShardRouter(g, n_shards=3, k=1, rho=6, heuristic="full")
        reference = RoutingService(g, k=1, rho=6, heuristic="full")
        with RoutingHTTPServer(router) as server:
            health = _get(f"{server.url}/healthz")
            assert health["status"] == "ok"
            assert health["shards"] == 3
            doc = _get(f"{server.url}/distances/7")
            got = np.array(
                [np.inf if d is None else d for d in doc["distances"]]
            )
            assert np.array_equal(got, reference.distances(7))
            route = _get(f"{server.url}/route/3/41")
            assert route["distance"] == reference.route(3, 41).distance
            stats = _get(f"{server.url}/stats")
            assert stats["shards"] == 3
            shards = stats["topology"]["shards"]
            assert len(shards) == 3
            assert sum(s["vertices"] for s in shards) == g.n
            assert all(s["boundary"] >= 1 for s in shards)

    def test_serve_helper_as_context_manager(self):
        """Regression: __enter__ used to call start() unconditionally,
        so `with serve(svc) as s:` raised 'already started'."""
        from repro.serve import serve

        g = random_connected_graph(20, 40, seed=4)
        svc = RoutingService(g, k=1, rho=4, heuristic="full")
        with serve(svc) as server:
            assert _get(f"{server.url}/healthz")["status"] == "ok"
        with pytest.raises(urllib.error.URLError):
            _get(f"{server.url}/healthz")
