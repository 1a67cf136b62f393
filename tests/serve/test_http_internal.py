"""The shard-internal HTTP surface: binary row frames + readiness.

``GET /internal/row`` and ``POST /internal/solve`` are what a
RemoteBackend calls over the wire, so the bar here is bit-equality
against the service's own ``distances()`` and ``solve_seeded()`` — the
frame codec must not launder floats through JSON.  Also pins the
request-hygiene edges (bad ids, bad seed rows and frames, a missing
Content-Length, unknown internal paths) and the degraded-mode mapping:
a surface raising :class:`ShardUnavailableError` surfaces as a typed
503 naming the failing shard.
"""

import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    RoutingHTTPServer,
    RoutingService,
    ShardUnavailableError,
)
from repro.serve.backends import ROWS_CONTENT_TYPE, decode_rows, encode_rows

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def stack():
    g = random_connected_graph(40, 90, seed=21, weight_high=20)
    service = RoutingService(g, k=2, rho=8, cache_capacity=16)
    registry = MetricsRegistry()
    with RoutingHTTPServer(service, registry=registry) as server:
        yield g, service, server


def _get_raw(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.headers.get("Content-Type"), resp.read()


def _get_error(url: str, data: bytes | None = None):
    try:
        with urllib.request.urlopen(url, data=data, timeout=10) as resp:
            pytest.fail(f"expected an HTTP error, got 200: {resp.read()!r}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post_raw(url: str, body: bytes):
    with urllib.request.urlopen(url, data=body, timeout=10) as resp:
        return resp.headers.get("Content-Type"), resp.read()


def _seed_frame(n, seeds):
    row = np.full(n, np.inf)
    for v, d in seeds.items():
        row[v] = d
    return row, encode_rows([row])


class TestReady:
    def test_ready_reflects_healthz(self, stack):
        _g, service, server = stack
        ctype, body = _get_raw(f"{server.url}/internal/ready")
        assert "application/json" in ctype
        doc = json.loads(body)
        assert doc["ready"] is True
        assert doc["status"] == "ok"
        assert doc["shards"] == service.healthz()["shards"]


class TestBinaryRows:
    def test_single_row_bit_identical(self, stack, request):
        g, service, server = stack
        ctype, body = _get_raw(f"{server.url}/internal/row/7")
        assert ctype == ROWS_CONTENT_TYPE
        mat = decode_rows(body, expect_len=g.n)
        assert mat.shape == (1, g.n)
        assert mat[0].tobytes() == service.distances(7).tobytes()

    def test_seeded_solve_bits_and_parents(self, stack):
        g, service, server = stack
        seed, frame = _seed_frame(g.n, {9: 0.0, 33: 4.0})
        want = service.solve_seeded(seed, track_parents=True)
        ctype, body = _post_raw(f"{server.url}/internal/solve", frame)
        assert ctype == ROWS_CONTENT_TYPE
        mat = decode_rows(body, expect_len=g.n)
        assert mat.shape == (1, g.n)
        assert mat[0].tobytes() == want.dist.tobytes()
        _ctype, body = _post_raw(f"{server.url}/internal/solve?parents=1", frame)
        mat = decode_rows(body, expect_len=g.n)
        assert mat.shape == (2, g.n)
        assert mat[0].tobytes() == want.dist.tobytes()
        assert np.array_equal(mat[1].astype(np.int64), want.parent)

    def test_unreachable_inf_survives_the_wire(self, stack):
        """JSON would turn inf into null; the binary frame must not."""
        g, _service, server = stack
        _ctype, body = _get_raw(f"{server.url}/internal/row/0")
        row = decode_rows(body, expect_len=g.n)[0]
        assert row.dtype == np.float64  # raw float64, no precision laundering


class TestRequestHygiene:
    def test_bad_vertex_id_400(self, stack):
        _g, _svc, server = stack
        code, doc = _get_error(f"{server.url}/internal/row/nope")
        assert code == 400 and doc["error"] == "BadRequest"

    def test_out_of_range_vertex_400(self, stack):
        _g, _svc, server = stack
        code, _doc = _get_error(f"{server.url}/internal/row/99999")
        assert code == 400

    @pytest.mark.parametrize(
        "bad", ["short", "nan", "negative", "two_rows", "magic", "parents_flag"]
    )
    def test_bad_seed_request_400(self, stack, bad):
        g, _svc, server = stack
        row, frame = _seed_frame(g.n, {0: 0.0})
        path = "/internal/solve"
        if bad == "short":
            frame = encode_rows([row[:-1]])
        elif bad == "nan":
            row[3] = np.nan
            frame = encode_rows([row])
        elif bad == "negative":
            row[3] = -1.0
            frame = encode_rows([row])
        elif bad == "two_rows":
            frame = encode_rows([row, row])
        elif bad == "magic":
            frame = b"JUNK" + frame[4:]
        else:
            path += "?parents=yes"
        code, doc = _get_error(f"{server.url}{path}", data=frame)
        assert code == 400, doc

    def test_seeded_solve_requires_content_length(self, stack):
        _g, _svc, server = stack
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"POST /internal/solve HTTP/1.1\r\nHost: t\r\n\r\n")
            status_line = sock.recv(65536).split(b"\r\n", 1)[0]
        assert b"411" in status_line

    def test_unknown_internal_path_404(self, stack):
        _g, _svc, server = stack
        code, _doc = _get_error(f"{server.url}/internal/bogus")
        assert code == 404

    def test_internal_is_one_metrics_endpoint_label(self, stack):
        """Unbounded endpoint labels would blow up series cardinality:
        every internal path folds into endpoint="internal"."""
        g, _svc, server = stack
        internal_ok = server.registry.counter(
            "http_requests_total", "", ("endpoint", "status")
        ).labels("internal", 200)
        before = internal_ok.value
        _get_raw(f"{server.url}/internal/row/1")
        _post_raw(f"{server.url}/internal/solve", _seed_frame(g.n, {1: 0.0})[1])
        assert internal_ok.value == before + 2
        _ctype, body = _get_raw(f"{server.url}/metrics")
        text = body.decode()
        assert 'endpoint="internal"' in text
        assert 'endpoint="internal/row"' not in text
        assert 'endpoint="internal/solve"' not in text


class TestDegradedMapping:
    def test_shard_unavailable_maps_to_typed_503(self, stack):
        g, service, server = stack

        class DeadShard:
            """Surface whose stitch layer lost a shard."""

            def _die(self):
                raise ShardUnavailableError(
                    2, "http://10.0.0.9:7002", "ConnectionRefusedError"
                )

            def distances(self, source):
                self._die()

            def route(self, s, t):
                self._die()

            def nearest(self, s, k):
                self._die()

            def batch(self, queries):
                self._die()

            def warm(self, sources):
                self._die()

            def stats(self):
                return service.stats()

            def healthz(self):
                return {"status": "degraded", "shards": 4}

        with RoutingHTTPServer(DeadShard()) as degraded:
            code, doc = _get_error(f"{degraded.url}/distances/0")
            assert code == 503
            assert doc["error"] == "ShardUnavailable"
            assert doc["shard"] == 2
            assert doc["endpoint"] == "http://10.0.0.9:7002"
            assert "shard 2" in doc["message"]
            # readiness reports the degradation without raising
            _ctype, body = _get_raw(f"{degraded.url}/internal/ready")
            ready = json.loads(body)
            assert ready["ready"] is False
            assert ready["status"] == "degraded"
