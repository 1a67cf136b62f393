"""HTTP observability: /metrics, X-Request-Id, /debug/slow — both backends.

The acceptance bar from the observability PR: ``GET /metrics`` serves a
valid Prometheus text exposition (validated against the minimal parser
in :mod:`repro.obs.expo`) carrying request, planner, and engine series
for BOTH the single-graph :class:`RoutingService` and the sharded
:class:`ShardRouter`; every response — success and error alike — echoes
or mints ``X-Request-Id``; and ``GET /debug/slow`` dumps span trees of
threshold-crossing requests.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry
from repro.obs.expo import CONTENT_TYPE, parse
from repro.serve import RoutingHTTPServer, RoutingService, ShardRouter

from tests.helpers import random_connected_graph


def _make_service():
    g = random_connected_graph(48, 110, seed=17, weight_high=30)
    return RoutingService(g, k=1, rho=6, heuristic="full")


def _make_router():
    g = random_connected_graph(48, 110, seed=17, weight_high=30)
    return ShardRouter(g, n_shards=3, k=1, rho=6, heuristic="full")


@pytest.fixture(scope="module", params=["service", "router"])
def stack(request):
    surface = _make_service() if request.param == "service" else _make_router()
    registry = MetricsRegistry()  # isolated: no cross-test/global bleed
    with RoutingHTTPServer(surface, registry=registry, slow_ms=0.0) as server:
        yield surface, registry, server


def _get(url: str, headers: dict | None = None):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, dict(resp.headers), resp.read()


def _get_json(url: str, headers: dict | None = None):
    status, hdrs, body = _get(url, headers)
    return status, hdrs, json.loads(body)


def _get_error(url: str, headers: dict | None = None):
    req = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=10):
            pytest.fail("expected an HTTP error")
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


def _scrape(server):
    status, hdrs, body = _get(f"{server.url}/metrics")
    assert status == 200
    assert hdrs["Content-Type"] == CONTENT_TYPE
    return parse(body.decode())


class TestMetricsEndpoint:
    def test_scrape_parses_and_counts_requests(self, stack):
        _surface, _registry, server = stack
        _get_json(f"{server.url}/distances/7")
        _get_json(f"{server.url}/route/3/41")
        _get_json(f"{server.url}/healthz")

        exp = _scrape(server)
        assert exp.types["http_requests_total"] == "counter"
        assert exp.types["http_request_seconds"] == "histogram"
        assert exp.value("http_requests_total", endpoint="distances", status="200") >= 1
        assert exp.value("http_requests_total", endpoint="route", status="200") >= 1
        lat = exp.histogram_counts("http_request_seconds", endpoint="distances")
        assert lat["+Inf"] == exp.value(
            "http_request_seconds_count", endpoint="distances"
        )

    def test_planner_and_engine_series_present(self, stack):
        """The stats() bridge and engine telemetry land on the scrape
        for both backends."""
        _surface, _registry, server = stack
        _get_json(f"{server.url}/distances/5")
        exp = _scrape(server)

        lookups = exp.series("planner_cache_lookups_total")
        assert lookups, "planner bridge missing from scrape"
        for labels in lookups:
            assert dict(labels)["outcome"] in ("hit", "miss")
        assert exp.series("planner_cached_rows")
        assert exp.types["planner_cached_rows"] == "gauge"

        solves = exp.series("engine_solves_total")
        assert solves and all(dict(l)["engine"] for l in solves)
        assert sum(exp.series("engine_solve_steps_count").values()) >= 1

    def test_router_stitched_series(self, stack):
        _surface, _registry, server = stack
        if not isinstance(_surface, ShardRouter):
            pytest.skip("stitched cache is router-only")
        _get_json(f"{server.url}/distances/9")
        exp = _scrape(server)
        stitched = exp.series("router_stitched_lookups_total")
        assert stitched
        # per-shard planner series carry the shard label
        shards = {
            dict(l)["shard"] for l in exp.series("planner_cached_rows")
        }
        assert shards == {"0", "1", "2"}

    def test_backend_wire_series(self, stack):
        """The router's backend wire counters reach the scrape: calls
        by kind, frame bytes by direction, equal to ``/stats``."""
        _surface, _registry, server = stack
        if not isinstance(_surface, ShardRouter):
            pytest.skip("shard backends are router-only")
        _get_json(f"{server.url}/route/21/3")
        _status, _hdrs, stats = _get_json(f"{server.url}/stats")
        exp = _scrape(server)
        calls = exp.series("shard_backend_calls_total")
        frames = exp.series("shard_backend_frame_bytes_total")
        for call, key in (("source_row", "source_rows"), ("solve_seeded", "seeded_solves")):
            got = sum(v for labels, v in calls.items() if dict(labels)["call"] == call)
            assert got == sum(row[key] for row in stats["backends"]) >= 1
        for direction in ("sent", "received"):
            got = sum(
                v for labels, v in frames.items() if dict(labels)["direction"] == direction
            )
            want = sum(row[f"frame_bytes_{direction}"] for row in stats["backends"])
            assert got == want > 0

    def test_scrape_agrees_with_stats(self, stack):
        """/metrics and /stats are two views of the same counters."""
        surface, _registry, server = stack
        _get_json(f"{server.url}/distances/11")
        # a stopped route row, then a query it does not cover
        _get_json(f"{server.url}/route/13/14")
        _get_json(f"{server.url}/nearest/13/40")
        _status, _hdrs, stats = _get_json(f"{server.url}/stats")
        exp = _scrape(server)
        lookups = sum(exp.series("planner_cache_lookups_total").values())
        assert lookups == stats["lookups"]
        evictions = sum(exp.series("planner_cache_evictions_total").values())
        assert evictions == stats["evictions"]
        for key in ("partial_solves", "extensions"):
            assert sum(exp.series(f"planner_{key}_total").values()) == stats[key]
        if isinstance(surface, ShardRouter):
            # shard source rows are full rows, so no shard stops early;
            # the stitched route row stops at its target's shard, and
            # the nearest query after it stitches in full
            assert stats["partial_solves"] == stats["extensions"] == 0
            stats = stats["stitched"]
        assert stats["partial_solves"] >= 1 and stats["extensions"] >= 1

    def test_error_responses_counted(self, stack):
        _surface, _registry, server = stack
        _get_error(f"{server.url}/distances/abc")  # 400
        _get_error(f"{server.url}/nosuch")  # 404
        exp = _scrape(server)
        assert exp.value("http_requests_total", endpoint="distances", status="400") >= 1
        assert exp.value("http_requests_total", endpoint="unknown", status="404") >= 1


class TestRequestId:
    def test_client_id_echoed(self, stack):
        _surface, _registry, server = stack
        _status, hdrs, _doc = _get_json(
            f"{server.url}/healthz", headers={"X-Request-Id": "my-req-42"}
        )
        assert hdrs["X-Request-Id"] == "my-req-42"

    def test_minted_when_absent(self, stack):
        _surface, _registry, server = stack
        _status, h1, _ = _get_json(f"{server.url}/healthz")
        _status, h2, _ = _get_json(f"{server.url}/healthz")
        assert h1["X-Request-Id"] and h2["X-Request-Id"]
        assert h1["X-Request-Id"] != h2["X-Request-Id"]

    def test_echoed_on_error_paths(self, stack):
        _surface, _registry, server = stack
        for path in ("/distances/abc", "/nosuch/endpoint", "/route/0/99999"):
            _code, hdrs, _body = _get_error(
                server.url + path, headers={"X-Request-Id": "err-trace-1"}
            )
            assert hdrs["X-Request-Id"] == "err-trace-1"

    def test_echoed_on_500(self):
        svc = _make_service()

        def explode(*a, **k):
            raise RuntimeError("boom")

        svc.distances = explode
        with RoutingHTTPServer(svc, registry=MetricsRegistry()) as server:
            code, hdrs, _body = _get_error(
                f"{server.url}/distances/0", headers={"X-Request-Id": "srv-err"}
            )
        assert code == 500
        assert hdrs["X-Request-Id"] == "srv-err"

    def test_header_injection_sanitized(self, stack):
        """Control characters and non-ASCII never round-trip into the
        response header; overlong ids are truncated."""
        _surface, _registry, server = stack
        _status, hdrs, _doc = _get_json(
            f"{server.url}/healthz",
            headers={"X-Request-Id": "ok\tid\x7fwith junk\xff"},
        )
        echoed = hdrs["X-Request-Id"]
        assert echoed == "okidwithjunk"
        _status, hdrs, _doc = _get_json(
            f"{server.url}/healthz", headers={"X-Request-Id": "a" * 500}
        )
        assert hdrs["X-Request-Id"] == "a" * 128


class TestSlowLog:
    def test_slow_log_captures_span_trees(self, stack):
        """With slow_ms=0 every request is an offender: the dump carries
        request ids, endpoint/status context, and the nested spans."""
        _surface, _registry, server = stack
        _get_json(
            f"{server.url}/distances/21",
            headers={"X-Request-Id": "slow-probe-7"},
        )
        _status, _hdrs, doc = _get_json(f"{server.url}/debug/slow")
        assert doc["threshold_ms"] == 0.0
        assert doc["recorded"] >= 1
        mine = next(
            e for e in doc["entries"] if e["request_id"] == "slow-probe-7"
        )
        assert mine["endpoint"] == "distances"
        assert mine["status"] == 200
        assert mine["method"] == "GET"
        assert mine["trace"]["name"] == "GET distances"
        assert mine["duration_ms"] >= 0

    def test_cold_query_trace_reaches_solver(self):
        """On a cold cache miss the recorded tree includes the planner
        and solver spans — the point of end-to-end propagation."""
        registry = MetricsRegistry()
        with RoutingHTTPServer(
            _make_service(), registry=registry, slow_ms=0.0
        ) as server:
            _get_json(
                f"{server.url}/distances/33",
                headers={"X-Request-Id": "cold-1"},
            )
            _status, _hdrs, doc = _get_json(f"{server.url}/debug/slow")
        entry = next(
            e for e in doc["entries"] if e["request_id"] == "cold-1"
        )

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        seen = set(names(entry["trace"]))
        assert "planner.execute" in seen
        assert "planner.solve_missing" in seen
        assert "solver.solve_many" in seen

    def test_threshold_filters_fast_requests(self):
        registry = MetricsRegistry()
        with RoutingHTTPServer(
            _make_service(), registry=registry, slow_ms=1e6
        ) as server:
            _get_json(f"{server.url}/healthz")
            _status, _hdrs, doc = _get_json(f"{server.url}/debug/slow")
        assert doc["entries"] == []
        assert doc["seen"] >= 1


class TestRouterStatsParity:
    def test_stats_per_shard_and_engines(self):
        """ShardRouter.stats() reports what RoutingService.stats() does:
        per-planner counters, engine descriptions, finite-or-null
        locality numbers."""
        router = _make_router()
        with RoutingHTTPServer(router, registry=MetricsRegistry()) as server:
            _get_json(f"{server.url}/distances/7")
            _status, _hdrs, stats = _get_json(f"{server.url}/stats")
        assert stats["shards"] == 3
        assert isinstance(stats["engines"], dict) and stats["engines"]
        per_shard = stats["per_shard"]
        assert len(per_shard) == 3
        for entry in per_shard:
            assert entry["hits"] + entry["misses"] == entry["lookups"]
            assert "preferred_engine" not in entry
            loc = entry["locality"]
            for v in (loc["before"], loc["after"]):
                assert v is None or isinstance(v, float)
        # stitched-row cache counters balance too
        stitched = stats["stitched"]
        assert stitched["hits"] + stitched["misses"] == stitched["lookups"]
        assert stitched["lookups"] >= 1
        json.dumps(stats)  # nan-free by construction
