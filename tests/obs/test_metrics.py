"""Metrics registry: exactness under threads, exposition round-trips.

The registry's contract is *exact* accounting — counters are locked,
not sampled, so under an 8-thread hammer the totals must balance to the
increment (no lost updates), histograms must keep
``sum(bucket_counts) == count``, and a scrape must parse back through
the minimal Prometheus parser with every series intact.
"""

import threading

import numpy as np
import pytest

from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    EngineTelemetry,
    MetricsRegistry,
    exponential_buckets,
    get_default_registry,
)
from repro.engine.registry import _SCHEDULE_ENGINES
from repro.obs.expo import CONTENT_TYPE, parse, render

N_THREADS = 8
REPS = 400


class TestPrimitives:
    def test_counter_exact_and_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "help")
        c.inc()
        c.inc(2.5)
        assert c._solo().value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1.0)
        assert c._solo().value == 3.5

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "help")
        g.set(10)
        g.inc(4)
        g.dec(1)
        assert g._solo().value == 13.0

    def test_histogram_bucketing_invariant(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", "help", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        counts, total, count = h._solo().snapshot()
        # bisect_left: a value equal to a bound lands in that bound's bucket
        assert counts == [2, 1, 1, 1]
        assert count == 5 == sum(counts)
        assert total == pytest.approx(106.0)

    def test_exponential_buckets_shape_and_validation(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        for bad in ((0.0, 2.0, 3), (1.0, 1.0, 3), (1.0, 2.0, 0)):
            with pytest.raises(ValueError):
                exponential_buckets(*bad)
        assert len(LATENCY_BUCKETS) == 18
        assert len(COUNT_BUCKETS) == 12

    def test_labels_get_or_create_and_arity_check(self):
        reg = MetricsRegistry()
        fam = reg.counter("req_total", "help", labelnames=("endpoint",))
        a = fam.labels("route")
        assert fam.labels("route") is a  # same child, not a new series
        with pytest.raises(ValueError):
            fam.labels("route", "extra")

    def test_registry_get_or_create_and_kind_conflict(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", "help")
        assert reg.counter("x_total") is c1
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("9bad")

    def test_default_registry_is_process_global(self):
        assert get_default_registry() is get_default_registry()


class TestConcurrency:
    def test_eight_thread_hammer_exact_totals(self):
        """8 threads × counters/gauges/histograms on shared and
        per-thread label children: totals are exact, the histogram
        invariant holds, nothing raises."""
        reg = MetricsRegistry()
        counter = reg.counter("ops_total", "ops", labelnames=("thread",))
        shared = reg.counter("shared_total", "all threads on one child")
        gauge = reg.gauge("inflight", "up then down")
        hist = reg.histogram("size", "observed", buckets=(1.0, 8.0, 64.0))
        errors: list[BaseException] = []
        barrier = threading.Barrier(N_THREADS)

        def worker(i: int) -> None:
            try:
                mine = counter.labels(f"t{i}")
                barrier.wait()
                for r in range(REPS):
                    mine.inc()
                    shared.inc()
                    gauge.inc()
                    hist.observe(float((i + r) % 100))
                    gauge.dec()
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        assert shared._solo().value == N_THREADS * REPS
        for i in range(N_THREADS):
            assert counter.labels(f"t{i}").value == REPS
        assert gauge._solo().value == 0.0
        counts, _sum, count = hist._solo().snapshot()
        assert count == N_THREADS * REPS
        assert sum(counts) == count

    def test_concurrent_scrapes_stay_parseable(self):
        """Rendering while writers mutate must never produce malformed
        text — each child snapshot is taken under its own lock."""
        reg = MetricsRegistry()
        c = reg.counter("w_total", "writes")
        h = reg.histogram("w_lat", "latency", buckets=(0.1, 1.0))
        stop = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            while not stop.is_set():
                c.inc()
                h.observe(0.5)

        def scraper() -> None:
            try:
                for _ in range(50):
                    exp = parse(render(reg))
                    buckets = exp.histogram_counts("w_lat")
                    # cumulative le buckets never decrease left to right
                    assert buckets["0.1"] <= buckets["1"] <= buckets["+Inf"]
                    assert buckets["+Inf"] == exp.value("w_lat_count")
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        ws = [threading.Thread(target=writer) for _ in range(4)]
        ss = [threading.Thread(target=scraper) for _ in range(2)]
        for t in ws + ss:
            t.start()
        for t in ss:
            t.join()
        stop.set()
        for t in ws:
            t.join()
        assert not errors, errors


class TestExposition:
    def test_render_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", 'says "hi"\nand more', labelnames=("ep",)).labels(
            'a"b\\c'
        ).inc(7)
        reg.gauge("temp", "gauge").set(-2.5)
        h = reg.histogram("lat_seconds", "latency", buckets=(0.5, 2.0))
        h.observe(0.4)
        h.observe(1.9)
        h.observe(10.0)

        text = render(reg)
        assert "utf-8" in CONTENT_TYPE
        exp = parse(text)
        assert exp.types["hits_total"] == "counter"
        assert exp.types["lat_seconds"] == "histogram"
        assert exp.value("hits_total", ep='a"b\\c') == 7.0
        assert exp.value("temp") == -2.5
        # integral bounds render without a trailing .0 in the le label
        assert exp.histogram_counts("lat_seconds") == {
            "0.5": 1.0,
            "2": 2.0,
            "+Inf": 3.0,
        }
        assert exp.value("lat_seconds_count") == 3.0
        assert exp.value("lat_seconds_sum") == pytest.approx(12.3)

    def test_parser_rejects_malformed(self):
        for bad in (
            "no_type_line 1.0\n",  # sample without # TYPE
            "# TYPE x counter\n# TYPE x counter\nx 1\n",  # duplicate TYPE
            "# TYPE x counter\nx 1\nx 2\n",  # duplicate series
            "# TYPE x counter\nx one\n",  # non-numeric value
        ):
            with pytest.raises(ValueError):
                parse(bad)

    def test_collector_families_merge_into_scrape(self):
        reg = MetricsRegistry()
        calls = {"n": 0}

        def collect():
            from repro.obs.metrics import MetricFamily, Sample

            calls["n"] += 1
            return [
                MetricFamily(
                    name="ext_rows",
                    kind="gauge",
                    help="from a stats() bridge",
                    samples=[Sample("", (("shard", "0"),), 42.0)],
                )
            ]

        reg.register_collector(collect)
        exp = parse(render(reg))
        assert exp.value("ext_rows", shard="0") == 42.0
        assert calls["n"] == 1  # collectors run at scrape time only


class TestEngineTelemetry:
    def test_record_run_folds_result_counters(self):
        from repro.core.solver import PreprocessedSSSP
        from tests.helpers import random_connected_graph

        g = random_connected_graph(40, 90, seed=7)
        sp = PreprocessedSSSP(g, k=1, rho=4, heuristic="full")
        reg = MetricsRegistry()
        sp.set_observer(EngineTelemetry(reg))
        engine = sp.resolve_engine("auto")
        sp.solve(0)
        sp.solve(1)

        exp = parse(render(reg))
        assert exp.value("engine_solves_total", engine=engine) == 2.0
        steps = exp.histogram_counts("engine_solve_steps", engine=engine)
        assert steps["+Inf"] == 2.0
        relax = exp.histogram_counts("engine_solve_relaxations", engine=engine)
        assert relax["+Inf"] == 2.0

    def test_solve_many_records_per_source_runs(self):
        from repro.core.solver import PreprocessedSSSP
        from tests.helpers import random_connected_graph

        g = random_connected_graph(40, 90, seed=9)
        sp = PreprocessedSSSP(g, k=1, rho=4, heuristic="full")
        reg = MetricsRegistry()
        sp.set_observer(EngineTelemetry(reg))
        engine = sp.resolve_engine("auto")
        sp.solve_many([0, 1, 2, 3], n_jobs=2)

        exp = parse(render(reg))
        assert exp.value("engine_solves_total", engine=engine) == 4.0

    def test_seeded_solve_records_under_vectorized(self):
        """A seeded solve runs the vectorized engine's schedule, live
        steps and run totals included."""
        from repro.core.solver import PreprocessedSSSP
        from tests.helpers import random_connected_graph

        g = random_connected_graph(40, 90, seed=9)
        sp = PreprocessedSSSP(g, k=1, rho=4, heuristic="full")
        reg = MetricsRegistry()
        sp.set_observer(EngineTelemetry(reg))
        seed = np.full(g.n, np.inf)
        seed[[2, 30]] = [0.0, 5.0]
        res = sp.solve_seeded(seed)

        exp = parse(render(reg))
        assert exp.value("engine_solves_total", engine="vectorized") == 1.0
        assert exp.value("engine_step_settled_count", engine="vectorized") == res.steps

    @pytest.mark.parametrize(
        "engine", [row[0] for row in _SCHEDULE_ENGINES]
    )
    def test_live_step_hook_sees_every_step(self, engine):
        """Every engine the registry runs on the unified loop passes the
        live ``obs`` hook through: one per-step observation per outer
        step, in both per-step histograms."""
        from repro.engine import solve_with_engine
        from tests.helpers import random_connected_graph

        g = random_connected_graph(40, 90, seed=7, weight_high=20)
        reg = MetricsRegistry()
        res = solve_with_engine(engine, g, 0, 2.0, obs=EngineTelemetry(reg))
        assert res.steps >= 1  # bellman-ford takes exactly one
        exp = parse(render(reg))
        assert exp.value("engine_step_settled_count", engine=engine) == res.steps
        assert exp.value("engine_step_substeps_count", engine=engine) == res.steps
