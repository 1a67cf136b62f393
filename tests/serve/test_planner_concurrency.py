"""Concurrent planner access: the thread-safety acceptance gate.

PR 4's planner raced on its ``OrderedDict`` LRU under threads (lost
inserts, corrupted recency order, ``move_to_end`` on an evicted key)
and duplicated concurrent solves of the same source.  These tests
hammer the one-lock/single-flight planner from many threads and assert
the serving-layer invariants:

* no exceptions under a mixed ``execute``/``warm``/``stats`` load on
  overlapping sources, with eviction churn (capacity < working set);
* counters stay exact: ``hits + misses == lookups`` (one per probe,
  none lost), ``cached_rows <= capacity``;
* every answer is bit-identical to a fresh serial planner;
* concurrent misses on one source collapse onto a single ``solve_many``
  (single-flight), and a failing solve propagates its error to every
  waiting thread instead of stranding them.

Every test runs under a 10 µs switch interval, so thread hand-offs land
inside the planner's one critical section.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.serve import KNearest, Nearest, PointToPoint, QueryPlanner, SingleSource

from tests.helpers import random_connected_graph

pytestmark = pytest.mark.usefixtures("short_switch_interval")

N_THREADS = 8
REPS = 25
SOURCES = list(range(24))


@pytest.fixture(scope="module")
def case():
    g = random_connected_graph(60, 150, seed=23, weight_high=40)
    return g, PreprocessedSSSP(g, k=2, rho=8, heuristic="dp")


def _thread_batch(i: int) -> list:
    """Deterministic per-thread mixed batch over overlapping sources."""
    n = len(SOURCES)
    return (
        [SingleSource(SOURCES[(i * 3 + j) % n]) for j in range(4)]
        + [
            PointToPoint(SOURCES[(i + j) % n], SOURCES[(i * 5 + j + 1) % n])
            for j in range(3)
        ]
        + [KNearest(SOURCES[(i * 7) % n], 5)]
    )


def _warm_sources(i: int) -> list:
    n = len(SOURCES)
    return [SOURCES[(i * 11) % n], SOURCES[(i * 11 + 1) % n]]


def _distinct(queries) -> int:
    return len({int(q.source) for q in queries})


class TestHammer:
    def test_mixed_execute_warm_stats_hammer(self, case):
        """8 threads × mixed ops on overlapping sources with eviction
        churn: no exceptions, exact counters, serial-identical answers."""
        g, sp = case
        capacity = 12  # < 24 distinct sources -> constant eviction churn
        planner = QueryPlanner(sp, capacity=capacity, track_parents=True)
        errors: list[BaseException] = []
        answers: dict[int, list] = {}
        barrier = threading.Barrier(N_THREADS)

        def worker(i: int) -> None:
            try:
                batch = _thread_batch(i)
                barrier.wait()
                for r in range(REPS):
                    got = planner.execute(batch)
                    if r % 3 == 0:
                        planner.warm(_warm_sources(i))
                    stats = planner.stats()
                    assert stats["cached_rows"] <= capacity
                answers[i] = got
            except BaseException as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors

        # -- counters: every probe counted exactly once, none lost ------
        expected_probes = sum(
            REPS * _distinct(_thread_batch(i))
            + len(range(0, REPS, 3)) * len(set(_warm_sources(i)))
            for i in range(N_THREADS)
        )
        stats = planner.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["lookups"] == expected_probes
        assert stats["cached_rows"] <= capacity
        assert stats["inflight"] == 0  # no stranded single-flight entries
        # rows solved at least once per distinct source ever requested
        assert stats["solves"] >= len(SOURCES) - capacity

        # -- answers: bit-identical to a fresh serial planner -----------
        serial = QueryPlanner(sp, capacity=64, track_parents=True)
        for i in range(N_THREADS):
            expected = serial.execute(_thread_batch(i))
            for got, want in zip(answers[i], expected):
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want)
                elif isinstance(want, Nearest):
                    assert np.array_equal(got.vertices, want.vertices)
                    assert np.array_equal(got.distances, want.distances)
                else:  # Route
                    assert got == want

        # -- spot-check the metric itself against Dijkstra --------------
        for s in (0, 7, 23):
            assert np.array_equal(serial.distances(s), dijkstra(g, s).dist)

    def test_concurrent_warm_and_execute_share_solves(self, case):
        """warm() and execute() racing on the same sources must never
        corrupt the cache or double-count probes."""
        _, sp = case
        planner = QueryPlanner(sp, capacity=32, track_parents=True)
        barrier = threading.Barrier(4)
        errors: list[BaseException] = []

        def warmer() -> None:
            try:
                barrier.wait()
                for _ in range(10):
                    planner.warm(SOURCES[:8])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def executor() -> None:
            try:
                barrier.wait()
                for _ in range(10):
                    planner.execute([SingleSource(s) for s in SOURCES[:8]])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=warmer) for _ in range(2)] + [
            threading.Thread(target=executor) for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        stats = planner.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"] == 4 * 10 * 8
        assert stats["cached_rows"] == 8
        # 8 distinct sources, never evicted: single-flight + cache mean
        # each was solved exactly once no matter how the threads raced
        assert stats["solves"] == 8


class TestSingleFlight:
    def _slow_solver(self, monkeypatch, sp, delay=0.05):
        calls: list[list[int]] = []
        real = PreprocessedSSSP.solve_many

        def slow(sources, **kwargs):
            calls.append([int(s) for s in sources])
            time.sleep(delay)
            return real(sp, sources, **kwargs)

        monkeypatch.setattr(sp, "solve_many", slow)
        return calls

    def test_concurrent_misses_collapse_to_one_solve(self, monkeypatch):
        g = random_connected_graph(40, 90, seed=5, weight_high=20)
        sp = PreprocessedSSSP(g, k=2, rho=6, heuristic="dp")
        calls = self._slow_solver(monkeypatch, sp)
        planner = QueryPlanner(sp, capacity=16, track_parents=True)
        barrier = threading.Barrier(N_THREADS)
        rows: list[np.ndarray] = []
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                barrier.wait()
                rows.append(planner.distances(7))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # the whole point: one solve_many served all 8 concurrent misses
        assert calls == [[7]]
        stats = planner.stats()
        assert stats["solves"] == 1
        # every thread probed exactly once; each miss either led the one
        # flight, waited on it, or (rarely) won a retired slot and was
        # salvaged from the cache — never more than one actual solve
        assert stats["hits"] + stats["misses"] == N_THREADS
        assert 0 <= stats["single_flight_waits"] <= stats["misses"] - 1
        ref = dijkstra(g, 7).dist
        for row in rows:
            assert np.array_equal(row, ref)

    def test_single_flight_with_cache_disabled(self, monkeypatch):
        """capacity=0 stores nothing, but concurrent identical misses
        still share the in-flight row instead of re-solving."""
        g = random_connected_graph(40, 90, seed=6, weight_high=20)
        sp = PreprocessedSSSP(g, k=2, rho=6, heuristic="dp")
        calls = self._slow_solver(monkeypatch, sp)
        planner = QueryPlanner(sp, capacity=0, track_parents=True)
        barrier = threading.Barrier(N_THREADS)
        rows: list[np.ndarray] = []
        errors: list[BaseException] = []

        def worker() -> None:
            try:
                barrier.wait()
                rows.append(planner.distances(3))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        # with no cache to salvage from, the dedup window is inherently
        # timing-based: the barrier + slow solve make one flight all but
        # certain, but a thread descheduled across the whole solve may
        # legitimately re-solve — tolerate one straggler, never a storm
        assert all(c == [3] for c in calls)
        assert len(calls) <= 2, calls
        assert planner.stats()["cached_rows"] == 0
        ref = dijkstra(g, 3).dist
        for row in rows:
            assert np.array_equal(row, ref)

    def test_exception_before_solve_releases_registered_flights(
        self, monkeypatch
    ):
        """An exception anywhere between flight registration and
        publication (not just inside solve_many) must clear the
        in-flight table — a stranded entry would block every future
        request for that source forever."""
        g = random_connected_graph(40, 90, seed=8, weight_high=20)
        sp = PreprocessedSSSP(g, k=2, rho=6, heuristic="dp")
        planner = QueryPlanner(sp, capacity=16, track_parents=True)
        real_insert = planner._insert
        armed = {"on": True}

        def flaky_insert(s, row):
            if armed["on"]:
                armed["on"] = False
                raise MemoryError("allocation failed mid-publication")
            return real_insert(s, row)

        monkeypatch.setattr(planner, "_insert", flaky_insert)
        with pytest.raises(MemoryError):
            planner.execute([SingleSource(1), SingleSource(2)])
        assert planner.stats()["inflight"] == 0
        # both sources recovered: fresh flights solve cleanly
        assert np.array_equal(planner.distances(1), dijkstra(g, 1).dist)
        assert np.array_equal(planner.distances(2), dijkstra(g, 2).dist)

    def test_failed_solve_releases_followers(self, monkeypatch):
        """A leader whose solve blows up must hand the error to every
        follower and clear the in-flight table — later queries on the
        same source must work again."""
        g = random_connected_graph(40, 90, seed=7, weight_high=20)
        sp = PreprocessedSSSP(g, k=2, rho=6, heuristic="dp")
        real = PreprocessedSSSP.solve_many
        state = {"failed": False}

        def flaky(sources, **kwargs):
            if not state["failed"]:
                state["failed"] = True
                time.sleep(0.05)
                raise RuntimeError("engine exploded")
            return real(sp, sources, **kwargs)

        monkeypatch.setattr(sp, "solve_many", flaky)
        planner = QueryPlanner(sp, capacity=16, track_parents=True)
        barrier = threading.Barrier(4)
        outcomes: list[str] = []

        def worker() -> None:
            barrier.wait()
            try:
                planner.distances(5)
                outcomes.append("ok")
            except RuntimeError as exc:
                assert "engine exploded" in str(exc)
                outcomes.append("raised")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every thread that joined the failing flight saw the error;
        # threads that probed after cleanup may have re-solved and
        # succeeded — both are correct, stranding is not
        assert outcomes.count("raised") >= 1
        assert planner.stats()["inflight"] == 0
        # the planner recovered: the source solves cleanly now
        assert np.array_equal(planner.distances(5), dijkstra(g, 5).dist)
