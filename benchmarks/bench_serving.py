"""Serving-layer benchmark: warm starts, cache hits, threads.

The serving subsystem's claims, measured and gated on road-map
workloads:

1. **Warm start** — restoring the (k,ρ)-preprocessing from a persisted
   artifact must be ≥ 5× faster than re-running ``build_kr_graph``
   (it is typically orders of magnitude faster; the floor is
   env-tunable for noisy shared CI runners via
   ``BENCH_SERVING_MIN_WARM_SPEEDUP``).  The ``mmap=True`` warm path
   is timed alongside and must answer bit-identically.
2. **Query cache** — repeating a mixed workload against the planner
   must be served from the LRU row cache with a measured speedup
   (``BENCH_SERVING_MIN_CACHE_SPEEDUP`` floor) and zero extra solves.
3. **Concurrent serving** — 8 threads hammering one planner with a
   cache-hot mixed workload: the striped/single-flight design must
   beat a single-global-lock baseline by
   ``BENCH_SERVING_MIN_CONC_SPEEDUP`` (default ≥ 2×) in throughput,
   with every answer bit-identical to a serial planner.  Parallel
   throughput is physically capped by core count, so on boxes with
   fewer than 4 CPUs the floor degrades to a no-regression sanity
   check (recorded either way — the 2× claim is enforced where the
   cores exist, i.e. in CI).

Wall times and speedups land in ``BENCH_serving.json`` (path via
``BENCH_SERVING_JSON``) — the CI artifact tracking the serving-layer
perf trajectory from PR 4 onward.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core.solver import PreprocessedSSSP
from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.preprocess import build_kr_graph
from repro.serve import KNearest, QueryPlanner, load_artifact, save_artifact

pytestmark = pytest.mark.paper_artifact("serving subsystem")

N, K, RHO = 3000, 2, 24
BATCH_SOURCES = 24
CACHE_REPEATS = 5

#: concurrency section: a larger graph so per-query answer construction
#: is numpy-dominated (the part that runs outside the GIL and therefore
#: actually parallelizes across request threads).
CONC_N = 12000
CONC_THREADS = 8
CONC_REPS = 30
CONC_HUBS = 16


@pytest.fixture(scope="module")
def big_road():
    g, _coords = road_network(N, seed=1)
    return random_integer_weights(g, low=1, high=100, seed=2)


def _timed(fn, *args, repeats=1, **kwargs):
    """Best-of-N wall time plus the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


class TestServing:
    """The PR-4 acceptance gate: warm-start ≥ 5× cold, measured cache
    speedup, and a JSON perf artifact."""

    def test_serving_stack_on_big_road(self, big_road, tmp_path, report_sink):
        g = big_road
        times: dict[str, float] = {}

        # Cold start: the full (k,rho)-construction a process pays when
        # it has no artifact.  Warm start: load + verify the persisted
        # bundle against the serving graph's content hash.
        times["cold_preprocess"], pre = _timed(
            build_kr_graph, g, K, RHO, heuristic="dp", repeats=2
        )
        artifact = tmp_path / "road.kr.npz"
        times["save_artifact"], _ = _timed(save_artifact, artifact, pre)
        times["warm_load"], warm_pre = _timed(
            load_artifact, artifact, expect_graph=g, repeats=2
        )
        assert warm_pre.graph == pre.graph
        assert np.array_equal(warm_pre.radii, pre.radii)
        warm_speedup = times["cold_preprocess"] / times["warm_load"]

        # the near-RAM-size knob: mmap'd arrays, identical contents,
        # checksum still verified (timed for the JSON artifact)
        times["warm_load_mmap"], mmap_pre = _timed(
            load_artifact, artifact, expect_graph=g, mmap=True, repeats=2
        )
        assert mmap_pre.graph == pre.graph
        assert np.array_equal(mmap_pre.radii, pre.radii)

        sp = PreprocessedSSSP.from_preprocessed(warm_pre, input_graph=g)
        rng = np.random.default_rng(5)
        sources = rng.choice(g.n, BATCH_SOURCES, replace=False)

        # Cache: one mixed workload (full rows, routes, k-nearest over a
        # handful of hub sources), first pass solves, repeats must be
        # pure cache reads.
        hubs = sources[:8].tolist()
        workload = (
            [int(s) for s in hubs]
            + [(int(hubs[i]), int(hubs[-1 - i])) for i in range(4)]
            + [KNearest(int(hubs[0]), 10)]
        )
        planner = QueryPlanner(sp, capacity=64, track_parents=True)
        times["cache_miss_pass"], _ = _timed(planner.execute, workload)
        t0 = time.perf_counter()
        for _ in range(CACHE_REPEATS):
            planner.execute(workload)
        times["cache_hit_pass"] = (time.perf_counter() - t0) / CACHE_REPEATS
        stats = planner.stats()
        assert stats["solves"] == len(hubs)  # repeats added zero solves
        cache_speedup = times["cache_miss_pass"] / times["cache_hit_pass"]

        payload = {
            "workload": f"road_network(n={g.n}, m={g.m}), weights 1..100",
            "k": K,
            "rho": RHO,
            "seconds": {k: round(v, 5) for k, v in times.items()},
            "speedup": {
                "warm_start": round(warm_speedup, 2),
                "warm_start_mmap": round(
                    times["cold_preprocess"] / times["warm_load_mmap"], 2
                ),
                "cache_hit": round(cache_speedup, 2),
            },
            "planner_stats": {
                k: v for k, v in stats.items() if isinstance(v, int)
            },
        }
        out_path = os.environ.get("BENCH_SERVING_JSON", "BENCH_serving.json")
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        report_sink.append(
            (
                "serving stack (road n=%d)" % g.n,
                "\n".join(
                    [
                        f"cold preprocess {times['cold_preprocess']:.3f}s vs "
                        f"warm artifact load {times['warm_load'] * 1e3:.1f}ms "
                        f"({warm_speedup:.0f}x)",
                        f"mixed workload x{len(workload)}: miss pass "
                        f"{times['cache_miss_pass'] * 1e3:.1f}ms, hit pass "
                        f"{times['cache_hit_pass'] * 1e3:.2f}ms "
                        f"({cache_speedup:.0f}x)",
                    ]
                ),
            )
        )
        # Acceptance gates (floors env-tunable for noisy CI runners; the
        # issue-level bars are 5x warm start and a measured cache-hit
        # speedup — typical measurements are far above both).
        min_warm = float(os.environ.get("BENCH_SERVING_MIN_WARM_SPEEDUP", "5.0"))
        min_cache = float(os.environ.get("BENCH_SERVING_MIN_CACHE_SPEEDUP", "5.0"))
        assert warm_speedup >= min_warm, payload
        assert cache_speedup >= min_cache, payload


@pytest.fixture(scope="module")
def conc_solver():
    """The concurrency workload's solver: bigger rows than the main
    test so answer construction is numpy-bound, not dispatch-bound."""
    g, _coords = road_network(CONC_N, seed=11)
    g = random_integer_weights(g, low=1, high=100, seed=12)
    pre = build_kr_graph(g, K, RHO, heuristic="dp")
    return g, PreprocessedSSSP.from_preprocessed(pre, input_graph=g)


class _GlobalLockPlanner:
    """The naive thread-safety baseline: one mutex held across every
    ``execute`` — correct, but every request serializes behind it."""

    def __init__(self, planner: QueryPlanner) -> None:
        self._planner = planner
        self._lock = threading.Lock()

    def execute(self, queries):
        with self._lock:
            return self._planner.execute(queries)

    def warm(self, sources):
        with self._lock:
            self._planner.warm(sources)

    def stats(self):
        with self._lock:
            return self._planner.stats()


def _conc_workload() -> list:
    hubs = list(range(CONC_HUBS))
    return (
        [hubs[i] for i in range(4)]
        + [(hubs[i], hubs[CONC_HUBS - 1 - i]) for i in range(4)]
        + [KNearest(hubs[i], 64) for i in range(4)]
    )


def _hammer(planner, workload, n_threads: int, reps: int):
    """Throughput of ``n_threads`` × ``reps`` cache-hot batches; also
    returns one thread's final answers for the identity assert."""
    barrier = threading.Barrier(n_threads + 1)
    errors: list[BaseException] = []
    answers: list = []

    def worker(collect: bool) -> None:
        try:
            barrier.wait()
            for _ in range(reps):
                got = planner.execute(workload)
            if collect:
                answers.extend(got)
        except BaseException as exc:  # noqa: BLE001 - surfaced via assert
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i == 0,))
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    assert not errors, errors
    return n_threads * reps * len(workload) / wall, answers


class TestConcurrentServing:
    """The PR-5 gate: striped/single-flight planner vs a single global
    lock under 8 threads of cache-hot mixed traffic — answers must stay
    bit-identical to the serial path, and on machines with enough cores
    the striped design must win ≥ 2× in throughput (env-overridable;
    degraded to a sanity floor below 4 CPUs, where parallel throughput
    is physically capped)."""

    def test_threaded_throughput_vs_global_lock(self, conc_solver, report_sink):
        g, sp = conc_solver
        workload = _conc_workload()
        hubs = list(range(CONC_HUBS))

        striped = QueryPlanner(sp, capacity=64, track_parents=True, stripes=8)
        baseline = _GlobalLockPlanner(
            QueryPlanner(sp, capacity=64, track_parents=True, stripes=1)
        )
        striped.warm(hubs)
        baseline.warm(hubs)

        thr_lock, lock_answers = _hammer(
            baseline, workload, CONC_THREADS, CONC_REPS
        )
        thr_striped, striped_answers = _hammer(
            striped, workload, CONC_THREADS, CONC_REPS
        )
        speedup = thr_striped / thr_lock

        # cache-hot means exactly CONC_HUBS solves each, ever
        s_stats, b_stats = striped.stats(), baseline.stats()
        assert s_stats["solves"] == b_stats["solves"] == CONC_HUBS
        assert s_stats["hits"] + s_stats["misses"] == s_stats["lookups"]
        assert s_stats["cached_rows"] <= s_stats["capacity"]

        # answers bit-identical to a fresh serial planner (and to the
        # global-lock baseline, transitively)
        serial = QueryPlanner(sp, capacity=64, track_parents=True, stripes=1)
        expected = serial.execute(workload)
        for got_set in (striped_answers, lock_answers):
            assert len(got_set) == len(expected)
            for got, want in zip(got_set, expected):
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want)
                elif hasattr(want, "vertices"):  # Nearest
                    assert np.array_equal(got.vertices, want.vertices)
                    assert np.array_equal(got.distances, want.distances)
                else:  # Route
                    assert got == want

        cpus = os.cpu_count() or 1
        min_conc = float(
            os.environ.get("BENCH_SERVING_MIN_CONC_SPEEDUP", "2.0")
        )
        floor = min_conc
        if cpus < 4:
            # 8 threads cannot beat a serializing lock 2x without cores
            # to run on; keep a no-regression sanity floor and record
            # the measurement — CI (>= 4 vCPUs) enforces the real bar.
            floor = min(min_conc, 0.5 if cpus == 1 else 1.0)

        entry = {
            "workload": (
                f"road_network(n={g.n}, m={g.m}), cache-hot mixed batch "
                f"x{len(workload)} ({CONC_THREADS} threads x {CONC_REPS} reps)"
            ),
            "threads": CONC_THREADS,
            "cpus": cpus,
            "throughput_striped_qps": round(thr_striped),
            "throughput_global_lock_qps": round(thr_lock),
            "speedup_vs_global_lock": round(speedup, 2),
            "gate_floor": floor,
            "planner_stats": {
                k: v for k, v in s_stats.items() if isinstance(v, int)
            },
        }
        out_path = os.environ.get("BENCH_SERVING_JSON", "BENCH_serving.json")
        payload = {}
        if os.path.exists(out_path):
            with open(out_path) as fh:
                payload = json.load(fh)
        payload["concurrency"] = entry
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        report_sink.append(
            (
                f"concurrent serving (road n={g.n}, {CONC_THREADS} threads)",
                f"striped+single-flight {thr_striped:,.0f} q/s vs "
                f"global lock {thr_lock:,.0f} q/s ({speedup:.2f}x, "
                f"{cpus} cpu(s), floor {floor}x)",
            )
        )
        assert speedup >= floor, entry
