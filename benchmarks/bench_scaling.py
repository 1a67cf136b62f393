"""Scaling harness: growth exponents per graph family, and every perf gate.

The sweep builds five generator families at n = 2k, 4k and 8k with
integer weights 1..1000, preprocesses each point with
``build_kr_graph(g, 2, 32, heuristic="dp", reorder="rcm")`` and records
the stage seconds, the ``vectorized`` solve with parents and SciPy's C
Dijkstra on the same augmented graph and source (median of 5 fixed
sources; each engine row must equal SciPy's bit for bit).  Per family it
fits the exponent of ``ball_shortcuts`` seconds and of engine ms with
:func:`repro.analysis.fit_power_law`.  At the largest n the same sources
also run stopped solves, as a served miss runs them: a route to a
fixed-seed target and the 16 nearest vertices, each checked against the
full solve bit for bit (distance, parent path, nearest list).  Its
three gates are constants: the engine over the floor at the largest n,
a ceiling per family on the ``ball_shortcuts`` exponent, and one on the
stopped-solve time of a 0.8 route / 0.2 nearest mix over the full
solve's.  One more gate is a constant: on road 3k in 4 shards, the
median over 24 sources of a loopback ``ShardCluster``'s cold route
stitch (one seeded shard solve, stopped at the target) over its cold
full stitch of the same source, at most ``ROUTE_STITCH_MAX``.

Every other gate reads its floor from the environment, where CI's
``bench`` job sets it (local default in brackets):

* road 5200, batched preprocessing over the scalar heap reference, outputs
  bit-identical: radii sweep ``BENCH_PREPROCESSING_MIN_SPEEDUP`` (3.0),
  greedy build ``BENCH_PREPROCESSING_MIN_BUILD_SPEEDUP`` (1.1), dp
  selection ``BENCH_PREPROCESSING_MIN_SELECT_SPEEDUP`` (2.5);
* every engine raced on four raw n=600 graphs: worst over winner on some
  family ``BENCH_STEPPING_MIN_SPEEDUP`` (1.5), families the winner takes
  from ``vectorized`` ``BENCH_STEPPING_MIN_DEFAULT_WINS`` (2);
* three 150k graphs, the kernel's gather + scatter-min under the best
  ordering over ``random``: ``BENCH_REORDER_MIN_SPEEDUP`` (1.10);
* road 3k: a solve in the largest of 4 shards over a full-graph solve
  ``BENCH_SHARDING_MIN_INTRA_SPEEDUP`` (2.0); artifact load over
  preprocessing ``BENCH_SERVING_MIN_WARM_SPEEDUP`` (5.0); cache-hit pass
  over miss pass ``BENCH_SERVING_MIN_CACHE_SPEEDUP`` (5.0); engine
  telemetry on cold solves, at most ``BENCH_OBS_MAX_OVERHEAD`` (0.05);
  the median over 24 sources of a loopback ``ShardCluster``'s cold
  stitch time over an in-process router's, at most
  ``1 + BENCH_REMOTE_MAX_OVERHEAD`` (1.0);
* road 12k, 8 threads on the planner over one global lock around it:
  ``BENCH_SERVING_MIN_CONC_SPEEDUP`` (2.0; on < 4 CPUs at most 1.0).

``BENCH_scaling.json`` holds the sweep, the exponents and every gate's
value and floor.  Run:

    PYTHONPATH=src python -m pytest benchmarks/bench_scaling.py -q -s
"""

import contextlib
import json
import math
import os
import statistics
import threading
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.analysis import fit_power_law
from repro.core.result import parent_path
from repro.core.solver import PreprocessedSSSP
from repro.engine import StopRule
from repro.engine.kernel import gather_frontier_arcs
from repro.engine.registry import available_engines, solve_with_engine
from repro.graphs import generators
from repro.graphs.build import add_shortcuts
from repro.graphs.reorder import available_orderings, mean_neighbor_gap, reorder_graph
from repro.graphs.weights import random_integer_weights
from repro.obs import EngineTelemetry, MetricsRegistry, trace_request
from repro.obs.expo import parse, render
from repro.preprocess import (
    batched_ball_trees,
    block_from_trees,
    build_kr_graph,
    build_sharded_kr_graph,
    compute_radii_sweep,
    dp_select,
    forest_select,
    greedy_select,
    scalar_radii,
    scalar_select,
)
from repro.serve import (
    KNearest,
    QueryPlanner,
    ShardCluster,
    ShardRouter,
    load_artifact,
    nearest_from_row,
    save_artifact,
)

pytestmark = pytest.mark.paper_artifact("scaling harness and perf gates")

FAMILIES = {
    "road": lambda n: generators.road_network(n, seed=0)[0],
    "grid": lambda n: generators.grid_2d(math.isqrt(n), math.isqrt(n)),
    "small_world": lambda n: generators.small_world(n, k=8, p=0.1, seed=0),
    "erdos_renyi": lambda n: generators.erdos_renyi(n, 4 * n, seed=0),
    "scale_free": lambda n: generators.scale_free(n, attach=4, seed=0),
}
SWEEP_N = (2000, 4000, 8000)
#: engine ms over SciPy ms at the largest n (the 2k grid read 5.0)
FLOOR_RATIO_MAX = 5.0
#: the largest ball_shortcuts exponent of the runs BENCH_scaling.jsonl lists, + 0.1
BALL_EXPONENT_MAX = {
    "road": 1.32,
    "grid": 1.24,
    "small_world": 1.42,
    "erdos_renyi": 1.70,
    "scale_free": 2.15,
}
#: stopped-solve ms of a 0.8 route / 0.2 16-nearest mix over full-solve
#: ms at the largest n: the largest of the runs BENCH_scaling.jsonl
#: lists, + 0.1
STOP_MIX_MAX = {
    "road": 0.51,
    "grid": 0.64,
    "small_world": 0.64,
    "erdos_renyi": 0.79,
    "scale_free": 0.64,
}
#: ``k`` of the stopped nearest solves, as perfbench's ``/nearest`` asks
NEAREST_K = 16
#: a loopback cluster's cold route stitch over its cold full stitch of
#: the same source: the largest of the runs BENCH_scaling.jsonl lists,
#: + 0.1
ROUTE_STITCH_MAX = 0.43
REORDER_N = 150_000


@pytest.fixture(scope="module")
def report():
    """The sweep and every gate, written to ``BENCH_scaling.json`` once
    every test here has run."""
    out: dict = {"gates": {}}
    yield out
    with open("BENCH_scaling.json", "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)


def _gate(report, name: str, value: float, floor: float, *, ceiling=False):
    """Record ``value`` and its floor in the report, then assert it."""
    report["gates"][name] = {"value": round(value, 4), "floor": floor}
    assert (value <= floor) if ceiling else (value >= floor), (name, value, floor)


def _env(name: str, default: str) -> float:
    return float(os.environ.get(name, default))


def _weighted(g, seed: int):
    return random_integer_weights(g, low=1, high=100, seed=seed)


def _road(n: int, seed: int):
    return _weighted(generators.road_network(n, seed=seed)[0], seed + 1)


def _best(fn, *args, repeats: int = 2, **kwargs):
    """Best-of-``repeats`` wall seconds and the last result."""
    best, result = math.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _stopped_solves(sp, sources, family: str) -> dict:
    """Per source, a full solve, a route stopped at a fixed-seed target
    and a 16-nearest stopped solve, interleaved and best of 3 each (mean
    ms over the sources).  Stopped answers must equal the full solve's
    bit for bit."""
    targets = np.random.default_rng(1).integers(0, sp.graph.n, len(sources))
    ms = {"full": 0.0, "route": 0.0, "nearest": 0.0}
    for s, t in zip(map(int, sources), map(int, targets)):
        rules = {
            "full": None,
            "route": StopRule((t,)),
            "nearest": StopRule(settled=NEAREST_K + 1),
        }
        best, res = dict.fromkeys(rules, math.inf), {}
        for _ in range(3):
            for kind, rule in rules.items():
                t0 = time.perf_counter()
                res[kind] = sp.solve(s, track_parents=True, stop=rule)
                best[kind] = min(best[kind], time.perf_counter() - t0)
        full, route = res["full"], res["route"]
        assert route.dist[t] == full.dist[t], (family, s, t)
        assert parent_path(route.parent, t) == full.path_to(t), (family, s, t)
        want = nearest_from_row(s, full.dist, NEAREST_K)
        got = nearest_from_row(s, res["nearest"].dist, NEAREST_K)
        assert np.array_equal(got.vertices, want.vertices), (family, s)
        assert np.array_equal(got.distances, want.distances), (family, s)
        for kind in ms:
            ms[kind] += best[kind] * 1e3 / len(sources)
    return {
        **{f"{kind}_ms": round(value, 3) for kind, value in ms.items()},
        "mix_ratio": round((0.8 * ms["route"] + 0.2 * ms["nearest"]) / ms["full"], 3),
    }


def _sweep_point(family: str, n: int) -> dict:
    g = random_integer_weights(FAMILIES[family](n), low=1, high=1000, seed=0)
    pre = build_kr_graph(g, 2, 32, heuristic="dp", reorder="rcm")
    sp, aug = PreprocessedSSSP.from_preprocessed(pre), pre.graph
    mat = csr_matrix((aug.weights, aug.indices, aug.indptr), shape=(aug.n, aug.n))
    engine_ms, floor_ms = [], []
    sources = np.random.default_rng(0).choice(g.n, 5, replace=False)
    for s in sources:
        t0 = time.perf_counter()
        res = sp.solve(int(s), track_parents=True)
        t1 = time.perf_counter()
        ref = scipy_dijkstra(mat, indices=int(pre.perm[s]))
        t2 = time.perf_counter()
        assert np.array_equal(res.dist, ref[pre.perm]), (family, n, int(s))
        engine_ms.append((t1 - t0) * 1e3)
        floor_ms.append((t2 - t1) * 1e3)
    engine, floor = statistics.median(engine_ms), statistics.median(floor_ms)
    point = {
        "family": family,
        "n": g.n,
        "augmented_arcs": int(aug.indptr[-1]),
        "stage_seconds": {
            k: round(pre.stage_seconds[k], 4)
            for k in ("reorder", "ball_shortcuts", "merge")
        },
        "engine_ms": round(engine, 3),
        "floor_ms": round(floor, 3),
        "floor_ratio": round(engine / floor, 3),
    }
    if n == SWEEP_N[-1]:
        point["stopped"] = _stopped_solves(sp, sources, family)
    return point


def test_scaling_sweep(report):
    points, exponents, largest = [], {}, {}
    for family in FAMILIES:
        rows = [_sweep_point(family, n) for n in SWEEP_N]
        points += rows
        largest[family] = rows[-1]
        ns = [p["n"] for p in rows]
        fits = {
            "ball_shortcuts": fit_power_law(
                ns, [p["stage_seconds"]["ball_shortcuts"] for p in rows]
            ),
            "engine_ms": fit_power_law(ns, [p["engine_ms"] for p in rows]),
        }
        exponents[family] = {
            k: {"exponent": round(f.slope, 3), "r2": round(f.r_squared, 3)}
            for k, f in fits.items()
        }
    report["sweep"] = {"points": points, "exponents": exponents}
    for family in FAMILIES:
        _gate(report, f"floor_ratio.{family}", largest[family]["floor_ratio"],
              FLOOR_RATIO_MAX, ceiling=True)
        _gate(report, f"ball_exponent.{family}",
              exponents[family]["ball_shortcuts"]["exponent"],
              BALL_EXPONENT_MAX[family], ceiling=True)
        _gate(report, f"stop_mix.{family}", largest[family]["stopped"]["mix_ratio"],
              STOP_MIX_MAX[family], ceiling=True)


def test_preprocessing_engines_vs_scalar(report):
    g, k, rho, rhos = _road(5200, seed=1), 3, 16, (4, 16, 64, 256)
    sources = np.arange(g.n, dtype=np.int64)
    compute_radii_sweep(g, [4])  # warm scratch
    scalar_s, table = _best(scalar_radii, g, sources, rhos)
    batched_s, sweep = _best(compute_radii_sweep, g, rhos)
    assert all(np.array_equal(table[:, j], sweep[r]) for j, r in enumerate(rhos))
    radii_speedup = scalar_s / batched_s

    build = {}
    for heuristic in ("greedy", "dp"):
        scalar_s, (radii, src, dst, w) = _best(
            scalar_select, g, sources, rho, k, heuristic
        )
        batched_s, pre = _best(build_kr_graph, g, k, rho, heuristic=heuristic)
        assert add_shortcuts(g, src, dst, w) == pre.graph
        assert np.array_equal(radii, pre.radii)
        assert len(src) == pre.added_edges
        build[heuristic] = scalar_s / batched_s

    # the selection stage alone: per-tree walkers vs the forest engine
    # over one TreeBlock (the pipeline gets the block for free)
    _, trees = batched_ball_trees(g, sources, rho)
    block = block_from_trees(trees)
    select = {}
    for heuristic, per_tree in (("greedy", greedy_select), ("dp", dp_select)):
        scalar_s, want = _best(lambda f=per_tree: [f(t, k) for t in trees])
        batched_s, got = _best(forest_select, block, heuristic, k)
        assert len(want) == len(got)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        select[heuristic] = scalar_s / batched_s
    report["preprocessing"] = {"build_dp": build["dp"], "select_dp": select["dp"]}
    _gate(report, "preprocessing.radii_sweep", radii_speedup,
          _env("BENCH_PREPROCESSING_MIN_SPEEDUP", "3.0"))
    _gate(report, "preprocessing.greedy_build", build["greedy"],
          _env("BENCH_PREPROCESSING_MIN_BUILD_SPEEDUP", "1.1"))
    _gate(report, "preprocessing.dp_select", select["dp"],
          _env("BENCH_PREPROCESSING_MIN_SELECT_SPEEDUP", "2.5"))


def test_stepping_race(report):
    """Raw graphs, ``radii=None``: every registered engine at r ≡ 0, its
    mean seconds over the same two sources, drawn with probability
    proportional to degree + 1 (a uniform draw on a power-law graph
    mostly picks leaves)."""
    n = 600
    families = {
        "road": _road(n, seed=1),
        "power-law": _weighted(generators.scale_free(n, attach=4, seed=3), 4),
        "small-world": _weighted(generators.small_world(n, k=6, p=0.1, seed=5), 6),
        "random": _weighted(generators.erdos_renyi(n, 3 * n, seed=7), 8),
    }
    rows = {}
    for family, g in families.items():
        weight = g.degrees().astype(np.float64) + 1.0
        sources = np.random.default_rng(7).choice(
            g.n, size=2, replace=False, p=weight / weight.sum()
        )
        timings = {
            name: statistics.mean(
                _best(solve_with_engine, name, g, int(s), repeats=1)[0]
                for s in sources
            )
            for name in available_engines()
        }
        best = min(timings.values())
        rows[family] = {
            "winner": min(timings, key=timings.__getitem__),
            "worst_over_winner": max(timings.values()) / best,
            "vectorized_over_winner": timings["vectorized"] / best,
        }
    report["stepping"] = rows
    _gate(report, "stepping.worst_over_winner",
          max(r["worst_over_winner"] for r in rows.values()),
          _env("BENCH_STEPPING_MIN_SPEEDUP", "1.5"))
    _gate(report, "stepping.default_wins",
          sum(r["vectorized_over_winner"] > 1.0 for r in rows.values()),
          _env("BENCH_STEPPING_MIN_DEFAULT_WINS", "2"))


def _hop_ball(g, seed_vertex: int, target: int) -> np.ndarray:
    """The smallest hop ball around ``seed_vertex`` with ``target`` vertices
    (Radius-Stepping's frontier shape on spatial graphs)."""
    seen = np.zeros(g.n, dtype=bool)
    seen[seed_vertex] = True
    layers = [np.array([seed_vertex], dtype=np.int64)]
    while sum(map(len, layers)) < target:
        heads = np.unique(g.indices[gather_frontier_arcs(g, layers[-1])[0]])
        fresh = heads[~seen[heads]]
        if not len(fresh):
            break
        seen[fresh] = True
        layers.append(fresh)
    return np.concatenate(layers)


def _substep_seconds(g, frontiers) -> float:
    """20 rounds of the relax substep's gather + scatter-min."""
    dist = np.random.default_rng(13).uniform(0.0, 1.0, g.n)
    t0 = time.perf_counter()
    for _ in range(20):
        for f in frontiers:
            arcs, tails = gather_frontier_arcs(g, f)
            np.minimum.at(dist, g.indices[arcs], dist[tails] + g.weights[arcs])
    return time.perf_counter() - t0


def test_reorder_locality(report):
    """Identical arithmetic under every ordering: the gap is memory locality."""
    families = {
        "road": _road(REORDER_N, seed=1),
        "power-law": _weighted(generators.scale_free(REORDER_N, attach=4, seed=3), 4),
        "small-world": _weighted(
            generators.small_world(REORDER_N, k=6, p=0.05, seed=5), 6
        ),
    }
    rows = report["reorder"] = {}
    for family, g in families.items():
        rng = np.random.default_rng(11)
        balls = [_hop_ball(g, int(s), 4096) for s in rng.choice(g.n, 8, replace=False)]
        layouts, gaps = {}, {}
        for method in available_orderings():
            res = reorder_graph(g, method, seed=4)
            layouts[method] = (res.graph, [np.sort(res.perm[b]) for b in balls])
            gaps[method] = mean_neighbor_gap(res.graph)
        seconds = dict.fromkeys(layouts, math.inf)
        for _ in range(5):  # best of 5, interleaved so drift hits every layout
            for method, layout in layouts.items():
                seconds[method] = min(seconds[method], _substep_seconds(*layout))
        rows[family] = {"substep_seconds": seconds, "neighbor_gap": gaps}
        assert min(gaps[m] for m in ("bfs", "rcm", "degree")) < gaps["random"]
        _gate(report, f"reorder.{family}", seconds["random"] / min(seconds.values()),
              _env("BENCH_REORDER_MIN_SPEEDUP", "1.10"))


def _median_solve_seconds(sp, sources) -> float:
    return statistics.median(_best(sp.solve, int(s))[0] for s in sources)


def test_sharding_intra_shard_solve(report):
    g = _road(3000, seed=1)
    pre = build_kr_graph(g, 2, 24, heuristic="dp")
    sharded = build_sharded_kr_graph(
        g, 2, 24, n_shards=4, partition="contiguous", heuristic="dp"
    )
    sources = np.random.default_rng(5).choice(g.n, 8, replace=False)
    full = _median_solve_seconds(PreprocessedSSSP.from_preprocessed(pre), sources)
    sizes = [len(v) for v in sharded.shard_vertices]
    big = int(np.argmax(sizes))
    shard = _median_solve_seconds(
        PreprocessedSSSP.from_preprocessed(sharded.shards[big]), sources % sizes[big]
    )
    _gate(report, "sharding.intra_shard_solve", full / shard,
          _env("BENCH_SHARDING_MIN_INTRA_SPEEDUP", "2.0"))


def test_serving_warm_start_and_cache(report, tmp_path):
    g, path = _road(3000, seed=1), tmp_path / "road.kr.npz"
    cold_s, pre = _best(build_kr_graph, g, 2, 24, heuristic="dp")
    save_artifact(path, pre)
    warm_s, warm = _best(load_artifact, path, expect_graph=g)
    assert warm.graph == pre.graph and np.array_equal(warm.radii, pre.radii)

    hubs = np.random.default_rng(5).choice(g.n, 24, replace=False)[:8].tolist()
    pairs = [(hubs[i], hubs[-1 - i]) for i in range(4)]
    workload = hubs + pairs + [KNearest(hubs[0], 10)]
    planner = QueryPlanner(
        PreprocessedSSSP.from_preprocessed(warm, input_graph=g),
        capacity=64, track_parents=True,
    )
    miss_s, _ = _best(planner.execute, workload, repeats=1)
    hit_s = _best(lambda: [planner.execute(workload) for _ in range(5)], repeats=1)[0]
    assert planner.stats()["solves"] == len(hubs)  # the repeats were all hits
    _gate(report, "serving.warm_start", cold_s / warm_s,
          _env("BENCH_SERVING_MIN_WARM_SPEEDUP", "5.0"))
    _gate(report, "serving.cache", 5 * miss_s / hit_s,
          _env("BENCH_SERVING_MIN_CACHE_SPEEDUP", "5.0"))


def _queries_per_second(execute, workload, threads: int = 8, reps: int = 30):
    barrier = threading.Barrier(threads + 1)

    def worker():
        barrier.wait()
        for _ in range(reps):
            execute(workload)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in pool:
        t.join()
    return threads * reps * len(workload) / (time.perf_counter() - t0)


def test_serving_concurrency(report):
    g = _road(12000, seed=11)
    sp = PreprocessedSSSP.from_preprocessed(
        build_kr_graph(g, 2, 24, heuristic="dp"), input_graph=g
    )
    hubs = list(range(16))
    workload = (
        hubs[:4]
        + [(hubs[i], hubs[-1 - i]) for i in range(4)]
        + [KNearest(hubs[i], 64) for i in range(4)]
    )
    planner = QueryPlanner(sp, capacity=64, track_parents=True)
    locked = QueryPlanner(sp, capacity=64, track_parents=True)
    planner.warm(hubs)
    locked.warm(hubs)
    lock = threading.Lock()

    def one_lock(queries):  # the naive baseline: every request serializes
        with lock:
            return locked.execute(queries)

    lock_qps = _queries_per_second(one_lock, workload)
    speedup = _queries_per_second(planner.execute, workload) / lock_qps
    assert planner.stats()["solves"] == locked.stats()["solves"] == len(hubs)
    floor, cpus = _env("BENCH_SERVING_MIN_CONC_SPEEDUP", "2.0"), os.cpu_count() or 1
    if cpus < 4:  # 8 threads cannot beat one lock 2x without the cores
        floor = min(floor, 0.5 if cpus == 1 else 1.0)
    _gate(report, "serving.concurrency", speedup, floor)


def test_observability_overhead(report):
    """Telemetry runs only when the engine does: time cold solves with and
    without the observer (``record_step`` per step, ``record_run`` per
    solve).  The traced cache-hot batch is reported, not gated."""
    sp = PreprocessedSSSP(_road(3000, seed=21), k=2, rho=24, heuristic="dp")
    sources, registry = list(range(0, 3000, 375)), MetricsRegistry()
    telemetry = EngineTelemetry(registry)

    def batch(observer):
        sp.set_observer(observer)
        return _best(lambda: [sp.solve(s, track_parents=True) for s in sources],
                     repeats=1)[0]

    batch(None)
    try:  # alternate, so drift hits both sides alike
        pairs = [(batch(None), batch(telemetry)) for _ in range(25)]
    finally:
        sp.set_observer(None)
    solves = parse(render(registry)).value("engine_solves_total", engine="vectorized")
    assert solves == 25 * len(sources)

    hubs = list(range(12))
    hot = hubs[:4] + [(hubs[i], hubs[-1 - i]) for i in range(4)] + [KNearest(0, 16)]
    planner = QueryPlanner(sp, capacity=64, track_parents=True)
    planner.warm(hubs)

    def hot_p50(root) -> float:
        samples = []
        for _ in range(650):
            t0 = time.perf_counter()
            with root():
                planner.execute(hot)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples[50:])

    report["observability"] = {
        "cache_hot_traced_overhead": hot_p50(lambda: trace_request("GET batch"))
        / hot_p50(contextlib.nullcontext) - 1.0
    }
    bare, observed = (statistics.median(side) for side in zip(*pairs))
    _gate(report, "observability.cold_solve_overhead", observed / bare - 1.0,
          _env("BENCH_OBS_MAX_OVERHEAD", "0.05"), ceiling=True)


def test_remote_stitch_overhead(report):
    """Each source is stitched cold on both routers back to back, in one
    cluster lifetime, the first of the pair alternating; the gate reads
    the median of the per-source time ratios.

    The route leg then stitches each source twice more on the same
    cluster, through a remote router that caches no stitched row: a
    route to a random target (one seeded solve, stopped at the target)
    and the full row, the first of the pair alternating.  Both find the
    source row warm on its shard.  The gate reads the median of the
    route-over-full time ratios."""
    g = _road(3000, seed=31)
    sharded = build_sharded_kr_graph(
        g, 2, 24, n_shards=4, partition="ldd", heuristic="dp"
    )
    rng = np.random.default_rng(33)
    sources = rng.choice(g.n, 24, replace=False)
    targets = rng.choice(g.n, 24, replace=False)
    ratios, route_ratios = [], []
    with ShardCluster(sharded) as cluster:
        routers = {"local": ShardRouter(sharded=sharded), "remote": cluster.router}
        for i, s in enumerate(map(int, sources)):
            order = ("local", "remote") if i % 2 else ("remote", "local")
            timed = {
                side: _best(routers[side].distances, s, repeats=1) for side in order
            }
            assert timed["remote"][1].tobytes() == timed["local"][1].tobytes()
            ratios.append(timed["remote"][0] / timed["local"][0])
        with ShardRouter.remote(
            cluster.router.topology_info, cluster.shard_urls, cache_capacity=0
        ) as cold:
            for i, (s, t) in enumerate(zip(map(int, sources), map(int, targets))):
                calls = {"route": (cold.route, s, t), "full": (cold.distances, s)}
                order = ("route", "full") if i % 2 else ("full", "route")
                timed = {side: _best(*calls[side], repeats=1) for side in order}
                assert timed["route"][1].distance == timed["full"][1][t]
                route_ratios.append(timed["route"][0] / timed["full"][0])
    _gate(report, "remote.cold_stitch_overhead", statistics.median(ratios) - 1.0,
          _env("BENCH_REMOTE_MAX_OVERHEAD", "1.0"), ceiling=True)
    _gate(report, "remote.route_stitch_ratio", statistics.median(route_ratios),
          ROUTE_STITCH_MAX, ceiling=True)
