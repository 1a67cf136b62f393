"""The four workloads: inputs from a seed, set-up, timed phase, checks.

Every workload follows the paper's operating model, "preprocess once,
query many" (§5.4): set-up turns the input graph into a (k,rho)-graph
(k=2, rho=32, the ``dp`` heuristic) and brings it to the first correct
answer; the timed phase then queries it.  Edge weights are integers in
1..1000, so the SciPy oracle and the program must agree bit for bit.

Load is a closed loop: ``CLIENTS`` callers, each sending its next
request when the previous answer has been read.  The server runs in a
child process; requests are HTTP over keep-alive loopback connections.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from layers import (
    PROBE_REPS,
    PROBE_SOURCES,
    bound_ratios,
    engine_probe,
    median,
    planner_probe,
    sweep_engines,
    weight_ratio,
)
from oracle import ArcIndex, as_matrix, check_answer, reference_rows
from repro import generators, random_integer_weights
from repro.core.solver import PreprocessedSSSP
from repro.graphs.csr import CSRGraph
from repro.preprocess.pipeline import build_kr_graph, build_sharded_kr_graph
from repro.serve.artifacts import save_artifact, save_sharded_artifact
from serving import CLIENTS, Client, ServerProcess, closed_loop

K, RHO = 2, 32
#: seed of every workload graph, and of the fixed source sets of the
#: in-process solve batches and engine probes: those measure the engine,
#: so their sources do not change with ``--seed``
GRAPH_SEED = 0
#: set-ups per run: at least SETUP_REPS, and more while the set-up phase
#: (closing the last server included) is shorter than SETUP_SECONDS, so a
#: cheap set-up is repeated more and an expensive one does not stretch
#: the run; ``setup_s`` is their median
SETUP_REPS = 3
SETUP_SECONDS = 5.0
#: vertices of the untimed warm-up set-up that precedes them
WARMUP_N = 1000
#: pre-drawn requests per run (more than any run sends; reused cyclically)
N_REQUESTS = 200_000
#: ``k`` of every ``/nearest/{s}/{k}`` request
NEAREST_K = 16

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_qps": "1/s",
    "ok_frac": "frac",
    "rss_mb": "MiB",
}

PER_LAYER = {
    "preprocess.reorder_s": "s",
    "preprocess.ball_shortcuts_s": "s",
    "preprocess.merge_s": "s",
    "preprocess.partition_s": "s",
    "preprocess.shard_preprocess_s": "s",
    "preprocess.overlay_s": "s",
    "preprocess.shortcut_edges": "count",
    "preprocess.augmented_arcs": "count",
    "artifacts.save_s": "s",
    "artifacts.load_s": "s",
    "engine.solve_ms": "ms",
    "engine.scipy_floor_ms": "ms",
    "engine.floor_ratio": "ratio",
    "engine.steps": "count",
    "engine.substeps": "count",
    "engine.relaxations": "count",
    "engine.substep_bound_ratio": "ratio",
    "engine.step_bound_ratio": "ratio",
    "engine.solves_per_s": "1/s",
    **{f"engine.sweep.{name}_ms": "ms" for name in sweep_engines()},
    "planner.hit_ratio": "ratio",
    "planner.lookups": "count",
    "planner.solves": "count",
    "planner.evictions": "count",
    "planner.coalesced": "count",
    "planner.single_flight_waits": "count",
    "planner.hit_us": "us",
    **{f"http.overhead_ms.{kind}": "ms" for kind in ("route", "nearest", "distances")},
    **{f"http.response_bytes.{kind}": "bytes" for kind in ("route", "nearest", "distances")},
    "http.close_s": "s",
    "router.restitch_ms": "ms",
    "router.route_hot_ms": "ms",
    "router.source_row_ms": "ms",
    "router.overlay_solve_ms": "ms",
    "router.fold_shard_ms": "ms",
    "router.hit_ratio": "ratio",
    "router.overlay_vertices": "count",
    "router.overlay_arcs": "count",
    "backends.rows_per_request": "count",
    "backends.wire_bytes_per_request": "bytes",
    "backends.row_fetch_p50_ms": "ms",
    "obs.trace_overhead": "us",
    "client.tail_percentile": "pct",
    "client.samples": "count",
}


@dataclass(frozen=True)
class Workload:
    """One input family and traffic mix.

    ``shards`` > 0 serves the graph split into that many shards from a
    ``ShardCluster`` (remote backends); 0 serves it whole from a
    ``RoutingService`` behind ``RoutingHTTPServer``.  ``mix`` gives
    each request kind's share.  ``hot`` > 0 draws every source from
    that many vertices (warmed at set-up); 0 draws sources uniformly.
    ``tail_pct`` is a percentile with at least ten samples beyond it at
    the benchmark's run length, even when a run completes 40% fewer
    requests than measured (the machine's speed drifts).
    ``solve_batch`` fixed distinct sources make up the in-process
    ``solve_many`` batch that checks the paper's bounds every run.
    """

    name: str
    family: str
    n: int
    mix: tuple
    tail_pct: float
    solve_batch: int
    hot: int = 0
    reorder: str = "natural"
    shards: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "road-hot", "road", 20_000,
            (("route", 0.60), ("nearest", 0.25), ("distances", 0.15)),
            tail_pct=99.5, solve_batch=8, hot=64, reorder="rcm",
        ),
        Workload(
            "road-cold", "road", 20_000,
            (("route", 0.80), ("nearest", 0.20)),
            tail_pct=80.0, solve_batch=8, reorder="rcm",
        ),
        Workload(
            "powerlaw-build", "powerlaw", 3_000,
            (("route", 0.80), ("nearest", 0.20)),
            tail_pct=95.0, solve_batch=32,
        ),
        Workload(
            "shard-restitch", "road", 5_000,
            (("distances", 0.5), ("route", 0.5)),
            tail_pct=85.0, solve_batch=64, shards=4,
        ),
    )
}


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def make_graph(w: Workload):
    """The workload's graph.  It is the same for every run: ``--seed``
    draws the query stream, because the shape of a newly drawn graph
    (power-law hubs, shard boundaries) moved every metric by more than a
    code change should be allowed to."""
    if w.family == "road":
        graph, _coords = generators.road_network(w.n, seed=GRAPH_SEED)
    else:
        graph = generators.scale_free(w.n, attach=4, seed=GRAPH_SEED)
    return random_integer_weights(graph, low=1, high=1000, seed=GRAPH_SEED)


class Requests:
    """The request sequence of one run, drawn from the seed up front."""

    def __init__(self, w: Workload, n: int, seed: int) -> None:
        rng = np.random.default_rng([seed, 1])
        kinds, shares = zip(*w.mix)
        self.hot = rng.choice(n, size=w.hot, replace=False) if w.hot else None
        sources = (
            self.hot[rng.integers(0, w.hot, size=N_REQUESTS)]
            if w.hot
            else rng.integers(0, n, size=N_REQUESTS)
        )
        kind_ids = rng.choice(len(kinds), size=N_REQUESTS, p=np.asarray(shares) / sum(shares))
        targets = rng.integers(0, n, size=N_REQUESTS)
        self.kinds = [kinds[k] for k in kind_ids.tolist()]
        self.sources = sources.tolist()
        self.args = [
            t if kind == "route" else NEAREST_K
            for kind, t in zip(self.kinds, targets.tolist())
        ]

    def query(self, i: int) -> tuple[str, int, int]:
        i %= len(self.sources)
        return self.kinds[i], self.sources[i], self.args[i]

    def path(self, i: int) -> str:
        kind, s, arg = self.query(i)
        if kind == "distances":
            return f"/distances/{s}"
        return f"/{kind}/{s}/{arg}"


def fresh(graph) -> CSRGraph:
    """A new graph object over the same arrays: per-graph memo caches
    (sorted adjacency, content hash) start empty, as in a cold build."""
    return CSRGraph(graph.indptr, graph.indices, graph.weights, validate=False)


# --------------------------------------------------------------------- #
# Result
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """Every metric of one run (per-layer ones stay 0 where a layer is
    not on this workload's path), plus the answer tallies."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    bounds_ok: bool = True
    metrics: dict = field(default_factory=lambda: dict.fromkeys(PER_LAYER, 0.0))
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.bounds_ok


def check_records(out: Outcome, records, reqs: Requests, matrix, arcs) -> None:
    """Tally every record ``(i, status, seconds, answer)`` against the
    SciPy rows of its source (and route paths against ``arcs``, see
    :func:`oracle.check_route`): transport errors and non-200s fail,
    wrong answers fail and count as wrong."""
    by_source = defaultdict(list)
    for rec in records:
        out.attempted += 1
        if rec[1] != 200:
            out.failed += 1
        else:
            by_source[reqs.query(rec[0])[1]].append(rec)
    verdicts: dict = {}
    for s, row in reference_rows(matrix, by_source):
        for i, _status, _dt, answer in by_source[s]:
            kind, _s, arg = reqs.query(i)
            key = (kind, arg, id(answer))
            if key not in verdicts:
                verdicts[key] = check_answer(kind, answer, row, s, arg, arcs)
            if not verdicts[key]:
                out.wrong += 1
                out.failed += 1


def latency_metrics(out: Outcome, w: Workload, records, elapsed: float) -> None:
    lat = np.array([dt for _i, status, dt, _a in records if status == 200])
    if len(lat) == 0:
        raise RuntimeError("no request of the timed phase succeeded")
    out.metrics["latency_p50_ms"] = float(np.percentile(lat, 50)) * 1e3
    out.metrics["latency_tail_ms"] = float(np.percentile(lat, w.tail_pct)) * 1e3
    out.metrics["throughput_qps"] = len(lat) / elapsed
    out.metrics["client.tail_percentile"] = w.tail_pct
    out.metrics["client.samples"] = float(len(lat))
    out.details.update(
        samples=len(lat),
        tail_percentile=w.tail_pct,
        beyond_tail=int(round(len(lat) * (100.0 - w.tail_pct) / 100.0)),
        clients=CLIENTS,
        timed_s=elapsed,
    )


def check_rows(out: Outcome, pairs, matrix) -> None:
    """Tally in-process answers, ``(source, distance row)`` pairs,
    against the SciPy rows."""
    by_source = defaultdict(list)
    for s, dist in pairs:
        by_source[int(s)].append(dist)
    for s, row in reference_rows(matrix, by_source):
        for dist in by_source[s]:
            out.attempted += 1
            if not np.array_equal(dist, row):
                out.wrong += 1
                out.failed += 1


def solve_batches(out: Outcome, parts, *, L: float) -> None:
    """One in-process ``solve_many(n_jobs=1)`` batch over every part's
    fixed sources (``parts`` holds ``(preprocessing, input matrix,
    sources)`` triples): its rate, its answers checked against SciPy,
    and its Thm 3.2/3.3 headroom, which every run checks."""
    solvers = [(PreprocessedSSSP.from_preprocessed(pre), src) for pre, _m, src in parts]
    t0 = time.perf_counter()
    batch = [sp.solve_many(src, n_jobs=1) for sp, src in solvers]
    elapsed = time.perf_counter() - t0
    out.metrics["engine.solves_per_s"] = sum(len(r) for r in batch) / elapsed
    ratios = {"engine.substep_bound_ratio": 0.0, "engine.step_bound_ratio": 0.0}
    for (pre, matrix, sources), results in zip(parts, batch):
        check_rows(out, [(s, res.dist) for s, res in zip(sources, results)], matrix)
        part = bound_ratios(results, n=pre.graph.n, k=K, rho=RHO, L=L)
        for key, value in part.items():
            ratios[key] = max(ratios[key], value)
    out.metrics.update(ratios)
    out.bounds_ok = all(value <= 1.0 for value in ratios.values())


def stage_medians(out: Outcome, stages: list[dict]) -> None:
    for stage in stages[0]:
        out.metrics[f"preprocess.{stage}_s"] = median([s[stage] for s in stages])


# --------------------------------------------------------------------- #
# Running a workload
# --------------------------------------------------------------------- #
def run_workload(w: Workload, seed: int, seconds: float, *, trace: bool,
                 work_dir: Path, tamper=None) -> Outcome:
    """One run.  ``tamper`` (self-test only) may rewrite the recorded
    answers before they are checked."""
    graph = make_graph(w)
    reqs = Requests(w, graph.n, seed)
    out = Outcome()
    out.details.update(workload=w.name, seed=seed)
    _run(out, w, graph, reqs, seconds, trace, work_dir, tamper)
    out.metrics["ok_frac"] = (out.attempted - out.failed) / out.attempted
    return out


def _build_and_save(w: Workload, graph, path: Path):
    """Preprocess and persist; returns ``(result, artifact, save seconds,
    stage seconds)``."""
    if w.shards:
        built = build_sharded_kr_graph(
            graph, K, RHO, n_shards=w.shards, partition="ldd", heuristic="dp"
        )
        stages = dict(built.stage_seconds)
        for shard in built.shards:
            for stage, sec in shard.stage_seconds.items():
                stages[stage] = stages.get(stage, 0.0) + sec
        t0 = time.perf_counter()
        artifact = save_sharded_artifact(path, built)
    else:
        built = build_kr_graph(graph, K, RHO, heuristic="dp", reorder=w.reorder)
        stages = dict(built.stage_seconds)
        t0 = time.perf_counter()
        artifact = save_artifact(path.with_suffix(".npz"), built)
    return built, artifact, time.perf_counter() - t0, stages


def _remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


def _stats(url: str) -> dict:
    client = Client(url)
    try:
        status, body = client.get("/stats")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError(f"GET /stats answered {status}")
    return json.loads(body)


@dataclass
class SetUp:
    """One set-up, from the input graph to the first answer."""

    seconds: float
    built: object
    artifact: Path
    url: str
    load_s: float
    save_s: float
    stages: dict
    status: int
    body: bytes


def _set_up(server: ServerProcess, w: Workload, graph, path: Path, first: str) -> SetUp:
    """Build and save, load and boot in the serving process, then answer
    request path ``first``."""
    t0 = time.perf_counter()
    built, artifact, save_s, stages = _build_and_save(w, fresh(graph), path)
    boot = server.call("boot", kind="cluster" if w.shards else "service", path=str(artifact))
    client = Client(boot["url"])
    try:
        status, body = client.get(first)
    finally:
        client.close()
    return SetUp(
        time.perf_counter() - t0, built, artifact, boot["url"], boot["load_s"],
        save_s, stages, status, body,
    )


def _run(out, w, graph, reqs, seconds, trace, work_dir, tamper):
    matrix = as_matrix(graph)
    server = ServerProcess()
    try:
        # untimed, on a small graph: one-time costs (imports, the first
        # use of each code path in both processes) would otherwise all
        # land in the first timed set-up
        done = _set_up(
            server, w, make_graph(replace(w, n=WARMUP_N)),
            work_dir / f"{w.name}-warmup", "/route/0/1",
        )
        if done.status != 200:
            raise RuntimeError(f"warm-up set-up answered {done.status}")
        setups = []
        start = time.perf_counter()
        while len(setups) < SETUP_REPS or time.perf_counter() - start < SETUP_SECONDS:
            server.call("close")
            _remove(done.artifact)
            done = _set_up(
                server, w, graph, work_dir / f"{w.name}-{len(setups)}", reqs.path(0)
            )
            setups.append(done)
        built, url = done.built, done.url
        if reqs.hot is not None:
            server.call("warm", sources=reqs.hot.tolist())
        before = _stats(url)
        records, elapsed = closed_loop(url, reqs.path, seconds)
        after = _stats(url)
        if trace:
            _http_probe(out, server, url, reqs)
            if w.shards:
                rng = np.random.default_rng([GRAPH_SEED, 4])
                picks = rng.integers(0, graph.n, size=(2, PROBE_SOURCES)).tolist()
                out.metrics.update(
                    server.call("trace_router", sources=picks[0], targets=picks[1])
                )
            idle = Client(url)  # one keep-alive client left idle across close()
            try:
                idle.get("/healthz")
                out.metrics["http.close_s"] = server.call("close")["close_s"]
            finally:
                idle.close()
        out.metrics["rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    if tamper is not None:
        records = tamper(records)
    arcs = None if w.shards else ArcIndex(built.graph, built.inv_perm)
    first = [(0, done.status, 0.0, done.body) for done in setups]
    check_records(out, first + records, reqs, matrix, arcs)
    latency_metrics(out, w, records, elapsed)
    out.metrics["setup_s"] = median([done.seconds for done in setups])
    out.details["setup_s_runs"] = [done.seconds for done in setups]
    out.metrics["artifacts.save_s"] = median([done.save_s for done in setups])
    out.metrics["artifacts.load_s"] = median([done.load_s for done in setups])
    stage_medians(out, [done.stages for done in setups])
    _counter_deltas(out, before, after, n_requests=len(records))

    rng = np.random.default_rng([GRAPH_SEED, 2])
    if w.shards:
        shards = built.shards
        per = max(1, w.solve_batch // len(shards))
        parts = []
        for pre, verts in zip(shards, built.shard_vertices):
            local = rng.choice(len(verts), size=min(per, len(verts)), replace=False)
            parts.append((pre, matrix[verts][:, verts], local))
        engine_pre = shards[0]
        out.metrics["preprocess.shortcut_edges"] = float(sum(p.new_edges for p in shards))
        out.metrics["preprocess.augmented_arcs"] = float(sum(p.graph.num_arcs for p in shards))
        out.metrics["router.overlay_vertices"] = float(len(built.overlay_vertices))
        out.metrics["router.overlay_arcs"] = float(built.overlay_graph.num_arcs)
    else:
        sources = rng.choice(graph.n, size=w.solve_batch, replace=False)
        parts = [(built, matrix, sources)]
        engine_pre = built
        out.metrics["preprocess.shortcut_edges"] = float(built.new_edges)
        out.metrics["preprocess.augmented_arcs"] = float(built.graph.num_arcs)
    solve_batches(out, parts, L=weight_ratio(graph))
    if trace:
        _engine_layers(out, engine_pre)


def _counter_deltas(out: Outcome, before: dict, after: dict, *, n_requests: int) -> None:
    """Planner (and, sharded, router and backend) counters over the
    timed phase, from ``GET /stats`` before and after it."""
    delta = {key: after[key] - before[key] for key in (
        "hits", "lookups", "solves", "evictions", "coalesced", "single_flight_waits"
    )}
    out.metrics["planner.hit_ratio"] = delta["hits"] / max(1, delta["lookups"])
    for key in ("lookups", "solves", "evictions", "coalesced", "single_flight_waits"):
        out.metrics[f"planner.{key}"] = float(delta[key])
    if "stitched" not in after:
        return
    hits = after["stitched"]["hits"] - before["stitched"]["hits"]
    lookups = after["stitched"]["lookups"] - before["stitched"]["lookups"]
    out.metrics["router.hit_ratio"] = hits / max(1, lookups)
    rows = wire = 0.0
    for b, a in zip(before["per_shard"], after["per_shard"]):
        shard_rows = a["lookups"] - b["lookups"]
        rows += shard_rows
        wire += shard_rows * 8.0 * a["vertices"]
    out.metrics["backends.rows_per_request"] = rows / max(1, n_requests)
    out.metrics["backends.wire_bytes_per_request"] = wire / max(1, n_requests)
    out.metrics["backends.row_fetch_p50_ms"] = median(
        [b["row_fetch_p50_ms"] for b in after["backends"] if b["row_fetch_p50_ms"] is not None]
    )


def _http_probe(out: Outcome, server: ServerProcess, url: str, reqs: Requests) -> None:
    """HTTP p50 minus the in-process p50 of the same cached query, and
    the answer's body size, for each endpoint kind."""
    _kind, s, _arg = reqs.query(0)
    target = reqs.sources[-1]
    calls = [["route", s, target], ["nearest", s, NEAREST_K], ["distances", s, 0]]
    inproc = server.call("time_calls", calls=calls)
    client = Client(url)
    try:
        for kind, src, arg in calls:
            path = f"/distances/{src}" if kind == "distances" else f"/{kind}/{src}/{arg}"
            status, body = client.get(path)
            if status != 200:
                raise RuntimeError(f"GET {path} answered {status}")
            times = []
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                client.get(path)
                times.append(time.perf_counter() - t0)
            out.metrics[f"http.overhead_ms.{kind}"] = (median(times) - inproc[kind]) * 1e3
            out.metrics[f"http.response_bytes.{kind}"] = float(len(body))
    finally:
        client.close()


def _engine_layers(out: Outcome, pre) -> None:
    rng = np.random.default_rng([GRAPH_SEED, 3])
    sources = rng.choice(pre.graph.n, size=min(PROBE_SOURCES, pre.graph.n), replace=False)
    metrics, checked, wrong = engine_probe(pre, sources)
    out.attempted += checked
    out.wrong += wrong
    out.failed += wrong
    out.metrics.update(metrics)
    sp = PreprocessedSSSP.from_preprocessed(pre)
    out.metrics.update(planner_probe(sp, int(sources[0]), int(sources[-1])))
