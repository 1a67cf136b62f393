"""Locality-aware reordering: what a cache-friendly numbering buys.

The relaxation kernel's gather → scatter-min substep and the batched
ball engine's CSR rounds fancy-index ``indices``/``weights`` with whole
frontiers at once, so their speed tracks how local those gathers are —
which is exactly what a vertex reordering controls.  This benchmark
measures both workloads under every registered ordering on one
representative graph per family (road-like, power-law, small-world),
against the adversarial ``random`` scramble baseline.

The kernel measurement is the substep itself, not a full solve: for a
set of hop-ball frontiers (the shape real Radius-Stepping frontiers
take on spatial graphs), time the row gather + relax + scatter-min
sequence the engines run per substep.  The arithmetic is identical
under every ordering — frontiers are the same external vertex sets,
mapped through each permutation — so timing differences are pure
memory-locality effects.  Graphs are sized (``BENCH_REORDER_N``,
default 150k vertices) so the CSR arrays outgrow L2 and the gathers
actually pay for cache misses; at toy sizes every ordering ties.

Output: ``BENCH_reorder.json`` (env ``BENCH_REORDER_JSON``) with
per-family per-ordering timings, the mean-neighbor-gap diagnostic, and
speedups over ``random``.  Gates (env-tunable for noisy runners):

* on every family the best ordering beats the ``random`` baseline by
  ≥ ``BENCH_REORDER_MIN_SPEEDUP`` (default 1.10×) on the relaxation
  substep — the permutation-invariant workload where timing deltas are
  pure locality (ball-round timings are reported alongside but carry no
  hard gate: on power-law graphs the batched search is dominated by
  hub-frontier *work*, which no numbering changes);
* on every family at least one locality ordering (bfs/rcm/degree)
  shrinks the mean neighbor gap below the random baseline's — the
  diagnostic agrees with the stopwatch.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.graphs.generators import road_network, scale_free, small_world
from repro.graphs.reorder import available_orderings, mean_neighbor_gap, reorder_graph
from repro.graphs.weights import random_integer_weights
from repro.preprocess import batched_ball_search

pytestmark = pytest.mark.paper_artifact("locality reordering throughput")

N = int(os.environ.get("BENCH_REORDER_N", "150000"))
FRONTIER_TARGET = 4096
N_FRONTIERS = 8
SUBSTEP_REPS = 20
BALL_SOURCES = 192
# ρ=8 keeps the batched search's hub-frontier blowup on scale-free
# graphs bounded; the gather-locality signal is the same at any ρ.
BALL_RHO = 8
REPEATS = 2


def _families():
    road, _ = road_network(N, seed=1)
    return {
        "road": random_integer_weights(road, low=1, high=100, seed=2),
        "power-law": random_integer_weights(
            scale_free(N, attach=4, seed=3), low=1, high=100, seed=4
        ),
        "small-world": random_integer_weights(
            small_world(N, k=6, p=0.05, seed=5), low=1, high=100, seed=6
        ),
    }


def _hop_ball(graph, seed_vertex, target):
    """Vertices within the smallest hop radius reaching ``target`` size —
    the frontier shape Radius-Stepping produces on spatial graphs."""
    seen = np.zeros(graph.n, dtype=bool)
    seen[seed_vertex] = True
    frontier = np.array([seed_vertex], dtype=np.int64)
    layers = [frontier]
    total = 1
    while total < target:
        nbrs = np.concatenate(
            [graph.indices[graph.indptr[u] : graph.indptr[u + 1]] for u in frontier]
        )
        fresh = np.unique(nbrs)
        fresh = fresh[~seen[fresh]]
        if not len(fresh):
            break
        seen[fresh] = True
        layers.append(fresh)
        total += len(fresh)
        frontier = fresh
    return np.concatenate(layers)


def _substep_seconds(graph, frontiers, rng):
    """Best-of-``REPEATS`` time for the gather → relax → scatter-min
    substep over ``frontiers`` (internal-id vertex sets), repeated
    ``SUBSTEP_REPS`` times."""
    dist = rng.uniform(0.0, 1.0, graph.n)
    degrees = np.diff(graph.indptr)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(SUBSTEP_REPS):
            for f in frontiers:
                deg = degrees[f]
                starts = graph.indptr[f]
                span = int(deg.sum())
                # arc index list for all rows of the frontier
                idx = np.repeat(starts, deg) + (
                    np.arange(span) - np.repeat(np.cumsum(deg) - deg, deg)
                )
                heads = graph.indices[idx]
                cand = np.repeat(dist[f], deg) + graph.weights[idx]
                np.minimum.at(dist, heads, cand)
        best = min(best, time.perf_counter() - t0)
    return best


def test_reorder_throughput(report_sink):
    min_speedup = float(os.environ.get("BENCH_REORDER_MIN_SPEEDUP", "1.10"))

    orderings = available_orderings()
    table: dict[str, dict] = {}
    for family, graph in _families().items():
        rng = np.random.default_rng(11)
        balls_ext = [
            _hop_ball(graph, int(s), FRONTIER_TARGET)
            for s in rng.choice(graph.n, N_FRONTIERS, replace=False)
        ]
        sources_ext = rng.choice(graph.n, BALL_SOURCES, replace=False)
        rows: dict[str, dict] = {}
        for method in orderings:
            res = reorder_graph(graph, method, seed=4)
            frontiers = [np.sort(res.perm[b]) for b in balls_ext]
            sources = np.sort(res.perm[sources_ext]).astype(np.int64)

            substep_s = _substep_seconds(res.graph, frontiers, np.random.default_rng(13))
            best_ball = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                batched_ball_search(
                    res.graph, sources, BALL_RHO, include_ties=False
                )
                best_ball = min(best_ball, time.perf_counter() - t0)

            rows[method] = {
                "neighbor_gap": round(mean_neighbor_gap(res.graph), 1),
                "substep_s": round(substep_s, 4),
                "ball_s": round(best_ball, 4),
                "total_s": round(substep_s + best_ball, 4),
            }
        substep_base = rows["random"]["substep_s"]
        total_base = rows["random"]["total_s"]
        for row in rows.values():
            row["substep_speedup_vs_random"] = round(
                substep_base / row["substep_s"], 3
            )
            row["speedup_vs_random"] = round(total_base / row["total_s"], 3)
        best = min(rows, key=lambda m: rows[m]["substep_s"])
        table[family] = {
            "n": graph.n,
            "m": graph.m,
            "orderings": rows,
            "best": best,
            "best_speedup_vs_random": rows[best]["substep_speedup_vs_random"],
        }

    payload = {
        "workload": (
            f"n={N} per family; substep: {N_FRONTIERS} hop-ball frontiers of "
            f"~{FRONTIER_TARGET} vertices x {SUBSTEP_REPS} reps; balls: "
            f"batched_ball_search, {BALL_SOURCES} sources at rho={BALL_RHO}; "
            f"best of {REPEATS}"
        ),
        "orderings": list(orderings),
        "families": table,
    }
    out_path = os.environ.get("BENCH_REORDER_JSON", "BENCH_reorder.json")
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)

    report_sink.append(
        (
            "locality reordering (n=%d per family)" % N,
            "\n".join(
                f"{family:>12}: best {row['best']} "
                f"({row['best_speedup_vs_random']:.2f}x vs random; gap "
                f"{row['orderings'][row['best']]['neighbor_gap']} vs "
                f"{row['orderings']['random']['neighbor_gap']})"
                for family, row in table.items()
            ),
        )
    )

    # Gate 1: reordering pays — on every family the best ordering beats
    # the adversarial random numbering by the floor on the substep
    # kernel (identical arithmetic, so the delta is pure locality).
    for family, row in table.items():
        assert row["best_speedup_vs_random"] >= min_speedup, (family, payload)

    # Gate 2: the diagnostic tracks reality — some locality ordering
    # shrinks the neighbor gap below random's on every family.
    for family, row in table.items():
        random_gap = row["orderings"]["random"]["neighbor_gap"]
        assert any(
            row["orderings"][m]["neighbor_gap"] < random_gap
            for m in ("bfs", "rcm", "degree")
        ), (family, payload)
