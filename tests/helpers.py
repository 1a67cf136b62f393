"""Shared test helpers: graph factories, SSSP cross-checks and the
scalar preprocessing references."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.dijkstra import dijkstra
from repro.graphs.build import (
    add_shortcuts,
    from_arc_arrays,
    largest_connected_component,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import erdos_renyi
from repro.graphs.weights import random_integer_weights, uniform_weights
from repro.preprocess import HEURISTICS, ball_search, build_ball_tree, scalar_select

__all__ = [
    "random_connected_graph",
    "assert_distances_match",
    "assert_valid_parents",
    "brute_force_distances",
    "scalar_kr_graph",
    "scalar_shortcut_counts",
]


def random_connected_graph(
    n: int,
    m: int | None = None,
    *,
    seed: int = 0,
    weighted: bool = True,
    weight_high: int = 50,
) -> CSRGraph:
    """Seeded connected random graph, optionally with integer weights."""
    m = m if m is not None else 2 * n
    g = erdos_renyi(n, m, seed=seed, connect=True)
    if weighted:
        g = random_integer_weights(g, low=1, high=weight_high, seed=seed + 1)
    return g


def brute_force_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """O(n·m) Bellman–Ford reference, independent of the library solvers."""
    n = graph.n
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    tails = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    for _ in range(n):
        cand = dist[tails] + graph.weights
        new = dist.copy()
        np.minimum.at(new, graph.indices, cand)
        if np.array_equal(
            new, dist, equal_nan=False
        ) or np.allclose(new, dist, equal_nan=True):
            break
        dist = new
    return dist


def assert_distances_match(result_dist: np.ndarray, graph: CSRGraph, source: int) -> None:
    """Compare a solver's distances to Dijkstra's."""
    ref = dijkstra(graph, source).dist
    assert np.allclose(result_dist, ref, equal_nan=True), (
        f"distance mismatch from source {source}: "
        f"max err {np.nanmax(np.abs(np.where(np.isfinite(ref), result_dist - ref, 0)))}"
    )


def assert_valid_parents(graph: CSRGraph, dist: np.ndarray, parent: np.ndarray, source: int) -> None:
    """Every parent pointer must realize the vertex's exact distance."""
    for v in range(graph.n):
        p = parent[v]
        if v == source:
            assert p == -1
            continue
        if not np.isfinite(dist[v]):
            assert p == -1
            continue
        assert p >= 0, f"reachable vertex {v} lacks a parent"
        w = graph.edge_weight(int(p), v)
        assert np.isclose(dist[p] + w, dist[v]), (
            f"parent edge ({p}->{v}) does not realize dist"
        )


def scalar_kr_graph(graph, k, rho, *, heuristic="dp", include_ties=True):
    """``build_kr_graph``'s outputs from the scalar reference: heap
    balls, per-tree selection, the same shortcut merge."""
    sources = np.arange(graph.n, dtype=np.int64)
    radii, src, dst, w = scalar_select(
        graph, sources, rho, k, heuristic, include_ties=include_ties
    )
    aug = add_shortcuts(graph, src, dst, w)
    return SimpleNamespace(
        graph=aug, radii=radii, added_edges=len(src), new_edges=aug.m - graph.m
    )


def scalar_shortcut_counts(
    graph, *, ks, rhos, heuristics=("greedy", "dp"), include_ties=True
):
    """Exact ``count_shortcuts_sweep`` totals from the scalar reference:
    one heap ball per source at ρ_max, one per-tree walk per ρ-prefix."""
    totals = {h: {(k, r): 0 for k in ks for r in rhos} for h in heuristics}
    for s in range(graph.n):
        ball = ball_search(graph, s, max(rhos), include_ties=include_ties)
        for rho in rhos:
            size = ball.prefix_size(rho) if include_ties else min(rho, len(ball))
            tree = build_ball_tree(ball, size)
            for h in heuristics:
                for k in ks:
                    totals[h][(k, rho)] += len(HEURISTICS[h](tree, k))
    return SimpleNamespace(totals=totals)
