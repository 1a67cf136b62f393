"""Dijkstra's algorithm — the sequential ground truth (paper ref [8]).

Three entry points:

* :func:`dijkstra` — classic binary-heap Dijkstra, the correctness oracle
  for every other solver in the library.
* :func:`dijkstra_minhop` — lexicographic ``(distance, hops)`` Dijkstra.
  Among all shortest paths it finds, for every vertex, one with the fewest
  edges; the resulting parent tree is exactly the min-hop shortest-path
  tree that §4.2.2's DP heuristic requires ("among all shortest-path trees
  from s, one where every path has the smallest hop count possible").
* :func:`dijkstra_steps` — Dijkstra with equal-distance extractions batched
  into one step, the ρ=1 baseline of Tables 6/7.

The first two are deliberately *not* built on :mod:`repro.engine`: a
per-edge sequential implementation is the independent oracle the
engine-parity tests validate every schedule against.  ``dijkstra_steps``
is the engine's ``r ≡ 0`` degeneration (the ``dijkstra`` registry
engine) and goes through the shared kernel.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from .result import SsspResult

__all__ = ["dijkstra", "dijkstra_minhop", "dijkstra_steps"]


def dijkstra(graph: CSRGraph, source: int, *, track_parents: bool = True) -> SsspResult:
    """Binary-heap Dijkstra with lazy deletion.

    O((n + m) log n) time; distances are exact for non-negative weights.
    """
    n = graph.n
    source = check_vertex(source, "source", n)
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64) if track_parents else None
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    done = np.zeros(n, dtype=bool)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    relaxations = 0
    steps = 0
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        steps += 1
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            relaxations += 1
            nd = d + weights[j]
            if nd < dist[v]:
                dist[v] = nd
                if parent is not None:
                    parent[v] = u
                heapq.heappush(heap, (nd, v))
    return SsspResult(
        dist=dist,
        parent=parent,
        steps=steps,
        substeps=steps,
        max_substeps=1,
        relaxations=relaxations,
        algorithm="dijkstra",
        params={"source": source},
    )


def dijkstra_minhop(graph: CSRGraph, source: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dijkstra under the lexicographic key ``(distance, hop count)``.

    Returns ``(dist, hops, parent)``.  ``hops[v]`` is the minimum number of
    edges over all shortest (minimum-weight) paths from ``source`` to
    ``v`` — the paper's hop distance ``d̂(source, v)`` (Definition 1) —
    and ``parent`` realizes a min-hop shortest-path tree.
    """
    n = graph.n
    source = check_vertex(source, "source", n)
    dist = np.full(n, np.inf)
    hops = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    hops[source] = 0
    heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
    done = np.zeros(n, dtype=bool)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    while heap:
        d, h, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            nd = d + weights[j]
            nh = h + 1
            if nd < dist[v] or (nd == dist[v] and nh < hops[v]):
                dist[v] = nd
                hops[v] = nh
                parent[v] = u
                heapq.heappush(heap, (nd, nh, v))
    hops[~np.isfinite(dist)] = -1
    hops_out = hops.copy()
    return dist, hops_out, parent


def dijkstra_steps(graph: CSRGraph, source: int) -> SsspResult:
    """Dijkstra where all minimum-distance vertices settle together.

    This is Radius-Stepping with ``r(v) = 0`` ("when ρ = 1,
    Radius-Stepping becomes essentially Dijkstra's except vertices with
    the same distance are extracted together" — §5.3); its step count is
    the ρ=1 row of Tables 6/7.
    """
    from .radius_stepping import radius_stepping

    return radius_stepping(graph, source, radii=0.0, algorithm_name="dijkstra-steps")
