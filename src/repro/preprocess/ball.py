"""Truncated Dijkstra ball search (Lemma 4.2).

For every source the preprocessing phase needs its ρ-nearest ball: the ρ
closest vertices (counting the source itself — the paper's r_ρ convention,
pinned by the ρ=1 rows of Tables 4–7), their distances, and a *min-hop*
shortest-path tree over them (the tree §4.2.2's DP heuristic optimizes).

Two fidelity knobs from the paper:

* ``include_ties`` — §5.1's modification: "instead of breaking ties
  arbitrarily and taking exactly ρ neighbors, we continue until all
  vertices with distance r_ρ(·) are visited".
* ``lightest_edges`` — Lemma 4.2's work bound comes from considering only
  the lightest ρ edges out of each vertex; this is exact for the ρ-ball
  interior but can miss boundary ties, so it is off by default and the
  ties caveat is documented here rather than hidden.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex

__all__ = ["BallSearchResult", "ball_search", "sort_adjacency_by_weight"]

#: memo of id(graph) -> weight-sorted graph.  Keyed by identity (graphs
#: are immutable) and evicted by a weakref.finalize on the key graph, so
#: a repeated ρ-sweep never re-lexsorts the same adjacency and a dead
#: graph never pins its sorted copy (nor lets a recycled id alias it).
_SORTED_CACHE: dict[int, CSRGraph] = {}


def sort_adjacency_by_weight(graph: CSRGraph) -> CSRGraph:
    """Return an equal graph whose per-vertex arcs are sorted by weight.

    The paper pre-sorts all adjacency lists once (O(m log n) work,
    O(log n) depth) so each ball search can cap at the lightest ρ arcs.
    Sorting is a stable per-row argsort — vectorized with one global
    lexsort keyed (vertex, weight) — and memoized per graph object, so
    repeated sweeps over the same graph pay for it once.
    """
    key = id(graph)
    hit = _SORTED_CACHE.get(key)
    if hit is not None:
        return hit
    tails = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    order = np.lexsort((graph.weights, tails))
    result = CSRGraph(
        graph.indptr, graph.indices[order], graph.weights[order], validate=False
    )
    _SORTED_CACHE[key] = result
    weakref.finalize(graph, _SORTED_CACHE.pop, key, None)
    return result


@dataclass
class BallSearchResult:
    """Result of one truncated Dijkstra run.

    Attributes
    ----------
    source: the ball center.
    order: settle order (vertex ids); ``order[0] == source``.
    dist: distance per settled vertex, parallel to ``order`` (sorted
        non-decreasing; equal distances are contiguous).
    hops: min-hop depth in the shortest-path tree, parallel to ``order``.
    parent: tree parent *vertex id* per settled vertex (-1 for source).
    edges_scanned: arcs inspected — the Lemma 4.2 work proxy used by the
        Figure 2 pathological-graph check.
    complete: True when the whole connected component was settled before
        reaching ρ vertices (then r_ρ degrades to the component radius).
    """

    source: int
    order: np.ndarray
    dist: np.ndarray
    hops: np.ndarray
    parent: np.ndarray
    edges_scanned: int
    complete: bool

    def __len__(self) -> int:
        return len(self.order)

    def r_rho(self, rho: int) -> float:
        """The ρ-nearest distance r_ρ(source) (Definition 3, self-counting).

        For ρ larger than the reachable set, returns the component radius
        (the distance that makes the ball cover everything reachable).
        """
        if rho < 1:
            raise ValueError("rho >= 1 required")
        if rho > len(self.order):
            return float(self.dist[-1])
        return float(self.dist[rho - 1])

    def prefix_size(self, rho: int) -> int:
        """Number of settled vertices in the ρ-ball *with ties included*:
        all vertices at distance ≤ r_ρ(source) (§5.1's modification)."""
        r = self.r_rho(rho)
        return int(np.searchsorted(self.dist, r, side="right"))


def ball_search(
    graph: CSRGraph,
    source: int,
    rho: int,
    *,
    include_ties: bool = True,
    lightest_edges: bool = False,
    weight_sorted: bool = False,
) -> BallSearchResult:
    """Settle the ρ-nearest vertices around ``source``.

    Runs Dijkstra under the lexicographic ``(distance, hops)`` key so the
    resulting tree is a min-hop shortest-path tree, stopping after ρ
    settles (`include_ties` extends through the final distance class).

    Parameters
    ----------
    lightest_edges: restrict each vertex's scan to its lightest ``rho``
        arcs (Lemma 4.2's O(ρ²) work bound).  Requires ``weight_sorted``
        (see :func:`sort_adjacency_by_weight`) on weighted graphs.
    """
    n = graph.n
    source = check_vertex(source, "source", n)
    if rho < 1:
        raise ValueError("rho >= 1 required")
    if lightest_edges and not weight_sorted and not graph.is_unweighted:
        raise ValueError(
            "lightest_edges requires weight-sorted adjacency "
            "(see sort_adjacency_by_weight)"
        )
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights

    dist: dict[int, float] = {source: 0.0}
    hops: dict[int, int] = {source: 0}
    parent: dict[int, int] = {source: -1}
    settled: set[int] = set()
    order: list[int] = []
    out_dist: list[float] = []
    out_hops: list[int] = []
    edges_scanned = 0
    heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
    stop_dist = np.inf  # once set, only ties at this distance may settle

    while heap:
        d, h, u = heapq.heappop(heap)
        if u in settled or d > dist[u] or (d == dist[u] and h > hops[u]):
            continue  # stale entry
        if len(order) >= rho:
            if not include_ties or d > stop_dist:
                break
        settled.add(u)
        order.append(u)
        out_dist.append(d)
        out_hops.append(h)
        if len(order) == rho:
            stop_dist = d
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        if lightest_edges:
            hi = min(hi, lo + rho)
        for j in range(lo, hi):
            v = int(indices[j])
            edges_scanned += 1
            if v in settled:
                continue
            nd = d + float(weights[j])
            nh = h + 1
            old = dist.get(v)
            if old is None or nd < old or (nd == old and nh < hops[v]):
                dist[v] = nd
                hops[v] = nh
                parent[v] = u
                heapq.heappush(heap, (nd, nh, v))

    order_arr = np.array(order, dtype=np.int64)
    return BallSearchResult(
        source=source,
        order=order_arr,
        dist=np.array(out_dist, dtype=np.float64),
        hops=np.array(out_hops, dtype=np.int64),
        parent=np.array([parent[u] for u in order], dtype=np.int64),
        edges_scanned=edges_scanned,
        complete=len(order) < rho,
    )
