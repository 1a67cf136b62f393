#!/usr/bin/env python
"""Vertex reordering: cache locality without changing a single answer.

The Radius-Stepping kernels are memory-bound — each substep gathers
whole CSR rows for a frontier — so the vertex *numbering* controls how
often those gathers hit cache.  ``repro.graphs.reorder`` provides the
named orderings (``bfs``, ``rcm``, ``degree``, ``random``, ``natural``)
and the serving stack threads a chosen one end to end:

1. **diagnose** — measure ``mean_neighbor_gap`` (mean |u−v| index gap
   over stored arcs) for every registered ordering of a road network,
2. **preprocess reordered** — ``build_kr_graph(..., reorder="rcm")``
   runs the whole (k,ρ)-construction on the renumbered graph and
   records the permutation,
3. **id-transparent serving** — a :class:`RoutingService` over the
   reordered preprocessing answers in *input* ids, bit-identical to an
   unreordered service (asserted here, per engine),
4. **persist** — the permutation rides inside the serving artifact,
   so a warm-started service keeps both the layout and the id mapping.

Run:  python examples/reordering.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import RoutingService, dijkstra
from repro.graphs.generators import road_network
from repro.graphs.reorder import available_orderings, mean_neighbor_gap, reorder_graph
from repro.graphs.weights import random_integer_weights

K, RHO = 2, 16


def main(n: int = 900, k: int = K, rho: int = RHO) -> None:
    g, _coords = road_network(n, seed=3)
    graph = random_integer_weights(g, low=1, high=100, seed=4)
    print(f"road network: {graph.n} vertices, {graph.m} edges")

    # -- 1. the locality diagnostic per ordering -----------------------------
    print("\nmean neighbor index gap (smaller = more cache-local):")
    for method in available_orderings():
        res = reorder_graph(graph, method)
        gap = mean_neighbor_gap(res.graph)
        print(f"  {method:>8}: {gap:8.1f}")

    # -- 2 + 3. reordered preprocessing behind an unchanged API --------------
    plain = RoutingService(graph, k=k, rho=rho, cache_capacity=32)
    reordered = RoutingService(
        graph, k=k, rho=rho, reorder="rcm", cache_capacity=32
    )
    stats = reordered.stats()
    print(
        f"\npreprocessed under 'rcm': locality "
        f"{stats['locality']['before']:.1f} -> {stats['locality']['after']:.1f}"
    )

    ref = dijkstra(graph, 0).dist
    assert np.array_equal(reordered.distances(0), ref)
    assert np.array_equal(plain.distances(0), reordered.distances(0))
    route = reordered.route(0, graph.n - 1)
    assert route.distance == ref[graph.n - 1]
    assert route.path[0] == 0 and route.path[-1] == graph.n - 1
    print("answers in input ids, bit-identical to the unreordered service")

    # -- 4. the permutation persists through artifacts -----------------------
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "road.rcm.npz"
        reordered.save_artifact(artifact)
        warm = RoutingService.from_artifact(artifact, expect_graph=graph)
        assert np.array_equal(warm.distances(7), plain.distances(7))
        assert warm.stats()["reorder"] == "rcm"
        print(
            f"warm start keeps the layout: reorder={warm.stats()['reorder']}, "
            "answers still in input ids"
        )


if __name__ == "__main__":
    main()
