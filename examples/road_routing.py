#!/usr/bin/env python
"""Road-network routing: amortize preprocessing over many queries.

The paper's §5.4 advice: "since preprocessing is only run once, if Sssp
will be run from multiple sources, we suggest increasing ρ and decreasing
k: the cost for preprocessing is amortized over more sources."

This example plays a dispatch service on a synthetic road network (the
library's Delaunay-based stand-in for the SNAP road maps): it preprocesses
once, then answers shortest-path queries from many depot locations,
reporting the per-query step counts — the paper's depth proxy — against
the Dijkstra and ∆-stepping baselines (∆-stepping is the ``delta``
engine: the same Algorithm-1 loop under fixed bucket boundaries, with ∆
from ``suggest_delta``).

Run:  python examples/road_routing.py
"""

import numpy as np

from repro import build_kr_graph, dijkstra, generators, radius_stepping
from repro.engine import solve_with_engine
from repro.graphs import random_integer_weights

NUM_DEPOTS = 8
K, RHO = 3, 48


def main(n: int = 1500, depots: int = NUM_DEPOTS, k: int = K, rho: int = RHO) -> None:
    # -- the network ---------------------------------------------------------
    road, _coords = generators.road_network(n, seed=7)
    graph = random_integer_weights(road, low=1, high=10_000, seed=8)
    print(
        f"road network: {graph.n} vertices, {graph.m} edges "
        f"(avg degree {2 * graph.m / graph.n:.2f})"
    )

    # -- one-time preprocessing ----------------------------------------------
    pre = build_kr_graph(graph, k=k, rho=rho, heuristic="dp")
    print(
        f"preprocessing (k={k}, rho={rho}, DP): "
        f"{pre.new_edges} new edges ({pre.edge_factor:.2f}x m)\n"
    )

    # -- many-source query workload -------------------------------------------
    rng = np.random.default_rng(0)
    depot_ids = rng.choice(graph.n, size=depots, replace=False)

    print(f"{'depot':>6} {'dijkstra':>9} {'delta':>7} {'radius':>7} {'reduction':>10}")
    ratios = []
    for depot in depot_ids:
        base = dijkstra(graph, int(depot))
        ds = solve_with_engine("delta", graph, int(depot))
        rs = radius_stepping(pre.graph, int(depot), pre.radii)
        assert (rs.dist == base.dist).all(), "routing table must be exact"
        ratios.append(base.steps / rs.steps)
        print(
            f"{depot:>6} {base.steps:>9} {ds.steps:>7} {rs.steps:>7} "
            f"{ratios[-1]:>9.0f}x"
        )

    print(
        f"\nmean step reduction over {depots} depots: "
        f"{np.mean(ratios):.0f}x fewer parallel rounds than Dijkstra"
    )
    print(
        "each round is one bulk relaxation (Thm 3.2: <= k+2 substeps), so\n"
        "rounds ~ parallel depth: this is the §5.4 amortization story."
    )


if __name__ == "__main__":
    main()
