"""Level-synchronous breadth-first search.

The "standard BFS implementation" baseline of Tables 4/5: one parallel
step per level, so the number of rounds equals the eccentricity of the
source.  The frontier expansion is fully vectorized (CSR gather +
``np.unique``) — each round is one data-parallel operation, mirroring the
O(n') work / O(log* n') depth per round the paper cites for CRCW BFS.
"""

from __future__ import annotations

import numpy as np

from ..engine.kernel import gather_frontier_arcs
from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from .result import SsspResult

# Historically defined here; canonical home is now the relaxation kernel.
__all__ = ["bfs", "bfs_levels", "gather_frontier_arcs"]


def bfs_levels(graph: CSRGraph, source: int) -> tuple[np.ndarray, int]:
    """Return ``(levels, rounds)``.

    ``levels[v]`` is the hop distance from ``source`` (-1 when
    unreachable); ``rounds`` is the number of level expansions, i.e. the
    eccentricity of the source — the BFS step count of Table 4's ρ=1 row.
    """
    n = graph.n
    source = check_vertex(source, "source", n)
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    rounds = 0
    while len(frontier):
        arcpos, _ = gather_frontier_arcs(graph, frontier)
        nbrs = graph.indices[arcpos]
        fresh = np.unique(nbrs[levels[nbrs] < 0])
        if len(fresh) == 0:
            break
        rounds += 1
        levels[fresh] = rounds
        frontier = fresh
    return levels, rounds


def bfs(graph: CSRGraph, source: int) -> SsspResult:
    """BFS as an SSSP solver on the unweighted metric (dist = hop count)."""
    levels, rounds = bfs_levels(graph, source)
    dist = levels.astype(np.float64)
    dist[levels < 0] = np.inf
    return SsspResult(
        dist=dist,
        parent=None,
        steps=rounds,
        substeps=rounds,
        max_substeps=1,
        relaxations=int(np.sum(levels >= 0)),
        algorithm="bfs",
        params={"source": source},
    )
