"""SciPy reference distances and the checks every recorded answer passes.

The oracle is ``scipy.sparse.csgraph.dijkstra`` (compiled C) on the
*input* graph, never on anything the program built.  Workload weights
are integers, so every exact shortest-path distance is an exactly
representable float and answers are compared with ``==``, not a
tolerance.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: rows solved per SciPy call: bounds oracle memory to CHUNK * n floats
CHUNK = 64


def as_matrix(graph) -> csr_matrix:
    """The CSR arrays of a ``repro`` graph as a SciPy sparse matrix."""
    return csr_matrix(
        (graph.weights, graph.indices, graph.indptr), shape=(graph.n, graph.n)
    )


def reference_rows(matrix: csr_matrix, sources):
    """Yield ``(source, distance row)`` once per distinct source."""
    uniq = np.unique(np.asarray(list(sources), dtype=np.int64))
    for lo in range(0, len(uniq), CHUNK):
        block = uniq[lo : lo + CHUNK]
        rows = np.atleast_2d(dijkstra(matrix, indices=block))
        yield from zip(block.tolist(), rows)


class ArcIndex:
    """The arcs of a built (augmented) graph in input vertex ids, each
    vertex pair with its lightest weight: a hop of a shortest path is an
    arc no parallel arc undercuts.  ``inv_perm`` maps the graph's ids to
    input ids (``None``: they are the same)."""

    def __init__(self, graph, inv_perm) -> None:
        tails = np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))
        heads = np.asarray(graph.indices, dtype=np.int64)
        if inv_perm is not None:
            tails, heads = inv_perm[tails], inv_perm[heads]
        keys = tails * graph.n + heads
        order = np.lexsort((graph.weights, keys))
        self._keys, first = np.unique(keys[order], return_index=True)
        self._weights = np.asarray(graph.weights)[order][first]
        self._n = graph.n

    def weights(self, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """Lightest weight of each arc ``tails[i] -> heads[i]``; NaN
        where there is no such arc."""
        keys = tails * self._n + heads
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[at] == keys, self._weights[at], np.nan)


def check_answer(kind: str, body: bytes, row: np.ndarray, source: int, arg: int,
                 arcs: ArcIndex | None) -> bool:
    """True when an HTTP answer body is exactly right for the oracle
    ``row``.  ``arg`` is the route target or the nearest-``k``; unused
    for ``distances``.  ``arcs``, or ``None``, is the graph route
    paths must walk (see :func:`check_route`)."""
    try:
        payload = json.loads(body)
        if kind == "route":
            return check_route(payload, row, source, arg, arcs)
        if kind == "nearest":
            return check_nearest(payload, row, source, arg)
        return check_distances(payload, row, source)
    except (ValueError, KeyError, TypeError):
        return False


def check_route(payload: dict, row: np.ndarray, source: int, target: int,
                arcs: ArcIndex | None) -> bool:
    """Distance equal to the oracle, and a path from ``source`` to
    ``target``.  With ``arcs`` every hop ``(u, v)`` must be an arc of
    that graph weighing exactly ``row[v] - row[u]``.  Without it (a
    stitched path, whose composite hops are in no single graph) the
    oracle distance must strictly grow along the path: every weight is
    >= 1, so each hop of a shortest path adds at least 1."""
    if payload["source"] != source or payload["target"] != target:
        return False
    want = row[target]
    if not np.isfinite(want):
        return payload["distance"] is None
    if payload["distance"] != want or payload["path"] is None:
        return False
    path = np.asarray(payload["path"], dtype=np.int64)
    if len(path) == 0 or path[0] != source or path[-1] != target:
        return False
    if path.min() < 0 or path.max() >= len(row):
        return False
    steps = np.diff(row[path])
    if arcs is None:
        return bool(np.all(steps > 0))
    return bool(np.array_equal(arcs.weights(path[:-1], path[1:]), steps))


def check_nearest(payload: dict, row: np.ndarray, source: int, k: int) -> bool:
    """The ``k`` smallest reachable distances (source excluded), each
    belonging to the vertex it is reported with."""
    verts = np.asarray(payload["vertices"], dtype=np.int64)
    dists = np.asarray(payload["distances"], dtype=np.float64)
    others = np.flatnonzero(np.isfinite(row))
    others = others[others != source]
    want = np.sort(row[others])[: min(k, len(others))]
    return bool(
        payload["source"] == source
        and len(verts) == len(want)
        and len(np.unique(verts)) == len(verts)
        and not np.any(verts == source)
        and np.array_equal(dists, want)
        and np.array_equal(row[verts], dists)
    )


def check_distances(payload: dict, row: np.ndarray, source: int) -> bool:
    """The full row, ``null`` standing for unreachable."""
    got = np.array(
        [np.inf if d is None else d for d in payload["distances"]], dtype=np.float64
    )
    return payload["source"] == source and np.array_equal(got, row)
