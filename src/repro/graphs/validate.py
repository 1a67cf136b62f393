"""Structural validation for CSR graphs and the vertex ids queried on them.

The paper assumes a connected, simple, undirected graph whose lightest
non-zero edge weight is 1 (Section 1).  These helpers enforce (and can
restore, via :func:`normalize_weights`) those preconditions, and
:func:`check_vertex` is the one vertex-id check every query entry point
runs — the solver facade, the query planner and the shard router.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GraphValidationError",
    "check_vertex",
    "coerce_vertex",
    "validate_csr_arrays",
    "validate_graph",
    "check_min_weight_normalized",
    "normalize_weights",
]


class GraphValidationError(ValueError):
    """Raised when graph arrays violate a structural invariant."""


def coerce_vertex(value, what: str) -> int:
    """Strict vertex-id coercion for query entry points.

    ``bool`` is an ``int`` subclass, so ``True`` would silently become
    vertex 1 under a plain ``isinstance(..., int)`` check — reject it
    (and anything non-integral) instead of guessing."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"{what} must be an integer vertex id, not a bool")
    if not isinstance(value, (int, np.integer)):
        raise TypeError(
            f"{what} must be an integer vertex id, got "
            f"{type(value).__name__} {value!r}"
        )
    return int(value)


def check_vertex(value, what: str, n: int) -> int:
    """Type- and range-check a query vertex up front; returns it as an
    ``int``.  numpy would accept a negative index and silently serve
    the answer for vertex ``n + v``, and ``bool`` would silently mean
    vertex 0/1 — unacceptable from a query API."""
    v = coerce_vertex(value, what)
    if not 0 <= v < n:
        raise ValueError(
            f"{what} {v} out of range for a graph with n={n} vertices"
        )
    return v


def validate_csr_arrays(indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> None:
    """Validate raw CSR arrays; raise :class:`GraphValidationError` on issues.

    Checks: dtype shapes, monotone ``indptr``, index bounds, no self loops,
    non-negative finite weights, and arc symmetry (each arc ``(u, v, w)``
    must have a matching ``(v, u, w)``).
    """
    if indptr.ndim != 1 or len(indptr) < 1:
        raise GraphValidationError("indptr must be a 1-D array of length n+1 >= 1")
    if indptr[0] != 0:
        raise GraphValidationError("indptr[0] must be 0")
    if np.any(np.diff(indptr) < 0):
        raise GraphValidationError("indptr must be non-decreasing")
    if indptr[-1] != len(indices):
        raise GraphValidationError(
            f"indptr[-1]={indptr[-1]} does not match len(indices)={len(indices)}"
        )
    if len(indices) != len(weights):
        raise GraphValidationError("indices and weights must have equal length")
    n = len(indptr) - 1
    if len(indices):
        if indices.min() < 0 or indices.max() >= n:
            raise GraphValidationError("arc head out of range")
    if np.any(~np.isfinite(weights)):
        raise GraphValidationError("weights must be finite")
    if np.any(weights < 0):
        raise GraphValidationError("weights must be non-negative (SSSP precondition)")

    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if np.any(tails == indices):
        raise GraphValidationError("self loops are not allowed (simple graph)")

    # Symmetry: the multiset of (tail, head, weight) must equal the multiset
    # of (head, tail, weight).  Sort both and compare.
    fwd = np.lexsort((weights, indices, tails))
    rev = np.lexsort((weights, tails, indices))
    if not (
        np.array_equal(tails[fwd], indices[rev])
        and np.array_equal(indices[fwd], tails[rev])
        and np.array_equal(weights[fwd], weights[rev])
    ):
        raise GraphValidationError("arc list is not symmetric: graph must be undirected")

    # Simplicity: no duplicate (tail, head) pairs.
    order = np.lexsort((indices, tails))
    st, si = tails[order], indices[order]
    dup = (st[1:] == st[:-1]) & (si[1:] == si[:-1])
    if np.any(dup):
        raise GraphValidationError("parallel edges are not allowed (simple graph)")


def validate_graph(graph) -> None:
    """Validate an already-constructed :class:`~repro.graphs.csr.CSRGraph`."""
    validate_csr_arrays(graph.indptr, graph.indices, graph.weights)


def check_min_weight_normalized(graph, *, tol: float = 1e-12) -> bool:
    """True when the lightest non-zero edge weight equals 1 (paper WLOG)."""
    w = graph.min_positive_weight
    return w == float("inf") or abs(w - 1.0) <= tol


def normalize_weights(graph):
    """Rescale weights so the lightest non-zero weight is exactly 1.

    Returns a new graph; shortest-path structure is unchanged (uniform
    scaling), and the paper's ``L`` becomes ``max_weight / min_weight``.
    Zero-weight edges (allowed by the algorithm) are preserved.
    """
    from .csr import CSRGraph

    scale = graph.min_positive_weight
    if scale == float("inf") or scale == 1.0:
        return graph
    return CSRGraph(
        graph.indptr, graph.indices, graph.weights / scale, validate=False
    )
