"""The shared relaxation kernel — one substep, one place.

Every stepping engine in this library (Radius-Stepping at any radii,
Bellman–Ford being ``r ≡ ∞``; ∆-, ∆*- and ρ-stepping;
Dijkstra-with-batching) and the landmark baseline's hop-limited rounds
spend their time in the same data-parallel substep: gather the arcs out
of a frontier from the CSR arrays, add tentative distances to arc
weights, and scatter-min the candidates into the distance array — the
paper's priority-write (WriteMin).  :class:`RelaxationKernel` owns that
substep once, together with the state it mutates (distances, parents,
the settled set) and the cross-cutting concerns that ride on it
(relaxation counting, PRAM ledger charging at Section 3.3's costs).

Schedules (:mod:`repro.engine.schedules`) decide *which* vertices to
relax and *when* to settle them; the kernel is the only code that
touches an edge.

Design notes
------------
* ``np.minimum.at`` is an unbuffered scatter: duplicate targets combine
  correctly, exactly like a CRCW priority-write.
* The improved set is read off the per-arc pre-scatter values: a
  vertex's distance strictly drops iff some arc's candidate beats its
  pre-scatter distance, so only those arcs are scattered and their
  heads, deduplicated by :meth:`RelaxationKernel.unique` (a sort and an
  adjacent difference: O(k log k) in the winning arcs, no hashing and
  no O(n) pass), are the improved set.
* Parent tracking uses **strict improvement against the pre-scatter
  distances**: an arc wins ``parent[v]`` only when it actually lowered
  ``δ(v)``.  (The seed engines tested ``cand <= dist_after``, which let
  an arc that merely *tied* a pre-existing distance rewrite the parent
  of an already-correct vertex — on zero-weight ties that could even
  create parent cycles.)
* :func:`gather_frontier_arcs` lives here because it *is* the kernel's
  gather; :mod:`repro.core.bfs` re-exports it for backward
  compatibility.
"""

from __future__ import annotations

import math

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex

__all__ = ["RelaxationKernel", "gather_frontier_arcs"]

_EMPTY = np.empty(0, dtype=np.int64)


def gather_frontier_arcs(
    graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized multi-slice gather of all arcs out of ``frontier``.

    Returns ``(arc_positions, tails)``: flat indices into
    ``graph.indices`` / ``graph.weights`` and the corresponding tail
    vertex for every arc, with no per-vertex Python loop.  This is the
    shared CSR "multi-arange" primitive under every frontier solver.
    """
    starts = graph.indptr[frontier]
    counts = graph.indptr[frontier + 1] - starts
    cum = counts.cumsum()
    total = int(cum[-1]) if len(cum) else 0
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # arc i of frontier vertex j sits at starts[j] + (i - cum[j-1])
    offsets = (starts - (cum - counts)).repeat(counts)
    return np.arange(total, dtype=np.int64) + offsets, frontier.repeat(counts)


class RelaxationKernel:
    """Owns the solver state and the vectorized relax substep.

    Parameters
    ----------
    graph: validated undirected CSR graph with non-negative weights.
    source: source vertex; its distance is fixed at 0 and it starts
        settled.  Checked by :func:`~repro.graphs.validate.check_vertex`
        (a bool or non-integer raises ``TypeError``, an id outside
        ``[0, n)`` ``ValueError``).  ``None`` when ``seeds`` are given.
    seeds: ``(vertices, dists)`` initial tentative distances (finite,
        non-negative; a repeated vertex keeps its least distance) for a
        multi-source solve.  Nothing starts settled, and every seed is a
        parent-forest root until an arc strictly improves it.
    track_parents: allocate and maintain a shortest-path-tree parent
        array.
    ledger: optional :class:`repro.pram.ledger.Ledger`.  When given,
        :meth:`relax` calls that pass a ``charge_label`` charge the
        costs of Section 3.3 (``O(|arcs| log n)`` work, ``O(log n)``
        depth).

    Attributes
    ----------
    dist: tentative distances, ``inf`` when unreached.
    parent: parent array or ``None``.
    settled: boolean settled mask; ``settled_count`` tracks its sum.
    relaxations: total arcs relaxed so far (the work proxy every
        :class:`~repro.core.result.SsspResult` reports).
    """

    __slots__ = (
        "graph",
        "dist",
        "parent",
        "settled",
        "settled_count",
        "relaxations",
        "ledger",
        "logn",
    )

    def __init__(
        self,
        graph: CSRGraph,
        source: int | None,
        *,
        seeds: tuple[np.ndarray, np.ndarray] | None = None,
        track_parents: bool = False,
        ledger=None,
    ) -> None:
        n = graph.n
        self.graph = graph
        self.dist = np.full(n, np.inf)
        self.parent = np.full(n, -1, dtype=np.int64) if track_parents else None
        self.settled = np.zeros(n, dtype=bool)
        if seeds is None:
            source = check_vertex(source, "source", n)
            self.dist[source] = 0.0
            self.settled[source] = True
            self.settled_count = 1
        else:
            if source is not None:
                raise ValueError("pass a source or seeds, not both")
            vertices = np.asarray(seeds[0], dtype=np.int64)
            dists = np.asarray(seeds[1], dtype=np.float64)
            if len(vertices) and not (0 <= vertices.min() and vertices.max() < n):
                raise ValueError(f"seed vertex out of range [0, {n})")
            if not np.all((dists >= 0) & (dists < np.inf)):
                raise ValueError("seed distances must be finite and >= 0")
            np.minimum.at(self.dist, vertices, dists)
            self.settled_count = 0
        self.relaxations = 0
        self.ledger = ledger
        self.logn = max(1.0, math.log2(max(2, n)))

    # ------------------------------------------------------------------ #
    def relax(
        self,
        frontier: np.ndarray,
        *,
        exclude_settled: bool = True,
        arc_mask: np.ndarray | None = None,
        charge_label: str | None = None,
    ) -> tuple[np.ndarray, int]:
        """One gather → scatter-min substep over ``frontier``'s arcs.

        Parameters
        ----------
        frontier: vertex ids whose out-arcs are relaxed.
        exclude_settled: drop arcs whose head is already settled
            (Algorithm 1 relaxes into ``V \\ S_{i-1}`` only).
        arc_mask: optional boolean mask over all arcs (∆-stepping's
            light/heavy classes); arcs where the mask is false are
            skipped.
        charge_label: when set and a ledger is attached, charge
            ``max(1, |arcs|)·log n`` work and ``log n`` depth under this
            label.

        Returns
        -------
        ``(improved, n_arcs)``: the sorted unique vertices whose
        tentative distance strictly decreased, and the number of arcs
        relaxed (after filtering) — callers use ``n_arcs == 0`` as the
        quiescence test.
        """
        graph = self.graph
        arcpos, tails = gather_frontier_arcs(graph, frontier)
        targets = graph.indices[arcpos]
        # Filtered arcs stay in place under a mask: one compaction, of
        # the winning arcs only, is cheaper than compacting every array
        # per filter.
        keep = arc_mask[arcpos] if arc_mask is not None else None
        if exclude_settled:
            unsettled = ~self.settled[targets]
            keep = unsettled if keep is None else keep & unsettled
        n_arcs = len(arcpos) if keep is None else int(np.count_nonzero(keep))
        self.relaxations += n_arcs
        if charge_label is not None and self.ledger is not None:
            self.ledger.charge(
                work=max(1.0, n_arcs) * self.logn,
                depth=self.logn,
                label=charge_label,
            )
        if n_arcs == 0:
            return _EMPTY, 0
        dist = self.dist
        cand = dist[tails] + graph.weights[arcpos]
        # Only arcs beating their head's pre-scatter distance can lower
        # it, so they alone are scattered; their heads are the improved set.
        wins = cand < dist[targets]
        if keep is not None:
            wins &= keep
        idx = wins.nonzero()[0]
        targets = targets[idx]
        cand = cand[idx]
        np.minimum.at(dist, targets, cand)  # WriteMin / priority-write
        if self.parent is not None:
            winners = cand <= dist[targets]
            self.parent[targets[winners]] = tails[idx[winners]]
        return self.unique(targets), n_arcs

    @staticmethod
    def unique(values: np.ndarray) -> np.ndarray:
        """``np.unique`` for int arrays by sort and adjacent difference.

        O(k log k) in the input length, with no hashing and no O(n)
        scratch pass, so tiny frontiers stay cheap.
        """
        values = values.copy()
        values.sort()
        if len(values) > 1:
            keep = np.empty(len(values), dtype=bool)
            keep[0] = True
            np.not_equal(values[1:], values[:-1], out=keep[1:])
            values = values[keep]
        return values

    def relax_source(self, source: int) -> np.ndarray:
        """Algorithm 1, Line 2: relax every arc out of the source.

        Returns the improved vertices (the schedule's first push).
        """
        improved, _ = self.relax(
            np.array([source], dtype=np.int64), exclude_settled=True
        )
        if self.ledger is not None:
            self.ledger.charge(
                work=self.graph.degree(source) * self.logn,
                depth=self.logn,
                label="init",
            )
        return improved

    # ------------------------------------------------------------------ #
    def settle(self, vertices: np.ndarray) -> None:
        """Mark ``vertices`` settled (callers pass unsettled ids only)."""
        if len(vertices):
            self.settled[vertices] = True
            self.settled_count += len(vertices)
