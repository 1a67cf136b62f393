"""Step schedules — Algorithm 1 parameterized over "what is d_i?".

The paper's Algorithm 1 is one relaxation loop whose only degree of
freedom is the round distance ``d_i`` chosen on Line 4 (and, dually,
which vertices form the initial active set of Lines 5–9).  Dong, Gu &
Sun's stepping framework (arXiv:2105.06145) makes the same observation:
Dijkstra, ∆-stepping and ρ-stepping are *step schedules* plugged into
one lazy-batched engine, and the schedule is separate from the
structure that serves it.  This module is that factoring for this
library: a :class:`StepSchedule` answers three questions —

* :meth:`~StepSchedule.next_bound` — Line 4's extract-min: the next
  ``d_i`` (``None`` when every reachable vertex is settled);
* :meth:`~StepSchedule.split_active` — Line 5: the unsettled vertices
  with ``δ(v) ≤ d_i`` that seed the substep loop;
* :meth:`~StepSchedule.push` — the decrease-key hook: vertices whose
  tentative distance just improved.

and :func:`repro.engine.driver.run_engine` supplies the loop.  Concrete
schedules:

========================  ====================================================
:class:`RadiusBucketSchedule`  Radius-Stepping: ``d_i = min(δ + r)`` over the
                           flat frontier, split at ``d_i``.
:class:`DijkstraSchedule`  ``r ≡ 0``: equal-distance batched Dijkstra on
                           one lazy binary heap (R and Q coincide).
:class:`DeltaSchedule`     fixed bucket boundaries ``d_i = (j+1)·∆``.
:class:`DeltaStarSchedule` ∆*-stepping: floating window ``d_i = min + ∆``
                           with a light/heavy arc split.
:class:`RhoSchedule`       ρ-stepping: ``d_i`` = the ρ-th smallest frontier
                           distance (``np.partition`` over the frontier).
========================  ====================================================

Bellman–Ford is ``RadiusBucketSchedule(math.inf)``: ``d_i = ∞``, so one
step whose substeps are the rounds.  §3.4's unweighted variant is the
radius schedule too: its flat BFS-style frontier (Lemma 3.10) is the
frontier below, at any weights.  Of the radius choices only ``r ≡ 0``
keeps a structure of its own, :class:`DijkstraSchedule`'s heap: each of
its steps settles a single distance, where a few pops cost less than a
scan of the whole frontier.

The radius, ∆, ∆* and ρ schedules share one *flat frontier*: the
reached, unsettled vertices, appended as segments on first touch and
compacted (settled vertices dropped) when a step reads them.  Every
reached, unsettled vertex is exactly one fresh entry of Algorithm 2's
ordered sets, so a vectorized min, partition or filter over the
frontier yields the same ``d_i`` and the same split as extract-min and
split on ordered sets.  That costs O(|frontier|) per step: an
implementation choice the measurements judge, not the PRAM bound of
the treap reference (:mod:`repro.core.radius_stepping_bst`).

Custom schedules only need the four-method protocol — see
``examples/engine_plugins.py`` for a worked third-party schedule.
"""

from __future__ import annotations

import heapq
import math
from typing import Protocol, runtime_checkable

import numpy as np

from .kernel import RelaxationKernel

__all__ = [
    "StepSchedule",
    "RadiusBucketSchedule",
    "DijkstraSchedule",
    "DeltaSchedule",
    "DeltaStarSchedule",
    "RhoSchedule",
    "as_radii",
    "default_rho",
    "suggest_delta",
]

_EMPTY = np.empty(0, dtype=np.int64)


@runtime_checkable
class StepSchedule(Protocol):
    """What a scheduling plugin must provide to drive the engine."""

    #: short name, used as the default ``SsspResult.algorithm`` suffix.
    name: str

    def bind(self, kernel: RelaxationKernel) -> None:
        """Attach to a fresh kernel before the run starts."""

    def push(self, improved: np.ndarray) -> None:
        """Decrease-key: these vertices' tentative distances improved."""

    def next_bound(self) -> float | None:
        """Line 4: the next round distance, or ``None`` when done."""

    def split_active(self, bound: float) -> np.ndarray:
        """Line 5: unsettled vertices with ``δ(v) ≤ bound``."""


def as_radii(graph, radii: float | np.ndarray | None) -> np.ndarray:
    """Normalize a radii spec to a per-vertex float array.

    ``None`` means zero radii (Dijkstra-like); a scalar is broadcast; an
    array is validated for shape and non-negativity.  ``inf`` entries are
    allowed (Bellman–Ford-like behaviour for those vertices).
    """
    n = graph.n
    if radii is None:
        return np.zeros(n)
    if np.isscalar(radii):
        val = float(radii)  # type: ignore[arg-type]
        if val < 0 or math.isnan(val):
            raise ValueError("radius must be non-negative")
        return np.full(n, val)
    arr = np.asarray(radii, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"radii must have shape ({n},), got {arr.shape}")
    if np.any(arr < 0) or np.any(np.isnan(arr)):
        raise ValueError("radii must be non-negative and not NaN")
    return arr


def default_rho(graph) -> int:
    """Batch-size heuristic for :class:`RhoSchedule`.

    ρ trades step count (≈ n/ρ steps) against wasted intra-batch
    re-relaxations; for an interpreter-bound engine the per-step
    dispatch overhead dominates long before the wasted work does, so
    the default leans large: a constant number of steps (n/16) with a
    floor of 64 so tiny graphs still batch.  Dong, Gu & Sun tune ρ in
    the millions for the same reason on native code — the right value
    is workload-specific.
    """
    return max(64, -(-graph.n // 16))


class _FlatFrontier:
    """The reached, unsettled vertices: the one structure behind the
    radius, ∆, ∆* and ρ schedules.

    :meth:`push` appends each first-touched vertex once, as one array
    segment per call; each step concatenates the segments and drops
    settled vertices.  Subclasses give the rule for ``d_i`` as
    ``_bound(dist, frontier)`` over a non-empty compacted frontier and
    its tentative distances.
    """

    def bind(self, kernel: RelaxationKernel) -> None:
        self._kernel = kernel
        self._reached = kernel.settled.copy()
        self._segments: list[np.ndarray] = []

    def push(self, improved: np.ndarray) -> None:
        first_touch = improved[~self._reached[improved]]
        if len(first_touch):
            self._reached[first_touch] = True
            self._segments.append(first_touch)

    def _compact(self) -> np.ndarray:
        """The reached, unsettled vertices, compacted into one segment."""
        segments = self._segments
        if not segments:
            return _EMPTY
        frontier = segments[0] if len(segments) == 1 else np.concatenate(segments)
        frontier = frontier[~self._kernel.settled[frontier]]
        self._segments = [frontier]
        return frontier

    def next_bound(self) -> float | None:
        frontier = self._compact()
        if len(frontier) == 0:
            return None
        return self._bound(self._kernel.dist[frontier], frontier)

    def split_active(self, bound: float) -> np.ndarray:
        frontier = self._compact()
        dist = self._kernel.dist[frontier]
        below = dist <= bound
        active = frontier[below]
        self._segments = [frontier[~below]]
        # Q's (δ(v), v) key order, so downstream arc order (and with it
        # parent tie-breaks) does not depend on discovery order
        return active[np.lexsort((active, dist[below]))]


class RadiusBucketSchedule(_FlatFrontier):
    """Radius-Stepping: Algorithm 2's two ordered sets on the flat frontier.

    Algorithm 2 keeps ``R`` keyed by ``δ(v) + r(v)``, whose minimum is
    Line 4's ``d_i``, and ``Q`` keyed by ``δ(v)``, split at ``d_i`` for
    Line 5's active set.  Each reached, unsettled vertex holds exactly
    one fresh key in each, so ``d_i`` is ``min(δ + r)`` over the
    frontier (``∞`` when every key is ``∞``) and the split is a filter
    by ``δ(v) ≤ d_i`` — the treap reference's ``d_i`` sequence and
    splits exactly
    (:func:`repro.core.radius_stepping_bst.radius_stepping_bst`, pinned
    by the engine tests).

    ``radii`` is anything :func:`as_radii` takes: ``None`` (r ≡ 0), a
    scalar (``math.inf`` is Bellman–Ford) or a per-vertex array.
    """

    name = "radius-bucket"

    def __init__(self, radii: float | np.ndarray | None) -> None:
        self._radii = radii

    def bind(self, kernel: RelaxationKernel) -> None:
        super().bind(kernel)
        self.r = as_radii(kernel.graph, self._radii)

    def _bound(self, dist: np.ndarray, frontier: np.ndarray) -> float:
        return float((dist + self.r[frontier]).min())


class DijkstraSchedule:
    """``r ≡ 0``: Dijkstra with equal-distance extractions batched into
    one step (the ρ=1 baseline of Tables 6/7).

    With zero radii Algorithm 2's ``R`` and ``Q`` hold the same keys, so
    one lazy binary heap keyed by ``δ(v)`` serves both: its minimum is
    ``d_i`` and the split pops every fresh entry at ``d_i``.  Decrease-key
    is a re-push; an entry is stale once its vertex settled or its key
    no longer equals ``δ(v)``.  Every step here settles a single
    distance, where a few ``heappop`` calls cost less than a scan of
    the whole frontier.
    """

    name = "dijkstra"

    def bind(self, kernel: RelaxationKernel) -> None:
        self._kernel = kernel
        self._heap: list[tuple[float, int]] = []

    def push(self, improved: np.ndarray) -> None:
        heap = self._heap
        keys = self._kernel.dist[improved].tolist()
        for key, v in zip(keys, improved.tolist()):
            heapq.heappush(heap, (key, v))

    def next_bound(self) -> float | None:
        heap = self._heap
        dist, settled = self._kernel.dist, self._kernel.settled
        while heap:
            key, v = heap[0]
            if settled[v] or key != dist[v]:
                heapq.heappop(heap)  # stale (settled or superseded)
                continue
            return key
        return None

    def split_active(self, bound: float) -> np.ndarray:
        heap = self._heap
        dist, settled = self._kernel.dist, self._kernel.settled
        active: list[int] = []
        while heap and heap[0][0] <= bound:
            key, v = heapq.heappop(heap)
            if not settled[v] and key == dist[v]:  # fresh
                active.append(v)
        return np.array(active, dtype=np.int64)


def suggest_delta(graph) -> float:
    """Meyer & Sanders' rule of thumb ∆ = Θ(1 / max degree) scaled by the
    mean edge weight — :class:`DeltaSchedule`'s default when no tuning
    is done.

    Always positive and finite: degenerate weight ranges (edgeless
    graphs, or all-zero weights where ``min_positive_weight`` is ``inf``
    and the mean is 0) clamp to a floor of 1.0, so the bucket index in
    :meth:`DeltaSchedule._bound` is always defined.
    """
    deg = max(1, int(graph.degrees().max()) if graph.n else 1)
    mean_w = float(graph.weights.mean()) if graph.num_arcs else 1.0
    delta = max(graph.min_positive_weight, mean_w * 2.0 / deg)
    if not (delta > 0 and math.isfinite(delta)):
        return 1.0
    return delta


class DeltaSchedule(_FlatFrontier):
    """∆-stepping (Meyer & Sanders) as a step schedule.

    ``d_i`` is the upper boundary ``(j+1)·∆`` of the lowest non-empty
    distance bucket, i.e. of the frontier's minimum ``δ``.  Unlike the
    classic light/heavy formulation, all arcs of the active set are
    relaxed together and vertices landing exactly on a boundary settle
    with the lower bucket; :class:`DeltaStarSchedule` keeps the
    light/heavy split.
    """

    name = "delta"

    def __init__(self, delta: float | None = None) -> None:
        if delta is not None and not (delta > 0 and math.isfinite(delta)):
            raise ValueError("delta must be positive and finite")
        self._delta = delta

    def bind(self, kernel: RelaxationKernel) -> None:
        super().bind(kernel)
        self.delta = self._delta or suggest_delta(kernel.graph)

    def _bound(self, dist: np.ndarray, frontier: np.ndarray) -> float:
        return (math.floor(float(dist.min()) / self.delta) + 1) * self.delta


class DeltaStarSchedule(DeltaSchedule):
    """∆*-stepping — a floating ``min + ∆`` window with a light/heavy split.

    Dong, Gu & Sun's ∆*-variant of ∆-stepping: instead of
    :class:`DeltaSchedule`'s fixed boundaries ``(j+1)·∆``, each step
    processes every frontier vertex within ``∆`` of the current frontier
    *minimum* — ``d_i = min δ(frontier) + ∆`` — so sparse distance
    ranges never spin through empty windows and every step is at least
    ∆ deep regardless of where the frontier sits.

    Substeps relax **light arcs only** (``w ≤ ∆``, the Kranjčević et
    al. shared-memory ∆-stepping batching, arXiv:1604.02113): an active
    vertex has ``δ(u) ≥ min``, so a heavy arc's candidate lands at
    ``δ(u) + w > min + ∆ = d_i`` — strictly beyond the settling bound,
    irrelevant inside the step.  Heavy arcs are relaxed exactly once
    per vertex, in one batch as the step's vertices settle
    (:meth:`finish_step`), when their tail's distance is final.
    """

    name = "delta-star"

    def bind(self, kernel: RelaxationKernel) -> None:
        super().bind(kernel)
        #: driver hook — substeps relax only these arcs (the light class)
        self.substep_arc_mask = kernel.graph.weights <= self.delta
        self._heavy = ~self.substep_arc_mask
        self._has_heavy = bool(self._heavy.any())

    def _bound(self, dist: np.ndarray, frontier: np.ndarray) -> float:
        return float(dist.min()) + self.delta

    def finish_step(self, settled: np.ndarray) -> None:
        """Driver hook (Line 10): one batched heavy-arc relaxation over
        the step's newly settled vertices, at their final distances."""
        if not self._has_heavy or len(settled) == 0:
            return
        improved, _ = self._kernel.relax(
            settled,
            exclude_settled=True,
            arc_mask=self._heavy,
            charge_label="heavy relax",
        )
        self.push(improved)


class RhoSchedule(_FlatFrontier):
    """ρ-stepping — settle the ρ nearest frontier vertices per step.

    Dong, Gu & Sun's other sibling: ``d_i`` is the ρ-th smallest
    tentative distance on the unsettled frontier (the largest when the
    frontier holds fewer than ρ), found by one O(|frontier|)
    ``np.partition``.  Each step then settles exactly those ρ vertices
    (plus boundary ties), interpolating between Dijkstra (ρ = 1, one
    extract-min per step) and Bellman–Ford (ρ = n, everything at once);
    the engine's substep loop keeps any choice exact, so larger ρ
    trades wasted intra-batch re-relaxations for fewer, fatter steps.
    """

    name = "rho"

    def __init__(self, rho: int | None = None) -> None:
        if rho is not None and rho < 1:
            raise ValueError(f"rho >= 1 required, got {rho}")
        self._rho = rho

    def bind(self, kernel: RelaxationKernel) -> None:
        super().bind(kernel)
        self.rho = self._rho or default_rho(kernel.graph)

    def _bound(self, dist: np.ndarray, frontier: np.ndarray) -> float:
        if len(dist) <= self.rho:
            return float(dist.max())
        return float(np.partition(dist, self.rho - 1)[self.rho - 1])
