"""Radius-Stepping (Algorithm 1) — the paper's main contribution.

The solver settles vertices in annuli: on step *i* it picks the round
distance ``d_i = min_{v unsettled} (δ(v) + r(v))`` (Line 4) and runs
Bellman–Ford substeps until every tentative distance ≤ ``d_i`` is stable
(Lines 5–9), then settles all vertices within ``d_i``.

* ``r(v) = 0``      → Dijkstra with equal-distance batching,
* ``r(v) = ∞``      → Bellman–Ford (one step),
* ``r(v) = ∆``      → almost ∆-stepping (∆ added to the nearest frontier
  vertex rather than to ``d_{i-1}``),
* ``r(v) = r_ρ(v)`` from :mod:`repro.preprocess` → the paper's bounds:
  ≤ k+2 substeps per step on a (k,ρ)-graph (Thm 3.2) and
  ≤ ⌈n/ρ⌉(1+⌈log₂ ρL⌉) steps (Thm 3.3).

Engineering
-----------
This function is a thin adapter over the unified relaxation engine in
:mod:`repro.engine`: the generic Algorithm-1 loop
(:func:`repro.engine.driver.run_engine`) runs under a
:class:`repro.engine.schedules.RadiusBucketSchedule`, which serves
Algorithm 2's two ordered sets — ``R`` keyed by ``δ(v) + r(v)`` yields
``d_i`` (its *extract-min*) and ``Q`` keyed by ``δ(v)`` yields the
active set (its *split* at ``d_i``) — from one flat array of the
reached, unsettled vertices: ``d_i`` is a vectorized min over it and
the split a filter, in O(|frontier|) per step.  That flat frontier is
§3.4's BFS-style frontier for unweighted graphs (Lemma 3.10), used here
at any weights, so unit-weight graphs need no engine of their own.
Swap the schedule to change the algorithm: the ∆-stepping and Dijkstra
baselines are one-class schedule plugins over the same loop, and
Bellman–Ford is this schedule at ``r ≡ ∞``.  The faithful treap-based
engine with parallel split/union/difference and PRAM cost accounting
lives in :mod:`repro.core.radius_stepping_bst`.

Each substep is one data-parallel relaxation owned by
:class:`repro.engine.kernel.RelaxationKernel`: a CSR multi-gather of
the changed frontier's arcs followed by a ``np.minimum.at`` scatter-min
— the paper's priority-write (WriteMin) — with no per-edge Python work,
plus parent tracking (strict-improvement wins only) and optional
:class:`~repro.pram.ledger.Ledger` charging of the Section 3.3 PRAM
work/depth formulas for every bulk operation.
"""

from __future__ import annotations

import numpy as np

from ..engine.driver import run_engine
from ..engine.schedules import RadiusBucketSchedule
from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from .result import SsspResult

__all__ = ["radius_stepping"]


def radius_stepping(
    graph: CSRGraph,
    source: int,
    radii: float | np.ndarray | None,
    *,
    track_parents: bool = False,
    track_trace: bool = False,
    ledger=None,
    algorithm_name: str = "radius-stepping",
) -> SsspResult:
    """Run Radius-Stepping from ``source`` with vertex radii ``radii``.

    Parameters
    ----------
    graph: validated undirected CSR graph with non-negative weights.
    source: source vertex id.
    radii: per-vertex radius ``r(·)`` (see
        :func:`~repro.engine.schedules.as_radii`).  Correctness
        holds for *any* non-negative radii (§3: "The algorithm is correct
        for any radii r(·)"); the step/substep bounds need the
        (k,ρ)-graph preconditions established by :mod:`repro.preprocess`.
    track_parents: record a shortest-path tree.
    track_trace: record a per-step :class:`~repro.core.result.StepTrace`
        (the data behind Figure 1's illustration).
    ledger: optional :class:`repro.pram.ledger.Ledger`; when given, every
        bulk operation charges the PRAM work/depth costs of Section 3.3.

    Returns
    -------
    :class:`SsspResult` with exact distances (``inf`` when unreachable)
    and step/substep/relaxation instrumentation.
    """
    source = check_vertex(source, "source", graph.n)
    return run_engine(
        graph,
        source,
        RadiusBucketSchedule(radii),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        algorithm_name=algorithm_name,
        params={"source": source},
    )
