"""Radius-Stepping specialized for unweighted graphs (Section 3.4).

On an unweighted graph every tentative distance in a step's frontier is an
integer, and §3.4 observes that the ordered sets Q and R of Algorithm 2
are unnecessary: "all vertices in the frontier have the same tentative
distances … a similar approach to parallel BFS can be directly used", for
O(m + n) work and O((n/ρ) log ρ log*ρ) depth (Lemma 3.10).

This engine is that specialization: the unsettled-reached frontier lives
in a flat vertex array, the round distance ``d_i`` is one priority-write
(a vectorized min of ``δ(v) + r(v)`` over the frontier), and each substep
is one BFS-style kernel relaxation (CSR gather + scatter-min via
:class:`repro.engine.kernel.RelaxationKernel`).  No heap, no tree, no
per-edge Python — and no ``log n`` ledger factors: this module charges
the flat Lemma 3.10 costs itself instead of using the kernel's weighted
charging.

It must agree *exactly* — distances, steps, substeps — with the general
engine run on the same unit-weight graph; the cross-validation lives in
``tests/core/test_radius_stepping_unweighted.py``.
"""

from __future__ import annotations

import numpy as np

from ..engine.kernel import RelaxationKernel
from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from .radius_stepping import as_radii
from .result import SsspResult, StepTrace

__all__ = ["radius_stepping_unweighted"]


def radius_stepping_unweighted(
    graph: CSRGraph,
    source: int,
    radii: float | np.ndarray | None,
    *,
    track_trace: bool = False,
    ledger=None,
) -> SsspResult:
    """Run the §3.4 BFS-style Radius-Stepping from ``source``.

    Parameters
    ----------
    graph: validated undirected CSR graph with **unit weights** (raises
        ``ValueError`` otherwise — use :func:`repro.graphs.unit_weights`
        to strip weights first).
    source: source vertex id.
    radii: per-vertex radius ``r(·)`` on the hop metric (see
        :func:`repro.core.radius_stepping.as_radii`).
    track_trace: record a per-step :class:`StepTrace`.
    ledger: optional :class:`repro.pram.ledger.Ledger`; charges the
        unweighted costs of Lemma 3.10 — O(n') work and O(log* n') depth
        per round instead of the weighted engine's O(log n) tree factors.

    Returns
    -------
    :class:`SsspResult` with hop distances (``inf`` when unreachable).
    """
    n = graph.n
    source = check_vertex(source, "source", n)
    if not graph.is_unweighted:
        raise ValueError(
            "radius_stepping_unweighted requires unit weights; "
            "see repro.graphs.unit_weights"
        )
    r = as_radii(graph, radii)
    # log*: effectively <= 5 for any feasible n; charged as a constant.
    log_star = 5.0 if n > 65536 else 4.0

    kernel = RelaxationKernel(graph, source)
    dist = kernel.dist
    settled = kernel.settled
    reached = np.zeros(n, dtype=bool)
    reached[source] = True

    # Line 2: relax N(s).  On the unit metric every neighbor lands at 1.
    frontier = kernel.relax_source(source, charge=False)
    reached[frontier] = True
    if ledger is not None:
        ledger.charge(work=float(graph.degree(source)), depth=log_star, label="init")

    steps = substeps_total = max_substeps = 0
    trace: list[StepTrace] | None = [] if track_trace else None

    while kernel.settled_count < n and len(frontier):
        # ---- Line 4: d_i by one priority-write over the frontier --------
        d_i = float(np.min(dist[frontier] + r[frontier]))
        if ledger is not None:
            ledger.charge(work=float(len(frontier)), depth=log_star, label="round min")

        changed = frontier[dist[frontier] <= d_i]
        step_settles = [changed]
        relax_before = kernel.relaxations
        substeps = 0

        # ---- Lines 5–9: BFS-style substeps until stable ≤ d_i ------------
        while len(changed):
            substeps += 1
            improved, n_arcs = kernel.relax(changed, exclude_settled=True)
            if ledger is not None:
                ledger.charge(
                    work=float(max(1, n_arcs)),
                    depth=log_star,
                    label="substep relax",
                )
            if n_arcs == 0:
                break
            # frontier bookkeeping: first-touch vertices enter the frontier
            first_touch = improved[~reached[improved]]
            reached[improved] = True
            if len(first_touch):
                frontier = np.union1d(frontier, first_touch)
            within = improved[dist[improved] <= d_i]
            changed = within
            if len(within):
                step_settles.append(within)

        # ---- Line 10: settle S_i -----------------------------------------
        newly = (
            np.unique(np.concatenate(step_settles))
            if step_settles
            else np.empty(0, np.int64)
        )
        newly = newly[~settled[newly]]
        kernel.settle(newly)
        frontier = frontier[~settled[frontier]]
        steps += 1
        substeps_total += substeps
        max_substeps = max(max_substeps, substeps)
        if trace is not None:
            trace.append(
                StepTrace(
                    step=steps - 1,
                    radius=d_i,
                    substeps=substeps,
                    settled=len(newly),
                    relaxations=kernel.relaxations - relax_before,
                )
            )
        if len(newly) == 0:
            raise RuntimeError("radius-stepping made no progress (empty step)")

    return SsspResult(
        dist=dist,
        parent=None,
        steps=steps,
        substeps=substeps_total,
        max_substeps=max_substeps,
        relaxations=kernel.relaxations,
        algorithm="radius-stepping-unweighted",
        params={"source": source},
        trace=trace,
    )
