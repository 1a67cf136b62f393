"""Radius-Stepping on balanced BSTs — a faithful Algorithm 2.

This is the paper's "efficient implementation" verbatim: the tentative
distances of unvisited vertices live in two ordered sets,

* ``Q`` keyed by ``(δ(u), u)`` and
* ``R`` keyed by ``(δ(u) + r(u), u)``,

both balanced BSTs (treaps from :mod:`repro.pram.treap`).  Each step
extracts ``d_i`` as R's minimum (Line 6), splits Q at ``d_i`` to obtain the
active set ``A_i`` (Line 7), removes ``A_i`` from R (Line 8), and then runs
the k+2-bounded relaxation substeps with the three-way case analysis of
Lines 10–18.  Substep set maintenance uses the bulk union/difference path
of Section 3.3, so a :class:`~repro.pram.ledger.Ledger` attached here
measures exactly the O(k m log n) work and O(k (n/ρ) log n log ρL) depth
the paper proves.

This engine is the *reference semantics*: it is deliberately simple
(per-edge Python relaxation inside substeps) and is cross-validated against
the vectorized engine in :mod:`repro.core.radius_stepping`, which must
produce identical distances, steps, and substep counts.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from ..pram.ledger import Ledger
from ..pram.ordered_set import VertexKeyedSet
from ..engine.schedules import as_radii
from .result import SsspResult, StepTrace

__all__ = ["radius_stepping_bst"]


def radius_stepping_bst(
    graph: CSRGraph,
    source: int,
    radii: float | np.ndarray | None,
    *,
    track_trace: bool = False,
    ledger: Ledger | None = None,
) -> SsspResult:
    """Run Algorithm 2 from ``source``; see module docstring.

    Intended for validation, teaching, and PRAM cost measurement — use
    :func:`repro.core.radius_stepping.radius_stepping` for large runs.
    """
    n = graph.n
    source = check_vertex(source, "source", n)
    r = as_radii(graph, radii)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    settled = np.zeros(n, dtype=bool)
    settled[source] = True

    # Lines 3–4: Q and R start with the relaxed neighbors of the source.
    Q = VertexKeyedSet(ledger=ledger, label="Q")
    R = VertexKeyedSet(ledger=ledger, label="R")
    for j in range(indptr[source], indptr[source + 1]):
        v = int(indices[j])
        w = float(weights[j])
        if w < dist[v]:
            dist[v] = w
    for j in range(indptr[source], indptr[source + 1]):
        v = int(indices[j])
        if not settled[v] and v not in Q:
            Q.insert(v, dist[v])
            R.insert(v, dist[v] + r[v])

    steps = substeps_total = max_substeps = relaxations = 0
    trace: list[StepTrace] | None = [] if track_trace else None

    # Line 5: while |Q| > 0
    while len(Q):
        d_i, _ = R.min()  # Line 6
        taken = Q.split_leq(d_i)  # Line 7
        active = [v for _, v in taken]
        R.difference_vertices(active)  # Line 8 (bulk removal)
        active_set = set(active)

        substeps = 0
        step_relax = 0
        while True:  # Lines 9–19 repeat-until
            substeps += 1
            updated_in_active = False
            new_entries: list[tuple[int, float]] = []
            # One substep is one *synchronous* parallel round: every
            # relaxation reads the tentative distances as they stood when
            # the round began (the PRAM priority-write model of §3.3).
            # Relaxing with live values instead would propagate several
            # hops per substep and undercount the depth proxy.
            frozen = [(u, float(dist[u])) for u in active_set]
            for u, du in frozen:  # foreach u ∈ A_i, v ∈ N(u)
                for j in range(indptr[u], indptr[u + 1]):
                    v = int(indices[j])
                    if settled[v]:
                        continue
                    step_relax += 1
                    nd = du + weights[j]
                    if dist[v] > nd:  # Line 10
                        # Line 11's "δ(v) > d_i" is an A_i-membership
                        # test in disguise; testing membership directly
                        # keeps it correct when r(v) = ∞ makes d_i = ∞
                        # (then δ(v) = ∞ > d_i = ∞ is false even though
                        # v is unreached and belongs in the annulus).
                        if v not in active_set and nd <= d_i:
                            Q.remove(v)  # Line 13
                            R.remove(v)  # Line 12
                            active_set.add(v)  # Line 14
                            dist[v] = nd  # Line 15
                            updated_in_active = True
                        elif nd > d_i:  # Line 16
                            dist[v] = nd
                            new_entries.append((v, nd))
                        else:  # v already ≤ d_i: update within the annulus
                            dist[v] = nd
                            updated_in_active = True
            if new_entries:
                # Section 3.3 bulk maintenance: difference out stale keys,
                # union in the successful relaxations.  A vertex that later
                # dropped into the annulus this same substep belongs to A_i
                # now and must not re-enter Q/R.
                last: dict[int, float] = {}
                for v, nd in new_entries:
                    if v not in active_set:
                        last[v] = min(nd, last.get(v, float("inf")))
                if last:
                    Q.union_values(last.items())  # Line 17
                    R.union_values((v, nd + r[v]) for v, nd in last.items())  # 18
            if not updated_in_active:
                break  # Line 19: no δ(v), v ∈ A_i, was updated

        for v in active_set:  # settle S_i
            settled[v] = True
        steps += 1
        substeps_total += substeps
        max_substeps = max(max_substeps, substeps)
        relaxations += step_relax
        if trace is not None:
            trace.append(
                StepTrace(
                    step=steps - 1,
                    radius=float(d_i),
                    substeps=substeps,
                    settled=len(active_set),
                    relaxations=step_relax,
                )
            )

    return SsspResult(
        dist=dist,
        parent=None,
        steps=steps,
        substeps=substeps_total,
        max_substeps=max_substeps,
        relaxations=relaxations,
        algorithm="radius-stepping-bst",
        params={"source": source},
        trace=trace,
    )
