"""The unified stepping engine — Algorithm 1 over any step schedule.

One loop serves every schedule in :mod:`repro.engine.schedules`:

1. **Line 2** — relax the source's arcs (kernel, charged as ``init``).
   A *seeded* run skips it: the seeds start at their given distances,
   nothing starts settled, and the seeds are the schedule's first push.
2. **Line 4** — ask the schedule for ``d_i`` (charged ``extract-min R``).
3. **Line 5** — split the active set at ``d_i`` (charged ``split Q``).
4. **Lines 5–9** — Bellman–Ford substeps through the kernel until every
   tentative distance ≤ ``d_i`` is stable, feeding each substep's
   improvements back to the schedule as decrease-keys.
5. **Line 10** — settle everything the step touched within ``d_i``,
   deduplicated by the kernel's sort-based
   :meth:`~repro.engine.kernel.RelaxationKernel.unique`.

Run with :class:`~repro.engine.schedules.RadiusBucketSchedule` this
takes the same steps and substeps, step by step, as the faithful
Algorithm-2 treap engine (:mod:`repro.core.radius_stepping_bst`),
which the engine-parity tests pin.

Seeds make the loop a virtual-source solve: Algorithm 1 is exact for
any radii (§3), and for the same reason from any initial tentative
distances, so seeding ``(vertices, dists)`` gives
``min over seeds (dist + d(seed, v))`` for every ``v`` — the exact
distances inside a shard from exact distances on its boundary, or
overlay distances from a shard's boundary row.  With parents tracked,
every root of the parent forest is a seed.

A :class:`StopRule` ends a run at the first step whose Line 10 covers a
query.  After step ``i`` the settled set is ``{v | δ(v) ≤ d_i}``, and a
settled vertex's distance and parent never change again, so a stopped
run is an exact prefix of the full run: the same steps, and the same
distances and parents on every vertex within its ``bound`` (the last
``d_i``).  Every other vertex holds a tentative distance above the
bound.  A run that finishes has ``bound = ∞``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..core.result import SsspResult, StepTrace
from .kernel import RelaxationKernel
from .schedules import StepSchedule

__all__ = ["StopRule", "run_engine"]


@dataclass(frozen=True)
class StopRule:
    """Stop once every vertex of ``targets`` is settled and at least
    ``settled`` vertices are (the source counts).

    A route to ``t`` needs ``StopRule(targets=(t,))``; the ``k`` nearest
    vertices need ``StopRule(settled=k + 1)``.
    """

    targets: tuple[int, ...] = ()
    settled: int = 0

    def union(self, other: "StopRule | None") -> "StopRule | None":
        """The rule that covers both; ``None`` (run to the end) covers
        every rule."""
        if other is None:
            return None
        targets = self.targets
        if other.targets:
            targets = tuple(sorted(set(targets).union(other.targets)))
        return StopRule(targets, max(self.settled, other.settled))


def run_engine(
    graph: CSRGraph,
    source: int | None,
    schedule: StepSchedule,
    *,
    seeds: tuple[np.ndarray, np.ndarray] | None = None,
    track_parents: bool = False,
    track_trace: bool = False,
    ledger=None,
    algorithm_name: str | None = None,
    params: dict | None = None,
    obs=None,
    stop: StopRule | None = None,
) -> SsspResult:
    """Run Algorithm 1 from ``source`` under ``schedule``.

    Parameters
    ----------
    graph: validated undirected CSR graph with non-negative weights.
    source: source vertex id; ``None`` for a seeded run.
    seeds: ``(vertices, dists)`` — start from these finite, non-negative
        tentative distances instead of a source (see the module
        docstring and :class:`~repro.engine.kernel.RelaxationKernel`).
    schedule: a :class:`~repro.engine.schedules.StepSchedule`; it is
        bound to this run's kernel and must not be reused concurrently.
    track_parents / track_trace / ledger: as in
        :func:`repro.core.radius_stepping.radius_stepping`.
    algorithm_name: ``SsspResult.algorithm``; defaults to the schedule
        name.
    obs: optional :class:`~repro.obs.metrics.BoundEngineTelemetry`
        (anything with ``record_step(settled, substeps)``); called once
        per outer step with the frontier size and substep count.
        Run-level totals are recorded by the dispatch layer
        (:func:`repro.engine.registry.solve_with_engine`), not here.
    stop: optional :class:`StopRule`, checked after Line 10.  A run it
        stops reports ``bound`` = that step's ``d_i``; ``None`` runs to
        the end (``bound = ∞``).
    """
    n = graph.n
    kernel = RelaxationKernel(
        graph, source, seeds=seeds, track_parents=track_parents, ledger=ledger
    )
    schedule.bind(kernel)
    if seeds is None:
        schedule.push(kernel.relax_source(source))
    else:
        schedule.push(np.flatnonzero(kernel.dist < np.inf))
    # Optional schedule hooks (∆*-stepping's light/heavy split): substeps
    # relax only the masked arc class; ``finish_step`` runs after Line 10
    # with the step's newly settled vertices, at their final distances.
    substep_arc_mask = getattr(schedule, "substep_arc_mask", None)
    finish_step = getattr(schedule, "finish_step", None)

    dist = kernel.dist
    logn = kernel.logn
    steps = substeps_total = max_substeps = 0
    trace: list[StepTrace] | None = [] if track_trace else None
    bound = math.inf
    if stop is not None:
        stop_targets = np.asarray(stop.targets, dtype=np.int64)

    while kernel.settled_count < n:
        # ---- Line 4: d_i from the schedule's extract-min -----------------
        d_i = schedule.next_bound()
        if d_i is None:
            break  # remaining vertices unreachable (disconnected graph)
        if ledger is not None:
            ledger.charge(work=logn, depth=logn, label="extract-min R")

        # ---- Line 5: split at d_i — the initial active set ---------------
        changed = schedule.split_active(d_i)
        if ledger is not None:
            ledger.charge(
                work=max(1.0, len(changed)) * logn, depth=logn, label="split Q"
            )
        step_settles: list[np.ndarray] = [changed]
        relax_before = kernel.relaxations
        substeps = 0

        # ---- Lines 5–9: Bellman–Ford substeps until stable ≤ d_i ---------
        while len(changed):
            substeps += 1
            improved, n_arcs = kernel.relax(
                changed,
                exclude_settled=True,
                arc_mask=substep_arc_mask,
                charge_label="substep relax",
            )
            if n_arcs == 0:
                break
            schedule.push(improved)
            # Only updates with δ(v) ≤ d_i keep the substep loop running
            # (Line 9's termination test).  They are the next active set,
            # vertices already active included: their out-edges now carry
            # smaller tentative distances.
            changed = improved[dist[improved] <= d_i]
            step_settles.append(changed)

        # ---- Line 10: S_i = {v | δ(v) ≤ d_i} ------------------------------
        newly = kernel.unique(np.concatenate(step_settles))
        kernel.settle(newly)
        if finish_step is not None:
            finish_step(newly)
        steps += 1
        substeps_total += substeps
        max_substeps = max(max_substeps, substeps)
        if obs is not None:
            obs.record_step(len(newly), substeps)
        if trace is not None:
            trace.append(
                StepTrace(
                    step=steps - 1,
                    radius=float(d_i),
                    substeps=substeps,
                    settled=len(newly),
                    relaxations=kernel.relaxations - relax_before,
                )
            )
        if len(newly) == 0:
            # d_i produced an empty annulus: impossible unless radii contain
            # inf/NaN interplay; guard against an infinite loop.
            raise RuntimeError(
                f"{schedule.name} schedule made no progress (empty step)"
            )
        if (
            stop is not None
            and stop.settled <= kernel.settled_count < n
            and kernel.settled[stop_targets].all()
        ):
            bound = float(d_i)
            break

    return SsspResult(
        dist=kernel.dist,
        parent=kernel.parent,
        steps=steps,
        substeps=substeps_total,
        max_substeps=max_substeps,
        relaxations=kernel.relaxations,
        algorithm=algorithm_name or f"{schedule.name}-stepping",
        params={"source": source} if params is None else params,
        trace=trace,
        bound=bound,
    )
