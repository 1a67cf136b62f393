"""Shared result record for every SSSP solver in the library.

The paper's experiments measure *steps* and *substeps* (their proxy for
parallel depth), so every solver reports them alongside the distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["SsspResult", "StepTrace", "parent_path"]


def parent_path(parent: np.ndarray, target: int) -> list[int]:
    """Walk predecessor pointers from ``target`` back to the root.

    Returns the vertex sequence source → … → ``target`` (the root is
    the entry whose parent is ``-1``).  Shared by
    :meth:`SsspResult.path_to` and the serving planner's cached rows so
    the parent-encoding invariants (root sentinel, cycle guard) live in
    exactly one place.
    """
    out = [int(target)]
    while parent[out[-1]] >= 0:
        out.append(int(parent[out[-1]]))
        if len(out) > len(parent):
            raise RuntimeError("parent cycle detected")
    out.reverse()
    return out


@dataclass(frozen=True)
class StepTrace:
    """Per-step record of one outer iteration of a stepping algorithm.

    Attributes
    ----------
    step: 0-based step index.
    radius: the round distance ``d_i`` chosen for this step (Line 4 of
        Algorithm 1); for bucket algorithms, the bucket's upper boundary.
    substeps: inner Bellman–Ford iterations executed in this step.
    settled: number of vertices settled by this step.
    relaxations: arcs relaxed during this step.
    """

    step: int
    radius: float
    substeps: int
    settled: int
    relaxations: int


@dataclass
class SsspResult:
    """Distances plus instrumentation from a single-source run.

    Attributes
    ----------
    dist: shortest-path distance per vertex (``inf`` when unreachable).
    parent: predecessor on a shortest path (``-1`` for source/unreachable),
        or ``None`` when the solver was asked not to track parents.
    steps: outer steps (Dijkstra extractions batched by equal distance
        count as one step; BFS levels count as one step each).
    substeps: total inner Bellman–Ford substeps across all steps.
    max_substeps: the largest substep count of any single step — the
        quantity Theorem 3.2 bounds by ``k + 2``.
    relaxations: total arcs processed (work proxy).
    algorithm: short solver name.
    params: solver parameters for provenance.
    trace: optional per-step :class:`StepTrace` list.
    bound: ``∞`` for a run that finished.  A run stopped early by a
        :class:`~repro.engine.driver.StopRule` reports its last ``d_i``:
        ``dist`` and ``parent`` are final on every vertex with
        ``dist ≤ bound``, and every other entry is a tentative distance
        above it.
    """

    dist: np.ndarray
    parent: np.ndarray | None = None
    steps: int = 0
    substeps: int = 0
    max_substeps: int = 0
    relaxations: int = 0
    algorithm: str = ""
    params: dict[str, Any] = field(default_factory=dict)
    trace: list[StepTrace] | None = None
    bound: float = math.inf

    @property
    def reached(self) -> int:
        """Number of vertices with a finite distance."""
        return int(np.isfinite(self.dist).sum())

    def path_to(self, v: int) -> list[int]:
        """Reconstruct the vertex sequence source -> ... -> ``v``.

        Requires parent tracking; raises ``ValueError`` if ``v`` is
        unreachable or parents were not recorded.
        """
        if self.parent is None:
            raise ValueError("solver did not record parents")
        if not np.isfinite(self.dist[v]):
            raise ValueError(f"vertex {v} is unreachable")
        return parent_path(self.parent, v)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SsspResult({self.algorithm}, reached={self.reached}/{len(self.dist)}, "
            f"steps={self.steps}, substeps={self.substeps}, "
            f"relaxations={self.relaxations})"
        )
