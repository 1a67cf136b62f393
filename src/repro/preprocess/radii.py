"""Vertex radii r_ρ(·) — the inputs Radius-Stepping needs.

Lemma 4.1: running Radius-Stepping with ``r(v) = r_ρ(v)`` on a
(k,ρ)-graph satisfies both preconditions of the step/substep bounds.
The step-count experiments (Figures 4/5, Tables 4–7) need *only* these
radii — adding shortcuts changes neither distances nor the ``d_i``
sequence, so "the number of steps is independent of k and is only
affected by ρ" (§5.3).  We exploit that: steps experiments compute radii
on the original graph and skip shortcut materialization entirely.

One ball search per vertex yields the radii for *every* ρ at once (the
settle distances are exactly r_1, r_2, ...), so a ρ-sweep costs one pass
at ρ_max.  Two axes of parallelism compose here: the batched slot engine
(:func:`~repro.preprocess.batched.batched_radii`) grows whole blocks of
balls per NumPy round, and ``n_jobs`` fans source chunks (and therefore
slot blocks) out over a fork-based process pool (:mod:`repro.parallel`).
The radii equal the scalar heap reference's
(:func:`~repro.preprocess.scalar.scalar_radii`) bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..graphs.csr import CSRGraph
from ..parallel.pool import parallel_map
from .batched import batched_radii

__all__ = ["compute_radii", "compute_radii_sweep"]


def compute_radii_sweep(
    graph: CSRGraph, rhos: Sequence[int], *, n_jobs: int = 1
) -> dict[int, np.ndarray]:
    """r_ρ(v) for every vertex and every ρ in ``rhos`` in one pass.

    Returns ``{rho: radii_array}``.  Work is O(n ρ_max²) in the worst
    case (Lemma 4.2; see :func:`repro.graphs.generators.figure2_graph`),
    typically far less on real-world-like graphs (§4.1).
    """
    if not rhos:
        raise ValueError("need at least one rho")
    if any(r < 1 for r in rhos):
        raise ValueError("all rho must be >= 1")
    sources = np.arange(graph.n, dtype=np.int64)
    blocks = parallel_map(
        batched_radii,
        graph,
        sources,
        n_jobs=n_jobs,
        fn_kwargs={"rhos": tuple(rhos)},
    )
    stacked = np.concatenate(blocks, axis=0)
    return {rho: stacked[:, j].copy() for j, rho in enumerate(rhos)}


def compute_radii(graph: CSRGraph, rho: int, *, n_jobs: int = 1) -> np.ndarray:
    """r_ρ(v) for every vertex (one ρ)."""
    return compute_radii_sweep(graph, [rho], n_jobs=n_jobs)[rho]
