"""Landmark (hop-limited) parallel SSSP — the Table 1 shortcut baselines.

Ullman & Yannakakis [28] solve unweighted SSSP in O~(t) depth by sampling
~(n ln n)/t landmarks, running t-hop-limited searches from each in
parallel, and stitching the results through a small landmark graph; Klein
& Subramanian [16] extend the idea to weighted graphs.  Radius-Stepping's
Table 1 positions itself against both, so this module implements the
common core as an instrumented reference baseline:

1. sample landmarks so that, w.h.p., every min-hop shortest path contains
   a landmark in each window of ``t`` consecutive hops;
2. from every landmark run ``t`` synchronous Bellman–Ford rounds — this
   computes exact *hop-limited* distances (shortest using ≤ t edges),
   which is the quantity the stitching argument needs (a truncated
   Dijkstra would not be);
3. solve the (small, weighted) landmark graph by Dijkstra;
4. combine: ``d(v) = min_ℓ  d_H(s→ℓ) + d_t(ℓ, v)``.

The result is exact with high probability in the oversampling factor; the
(seeded) test suite cross-checks it against Dijkstra.  Cost accounting:
``substeps`` = t (the depth of the limited searches, all parallel);
``steps`` = the three phases.  Total work is Θ(s·t·m̄) — the work/depth
trade Table 1 charges this family for, and the reason Radius-Stepping's
near-linear work is an improvement.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..engine.kernel import RelaxationKernel
from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from .result import SsspResult

__all__ = ["landmark_sssp", "sample_landmarks", "hop_limited_distances"]


def sample_landmarks(
    n: int, t: int, source: int, *, oversample: float = 3.0, seed: int = 0
) -> np.ndarray:
    """Sample ~oversample·(n ln n)/t landmarks, always including ``source``.

    The classic argument: a fixed path of ``t`` vertices avoids all
    landmarks with probability (1 - s/n)^t ≈ e^(-s·t/n); s =
    oversample·(n ln n)/t drives that below n^(-oversample) — union-bound
    safe over all shortest paths.
    """
    source = check_vertex(source, "source", n)
    if t < 1:
        raise ValueError("t >= 1 required")
    if oversample <= 0:
        raise ValueError("oversample > 0 required")
    rng = np.random.default_rng(seed)
    want = int(math.ceil(oversample * n * math.log(max(2, n)) / t))
    want = min(n, max(1, want))
    picks = rng.choice(n, size=want, replace=False)
    return np.unique(np.append(picks, source)).astype(np.int64)


def hop_limited_distances(
    graph: CSRGraph, source: int, t: int
) -> np.ndarray:
    """Exact distances over paths of at most ``t`` edges: t synchronous
    Bellman–Ford rounds, each one :meth:`RelaxationKernel.relax
    <repro.engine.kernel.RelaxationKernel.relax>` of the vertices the
    previous round improved."""
    source = check_vertex(source, "source", graph.n)
    kernel = RelaxationKernel(graph, source)
    changed = np.array([source], dtype=np.int64)
    for _ in range(t):
        if len(changed) == 0:
            break
        changed, _ = kernel.relax(changed, exclude_settled=False)
    return kernel.dist


def landmark_sssp(
    graph: CSRGraph,
    source: int,
    t: int,
    *,
    oversample: float = 3.0,
    seed: int = 0,
) -> SsspResult:
    """Ullman–Yannakakis / Klein–Subramanian-style SSSP from ``source``.

    Exact with high probability (raise ``oversample`` to push the failure
    odds down); works on weighted and unweighted graphs alike because the
    limited searches are hop-limited Bellman–Ford rounds.  ``t`` is the
    depth knob of Table 1: larger t = fewer landmarks = less work but
    more depth — the mirror image of Radius-Stepping's ρ.
    """
    n = graph.n
    source = check_vertex(source, "source", n)
    landmarks = sample_landmarks(n, t, source, oversample=oversample, seed=seed)
    s_idx = int(np.searchsorted(landmarks, source))

    # Phase 1 (parallel over landmarks): t-hop-limited searches.
    limited = np.vstack(
        [hop_limited_distances(graph, int(l), t) for l in landmarks]
    )  # shape (s, n)
    relaxations = int(np.isfinite(limited).sum())

    # Phase 2: Dijkstra on the landmark graph H (arcs = limited distances).
    s = len(landmarks)
    lm_cols = limited[:, landmarks]  # (s, s): d_t(l_i, l_j)
    dist_h = np.full(s, np.inf)
    dist_h[s_idx] = 0.0
    heap: list[tuple[float, int]] = [(0.0, s_idx)]
    done = np.zeros(s, dtype=bool)
    while heap:
        d, i = heapq.heappop(heap)
        if done[i]:
            continue
        done[i] = True
        nd = d + lm_cols[i]
        better = nd < dist_h
        for j in np.flatnonzero(better):
            dist_h[j] = nd[j]
            heapq.heappush(heap, (float(nd[j]), int(j)))

    # Phase 3 (one parallel min-reduction): stitch landmark distances.
    dist = np.min(dist_h[:, None] + limited, axis=0)
    dist[source] = 0.0

    return SsspResult(
        dist=dist,
        parent=None,
        steps=3,
        substeps=t,
        max_substeps=t,
        relaxations=relaxations,
        algorithm="landmark-sssp",
        params={
            "source": source,
            "t": t,
            "landmarks": s,
            "oversample": oversample,
            "seed": seed,
        },
    )
