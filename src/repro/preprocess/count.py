"""Shortcut-count accounting for the Tables 2/3 and Figure 3 sweeps.

The paper reports, per (k, ρ) and heuristic, the *factor of additional
edges*: total shortcuts selected across all n sources divided by m.  At
paper scale that is n·|ρ-sweep|·|k-sweep| tree computations; this module
makes the sweep tractable by

* computing **one** ball per source at ρ_max and slicing prefixes for every
  smaller ρ (settle orders are prefix-closed — see
  :mod:`repro.preprocess.tree`), and
* optionally **sampling** sources: the metric is a mean over sources, so a
  seeded sample estimates it with the scale factor n/|sample| (recorded in
  the result for transparency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..graphs.csr import CSRGraph
from ..parallel.pool import parallel_map
from .batched import iter_tree_blocks
from .select_batched import HEURISTIC_RULES, check_heuristic, forest_dp_counts

__all__ = ["ShortcutCounts", "count_shortcuts_sweep", "sample_sources"]


@dataclass
class ShortcutCounts:
    """Results of one sweep on one graph.

    ``totals[heuristic][(k, rho)]`` is the estimated total shortcut count
    over all n sources; ``factors`` divides by m (the paper's metric).
    """

    n: int
    m: int
    num_sources: int
    totals: dict[str, dict[tuple[int, int], float]]

    def factor(self, heuristic: str, k: int, rho: int) -> float:
        """Factor of additional edges for one configuration."""
        return self.totals[heuristic][(k, rho)] / self.m


def sample_sources(n: int, num: int | None, *, seed: int = 0) -> np.ndarray:
    """Seeded source sample (all vertices when ``num`` is None or ≥ n)."""
    if num is None or num >= n:
        return np.arange(n, dtype=np.int64)
    if num < 1:
        raise ValueError("num >= 1 required")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=num, replace=False)).astype(np.int64)


def _count_chunk(
    graph: CSRGraph,
    sources: np.ndarray,
    *,
    ks: tuple[int, ...],
    rhos: tuple[int, ...],
    heuristics: tuple[str, ...],
    include_ties: bool,
) -> dict[str, dict[tuple[int, int], int]]:
    """Worker kernel: exact shortcut totals over one source chunk.

    One forest :class:`~repro.preprocess.tree.TreeBlock` per slot block
    at ρ_max, streamed from the batched ball engine, so at most one
    block of trees is live (O(block · ρ) memory, not O(|chunk| · ρ));
    every smaller ρ is a vectorized prefix trim of that block (settle
    orders are prefix-closed) and all selection math runs through the
    forest engine instead of per-tree Python walks.
    """
    rho_max = max(rhos)
    counters = {h: {(k, r): 0 for k in ks for r in rhos} for h in heuristics}
    for _, blk in iter_tree_blocks(
        graph, sources, rho_max, include_ties=include_ties
    ):
        sizes = blk.sizes()
        slot_ids = blk.slot_ids()
        for rho in rhos:
            if include_ties:
                # §5.1 prefix: every node at distance <= r_rho.  Per-slot
                # dist runs are sorted, so the ties-included prefix size
                # is a mask count per slot (BallSearchResult.prefix_size,
                # vectorized over the block).
                r = blk.dist[blk.offsets[:-1] + np.minimum(rho, sizes) - 1]
                prefix = np.bincount(
                    slot_ids[blk.dist <= r[slot_ids]],
                    minlength=blk.num_trees,
                )
            else:
                prefix = np.minimum(rho, sizes)
            sub = blk.trim(prefix)
            for k in ks:
                for h in heuristics:
                    rule = HEURISTIC_RULES[h]
                    counters[h][(k, rho)] += int(
                        forest_dp_counts(sub, k).sum()
                        if rule is None
                        else np.count_nonzero(rule(sub.depth, k))
                    )
    return counters


def count_shortcuts_sweep(
    graph: CSRGraph,
    *,
    ks: Sequence[int],
    rhos: Sequence[int],
    heuristics: Sequence[str] = ("greedy", "dp"),
    num_sources: int | None = None,
    seed: int = 0,
    include_ties: bool = True,
    n_jobs: int = 1,
) -> ShortcutCounts:
    """Estimate shortcut totals for every (heuristic, k, ρ) combination.

    With ``num_sources`` set, totals are scaled by n/|sample| — the
    exact-mode answer is recovered with ``num_sources=None``.
    """
    if not ks or not rhos:
        raise ValueError("ks and rhos must be non-empty")
    for heuristic in heuristics:
        check_heuristic(heuristic)
    sources = sample_sources(graph.n, num_sources, seed=seed)
    blocks = parallel_map(
        _count_chunk,
        graph,
        sources,
        n_jobs=n_jobs,
        fn_kwargs={
            "ks": tuple(ks),
            "rhos": tuple(rhos),
            "heuristics": tuple(heuristics),
            "include_ties": include_ties,
        },
    )
    scale = graph.n / len(sources)
    totals: dict[str, dict[tuple[int, int], float]] = {
        h: {(k, r): 0.0 for k in ks for r in rhos} for h in heuristics
    }
    for block in blocks:
        for h, table in block.items():
            for key, val in table.items():
                totals[h][key] += val * scale
    return ShortcutCounts(
        n=graph.n, m=graph.m, num_sources=len(sources), totals=totals
    )
