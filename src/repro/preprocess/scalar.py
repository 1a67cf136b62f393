"""The scalar heap reference for preprocessing, and its per-tree walkers.

One truncated heap Dijkstra per source (:func:`ball_search`), one
:class:`BallTree` per ball (:func:`build_ball_tree`) and one per-tree
§4.2 walker per tree (:data:`HEURISTICS`).  The production path is the
batched slot engine (:mod:`repro.preprocess.batched`) and the forest
selection engine (:mod:`repro.preprocess.select_batched`); each
function here is the plain per-source equivalent of one batched entry
point, which the parity suites and ``benchmarks/bench_scaling.py``
compare against bit for bit:

=========================  =============================================
:func:`scalar_radii`       :func:`~repro.preprocess.batched.batched_radii`
:func:`scalar_ball_trees`  :func:`~repro.preprocess.batched.batched_ball_trees`
:func:`scalar_tree_block`  :func:`~repro.preprocess.batched.batched_tree_block`
:func:`scalar_select`      :func:`~repro.preprocess.select_batched.batched_select`
=========================  =============================================
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..graphs.csr import CSRGraph
from .ball import ball_search
from .dp import dp_select
from .greedy import greedy_select
from .select_batched import check_heuristic
from .shortcut_one import full_select
from .tree import (
    BallTree,
    TreeBlock,
    _concat_or_empty,
    block_from_trees,
    build_ball_tree,
)

__all__ = [
    "HEURISTICS",
    "scalar_ball_trees",
    "scalar_radii",
    "scalar_select",
    "scalar_tree_block",
]

#: heuristic name -> (tree, k) -> selected local node ids: the per-tree
#: §4.1–4.2 selectors, one per name of
#: :data:`~repro.preprocess.select_batched.HEURISTIC_RULES`.
HEURISTICS: dict[str, Callable] = {
    "full": full_select,
    "greedy": greedy_select,
    "dp": dp_select,
}


def scalar_radii(
    graph: CSRGraph, sources: np.ndarray, rhos: Sequence[int]
) -> np.ndarray:
    """``r_ρ`` per (source, ρ), shape ``(|sources|, |ρs|)``: one
    ties-free ball search at ``ρ_max`` per source, every smaller ρ an
    order statistic of it.  One ball is live at a time."""
    rho_max = max(rhos)
    out = np.empty((len(sources), len(rhos)), dtype=np.float64)
    for i, s in enumerate(sources):
        ball = ball_search(graph, int(s), rho_max, include_ties=False)
        out[i] = [ball.r_rho(rho) for rho in rhos]
    return out


def scalar_ball_trees(
    graph: CSRGraph, sources: np.ndarray, rho: int, *, include_ties: bool = True
) -> tuple[np.ndarray, list[BallTree]]:
    """``(r_ρ, ball tree)`` per source."""
    radii = np.empty(len(sources), dtype=np.float64)
    trees = []
    for i, s in enumerate(sources):
        ball = ball_search(graph, int(s), rho, include_ties=include_ties)
        radii[i] = ball.r_rho(rho)
        trees.append(build_ball_tree(ball))
    return radii, trees


def scalar_tree_block(
    graph: CSRGraph, sources: np.ndarray, rho: int, *, include_ties: bool = True
) -> tuple[np.ndarray, TreeBlock]:
    """``(r_ρ, forest TreeBlock)``: the ball trees stacked into the flat
    layout the forest engine consumes."""
    radii, trees = scalar_ball_trees(graph, sources, rho, include_ties=include_ties)
    return radii, block_from_trees(trees)


def scalar_select(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    k: int,
    heuristic: str,
    *,
    include_ties: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(r_ρ, src, dst, weight)``: radii plus the shortcut triples each
    tree's walker selects, concatenated in source order."""
    check_heuristic(heuristic)
    select = HEURISTICS[heuristic]
    radii, trees = scalar_ball_trees(graph, sources, rho, include_ties=include_ties)
    src_l: list[np.ndarray] = []
    dst_l: list[np.ndarray] = []
    w_l: list[np.ndarray] = []
    for tree in trees:
        chosen = select(tree, k)
        if len(chosen):
            src_l.append(np.full(len(chosen), tree.source, dtype=np.int64))
            dst_l.append(tree.vertices[chosen])
            w_l.append(tree.dist[chosen])
    return (
        radii,
        _concat_or_empty(src_l, np.int64),
        _concat_or_empty(dst_l, np.int64),
        _concat_or_empty(w_l, np.float64),
    )
