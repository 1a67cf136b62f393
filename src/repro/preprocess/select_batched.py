"""Forest-level shortcut selection — all trees of a slot block at once.

The §4.2 heuristics (`dp_select`, `greedy_select`, `full_select`) are
per-tree walkers: pure-Python loops over every ball-tree node.  After the
batched slot engine (:mod:`repro.preprocess.batched`) vectorized the ball
searches themselves, that per-node Python became the Amdahl bound on
``build_kr_graph``'s end-to-end speedup.  This module removes it by
running each heuristic over an entire :class:`~repro.preprocess.tree.TreeBlock`
— hundreds of trees in one flat (slot, local-node) layout — in a handful
of NumPy passes.

How the DP vectorizes
---------------------
The §4.2.2 recurrence is bottom-up over the settle order, children before
parents.  Within one *depth level* the nodes are independent (a node's
children all sit one level deeper), so the forest sweep processes whole
levels instead of single nodes:

* **bottom-up** (``forest_dp_tables``): for each level, deepest first,
  evaluate ``F(u, ·)`` for every node of the level across *all* trees with
  two array ops, then scatter-add the rows into the parents' child sums
  with one ``np.add.at`` — exactly the per-node ``child_sum[p] += F[u]``
  of the scalar table, batched per level.
* **top-down** (``forest_dp_select``): the traceback state ``t`` (hops of
  the parent from the source after the selections made above it) is a
  pure gather from the parent's state, so each level needs one
  ``np.where`` over its nodes; selections fall out as flat positions.

Work is the scalar O(ρk) per tree unchanged; the number of Python-level
iterations drops from Σ tree sizes to the maximum tree *depth* of the
block.  Selections are bit-identical to the per-tree walkers — same
costs, same strict-inequality tie-breaking toward not shortcutting —
which the parity suite (tests/preprocess/test_select_batched.py) pins
across every generator family.

Greedy and full are static depth rules and vectorize to one mask over the
block's flat depth array (the rules themselves are shared with the
per-tree walkers: :func:`~repro.preprocess.greedy.greedy_depth_mask`,
:func:`~repro.preprocess.shortcut_one.full_depth_mask`).

Entry points
------------
``forest_select`` / ``forest_counts`` / ``forest_shortcuts`` run a
heuristic over a prepared block; :func:`batched_select` is the end-to-end
fast path — slot blocks straight from the batched ball engine, selections
and shortcut triples out — what :func:`~repro.preprocess.pipeline.build_kr_graph`
runs per source chunk, checked against the per-tree walkers of
:func:`~repro.preprocess.scalar.scalar_select`.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from .batched import iter_tree_blocks
from .greedy import greedy_depth_mask
from .shortcut_one import full_depth_mask
from .tree import TreeBlock, _concat_or_empty

__all__ = [
    "HEURISTIC_RULES",
    "batched_select",
    "check_heuristic",
    "forest_counts",
    "forest_dp_counts",
    "forest_dp_select",
    "forest_dp_tables",
    "forest_select",
    "forest_select_positions",
    "forest_shortcuts",
]

_EMPTY = np.empty(0, dtype=np.int64)

#: The §4.2 heuristics by name: the one table every entry point checks
#: names against (:func:`check_heuristic`).  ``greedy`` and ``full``
#: map to their static depth rule over a block's flat depth array;
#: ``dp`` is the forest DP (:func:`forest_dp_select`) and maps to None.
HEURISTIC_RULES = {"dp": None, "greedy": greedy_depth_mask, "full": full_depth_mask}


def check_heuristic(heuristic: str):
    """The depth rule of ``heuristic`` (None for ``dp``); an unknown name
    raises :class:`ValueError` listing the known ones."""
    try:
        return HEURISTIC_RULES[heuristic]
    except KeyError:
        raise ValueError(
            f"unknown heuristic {heuristic!r}; try {sorted(HEURISTIC_RULES)}"
        ) from None


def _levels(depth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group flat node positions by tree depth.

    Returns ``(order, ptr)``: ``order[ptr[d]:ptr[d+1]]`` are the flat
    positions of every depth-``d`` node in the block, each level's
    positions ascending (stable sort over an already slot-grouped
    layout), for ``d`` in ``0..max_depth``.
    """
    order = np.argsort(depth, kind="stable")
    counts = np.bincount(depth, minlength=1)
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return order, ptr


def forest_dp_tables(
    block: TreeBlock, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(F, child_sum)`` for every tree of the block, stacked flat.

    ``F[block.offsets[i]:block.offsets[i+1]]`` equals
    ``dp_table(block.tree(i), k)`` row for row (root rows zero);
    ``child_sum[u, t]`` is ``Σ_w F(w, t)`` over the children of ``u`` for
    ``t ≤ k`` (the scalar table's working array, which the traceback and
    the count read directly).
    """
    if k < 1:
        raise ValueError("k >= 1 required")
    t = len(block)
    F = np.zeros((t, k + 1), dtype=np.int64)
    child_sum = np.zeros((t, k + 1), dtype=np.int64)
    if t == 0:
        return F, child_sum
    fp = block.flat_parent()
    order, ptr = _levels(block.depth)
    # Deepest level first: every child is fully evaluated (and scattered
    # into its parent's child_sum) before its parent's level runs.
    for d in range(len(ptr) - 2, 0, -1):
        level = order[ptr[d] : ptr[d + 1]]
        if not len(level):
            continue
        cs = child_sum[level]
        shortcut_cost = 1 + cs[:, 1]
        # F(u, t) = min(shortcut, pass-through at depth t+1) for t < k;
        # F(u, k) forces the shortcut.
        FL = np.empty((len(level), k + 1), dtype=np.int64)
        np.minimum(shortcut_cost[:, None], cs[:, 1:], out=FL[:, :k])
        FL[:, k] = shortcut_cost
        F[level] = FL
        np.add.at(child_sum, fp[level], FL)
    return F, child_sum


def forest_dp_counts(block: TreeBlock, k: int) -> np.ndarray:
    """Per-tree DP optimum — ``dp_count(block.tree(i), k)`` for every i.

    The optimum is ``Σ_{u ∈ children(root)} F(u, 0)``, i.e. the root's
    child sum at t=0, read straight off the bottom-up sweep.
    """
    _, child_sum = forest_dp_tables(block, k)
    return child_sum[block.offsets[:-1], 0]


def forest_dp_select(block: TreeBlock, k: int) -> np.ndarray:
    """DP-selected flat positions (sorted) across the whole block.

    The top-down traceback of ``dp_select``, one level at a time: node
    ``u`` whose parent sits ``t`` hops from the source is shortcut iff
    ``t ≥ k`` or ``1 + child_sum[u, 1] < child_sum[u, t+1]`` (strict —
    ties keep the pass-through, matching the scalar walker), and its
    children's ``t`` becomes 1 if taken else ``t+1`` — a gather from the
    parent, no scatter needed.
    """
    _, child_sum = forest_dp_tables(block, k)
    t = len(block)
    if t == 0:
        return _EMPTY
    fp = block.flat_parent()
    order, ptr = _levels(block.depth)
    tt = np.zeros(t, dtype=np.int64)  # parent's hop count per node
    take = np.zeros(t, dtype=bool)
    parts: list[np.ndarray] = []
    for d in range(1, len(ptr) - 1):
        level = order[ptr[d] : ptr[d + 1]]
        if not len(level):
            continue
        if d > 1:
            p = fp[level]
            tt[level] = np.where(take[p], 1, tt[p] + 1)
        tl = tt[level]
        shortcut_cost = 1 + child_sum[level, 1]
        # tt+1 ≤ k whenever the pass cost is consulted (tt ≥ k forces a
        # shortcut); the clamp only feeds rows the mask overrides.
        pass_cost = child_sum[level, np.minimum(tl + 1, k)]
        take[level] = (tl >= k) | (shortcut_cost < pass_cost)
        parts.append(level[take[level]])
    if not parts:
        return _EMPTY
    return np.sort(np.concatenate(parts))


def forest_select_positions(
    block: TreeBlock, heuristic: str, k: int
) -> np.ndarray:
    """Selected flat positions (sorted ascending) for one heuristic.

    Sorted flat positions are simultaneously grouped by slot and
    ascending in local id within each slot — the exact concatenation
    order of the per-tree walkers.
    """
    rule = check_heuristic(heuristic)
    if rule is None:
        return forest_dp_select(block, k)
    return np.flatnonzero(rule(block.depth, k))


def forest_select(
    block: TreeBlock, heuristic: str, k: int
) -> list[np.ndarray]:
    """Per-tree selected local ids — ``HEURISTICS[heuristic](tree, k)``
    for every tree of the block, bit-identical, in one engine pass."""
    if block.num_trees == 0:
        check_heuristic(heuristic)
        return []
    pos = forest_select_positions(block, heuristic, k)
    cuts = np.searchsorted(pos, block.offsets[1:-1])
    slot = np.searchsorted(block.offsets, pos, side="right") - 1
    local = pos - block.offsets[slot]
    return np.split(local, cuts)


def forest_counts(block: TreeBlock, heuristic: str, k: int) -> np.ndarray:
    """Per-tree selection sizes without materializing the selections
    (greedy/full) or the traceback (dp) — the Tables 2/3 fast path."""
    rule = check_heuristic(heuristic)
    if rule is None:
        return forest_dp_counts(block, k)
    mask = rule(block.depth, k)
    return np.bincount(block.slot_ids()[mask], minlength=block.num_trees)


def forest_shortcuts(
    block: TreeBlock, heuristic: str, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortcut triples ``(src, dst, weight)`` for the whole block —
    what :func:`~repro.preprocess.pipeline.build_kr_graph` merges, in the
    same order as the scalar per-tree walk + concatenation."""
    pos = forest_select_positions(block, heuristic, k)
    slot = np.searchsorted(block.offsets, pos, side="right") - 1
    return (
        block.sources[slot],
        block.vertices[pos],
        block.dist[pos],
    )


def batched_select(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    k: int,
    heuristic: str,
    *,
    include_ties: bool = True,
    slot_block: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """End-to-end selection fast path: ``(r_ρ, src, dst, weight)``.

    Slot blocks of ball trees come straight from the batched engine
    (:func:`~repro.preprocess.batched.batched_tree_block`'s per-chunk
    kernel — no ``BallSearchResult`` or per-tree ``BallTree`` is ever
    materialized) and each block flows through the forest engine above.
    Output equals :func:`~repro.preprocess.scalar.scalar_select` (the
    per-tree walkers over heap-searched trees) bit for bit.
    """
    check_heuristic(heuristic)  # before any ball search runs
    if k < 1:
        raise ValueError("k >= 1 required")
    radii_parts: list[np.ndarray] = []
    src_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    w_parts: list[np.ndarray] = []
    for radii_chunk, block in iter_tree_blocks(
        graph, sources, rho, include_ties=include_ties, slot_block=slot_block
    ):
        s, d, w = forest_shortcuts(block, heuristic, k)
        radii_parts.append(radii_chunk)
        src_parts.append(s)
        dst_parts.append(d)
        w_parts.append(w)
    return (
        _concat_or_empty(radii_parts, np.float64),
        _concat_or_empty(src_parts, np.int64),
        _concat_or_empty(dst_parts, np.int64),
        _concat_or_empty(w_parts, np.float64),
    )
