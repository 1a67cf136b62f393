"""Ball-local shortest-path trees.

The shortcut heuristics of §4.2 operate on the min-hop shortest-path tree
spanning one source's ρ-ball.  :class:`BallTree` re-indexes a
:class:`~repro.preprocess.ball.BallSearchResult` prefix into dense local
ids (0 = source, children arrays in CSR-like form) so greedy/DP run in
O(ρ k) with no hashing in the inner loop.

A key reuse property: the settle order of a ball search is prefix-closed —
the ρ'-ball for any ρ' ≤ ρ is a prefix of the ρ-ball, and every parent
settles before its child.  One ball search at ρ_max therefore serves a
whole ρ-sweep (Tables 2/3 iterate ρ over 10..1000 on the same trees).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ball import BallSearchResult

__all__ = ["BallTree", "TreeBlock", "block_from_trees", "build_ball_tree"]


@dataclass
class BallTree:
    """Dense-index view of the SP tree over a ball prefix.

    Attributes
    ----------
    source: ball center (original vertex id).
    vertices: original vertex id per local node (``vertices[0] == source``).
    dist: distance from the source per local node.
    depth: tree hop depth per local node (0 for the source).
    parent: local parent index per node (-1 for the source).
    child_ptr / child_idx: children adjacency in CSR form, ordered so that
        every parent precedes its children in local-id order.
    """

    source: int
    vertices: np.ndarray
    dist: np.ndarray
    depth: np.ndarray
    parent: np.ndarray
    child_ptr: np.ndarray
    child_idx: np.ndarray

    def __len__(self) -> int:
        return len(self.vertices)

    def children(self, i: int) -> np.ndarray:
        """Local ids of the children of local node ``i``."""
        return self.child_idx[self.child_ptr[i] : self.child_ptr[i + 1]]

    @property
    def max_depth(self) -> int:
        """Deepest node's hop depth."""
        return int(self.depth.max()) if len(self.depth) else 0


@dataclass
class TreeBlock:
    """A whole slot block of ball trees in one flat (slot, local-node) layout.

    The forest-level selection engine (:mod:`repro.preprocess.select_batched`)
    runs the §4.2 heuristics over *all* trees of a block at once; this is
    its input format — the per-node fields of every tree concatenated in
    slot order, each tree's nodes in settle (local-id) order, padded-free
    with a CSR-style ``offsets`` array delimiting the slots.

    Attributes
    ----------
    sources: ball center (original vertex id) per slot, shape ``(S,)``.
    offsets: slot boundaries into the flat node arrays, shape ``(S+1,)`` —
        slot ``s`` owns flat positions ``offsets[s]:offsets[s+1]``, with
        position ``offsets[s]`` its root.
    vertices: original vertex id per flat node.
    dist: distance from the slot's source per flat node.
    depth: tree hop depth per flat node (0 for roots).
    parent: *local* parent id per flat node (-1 for roots), exactly as in
        the corresponding :class:`BallTree`.
    """

    sources: np.ndarray
    offsets: np.ndarray
    vertices: np.ndarray
    dist: np.ndarray
    depth: np.ndarray
    parent: np.ndarray

    def __len__(self) -> int:
        """Total node count across all trees."""
        return len(self.vertices)

    @property
    def num_trees(self) -> int:
        return len(self.sources)

    def sizes(self) -> np.ndarray:
        """Node count per slot."""
        return np.diff(self.offsets)

    def slot_ids(self) -> np.ndarray:
        """Owning slot per flat node."""
        return np.repeat(
            np.arange(self.num_trees, dtype=np.int64), self.sizes()
        )

    def flat_parent(self) -> np.ndarray:
        """Parent as a flat position (-1 for roots) — the forest's single
        cross-tree pointer array, what the per-level DP scatters follow."""
        fp = self.parent + np.repeat(self.offsets[:-1], self.sizes())
        fp[self.parent < 0] = -1
        return fp

    def tree(self, i: int) -> BallTree:
        """Materialize slot ``i`` as a standalone :class:`BallTree`."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        parent = self.parent[lo:hi].copy()
        child_ptr, child_idx = _children_csr(parent, hi - lo)
        return BallTree(
            source=int(self.sources[i]),
            vertices=self.vertices[lo:hi].copy(),
            dist=self.dist[lo:hi].copy(),
            depth=self.depth[lo:hi].copy(),
            parent=parent,
            child_ptr=child_ptr,
            child_idx=child_idx,
        )

    def trim(self, sizes: np.ndarray) -> "TreeBlock":
        """Per-slot prefix trim: keep the first ``sizes[s]`` nodes of each
        slot.  Valid for any ``1 <= sizes[s] <= len(slot s)`` because
        settle orders are prefix-closed (parents precede children), the
        same property :func:`build_ball_tree` relies on — so a ρ-sweep
        reuses one block at ρ_max for every smaller ρ."""
        sizes = np.asarray(sizes, dtype=np.int64)
        cur = self.sizes()
        if len(sizes) != self.num_trees or (
            len(sizes) and not ((1 <= sizes) & (sizes <= cur)).all()
        ):
            raise ValueError("sizes must be in [1, len(slot)] per slot")
        within = np.arange(len(self), dtype=np.int64) - np.repeat(
            self.offsets[:-1], cur
        )
        keep = within < np.repeat(sizes, cur)
        offsets = np.zeros(self.num_trees + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return TreeBlock(
            sources=self.sources,
            offsets=offsets,
            vertices=self.vertices[keep],
            dist=self.dist[keep],
            depth=self.depth[keep],
            parent=self.parent[keep],
        )


def _concat_or_empty(parts, dtype) -> np.ndarray:
    """Concatenate, or produce a typed empty array for an empty list.

    Shared by every route that assembles per-tree results (scalar walk,
    forest engine, block construction) so the empty-case dtype stays
    identical between the engines and the scalar reference — part of the
    bit-identity contract.
    """
    return np.concatenate(parts) if len(parts) else np.empty(0, dtype=dtype)


def block_from_trees(trees: Sequence[BallTree]) -> TreeBlock:
    """Concatenate standalone :class:`BallTree` objects into a
    :class:`TreeBlock` (the scalar reference's route into the forest engine;
    the batched engine emits blocks directly, see
    :func:`repro.preprocess.batched.batched_tree_block`)."""
    sizes = np.array([len(t) for t in trees], dtype=np.int64)
    offsets = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    cat = lambda field, dt: _concat_or_empty(
        [getattr(t, field) for t in trees], dt
    )
    return TreeBlock(
        sources=np.array([t.source for t in trees], dtype=np.int64),
        offsets=offsets,
        vertices=cat("vertices", np.int64),
        dist=cat("dist", np.float64),
        depth=cat("depth", np.int64),
        parent=cat("parent", np.int64),
    )


def _children_csr(parent: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Children adjacency of a local parent array, in CSR form.

    ``child_idx`` lists each parent's children in increasing local id —
    a stable argsort of ``parent[1:]`` (local ids 1..t-1 are already in
    id order, so stability gives the per-parent ordering for free).
    """
    counts = np.bincount(parent[1:], minlength=t)
    child_ptr = np.zeros(t + 1, dtype=np.int64)
    np.cumsum(counts, out=child_ptr[1:])
    child_idx = np.argsort(parent[1:], kind="stable").astype(np.int64) + 1
    return child_ptr, child_idx


def build_ball_tree(ball: BallSearchResult, size: int | None = None) -> BallTree:
    """Build the local tree over the first ``size`` settled vertices.

    ``size`` defaults to the full ball.  Any prefix is valid because
    parents always settle before children (Dijkstra order).  Fully
    vectorized: the global→local id remap is a searchsorted over the
    prefix vertices, the children CSR a stable argsort — no per-node
    Python loop (this runs once per source in ``build_kr_graph``).
    """
    t = len(ball.order) if size is None else size
    if not (1 <= t <= len(ball.order)):
        raise ValueError(f"size must be in [1, {len(ball.order)}]")
    verts = ball.order[:t]
    parent = np.empty(t, dtype=np.int64)
    parent[0] = -1
    if t > 1:
        by_id = np.argsort(verts, kind="stable")
        pos = np.searchsorted(verts[by_id], ball.parent[1:t])
        ok = pos < t
        local = by_id[np.minimum(pos, t - 1)]
        ok &= verts[local] == ball.parent[1:t]
        if not ok.all():  # cannot happen for a true Dijkstra prefix
            i = 1 + int(np.flatnonzero(~ok)[0])
            raise ValueError(
                f"parent {int(ball.parent[i])} of {int(verts[i])} outside "
                "prefix; ball order is not prefix-closed"
            )
        parent[1:] = local
    child_ptr, child_idx = _children_csr(parent, t)
    return BallTree(
        source=ball.source,
        vertices=verts.copy(),
        dist=ball.dist[:t].copy(),
        depth=ball.hops[:t].copy(),
        parent=parent,
        child_ptr=child_ptr,
        child_idx=child_idx,
    )
