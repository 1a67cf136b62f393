"""Batched vectorized ball search — many ρ-balls per NumPy round.

:func:`repro.preprocess.ball.ball_search` is a faithful but scalar
truncated Dijkstra: one heap, one Python dict, one source at a time.  The
preprocessing phase needs *n* of them (Lemma 4.2), which made it the
end-to-end bottleneck once PR 1 vectorized the query-time relaxation
engine.  This module applies the same lesson to preprocessing: process
whole blocks of sources with flat array kernels, so the per-round Python
overhead is amortized over hundreds of concurrent ball searches.

Slot-based frontier kernel
--------------------------
Sources are packed into *slots*: a block of ``S`` sources shares one dense
``(S, n)`` tentative-distance matrix, addressed flat as
``key = slot · n + vertex``.  Each round performs

1. one flat CSR gather of every arc out of every active ``(slot, vertex)``
   pair (the engine subsystem's multi-arange primitive, with a slot
   column riding along), and
2. one ``np.minimum.at`` scatter-min of ``δ(slot, tail) + w`` into the
   flat distance array — a CRCW priority-write across *all* balls at once.

Truncation is a per-slot **pruning bound** ``B_s``: the ρ-th smallest
tentative distance seen so far in slot ``s`` (``∞`` until ρ vertices are
reached).  Candidates with ``δ + w > B_s`` are dropped.  ``B_s`` only
tightens and never drops below the final ``r_ρ(s)``, and every prefix of a
shortest path to a ball member stays ≤ ``r_ρ(s) ≤ B_s``, so all ball
members converge to their exact distances — the same values, bit for bit,
as the scalar heap search (both compute min-plus closures with identical
left-to-right float additions along paths).

Min-hop tree semantics
----------------------
The scalar search orders by the lexicographic ``(distance, hops, vertex)``
heap key.  Rather than scatter-minning a composite key, the batched engine
recovers the identical outputs in a post-pass over the settled region:

* ``hops``: a scatter-min fixpoint of ``hops(u) + 1`` over *tight* arcs
  (``δ(u) + w == δ(v)``) within each ball — the min-hop depth over
  shortest paths.
* ``parent``: among tight arcs that also realize the min-hop depth, the
  scalar search keeps the first writer in settle order, which is exactly
  ``argmin (δ(u), u)`` — two scatter-min passes here.
* ``order``: the heap's settle order is the sort by ``(dist, hops, id)``.

``include_ties`` (§5.1) and ``lightest_edges`` (Lemma 4.2's ρ-lightest-arc
restriction; requires weight-sorted adjacency) are honoured exactly:
ties select all members with ``dist ≤ r_ρ``, and the arc cap is applied in
the gather of both phases, so results match :func:`ball_search` on every
field, including ``edges_scanned`` (each settled vertex scans its capped
arc range exactly once in the scalar loop).

Lemma 4.2 work/depth accounting
-------------------------------
Lemma 4.2 bounds one ρ-ball search by ``O(ρ² log ρ)`` work and its
parallelization across sources gives ``O(n ρ² log ρ)`` work total with
``O(log n)``-ish depth per relaxation wave.  The batched rounds realize
that schedule directly: round ``t`` relaxes, for every slot at once, the
wave of vertices whose tentative key improved in round ``t-1`` — the
per-slot work stays the lemma's ``O(ρ · min(deg, ρ))`` arc scans (the
pruning bound plays the truncated heap's role), while the *depth* of the
computation is the number of rounds: the maximum hop-length of a shortest
path inside any ball (≤ ball size, typically far less), matching the
lemma's parallel-Dijkstra-wave accounting.  Python/NumPy overhead is paid
once per round instead of once per heap operation, which is where the
measured speedup over the scalar reference comes from
(``benchmarks/bench_scaling.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..parallel.chunking import split_blocks
from .ball import BallSearchResult
from .tree import BallTree, TreeBlock

__all__ = [
    "batched_ball_search",
    "batched_ball_trees",
    "batched_radii",
    "batched_tree_block",
    "default_slot_block",
    "iter_tree_blocks",
]

#: target bytes of dense per-block scratch (all arrays; see
#: default_slot_block for the per-(slot, vertex) breakdown).  The
#: scratch is retained between calls (that is the point — it amortizes
#: the first-touch page-fault cost); call ``_SCRATCH.clear()`` to
#: release it explicitly.
_SLOT_BYTES_BUDGET = 256 * 1024 * 1024
#: re-tighten the pruning bounds every (mask + 1) relaxation rounds.
_RETIGHTEN_MASK = 15
_EMPTY = np.empty(0, dtype=np.int64)


def default_slot_block(
    n: int, num_sources: int, *, dense_bytes: int = 41, max_block: int = 512
) -> int:
    """Sources per slot block: bounded dense ``(slot, vertex)`` state.

    ``dense_bytes`` is the per-(slot, vertex) scratch cost — 41 bytes
    for a full ball search (dist f8 + hops i8 + parent i8 + pdist f8 +
    claim i4 + mindex i4 + member b1), 12 for the distance-only radii
    path (dist + claim).  The block size keeps the dense scratch under
    the module budget, capped at ``max_block`` slots: beyond a few
    hundred slots the per-round NumPy overhead is fully amortized, while
    the region the scatter/gather kernels actually touch (slots × ball
    size) outgrows the cache and every random access starts missing —
    512 measures as the sweet spot on road/grid/web workloads.
    """
    per_slot = dense_bytes * max(1, n)
    block = max(1, _SLOT_BYTES_BUDGET // per_slot)
    return int(min(block, max_block, max(1, num_sources)))


def _gather_arcs(
    indptr: np.ndarray,
    caps: np.ndarray,
    verts: np.ndarray,
    slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat CSR gather of the (capped) arcs out of each (slot, vertex).

    Returns ``(arc_positions, tail_vertices, tail_slots)`` with one entry
    per arc — the engine kernel's multi-arange, extended with a slot
    column so one call serves every active ball.
    """
    counts = caps[verts]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY, _EMPTY
    starts = np.repeat(indptr[verts], counts)
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    return starts + within, np.repeat(verts, counts), np.repeat(slots, counts)


#: reusable flat (slot, vertex) state, grown on demand and kept filled
#: with its neutral value outside the touched region (callers restore
#: touched entries before returning).  Saves a large first-touch page
#: fault cost per block; fork-pool workers inherit/copy-on-write theirs.
_SCRATCH: dict[str, np.ndarray] = {}


def _scratch(name: str, size: int, fill, dtype) -> np.ndarray:
    arr = _SCRATCH.get(name)
    if arr is None or len(arr) < size:
        arr = np.full(size, fill, dtype=dtype)
        _SCRATCH[name] = arr
    return arr


def _relax_block(
    graph: CSRGraph, sources: np.ndarray, rho: int, caps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase A: pruned multi-source label correcting over one slot block.

    Returns ``(dist, keys_pad, reach_counts)``: the flat ``S·n``
    tentative-distance scratch array (exact for every vertex within its
    slot's ρ-ball, ties included) and the reached pairs as a per-slot
    padded ledger — row ``s`` of ``keys_pad`` holds the flat keys of
    slot ``s``'s reached pairs in first-reach order, valid up to
    ``reach_counts[s]``.  The caller owns restoring
    ``dist[reached] = inf`` when done with the block (see
    :func:`_reached_keys`).

    The pruning bound ``B_s`` is the ρ-th smallest *current* tentative
    distance of slot ``s``'s reached pairs, taken sort-free off the
    padded key ledger: gather the rows' distances, mask the padding,
    one linear ``np.partition`` per row batch.  Tentative distances
    dominate finals, so the statistic is always ≥ the final r_ρ — a
    valid, ever-tightening bound.  Each slot gets its bound the instant
    it crosses ρ reached pairs; a periodic pass re-tightens the rows
    that still have a live frontier.  No O(R log R) sorting happens
    inside the round loop; exact order statistics are taken once, at
    extraction time.
    """
    n = graph.n
    num_slots = len(sources)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights

    dist = _scratch("dist", num_slots * n, np.inf, np.float64)
    claim = _scratch("claim", num_slots * n, 0, np.int32)
    src_keys = np.arange(num_slots, dtype=np.int64) * n + sources
    dist[src_keys] = 0.0
    bound = np.full(num_slots, np.inf)
    if rho <= 1:
        bound[:] = 0.0  # r_1 = 0: only the zero-weight closure survives
    any_bound = rho <= 1
    reach_counts = np.ones(num_slots, dtype=np.int64)
    # Per-slot reached-key ledger, appended in first-reach order.
    cap = max(2 * rho, 16)
    keys_pad = np.zeros((num_slots, cap), dtype=np.int64)
    keys_pad[:, 0] = src_keys
    frontier = src_keys
    f_slots = np.arange(num_slots, dtype=np.int64)
    round_idx = 0

    def row_stat(rows: np.ndarray) -> np.ndarray:
        """Exact ρ-th smallest current distance for the given slot rows.

        The live-loop sibling of :func:`_ledger_rho_stat`: it works on a
        row subset mid-growth and needs no component-radius fallback
        (callers only pass rows with ≥ ρ reached pairs)."""
        cur = dist[keys_pad[rows]]
        pad = np.arange(cap, dtype=np.int64)[None, :] >= reach_counts[rows][
            :, None
        ]
        cur[pad] = np.inf
        return np.partition(cur, rho - 1, axis=1)[:, rho - 1]

    while len(frontier):
        round_idx += 1
        if any_bound and (round_idx & _RETIGHTEN_MASK) == 0:
            # Periodic re-tighten of slots that still have a live
            # frontier (finished slots' bounds no longer matter).
            active = np.zeros(num_slots, dtype=bool)
            active[f_slots] = True
            rows = np.flatnonzero(active & (reach_counts >= rho))
            if len(rows):
                bound[rows] = row_stat(rows)
            keep = dist[frontier] <= bound[f_slots]
            if not keep.all():
                frontier, f_slots = frontier[keep], f_slots[keep]
                if not len(frontier):
                    break

        # The _gather_arcs multi-arange, inlined: the hot loop fuses the
        # gather with repeat-based tail-distance/slot-base/bound columns
        # (cheap frontier-sized bases repeated once) instead of paying
        # for the helper's per-arc tail/slot arrays it would not use.
        f_verts = frontier - f_slots * n
        counts_f = caps[f_verts]
        total = int(counts_f.sum())
        if total == 0:
            break
        starts = np.repeat(indptr[f_verts], counts_f)
        cum = np.cumsum(counts_f)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            cum - counts_f, counts_f
        )
        arcpos = starts + within
        cand = np.repeat(dist[frontier], counts_f) + weights[arcpos]
        slot_base = np.repeat(frontier - f_verts, counts_f)
        if any_bound:
            # Cheap bound filter first, so the expensive random-access
            # gather of current target distances runs on fewer arcs.
            okb = cand <= np.repeat(bound[f_slots], counts_f)
            arcpos, cand = arcpos[okb], cand[okb]
            slot_base = slot_base[okb]
        keys = slot_base + indices[arcpos]
        pre = dist[keys]
        imp = cand < pre
        keys, cand, pre = keys[imp], cand[imp], pre[imp]
        if not len(keys):
            break
        # Sort-free dedupe: every target key claims its arc's position;
        # exactly one position per distinct key reads its own value back
        # (duplicate fancy assignment keeps the last write).  The claim
        # scratch never needs clearing — only positions written this
        # round are read back.
        ticket = np.arange(len(keys), dtype=np.int32)
        claim[keys] = ticket
        first = claim[keys] == ticket
        uniq = keys[first]  # distinct improved targets, unsorted
        fresh = np.isinf(pre[first])
        np.minimum.at(dist, keys, cand)  # WriteMin across all balls at once
        # Every distinct target strictly improved (candidates were
        # pre-filtered on cand < dist), so uniq is the next frontier.
        frontier = uniq
        f_slots = frontier // n
        if fresh.any():
            fresh_keys = uniq[fresh]
            # Append first-reached keys to the per-slot ledger rows
            # (grouped by slot for the run-position arithmetic).
            fs = f_slots[fresh]
            order = np.argsort(fs, kind="stable")
            fs = fs[order]
            fresh_keys = fresh_keys[order]
            added = np.bincount(fs, minlength=num_slots)
            run_start = np.zeros(num_slots, dtype=np.int64)
            np.cumsum(added[:-1], out=run_start[1:])
            pos = reach_counts[fs] + np.arange(len(fs), dtype=np.int64)
            pos -= run_start[fs]
            need = int(pos.max()) + 1
            if need > cap:
                new_cap = max(2 * cap, need)
                keys_pad = np.concatenate(
                    (
                        keys_pad,
                        np.zeros((num_slots, new_cap - cap), dtype=np.int64),
                    ),
                    axis=1,
                )
                cap = new_cap
            keys_pad[fs, pos] = fresh_keys
            grown = reach_counts + added
            crossing = (reach_counts < rho) & (grown >= rho)
            reach_counts = grown
            if crossing.any():
                # Instant bound for slots that just crossed ρ reached.
                bound[crossing] = row_stat(np.flatnonzero(crossing))
                any_bound = True
    return dist, keys_pad, reach_counts


def _reached_keys(keys_pad: np.ndarray, reach_counts: np.ndarray) -> np.ndarray:
    """Flatten the padded first-touch ledger into the reached-key set."""
    cap = keys_pad.shape[1]
    valid = np.arange(cap, dtype=np.int64)[None, :] < reach_counts[:, None]
    return keys_pad[valid]


def _ledger_view(
    dist: np.ndarray, keys_pad: np.ndarray, reach_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Current distances per ledger row, ready for order statistics.

    Trims the ledger to its used width (outlier slots may have grown
    the padding well past the typical row), gathers the rows' current
    distances, masks the padding to ``inf``, and computes the
    component-radius fallback (row max over the valid entries).
    Returns ``(keys_pad_trimmed, cur, valid, comp_radius)``.
    """
    keys_pad = keys_pad[:, : int(reach_counts.max())]
    cap = keys_pad.shape[1]
    cur = dist[keys_pad]
    valid = np.arange(cap, dtype=np.int64)[None, :] < reach_counts[:, None]
    cur[~valid] = np.inf
    comp_radius = np.where(valid, cur, -np.inf).max(axis=1)
    return keys_pad, cur, valid, comp_radius


def _ledger_rho_stat(
    cur: np.ndarray,
    reach_counts: np.ndarray,
    comp_radius: np.ndarray,
    rho: int,
) -> np.ndarray:
    """ρ-th smallest current distance per row (one linear partition),
    degrading to the component radius for rows with < ρ reached — the
    scalar ``BallSearchResult.r_rho`` semantics, vectorized."""
    if rho <= cur.shape[1]:
        stat = np.partition(cur, rho - 1, axis=1)[:, rho - 1]
        return np.where(reach_counts >= rho, stat, comp_radius)
    return comp_radius.copy()


_BIG_HOPS = np.iinfo(np.int64).max // 2
#: graph-independent "no parent written" sentinel (beyond any vertex id).
_NO_PARENT = np.iinfo(np.int64).max


def _settle_block(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    caps: np.ndarray,
    dist: np.ndarray,
    keys_pad: np.ndarray,
    reach_counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Phase B core: min-hop trees + settle order for one block.

    Returns ``(m_keys, m_dist, m_hops, m_parent, m_offsets)``: the
    ties-included ball members of every slot concatenated in *settle
    order* — the scalar heap's pop order, i.e. sorted by the
    lexicographic ``(dist, hops, vertex)`` within each slot — with the
    parent *vertex id* per member (-1 for sources) and per-slot offsets
    into the concatenation.  Restores all scratch invariants before
    returning (the ``dist`` scratch stays live, owned by the caller).
    """
    n = graph.n
    num_slots = len(sources)
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights

    # r_ρ per slot off the padded ledger (one linear partition, no
    # sort); degrades to the component radius when the component is
    # smaller than ρ (the scalar `complete` case).
    keys_pad, cur, valid, comp_radius = _ledger_view(
        dist, keys_pad, reach_counts
    )
    radius = _ledger_rho_stat(cur, reach_counts, comp_radius, rho)
    reached = keys_pad[valid]

    member_mask = dist[reached] <= radius[reached // n]
    m_keys = reached[member_mask]
    m_slots = m_keys // n
    m_verts = m_keys - m_slots * n
    member = _scratch("member", num_slots * n, False, bool)
    member[m_keys] = True

    # Min-hop depths: scatter-min relaxation of hops(u)+1 over tight
    # arcs (δ(u) + w == δ(v)) between ball members, level-synchronous
    # from each source so every tight arc is processed roughly once
    # (O(tight arcs) total instead of O(tight arcs × tree depth)).
    hops = _scratch("hops", num_slots * n, _BIG_HOPS, np.int64)
    claim = _scratch("claim", num_slots * n, 0, np.int32)
    src_keys = np.arange(num_slots, dtype=np.int64) * n + sources
    hops[src_keys] = 0
    arcpos, a_verts, a_slots = _gather_arcs(indptr, caps, m_verts, m_slots)
    tail_keys = a_slots * n + a_verts
    head_keys = a_slots * n + indices[arcpos]
    tight = member[head_keys] & (
        dist[tail_keys] + weights[arcpos] == dist[head_keys]
    )
    t_tail, t_head = tail_keys[tight], head_keys[tight]
    # Group tight arcs by tail member (the gather above emits them in
    # member order, so the grouping is a bincount + prefix sum away).
    t_mi = np.repeat(
        np.arange(len(m_keys), dtype=np.int64), caps[m_verts]
    )[tight]
    t_counts = np.bincount(t_mi, minlength=len(m_keys))
    t_start = np.zeros(len(m_keys) + 1, dtype=np.int64)
    np.cumsum(t_counts, out=t_start[1:])
    mindex = _scratch("mindex", num_slots * n, 0, np.int32)
    mindex[m_keys] = np.arange(len(m_keys), dtype=np.int32)
    frontier_mi = np.flatnonzero(m_keys == src_keys[m_slots])
    while len(frontier_mi):
        fc = t_counts[frontier_mi]
        total = int(fc.sum())
        if total == 0:
            break
        arc = np.repeat(t_start[frontier_mi], fc)
        cum = np.cumsum(fc)
        arc += np.arange(total, dtype=np.int64) - np.repeat(cum - fc, fc)
        heads = t_head[arc]
        cand = np.repeat(hops[m_keys[frontier_mi]] + 1, fc)
        imp = cand < hops[heads]
        heads, cand = heads[imp], cand[imp]
        if not len(heads):
            break
        np.minimum.at(hops, heads, cand)
        ticket = np.arange(len(heads), dtype=np.int32)
        claim[heads] = ticket
        frontier_mi = mindex[heads[claim[heads] == ticket]].astype(np.int64)

    # Parents: the scalar search keeps the first settle-order writer of
    # the final (dist, hops) key — argmin (δ(u), u) over arcs that
    # realize both the distance and the min-hop depth.  Two scatter-min
    # passes (first on the tail distance, then on the tail id among the
    # distance winners) replace a three-key lexsort.
    realizes = hops[t_tail] + 1 == hops[t_head]
    p_tail, p_head = t_tail[realizes], t_head[realizes]
    p_dist = dist[p_tail]
    pdist = _scratch("pdist", num_slots * n, np.inf, np.float64)
    np.minimum.at(pdist, p_head, p_dist)
    best = p_dist == pdist[p_head]
    p_tail, p_head = p_tail[best], p_head[best]
    parent = _scratch("parent", num_slots * n, _NO_PARENT, np.int64)
    np.minimum.at(parent, p_head, p_tail % n)

    # Settle order: the heap pops by the lexicographic (dist, hops, id);
    # hops and vertex id pack into one integer key, so three stable
    # sorts suffice.
    m_dist, m_hops = dist[m_keys], hops[m_keys]
    order = np.lexsort((m_hops * n + m_verts, m_dist, m_slots))
    m_keys, m_dist, m_hops = m_keys[order], m_dist[order], m_hops[order]
    m_parent = parent[m_keys]
    m_parent[m_parent == _NO_PARENT] = -1  # untouched entries: the sources
    m_counts = np.bincount(m_slots, minlength=num_slots)
    m_offsets = np.zeros(num_slots + 1, dtype=np.int64)
    np.cumsum(m_counts, out=m_offsets[1:])

    # Restore the scratch invariants (only member keys were touched).
    member[m_keys] = False
    hops[m_keys] = _BIG_HOPS
    parent[m_keys] = _NO_PARENT
    pdist[m_keys] = np.inf
    return m_keys, m_dist, m_hops, m_parent, m_offsets


def _ball_results_block(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    caps: np.ndarray,
    dist: np.ndarray,
    keys_pad: np.ndarray,
    reach_counts: np.ndarray,
    include_ties: bool,
) -> list[BallSearchResult]:
    """Phase B: assemble one :class:`BallSearchResult` per slot."""
    n = graph.n
    m_keys, m_dist, m_hops, m_parent, m_offsets = _settle_block(
        graph, sources, rho, caps, dist, keys_pad, reach_counts
    )
    m_verts = m_keys % n
    results: list[BallSearchResult] = []
    for s in range(len(sources)):
        lo, hi = int(m_offsets[s]), int(m_offsets[s + 1])
        size = hi - lo
        take = size if include_ties else min(rho, size)
        sl = slice(lo, lo + take)
        overts = m_verts[sl].copy()
        results.append(
            BallSearchResult(
                source=int(sources[s]),
                order=overts,
                dist=m_dist[sl].copy(),
                hops=m_hops[sl].copy(),
                parent=m_parent[sl].copy(),
                edges_scanned=int(caps[overts].sum()),
                complete=size < rho,
            )
        )
    return results


def _arc_caps(graph: CSRGraph, rho: int, lightest_edges: bool) -> np.ndarray:
    """Per-vertex scanned-arc counts (Lemma 4.2's lightest-ρ cap)."""
    degrees = graph.degrees()
    return np.minimum(degrees, rho) if lightest_edges else degrees


def _check_sources(graph: CSRGraph, sources, rho: int) -> np.ndarray:
    """Shared argument validation for the public batched entry points.

    A bool or non-integer source array raises :class:`TypeError`, as
    :func:`~repro.graphs.validate.check_vertex` does for one source: a
    cast would search from ``int(2.7) == 2`` or ``int(True) == 1``.  An
    empty source list is legal, whatever its dtype.
    """
    sources = np.asarray(sources)
    # NumPy's bool is not an integer dtype, so this rejects it too
    if sources.size and not np.issubdtype(sources.dtype, np.integer):
        raise TypeError(f"sources must be integer ids, got dtype {sources.dtype}")
    sources = np.ascontiguousarray(sources, dtype=np.int64)
    n = graph.n
    if len(sources) and not (
        0 <= int(sources.min()) and int(sources.max()) < n
    ):
        bad = sources[(sources < 0) | (sources >= n)][0]
        raise ValueError(f"source {bad} out of range [0, {n})")
    if rho < 1:
        raise ValueError("rho >= 1 required")
    return sources


def batched_ball_search(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    *,
    include_ties: bool = True,
    lightest_edges: bool = False,
    weight_sorted: bool = False,
    slot_block: int | None = None,
) -> list[BallSearchResult]:
    """Run :func:`ball_search` for every source, batched over slots.

    Bit-identical to the scalar search on every result field; see the
    module docstring for how.  ``slot_block`` caps the number of
    concurrent balls per dense block (default: auto-sized from n).
    """
    n = graph.n
    sources = _check_sources(graph, sources, rho)
    if lightest_edges and not weight_sorted and not graph.is_unweighted:
        raise ValueError(
            "lightest_edges requires weight-sorted adjacency "
            "(see sort_adjacency_by_weight)"
        )
    caps = _arc_caps(graph, rho, lightest_edges)
    block = slot_block or default_slot_block(n, len(sources))
    results: list[BallSearchResult] = []
    try:
        for chunk in split_blocks(sources, block):
            dist, keys_pad, reach_counts = _relax_block(graph, chunk, rho, caps)
            results.extend(
                _ball_results_block(
                    graph, chunk, rho, caps, dist, keys_pad, reach_counts,
                    include_ties,
                )
            )
            # restore the scratch invariant
            dist[_reached_keys(keys_pad, reach_counts)] = np.inf
    except BaseException:
        _SCRATCH.clear()  # scratch may be mid-block dirty; rebuild next call
        raise
    return results


def _chunk_tree_block(
    graph: CSRGraph,
    chunk: np.ndarray,
    rho: int,
    caps: np.ndarray,
    include_ties: bool,
) -> tuple[np.ndarray, TreeBlock]:
    """``(r_ρ per slot, TreeBlock)`` for one slot block — phases A and B
    plus the flat local-parent remap, no per-tree materialization.

    Scratch invariants are fully restored before returning (success
    path); callers own the mid-block failure cleanup.
    """
    n = graph.n
    dist, keys_pad, reach_counts = _relax_block(graph, chunk, rho, caps)
    m_keys, m_dist, m_hops, m_parent, m_offsets = _settle_block(
        graph, chunk, rho, caps, dist, keys_pad, reach_counts
    )
    m_verts = m_keys % n
    # Dense global→local remap: every member key learns its settle
    # position within its slot.  Like the claim scratch, stale entries
    # are harmless — lookups only hit keys written this block (tree
    # parents are always ball members).  (reuses the mindex scratch —
    # _settle_block is done with it, and every key read below is
    # rewritten here first)
    local = _scratch("mindex", len(chunk) * n, 0, np.int32)
    starts = np.repeat(m_offsets[:-1], np.diff(m_offsets))
    local[m_keys] = (
        np.arange(len(m_keys), dtype=np.int64) - starts
    ).astype(np.int32)
    plocal = local[m_keys - m_verts + m_parent].astype(np.int64)
    plocal[m_parent < 0] = -1  # sources
    sizes = np.diff(m_offsets)
    minsz = np.minimum(rho, sizes)
    radii = m_dist[m_offsets[:-1] + minsz - 1]
    block = TreeBlock(
        sources=np.ascontiguousarray(chunk, dtype=np.int64),
        offsets=m_offsets,
        vertices=m_verts,
        dist=m_dist,
        depth=m_hops,
        parent=plocal,
    )
    if not include_ties:
        block = block.trim(minsz)
    # restore the scratch invariant
    dist[_reached_keys(keys_pad, reach_counts)] = np.inf
    return radii, block


def iter_tree_blocks(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    *,
    include_ties: bool = True,
    slot_block: int | None = None,
):
    """Yield ``(r_ρ chunk, TreeBlock)`` per slot block, in source order.

    The streaming form of :func:`batched_tree_block`: at most one block
    of dense state is live, which is how the forest selection engine
    (:func:`repro.preprocess.select_batched.batched_select`) keeps the
    end-to-end pipeline O(block · ρ) in memory.
    """
    sources = _check_sources(graph, sources, rho)
    caps = _arc_caps(graph, rho, lightest_edges=False)
    block = slot_block or default_slot_block(graph.n, len(sources))
    try:
        for chunk in split_blocks(sources, block):
            yield _chunk_tree_block(graph, chunk, rho, caps, include_ties)
    except BaseException:
        _SCRATCH.clear()  # scratch may be mid-block dirty; rebuild next call
        raise


def batched_tree_block(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    *,
    include_ties: bool = True,
    slot_block: int | None = None,
) -> tuple[np.ndarray, TreeBlock]:
    """``(r_ρ array, one TreeBlock over all sources)`` — the flat
    (slot, local-node) forest layout, emitted directly by the slot engine
    with no per-tree objects in between (bit-identical to
    :func:`batched_ball_trees` + :func:`~repro.preprocess.tree.block_from_trees`).
    """
    parts = list(
        iter_tree_blocks(
            graph, sources, rho, include_ties=include_ties,
            slot_block=slot_block,
        )
    )
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.empty(0, dtype=np.float64), TreeBlock(
            sources=np.empty(0, dtype=np.int64),
            offsets=np.zeros(1, dtype=np.int64),
            vertices=np.empty(0, dtype=np.int64),
            dist=np.empty(0, dtype=np.float64),
            depth=np.empty(0, dtype=np.int64),
            parent=np.empty(0, dtype=np.int64),
        )
    radii = np.concatenate([r for r, _ in parts])
    blocks = [b for _, b in parts]
    sizes = np.concatenate([b.sizes() for b in blocks])
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    cat = lambda field: np.concatenate([getattr(b, field) for b in blocks])
    return radii, TreeBlock(
        sources=cat("sources"),
        offsets=offsets,
        vertices=cat("vertices"),
        dist=cat("dist"),
        depth=cat("depth"),
        parent=cat("parent"),
    )


def batched_ball_trees(
    graph: CSRGraph,
    sources: np.ndarray,
    rho: int,
    *,
    include_ties: bool = True,
    slot_block: int | None = None,
) -> tuple[np.ndarray, list[BallTree]]:
    """``(r_ρ array, one BallTree per source)`` — the pipeline fast path.

    Equivalent to running :func:`ball_search` +
    :func:`~repro.preprocess.tree.build_ball_tree` per source (bit-
    identical trees and radii), but the global→local id remap happens
    once per block through a dense position scratch instead of once per
    ball through a searchsorted, and no intermediate
    :class:`BallSearchResult` is materialized.  Consumers that can stay
    in the flat forest layout should prefer :func:`batched_tree_block` /
    :func:`iter_tree_blocks` and skip these per-tree objects too.
    """
    radii = np.empty(len(np.asarray(sources)), dtype=np.float64)
    trees: list[BallTree] = []
    row = 0
    for radii_chunk, block in iter_tree_blocks(
        graph, sources, rho, include_ties=include_ties, slot_block=slot_block
    ):
        radii[row : row + block.num_trees] = radii_chunk
        trees.extend(block.tree(i) for i in range(block.num_trees))
        row += block.num_trees
    return radii, trees


def batched_radii(
    graph: CSRGraph,
    sources: np.ndarray,
    rhos: tuple[int, ...],
    *,
    slot_block: int | None = None,
) -> np.ndarray:
    """``r_ρ`` for each source and each ρ — shape ``(|sources|, |ρs|)``.

    The radii fast path: one phase-A pass per block at ``ρ_max`` yields
    every smaller ρ's radius as an order statistic of the reached
    distances, with no hop/parent/tree reconstruction at all.  Matches
    the scalar reference (one :func:`ball_search` at ``ρ_max`` per source)
    bit for bit.
    """
    n = graph.n
    if any(r < 1 for r in rhos):
        raise ValueError("all rho must be >= 1")
    rho_max = max(rhos)
    sources = _check_sources(graph, sources, rho_max)
    caps = _arc_caps(graph, rho_max, lightest_edges=False)
    block = slot_block or default_slot_block(n, len(sources), dense_bytes=12)
    out = np.empty((len(sources), len(rhos)), dtype=np.float64)
    row = 0
    try:
        for chunk in split_blocks(sources, block):
            dist, keys_pad, reach_counts = _relax_block(
                graph, chunk, rho_max, caps
            )
            # Final per-slot order statistics, straight off the padded
            # ledger: one linear np.partition per ρ (no O(R log R) sort).
            keys_pad, cur, valid, comp_radius = _ledger_view(
                dist, keys_pad, reach_counts
            )
            for j, rho in enumerate(rhos):
                out[row : row + len(chunk), j] = _ledger_rho_stat(
                    cur, reach_counts, comp_radius, rho
                )
            row += len(chunk)
            dist[keys_pad[valid]] = np.inf  # restore the scratch invariant
    except BaseException:
        _SCRATCH.clear()  # scratch may be mid-block dirty; rebuild next call
        raise
    return out
