"""Lazy calendar-queue buckets — the radius substrate on the hot path.

Algorithm 2's ordered sets as binary heaps with decrease-key-by-re-push
cost two ``heapq.heappush`` calls per improved vertex, one vertex at a
time, which profiling showed is the dominant Python-level cost of a
Radius-Stepping solve.  This module keeps them instead with the lazy
batched discipline of Dong, Gu & Sun's ADDS framework
(arXiv:2105.06145) on a calendar queue (Brown 1988 — the structure
∆-stepping's buckets are a special case of):

* **push is O(1) and batch-oblivious** — the improved-vertex array from
  one relaxation substep is appended to a pending buffer as-is, with no
  per-vertex work at all;
* **ordering is amortized into the scans** — when extract-min or split
  next runs, the pending entries are distributed into buckets
  ``⌊key / width⌋`` in a handful of vectorized operations, and only the
  buckets the scan actually touches are inspected.

Entries are *lazy*: a vertex is pushed again each time its key
improves, and stale entries (settled vertex, or stored key no longer
equal to the current key) are dropped when a scan touches them — the
exact analogue of the heaps' lazy-deletion discipline, so the fresh-key
sequence the queue yields is identical to the heaps' (pinned by
``tests/engine/test_buckets.py::TestHeapEquivalence``).

With ``auto_resize=True`` the width is only a starting hint: following
Brown's calendar-queue resize rule (Brown 1988, §4), whenever the entry
population doubles (or collapses) since the last calibration the queue
re-estimates the width from the live key distribution — spread divided
by the target bucket count for a small constant occupancy per bucket —
and redistributes in one vectorized pass.  Scans pop exact ``(key,
vertex)``-ordered entries rather than bucket boundaries, so resizing
changes *cost only*, never the popped sequence; the amortized price is
O(1) per entry (each redistribution is paid for by the doubling that
triggered it).

The structure is deliberately generic over "current key": callers pass
a vectorized ``key_of(vertices) -> keys`` callable at query time, so
one class serves both Q (keyed by ``δ(v)``) and R (keyed by
``δ(v) + r(v)``) as well as ∆-stepping's distance buckets.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["LazyBucketQueue"]

KeyFn = Callable[[np.ndarray], np.ndarray]

#: bucket index used for entries with key = inf; sorts after any finite
#: bucket index reachable from a float key.
_INF_BUCKET = np.iinfo(np.int64).max

#: auto-resize: entries below this never trigger a recalibration (tiny
#: queues are cheap under any width).
_RETUNE_MIN = 64

#: auto-resize: aim for this many entries per bucket — a few per bucket
#: keeps both the per-bucket repack scans and the ``min(buckets)``
#: bucket-index scans short (Brown 1988 recommends small constants).
_TARGET_OCCUPANCY = 16


class LazyBucketQueue:
    """Monotone bucket priority queue with lazy batched inserts.

    Parameters
    ----------
    width: bucket width; entry with key ``k`` lives in bucket
        ``⌊k / width⌋``.  Must be positive and finite.
    maybe_inf: whether pushed keys can be ``inf`` (Radius-Stepping with
        ``r(v) = ∞``).  Infinite keys live in a dedicated overflow
        bucket that sorts after every finite bucket; passing ``False``
        (when the caller knows its keys are finite) skips the
        inf-routing work on every flush.
    auto_resize: treat ``width`` as a starting hint and recalibrate it
        from the live key population whenever the entry count doubles
        or collapses (Brown's calendar-queue resize rule).  Popped
        sequences are unaffected — only scan cost changes.

    Notes
    -----
    Each bucket holds a list of ``(keys, vertices)`` array segments,
    concatenated lazily when a scan inspects the bucket.  Scans flush
    the pending buffer first, prune stale entries, and repack what
    survives into a single segment — that pruning is what keeps the
    lazy scheme amortized O(1) per entry.
    """

    __slots__ = (
        "width",
        "maybe_inf",
        "auto_resize",
        "_buckets",
        "_pending",
        "_size",
        "_tuned_size",
        "_retunes",
    )

    def __init__(
        self, width: float, *, maybe_inf: bool = True, auto_resize: bool = False
    ) -> None:
        if not (width > 0 and math.isfinite(width)):
            raise ValueError(f"bucket width must be positive and finite, got {width}")
        self.width = float(width)
        self.maybe_inf = maybe_inf
        self.auto_resize = auto_resize
        #: bucket index -> list of (keys, vertices) array segments
        self._buckets: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        #: batched inserts not yet distributed into buckets
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._size = 0
        #: entry count at the last recalibration (resize trigger baseline)
        self._tuned_size = 0
        #: recalibrations performed (observability for tests/benchmarks)
        self._retunes = 0

    def __len__(self) -> int:
        """Number of stored entries (including stale ones)."""
        return self._size

    # ------------------------------------------------------------------ #
    def push(self, vertices: np.ndarray, keys: np.ndarray) -> None:
        """Insert one entry per ``(vertex, key)`` pair — one O(1) append
        for the whole batch.

        Earlier entries for the same vertex are *not* removed; they go
        stale and are pruned lazily by the scans.
        """
        if len(vertices) == 0:
            return
        self._pending.append((np.asarray(keys, dtype=np.float64), vertices))
        self._size += len(vertices)

    def _flush(self) -> None:
        """Distribute pending entries into their buckets, vectorized;
        recalibrate the width afterwards when auto-resize triggers."""
        pending = self._pending
        if pending:
            self._pending = []
            if len(pending) == 1:
                keys, verts = pending[0]
            else:
                keys = np.concatenate([p[0] for p in pending])
                verts = np.concatenate([p[1] for p in pending])
            self._distribute(keys, verts)
        if self.auto_resize:
            self._maybe_retune()

    def _distribute(self, keys: np.ndarray, verts: np.ndarray) -> None:
        """Scatter ``(keys, verts)`` into buckets under the current width."""
        if self.maybe_inf:
            finite = np.isfinite(keys)
            idx = np.floor_divide(np.where(finite, keys, 0.0), self.width).astype(
                np.int64
            )
            idx[~finite] = _INF_BUCKET
        else:
            idx = np.floor_divide(keys, self.width).astype(np.int64)
        buckets = self._buckets
        first = int(idx[0])
        if bool((idx == first).all()):  # common case: one bucket per flush
            buckets.setdefault(first, []).append((keys, verts))
            return
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        keys = keys[order]
        verts = verts[order]
        cuts = np.nonzero(idx[1:] != idx[:-1])[0] + 1
        lo = 0
        for hi in [*cuts.tolist(), len(idx)]:
            buckets.setdefault(int(idx[lo]), []).append(
                (keys[lo:hi], verts[lo:hi])
            )
            lo = hi

    # ------------------------------------------------------------------ #
    # Brown 1988 §4: calendar resize
    # ------------------------------------------------------------------ #
    def _maybe_retune(self) -> None:
        """Fire a recalibration when the population doubled or collapsed
        since the last one (never below the ``_RETUNE_MIN`` floor)."""
        size = self._size
        if size >= max(_RETUNE_MIN, 2 * self._tuned_size) or (
            self._tuned_size >= _RETUNE_MIN and 4 * size <= self._tuned_size
        ):
            self._retune(size)

    def _retune(self, size: int) -> None:
        """Re-estimate the width from the live keys and redistribute.

        Width = finite key spread / target bucket count, i.e. a few
        entries per bucket (Brown's rule of sampling the current event
        population).  Degenerate populations (all-equal, all-infinite,
        too few keys) keep the current width; a new width within 2x of
        the old is not worth the redistribution and is skipped.
        """
        self._tuned_size = size
        buckets = self._buckets
        if not buckets:
            return
        segments = [seg for segs in buckets.values() for seg in segs]
        keys, verts = self._concat(segments)
        finite = keys[np.isfinite(keys)] if self.maybe_inf else keys
        if len(finite) < 2:
            return
        spread = float(finite.max()) - float(finite.min())
        if not (spread > 0 and math.isfinite(spread)):
            return
        width = spread / max(1.0, len(finite) / _TARGET_OCCUPANCY)
        if not (width > 0 and math.isfinite(width)):
            return
        if 0.5 <= width / self.width <= 2.0:
            return  # close enough — skip the churn
        self.width = width
        self._retunes += 1
        self._buckets = {}
        self._distribute(keys, verts)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _concat(segments: list[tuple[np.ndarray, np.ndarray]]):
        if len(segments) == 1:
            return segments[0]
        return (
            np.concatenate([s[0] for s in segments]),
            np.concatenate([s[1] for s in segments]),
        )

    def min_fresh_key(self, key_of: KeyFn, dead: np.ndarray) -> float | None:
        """Extract-min *peek*: the smallest fresh key, or ``None`` if empty.

        An entry is fresh iff its vertex is alive and its stored key
        still equals the vertex's current key (the heaps' lazy-deletion
        test; ``inf == inf`` holds, matching tuple comparison).  Scans
        buckets in increasing index, dropping fully-stale buckets and
        repacking partially-stale ones; fresh entries stay queued.
        """
        self._flush()
        buckets = self._buckets
        while buckets:
            b = min(buckets)
            keys, verts = self._concat(buckets[b])
            fresh = ~dead[verts] & (key_of(verts) == keys)
            n_fresh = int(fresh.sum())
            self._size -= len(keys) - n_fresh
            if n_fresh == 0:
                del buckets[b]
                continue
            if n_fresh != len(keys):
                keys = keys[fresh]
                verts = verts[fresh]
            buckets[b] = [(keys, verts)]
            if b == _INF_BUCKET:
                return math.inf
            return float(keys.min())
        return None

    def kth_fresh_key(self, k: int, key_of: KeyFn, dead: np.ndarray) -> float | None:
        """Partition-select: the ``k``-th smallest fresh key (1-indexed).

        When fewer than ``k`` fresh entries remain, returns the largest
        fresh key (the bound that covers everything); ``None`` when the
        queue holds no fresh entry at all.  This is ρ-stepping's
        extract-ρ-min: buckets cover disjoint, increasing key ranges, so
        the answer lives in the first bucket whose cumulative fresh count
        reaches ``k`` and one O(|bucket|) ``np.partition`` finds it — no
        global sort, and only the buckets below the answer are scanned.

        Prunes stale entries exactly like :meth:`min_fresh_key`; fresh
        entries stay queued (this is a peek, not a pop).  For finite
        keys each vertex has at most one fresh entry (pushes happen on
        strict improvement), so ``k`` counts distinct vertices.
        """
        if k < 1:
            raise ValueError(f"k >= 1 required, got {k}")
        self._flush()
        buckets = self._buckets
        count = 0
        tail_max: float | None = None
        for b in sorted(buckets):
            keys, verts = self._concat(buckets[b])
            fresh = ~dead[verts] & (key_of(verts) == keys)
            n_fresh = int(fresh.sum())
            self._size -= len(keys) - n_fresh
            if n_fresh == 0:
                del buckets[b]
                continue
            if n_fresh != len(keys):
                keys = keys[fresh]
                verts = verts[fresh]
            buckets[b] = [(keys, verts)]
            if count + n_fresh >= k:
                return float(np.partition(keys, k - count - 1)[k - count - 1])
            count += n_fresh
            tail_max = float(keys.max())
        return tail_max

    def pop_fresh_until(
        self, bound: float, key_of: KeyFn, dead: np.ndarray
    ) -> np.ndarray:
        """Split: pop every fresh entry with key ≤ ``bound``.

        Returns the popped vertices sorted by ``(key, vertex)`` — the
        same order a lazy binary heap yields them, deduplicated — and
        discards all stale entries it touches.  Fresh entries above
        ``bound`` in the boundary bucket are retained.
        """
        self._flush()
        buckets = self._buckets
        if math.isinf(bound):
            scan = sorted(buckets)
        else:
            # same floor_divide as _flush, so a key equal to the bound can
            # never round into a bucket the scan skips
            limit = int(np.floor_divide(np.float64(bound), self.width))
            scan = sorted(b for b in buckets if b <= limit)
        if not scan:
            return np.empty(0, dtype=np.int64)
        if len(scan) == 1:
            keys, verts = self._concat(buckets.pop(scan[0]))
        else:
            segments = [self._concat(buckets.pop(b)) for b in scan]
            keys = np.concatenate([s[0] for s in segments])
            verts = np.concatenate([s[1] for s in segments])
        self._size -= len(keys)
        fresh = ~dead[verts] & (key_of(verts) == keys)
        take = fresh & (keys <= bound)
        keep = fresh & ~take
        if keep.any():
            # fresh entries above the bound share the boundary bucket;
            # they go back (their bucket index is unchanged).
            kept = (keys[keep], verts[keep])
            buckets.setdefault(scan[-1], []).append(kept)
            self._size += len(kept[0])
        keys = keys[take]
        verts = verts[take]
        if len(verts) == 0:
            return verts.astype(np.int64)
        order = np.lexsort((verts, keys))
        keys = keys[order]
        verts = verts[order]
        inf_mask = np.isinf(keys)
        if inf_mask.any():
            # inf keys can carry duplicate fresh entries for one vertex
            # (every improvement re-pushes at key inf): dedupe.  They all
            # sort after the finite keys, so the (key, vertex) order of
            # the finite prefix is untouched.
            verts = np.concatenate([verts[~inf_mask], np.unique(verts[inf_mask])])
        return verts
