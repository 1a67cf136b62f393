"""Process-pool parallel map — the real-parallelism substrate.

CPython's GIL serializes shared-memory threads, so the library's actual
parallelism (as opposed to the simulated-PRAM accounting) uses processes.
The embarrassingly parallel phases are preprocessing — n independent
truncated Dijkstras (Lemma 4.2), one preprocessing per shard — and
batched multi-source queries
(:meth:`repro.core.solver.PreprocessedSSSP.solve_many`).
:func:`parallel_map` fans item chunks out to a fork-based pool and hands
every worker one read-only payload (a CSR graph, radii) through
inherited module state, so children read it copy-on-write instead of
deserializing a private copy per task: the mpi4py-style "communicate
buffers, not objects" discipline adapted to one box.

Results come back in chunk order, so output is bit-identical for any
``n_jobs`` — a property the test-suite pins.

Thread/fork safety:

* :func:`parallel_map` may be called concurrently from several threads.
  Payloads are keyed by a per-call token, so concurrent maps never see
  each other's payloads, and the staging lock is released before the
  pool forks — maps overlap instead of serializing.
* Forking from a multi-threaded parent is safe *here* because the
  child only ever runs the worker function: it reads the inherited
  payload dict directly and never acquires ``_SHARED_LOCK`` (a lock
  another parent thread might have held at fork time, which would be
  permanently stuck in the child).  Keep it that way — any new code
  that runs in workers must not touch the staging lock.
* Worker functions receive read-only shared state; anything they
  mutate must be chunk-local, and results travel back through the
  pool's pipe.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from .chunking import resolve_jobs, split_evenly

__all__ = ["parallel_map"]

#: chunks per worker: over-partitioning for load balance — ball searches
#: on skewed graphs (webgraph hubs) have very uneven costs.
_CHUNKS_PER_JOB = 4

#: fork-inherited payloads, keyed by a per-call token.  A payload is
#: staged before the pool forks and removed once its map completes;
#: tokens keep concurrent callers and *worker respawns* correct — a pool
#: that replaces a crashed worker mid-map forks it from the parent at
#: that moment, and the token still resolves to the right payload even
#: if another thread staged its own in between.  The lock only guards
#: the dict mutations, never a fork or a map.
_SHARED_MAP: dict[int, Any] = {}
_SHARED_LOCK = threading.Lock()
_SHARED_TOKENS = itertools.count()


def _invoke(fn: Callable, shared: Any, fn_kwargs: dict, chunk: np.ndarray) -> Any:
    return fn(shared, chunk, **fn_kwargs)


def _invoke_shared(
    fn: Callable, fn_kwargs: dict, token: int, chunk: np.ndarray
) -> Any:
    return fn(_SHARED_MAP[token], chunk, **fn_kwargs)


def parallel_map(
    fn: Callable,
    shared: Any,
    items: Sequence | np.ndarray,
    *,
    n_jobs: int = 1,
    fn_kwargs: dict | None = None,
) -> list[Any]:
    """Apply ``fn(shared, chunk, **fn_kwargs)`` over chunks of ``items``.

    Parameters
    ----------
    fn: top-level (picklable) callable taking the payload and a chunk.
    shared: read-only payload every call receives.  Fork-based workers
        inherit it copy-on-write from module state staged before the
        pool forks; only chunks travel through the task pipe, so a
        multi-gigabyte CSR graph costs nothing per task.  Without fork
        (non-POSIX) it is pickled with every task instead.
    n_jobs: worker processes; 1 (default) runs inline with zero overhead,
        0 or negative means one per CPU core.

    Returns
    -------
    One result per chunk, in deterministic input order.
    """
    fn_kwargs = fn_kwargs or {}
    jobs = resolve_jobs(n_jobs)
    if len(items) == 0:
        return []
    if jobs == 1:
        return [fn(shared, c, **fn_kwargs) for c in split_evenly(items, 1)]
    chunks = split_evenly(items, jobs * _CHUNKS_PER_JOB)
    try:
        ctx = mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = mp.get_context("spawn")
    if ctx.get_start_method() != "fork":  # pragma: no cover - non-POSIX
        with ctx.Pool(processes=jobs) as pool:
            return pool.map(partial(_invoke, fn, shared, fn_kwargs), chunks)
    # Children snapshot the payload map copy-on-write whenever they fork
    # (pool start *or* mid-map worker respawn), so the payload stays
    # staged under its token for the whole map.
    with _SHARED_LOCK:
        token = next(_SHARED_TOKENS)
        _SHARED_MAP[token] = shared
    try:
        with ctx.Pool(processes=jobs) as pool:
            return pool.map(partial(_invoke_shared, fn, fn_kwargs, token), chunks)
    finally:
        with _SHARED_LOCK:
            del _SHARED_MAP[token]
