"""Query planner — the caching, coalescing, thread-safe brain of serving.

The paper amortizes one (k,ρ)-preprocessing pass over many SSSP
queries; real query traffic amortizes further, because it repeats
itself: a routing service sees the same depots, landmarks and hub
vertices as sources over and over, and most requests are not "all n
distances from s" but "distance s→t" or "the 10 closest facilities to
s" — tiny reads against a source row someone else already paid for.

:class:`QueryPlanner` exploits both regularities over any
:class:`~repro.core.solver.PreprocessedSSSP`:

* **LRU source-row cache** keyed by source (a planner serves one
  graph through one resolved engine): a solved distance (and parent)
  row is kept and every later query touching that source —
  single-source, point-to-point, k-nearest — is answered from it
  without running a solver.
* **Request deduplication**: queries in one batch sharing a source
  collapse onto one solve.
* **Batch coalescing**: all cache-missing sources of a mixed batch go
  to the row source as *one* ``solve`` call, not one solver call per
  request.

Where rows come from is a **row source**: an object with
``solve(sources, stops) -> rows`` (one :class:`_Row` per source) and
the ``n`` / ``engine`` / ``graph_hash`` it reports.  The constructor
wraps a solver as the engine row source; :meth:`QueryPlanner.from_rows`
takes any other, so the shard router's stitched rows sit behind this
same cache, validation and single-flight core.  A route is the same
parent walk for every row, engine or stitched.

**A row answers what its bound covers.**  ``stops`` holds one
:class:`~repro.engine.driver.StopRule` per source, or ``None`` for a
full row: the union of what the batch asks of that source.  A table
engine ends its run at the first step that settles it (Line 10 of
Algorithm 1), and the row keeps that step's ``d_i`` as its ``bound``
(``∞`` for a full row; a row source may always return full rows).  A
route or distance to ``t`` hits when ``dist[t] ≤ bound``, and a
``k``-nearest query when at least ``k + 1`` vertices lie within the
bound.  A row that is final on some vertices but is no distance prefix
(the shard router's stopped route stitch) carries a ``final`` mask
instead, and answers routes to those vertices only.  ``/distances``, a
batch's :class:`SingleSource` queries and :meth:`QueryPlanner.warm`
always solve fully.  A cached row that does not cover a query is a miss,
and that source is solved again under the batch's rule; the cache never
replaces a row with one of smaller bound.  A masked row is solved again
in full instead, so a source pays at most one solve past its first
(masked rows are not prefixes of one another, and two of them would
only replace each other).  Since a stopped run is an
exact prefix of the full run, parents included, every answer is
bit-identical to the full row's, a route's path too, whatever was
cached before.

Concurrency model (an HTTP/gRPC front end calls one planner from many
worker threads):

* **One lock** guards the LRU (one ``OrderedDict`` of at most
  ``capacity`` rows, whatever the source ids), the in-flight table and
  every counter.  It is held only for dict operations and
  :meth:`_Row.covers` — never across a solve, answer construction or
  an event wait.  A source's probe and, on a miss, its flight claim
  are one critical section, so no thread misses a row that another is
  just publishing.
* **Single-flight solves** — an in-flight table dedups *concurrent*
  misses: the first thread to miss a source becomes its leader and
  runs the (coalesced) ``solve_many``; any other thread missing the
  same source in the meantime blocks on the leader's event and
  receives the very same row object if it covers the thread's own
  query.  If it does not, the thread becomes a leader for its own
  query: no answer ever comes from a row that does not cover it.

Hit/miss/eviction/coalescing/single-flight counters are exposed via
:meth:`stats` for the serving benchmark
(``benchmarks/bench_scaling.py``) and the HTTP ``/stats`` endpoint.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..core.result import parent_path
from ..core.solver import PreprocessedSSSP
from ..engine.driver import StopRule
from ..engine.registry import get_engine
from ..graphs.validate import check_vertex, coerce_vertex
from ..obs.trace import annotate, span

__all__ = [
    "SingleSource",
    "PointToPoint",
    "KNearest",
    "Route",
    "Nearest",
    "QueryPlanner",
    "nearest_from_row",
    "normalize_query",
    "validate_query",
]


# --------------------------------------------------------------------- #
# Query and answer records
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SingleSource:
    """All distances from ``source``; answered with the full row."""

    source: int


@dataclass(frozen=True)
class PointToPoint:
    """One distance (and, when parents are tracked, one path)."""

    source: int
    target: int


@dataclass(frozen=True)
class KNearest:
    """The ``k`` closest *reachable* vertices to ``source`` (excluding
    itself; fewer than ``k`` come back when the component is smaller)."""

    source: int
    k: int


@dataclass(frozen=True)
class Route:
    """Answer to a :class:`PointToPoint` query.

    ``path`` is the vertex sequence source → … → target in the
    *augmented* (k,ρ)-graph — consecutive hops may be shortcut edges,
    whose weights are exact input-graph shortest-path distances, so
    ``distance`` is always the true input-graph metric.  ``None`` when
    the planner does not track parents or the target is unreachable.
    """

    source: int
    target: int
    distance: float
    path: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Nearest:
    """Answer to a :class:`KNearest` query: vertices sorted by
    ``(distance, vertex)``, with their distances."""

    source: int
    vertices: np.ndarray
    distances: np.ndarray


class _Row:
    """One cached source row: read-only distance/parent arrays and the
    ``bound`` up to which they are final (``∞`` for a full row).

    ``settled`` counts the vertices within the bound.  Parents are
    stored as int32 whenever every vertex id fits (n ≤ 2³¹): half the
    bytes of the engines' int64 rows, so the same cache memory holds
    twice the parent rows.

    A row that is not a distance prefix — the shard router's stopped
    route stitch, final on the target's shard and not elsewhere —
    passes a ``final`` mask instead.  It answers routes to the vertices
    the mask holds and nothing else (``settled = 0``: no nearest query
    hits it), and its finite ``bound`` only ranks it below a full row
    for :meth:`QueryPlanner._insert`.  A query it does not cover solves
    its source in full (see :meth:`QueryPlanner._claim`).
    """

    __slots__ = ("dist", "parent", "bound", "settled", "final")

    def __init__(
        self,
        dist: np.ndarray,
        parent: np.ndarray | None,
        bound: float = math.inf,
        final: np.ndarray | None = None,
    ) -> None:
        dist = np.asarray(dist)
        dist.setflags(write=False)
        if parent is not None:
            narrow = len(parent) <= np.iinfo(np.int32).max + 1
            parent = np.asarray(parent, dtype=np.int32 if narrow else np.int64)
            parent.setflags(write=False)
        if final is not None:
            final.setflags(write=False)
        self.dist = dist
        self.parent = parent
        self.bound = bound
        self.final = final
        # beyond the bound a stopped run leaves tentative distances, all
        # above it, so the count is that of entries within the bound
        if bound == math.inf:
            self.settled = len(dist)
        elif final is not None:
            self.settled = 0
        else:
            self.settled = int(np.count_nonzero(dist <= bound))

    def covers(self, need: StopRule | None) -> bool:
        """Whether this row answers ``need`` (``None``: every vertex)."""
        bound = self.bound
        if bound == math.inf:
            return True
        if need is None or self.settled < need.settled:
            return False
        if self.final is not None:
            return all(self.final[t] for t in need.targets)
        dist = self.dist
        return all(dist[t] <= bound for t in need.targets)


class _InFlight:
    """Single-flight record: the leader publishes ``row`` (or ``error``)
    and sets ``event``; followers wait on it instead of re-solving."""

    __slots__ = ("event", "row", "error", "need")

    def __init__(self, need: StopRule | None) -> None:
        self.event = threading.Event()
        self.row = None
        self.error: BaseException | None = None
        self.need = need


def validate_query(query, n: int) -> None:
    """Check a normalized query against a graph with ``n`` vertices —
    the one validation every query surface runs."""
    check_vertex(query.source, "source", n)
    if isinstance(query, PointToPoint):
        check_vertex(query.target, "target", n)
    elif isinstance(query, KNearest):
        if isinstance(query.k, (bool, np.bool_)) or not isinstance(
            query.k, (int, np.integer)
        ):
            raise TypeError(f"k must be an integer, got {query.k!r}")
        if query.k < 0:
            raise ValueError(f"k must be >= 0, got {query.k}")


def normalize_query(query) -> SingleSource | PointToPoint | KNearest:
    """Accept ergonomic shorthands: ``int`` → single-source,
    ``(s, t)`` → point-to-point.  Bools are rejected, not coerced."""
    if isinstance(query, (SingleSource, PointToPoint, KNearest)):
        return query
    if isinstance(query, (bool, np.bool_)):
        raise TypeError(
            "unsupported query: bool is not a vertex id (True would "
            "silently mean vertex 1)"
        )
    if isinstance(query, (int, np.integer)):
        return SingleSource(int(query))
    if isinstance(query, tuple) and len(query) == 2:
        return PointToPoint(
            coerce_vertex(query[0], "source"), coerce_vertex(query[1], "target")
        )
    raise TypeError(
        f"unsupported query {query!r}; expected SingleSource / PointToPoint "
        "/ KNearest, an int source, or an (s, t) pair"
    )


def _need(query) -> StopRule | None:
    """What a query asks of its source row: the rule that settles its
    answer, or ``None`` for the full row."""
    if isinstance(query, PointToPoint):
        return StopRule(targets=(int(query.target),))
    if isinstance(query, KNearest):
        return StopRule(settled=int(query.k) + 1)
    return None


def nearest_from_row(source: int, dist: np.ndarray, k: int) -> Nearest:
    """The k-nearest answer from a distance row.

    Candidates are the reachable vertices other than the source; the
    answer is the first ``k`` of them in ``(distance, vertex)`` order.
    Every candidate tied with the k-th distance is kept before the sort
    (``argpartition`` alone would keep an arbitrary subset of them), so
    the answer depends on the distances only: engine rows and stitched
    rows, full or stopped past the k-th vertex, give the same list.
    """
    # candidates: reachable vertices other than the source — an
    # unreachable vertex must never be presented as "nearest"
    others = np.nonzero(np.isfinite(dist))[0]
    others = others[others != source]
    k = min(k, len(others))
    if k <= 0:
        empty = np.empty(0, dtype=np.int64)
        return Nearest(source, empty, np.empty(0))
    d = dist[others]
    if k < len(others):
        # the k-th smallest distance bounds the sort to its ties and
        # everything below, instead of all n
        kth = np.partition(d, k - 1)[k - 1]
        keep = np.flatnonzero(d <= kth)
        others, d = others[keep], d[keep]
    take = np.lexsort((others, d))[:k]
    return Nearest(source, others[take], d[take])


class _EngineRows:
    """The engine row source: rows solved by one resolved engine of a
    :class:`PreprocessedSSSP`.

    It holds the solver and never the planner: a planner storing its
    own bound methods here would sit in a reference cycle, and a
    dropped service's row cache would live until a full collection.
    """

    __slots__ = ("solver", "engine", "track_parents", "n", "graph_hash")

    def __init__(
        self, solver: PreprocessedSSSP, engine: str, track_parents: bool
    ) -> None:
        self.solver = solver
        self.engine = engine
        self.track_parents = track_parents
        self.n = solver.graph.n
        self.graph_hash = solver.graph.content_hash()

    def solve(self, sources: list[int], stops: list) -> list[_Row]:
        results = self.solver.solve_many(
            sources,
            engine=self.engine,
            track_parents=self.track_parents,
            stops=stops,
        )
        # Pop each result as its row is built, so its int64 parent is
        # freed before the next row's int32 copy: the batch never holds
        # both widths of every row at once.
        results.reverse()
        rows = []
        while results:
            res = results.pop()
            rows.append(_Row(res.dist, res.parent, res.bound))
        return rows


class QueryPlanner:
    """LRU-cached, batch-coalescing, thread-safe query executor.

    Parameters
    ----------
    solver: the preprocessed facade queries run against.
    engine: engine selector; resolved once so ``"auto"`` and its
        concrete name share cache entries.
    capacity: maximum cached source rows (one LRU); ``0`` disables
        caching entirely (every query misses, nothing is stored —
        concurrent identical misses still collapse onto one solve via
        single-flight).
    track_parents: cache parent rows too, enabling :meth:`route` paths.
        Every engine but the treap reference ``bst`` tracks parents;
        asking ``bst`` for them raises ``ValueError`` here, not on the
        first query.

    All public methods are safe to call from multiple threads.
    """

    def __init__(
        self,
        solver: PreprocessedSSSP,
        *,
        engine: str = "auto",
        capacity: int = 256,
        track_parents: bool = False,
    ) -> None:
        resolved = solver.resolve_engine(engine)
        if track_parents and not get_engine(resolved).supports_parents:
            raise ValueError(
                f"the {resolved} engine does not track parents; "
                "pass track_parents=False or pick another engine"
            )
        self._setup(_EngineRows(solver, resolved, track_parents), capacity)

    @classmethod
    def from_rows(cls, rows, *, capacity: int = 256) -> "QueryPlanner":
        """A planner over any row source (see the module docstring).

        ``rows`` must not reference the planner: the planner owns it,
        and a cycle would keep every cached row alive until a full
        garbage collection."""
        planner = cls.__new__(cls)
        planner._setup(rows, capacity)
        return planner

    def _setup(self, rows, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity >= 0 required")
        self._rows = rows
        self._capacity = capacity
        # guards the LRU, the in-flight table and the counters
        self._lock = threading.Lock()
        self._cache: OrderedDict[int, _Row] = OrderedDict()
        self._inflight: dict[int, _InFlight] = {}
        # ``lookups`` is counted independently of hits/misses so the
        # exported ``hits + misses == lookups`` invariant is a real
        # lost-update check, not an identity.
        self._counts = dict.fromkeys(
            "hits misses lookups evictions coalesced batches solves "
            "single_flight_waits partial_solves extensions".split(), 0
        )

    @property
    def engine(self) -> str:
        """The resolved registry engine name every query runs through
        (``"stitched"`` for the shard router's stitched rows)."""
        return self._rows.engine

    # ------------------------------------------------------------------ #
    # Cache plumbing
    # ------------------------------------------------------------------ #
    def _peek(self, source: int):
        """The cached row of ``source`` or ``None``; counts nothing."""
        with self._lock:
            return self._cache.get(source)

    def _insert(self, source: int, row: _Row) -> None:
        """Cache ``row``, unless the cached row reaches further.  The
        caller holds the lock."""
        if self._capacity == 0:
            return
        cache = self._cache
        cached = cache.get(source)
        if cached is None or cached.bound <= row.bound:
            cache[source] = row
        cache.move_to_end(source)
        while len(cache) > self._capacity:
            cache.popitem(last=False)
            self._counts["evictions"] += 1

    def _fetch_rows(self, needs: dict) -> dict:
        """The planning core: cache-hit what we can, coalesce the rest.

        ``needs`` maps each distinct source to the :class:`StopRule` its
        queries need (``None``: a full row).  Missing sources split
        into *leaders* (this thread claimed the flight and solves them
        as one row-source batch) and *followers* (another thread is
        already solving that source; block on its event and share its
        row).  A follower whose need the published row does not cover
        goes round again, as a leader if no flight is left.  Every
        leader row is published to its flight record, so followers get
        the identical row object even when ``capacity=0`` or an
        eviction races the wait.
        """
        rows = {}
        missing = needs.items()
        probe = True
        while missing:
            lead, follow = self._claim(missing, rows, probe)
            probe = False
            if lead:
                self._solve(lead, rows)
            missing = []
            for s, need, flight in follow:
                flight.event.wait()
                if flight.error is not None:
                    raise flight.error
                if flight.row.covers(need):
                    rows[s] = flight.row
                else:
                    missing.append((s, need))
        return rows

    def _claim(self, missing: Iterable, rows: dict, probe: bool) -> tuple:
        """Sort each ``(source, need)`` of ``missing`` under one hold:
        a covering cached row is a hit (into ``rows``, LRU refreshed), a
        source another thread solves a follower ``(source, need,
        flight)``, any other a leader ``(source, flight)`` with a new
        flight.  A cached row that does not cover its need counts one
        extension, and a masked one is solved in full: a second masked
        row would only replace it.  Only a first ``probe`` counts
        lookups, hits and misses; every follower counts one wait."""
        lead: list[tuple[int, _InFlight]] = []
        follow: list[tuple[int, StopRule | None, _InFlight]] = []
        counts = self._counts
        with self._lock:
            for s, need in missing:
                row = self._cache.get(s)
                covered = row is not None and row.covers(need)
                if probe:
                    counts["lookups"] += 1
                    counts["hits" if covered else "misses"] += 1
                if covered:
                    self._cache.move_to_end(s)
                    rows[s] = row
                    continue
                flight = self._inflight.get(s)
                if flight is not None:
                    counts["single_flight_waits"] += 1
                    follow.append((s, need, flight))
                    continue
                if row is not None:
                    counts["extensions"] += 1
                    if row.final is not None:
                        need = None
                lead.append((s, _InFlight(need)))
            if lead:  # registered last, so an exception above strands none
                self._inflight.update(lead)
        return lead, follow

    def _solve(self, lead: list, rows: dict) -> None:
        """Solve the sources this thread leads as one row-source batch
        into ``rows``; cache and publish each row and retire its flight.

        The solve runs outside the lock.  On any exception every
        unpublished flight gets the error and is retired, and every
        event is set: a stranded flight would block each later request
        for its source forever (followers wait without a timeout)."""
        try:
            sources = [s for s, _ in lead]
            with span("planner.solve_missing", sources=len(sources)):
                solved = self._rows.solve(sources, [f.need for _, f in lead])
            with self._lock:
                counts = self._counts
                counts["batches"] += 1
                counts["solves"] += len(sources)
                counts["partial_solves"] += sum(row.bound < math.inf for row in solved)
                for (s, flight), row in zip(lead, solved, strict=True):
                    self._insert(s, row)
                    rows[s] = flight.row = row
                    del self._inflight[s]
        except BaseException as exc:
            with self._lock:
                for s, flight in lead:
                    if flight.row is None:
                        flight.error = exc
                        del self._inflight[s]
            raise
        finally:
            for _, flight in lead:
                flight.event.set()

    # ------------------------------------------------------------------ #
    # Answer construction
    # ------------------------------------------------------------------ #
    def _answer(self, query, rows: dict):
        row = rows[query.source]
        if isinstance(query, SingleSource):
            return row.dist
        if isinstance(query, PointToPoint):
            distance = float(row.dist[query.target])
            path = None
            if row.parent is not None and np.isfinite(distance):
                path = tuple(parent_path(row.parent, query.target))
            return Route(query.source, query.target, distance, path)
        return nearest_from_row(query.source, row.dist, query.k)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def execute(self, queries: Sequence) -> list:
        """Answer a mixed batch: one coalesced solve for all cache
        misses, answers in input order."""
        normalized = [normalize_query(q) for q in queries]
        for q in normalized:
            validate_query(q, self._rows.n)
        engine = self._rows.engine
        with span("planner.execute", queries=len(normalized), engine=engine):
            needs: dict[int, StopRule | None] = {}
            for q in normalized:
                s = int(q.source)
                need = _need(q)
                if s not in needs:
                    needs[s] = need
                elif needs[s] is not None:
                    needs[s] = needs[s].union(need)
            rows = self._fetch_rows(needs)
            distinct = len(needs)
            annotate(distinct_sources=distinct)
            with self._lock:
                self._counts["coalesced"] += len(normalized) - distinct
            return [self._answer(q, rows) for q in normalized]

    def distances(self, source: int) -> np.ndarray:
        """Full distance row from ``source`` (read-only; cached)."""
        return self.execute([SingleSource(source)])[0]

    def full_row(self, source: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The full cached row of ``source``: its read-only distance and
        parent arrays (``None`` when parents are not tracked), both from
        one row."""
        source = check_vertex(source, "source", self._rows.n)
        row = self._fetch_rows({source: None})[source]
        return row.dist, row.parent

    def route(self, source: int, target: int) -> Route:
        """Point-to-point answer served from the cached source row."""
        return self.execute([PointToPoint(source, target)])[0]

    def nearest(self, source: int, k: int) -> Nearest:
        """The ``k`` closest vertices to ``source``."""
        return self.execute([KNearest(source, k)])[0]

    def warm(self, sources: Iterable[int]) -> None:
        """Pre-populate the cache (e.g. known depots at boot).

        Sources pass through the same type/range validation as every
        other entry point — ``warm([-1])`` raises instead of silently
        solving from vertex ``n - 1`` and caching it under key ``-1``.
        """
        self._fetch_rows(
            {check_vertex(s, "source", self._rows.n): None for s in sources}
        )

    def stats(self) -> dict:
        """Counter snapshot for benchmarking and monitoring.

        One hold reads every counter, so the snapshot is consistent
        even under concurrent traffic: ``hits + misses == lookups`` and
        ``cached_rows <= capacity`` always hold.

        ``partial_solves`` counts misses answered by a stopped run (a
        row with a finite bound), ``extensions`` cached rows that did
        not cover a query and were solved further.
        """
        with self._lock:
            counts = dict(self._counts)
            cached = len(self._cache)
            inflight = len(self._inflight)
        return {
            "engine": self._rows.engine,
            "graph_hash": self._rows.graph_hash,
            "capacity": self._capacity,
            "cached_rows": cached,
            **counts,
            "inflight": inflight,
        }
