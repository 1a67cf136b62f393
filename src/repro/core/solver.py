"""High-level amortized SSSP interface: preprocess once, query many.

The paper's operating model (§5.4): "since preprocessing is only run
once, if Sssp will be run from multiple sources, we suggest increasing ρ
and decreasing k: the cost for preprocessing is amortized over more
sources."  :class:`PreprocessedSSSP` packages that workflow — it owns the
(k,ρ)-graph and radii produced by :func:`repro.preprocess.build_kr_graph`
and answers any number of single-source queries against them.

Queries dispatch by *engine name* through
:mod:`repro.engine.registry`, so every registered engine —
Radius-Stepping on one flat frontier (unit-weight graphs included),
the faithful BST reference, the baseline schedules, and any plugin
registered at runtime — is servable through one facade.  Batched
multi-source queries (:meth:`solve_many`) are the one multi-source
path: they fan out over a fork-based process pool with the augmented
CSR graph shared copy-on-write (:func:`repro.parallel.parallel_map`),
returning results in deterministic input order for any worker count.
Every source is type- and range-checked
(:func:`repro.graphs.validate.check_vertex`) before any id translation.

When preprocessing ran under a locality reordering
(``build_kr_graph(reorder=...)``, :mod:`repro.graphs.reorder`), the
facade is the **id-translation boundary**: sources are mapped to the
internal (reordered) numbering before an engine runs, and every answer
— distance rows, parent rows — is mapped back to the caller's input
ids, so the reordering is invisible except for speed.  Distances are
bit-identical to solving the unreordered graph (the converged distance
is the min over paths of left-to-right weight sums, which relabeling
permutes but never changes).

This is the API a routing service or graph-analytics pipeline would
embed; the lower-level pieces stay available for research use.
"""

from __future__ import annotations

import threading
from typing import Iterable

import numpy as np

from ..engine.driver import StopRule, run_engine
from ..engine.registry import get_engine, solve_with_engine
from ..engine.schedules import RadiusBucketSchedule
from ..graphs.csr import CSRGraph
from ..graphs.validate import check_vertex
from ..obs.trace import span
from ..parallel.chunking import resolve_jobs
from ..parallel.pool import parallel_map
from ..preprocess.pipeline import PreprocessResult, build_kr_graph
from .result import SsspResult

__all__ = ["PreprocessedSSSP", "externalize_result"]

#: engine selector: ``"auto"`` or any :func:`repro.engine.available_engines` name.
Engine = str


def _solve_chunk(payload: tuple, positions: np.ndarray) -> list[SsspResult]:
    """Pool worker: answer one chunk of the batch against the shared graph.

    ``positions`` index the payload's sources and stop rules, which
    arrive already translated to internal numbering; results are
    externalized in the worker (the per-row gather parallelizes with the
    solves instead of serializing in the parent).  ``obs`` is set only
    on the in-process path.
    """
    graph, radii, engine, track_parents, perm, inv, sources, stops, obs = payload
    return [
        externalize_result(
            solve_with_engine(
                engine,
                graph,
                int(sources[i]),
                radii,
                track_parents=track_parents,
                obs=obs,
                stop=stops[i],
            ),
            perm,
            inv,
        )
        for i in positions
    ]



def externalize_result(
    res: SsspResult, perm: np.ndarray | None, inv: np.ndarray | None
) -> SsspResult:
    """Map an internal-numbering :class:`SsspResult` back to input ids.

    ``perm`` is the external → internal map (``None`` = identity: the
    result is returned untouched, zero copies).  The distance row is
    gathered so ``dist[v]`` is the distance of *input* vertex ``v``;
    parent pointers are gathered the same way and their values mapped
    through ``inv`` (the ``-1`` root/unreachable sentinel is preserved).
    Step/substep/relaxation counts are schedule facts of the internal
    run and pass through unchanged.
    """
    if perm is None:
        return res
    dist = res.dist[perm]
    parent = None
    if res.parent is not None:
        p = res.parent[perm]
        parent = np.full(len(p), -1, dtype=np.int64)
        mask = p >= 0
        parent[mask] = inv[p[mask]]
    return SsspResult(
        dist=dist,
        parent=parent,
        steps=res.steps,
        substeps=res.substeps,
        max_substeps=res.max_substeps,
        relaxations=res.relaxations,
        algorithm=res.algorithm,
        params=res.params,
        trace=res.trace,
        bound=res.bound,
    )


class PreprocessedSSSP:
    """Amortized many-source shortest paths via Radius-Stepping.

    Parameters
    ----------
    graph: undirected, non-negatively weighted input graph.
    k: substep budget — each query step runs at most ``k + 2`` substeps
        (Theorem 3.2).  Small constants (2–4) per §5.4.
    rho: ball size — queries take O((n/ρ) log ρL) steps (Theorem 3.3).
        Larger ρ = fewer steps but more preprocessing and shortcut edges.
    heuristic: shortcut selector — ``"dp"`` (recommended, §4.2.2),
        ``"greedy"`` (§4.2.1), or ``"full"`` ((1,ρ), ignores ``k``).
    n_jobs: worker processes for the preprocessing phase.

    Examples
    --------
    >>> from repro import generators
    >>> from repro.core.solver import PreprocessedSSSP
    >>> sp = PreprocessedSSSP(generators.grid_2d(12, 12), k=2, rho=16)
    >>> res = sp.solve(0)
    >>> float(res.dist[143])
    22.0
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        k: int = 2,
        rho: int = 32,
        heuristic: str = "dp",
        n_jobs: int = 1,
        reorder: str = "natural",
        reorder_seed: int = 0,
    ) -> None:
        self._input = graph
        self._pre: PreprocessResult = build_kr_graph(
            graph,
            k,
            rho,
            heuristic=heuristic,
            n_jobs=n_jobs,
            reorder=reorder,
            reorder_seed=reorder_seed,
        )
        self._init_id_maps()
        self._queries = 0
        self._queries_lock = threading.Lock()
        self._observer = None

    def _init_id_maps(self) -> None:
        """Cache the external↔internal id maps from the preprocessing
        record (``None`` = identity, the zero-overhead fast path)."""
        perm = getattr(self._pre, "perm", None)
        inv = getattr(self._pre, "inv_perm", None)
        if perm is not None:
            perm = np.asarray(perm, dtype=np.int64)
            if inv is None:
                inv = np.empty_like(perm)
                inv[perm] = np.arange(len(perm), dtype=np.int64)
            else:
                inv = np.asarray(inv, dtype=np.int64)
        self._perm: np.ndarray | None = perm
        self._inv: np.ndarray | None = inv

    @classmethod
    def from_preprocessed(
        cls, pre: PreprocessResult, *, input_graph: CSRGraph | None = None
    ) -> "PreprocessedSSSP":
        """Wrap an existing preprocessing result without recomputing it.

        A serving system preprocesses once, persists the
        :class:`~repro.preprocess.pipeline.PreprocessResult`, and
        rehydrates query facades from it at startup.
        """
        self = cls.__new__(cls)
        self._input = input_graph if input_graph is not None else pre.graph
        self._pre = pre
        self._init_id_maps()
        self._queries = 0
        self._queries_lock = threading.Lock()
        self._observer = None
        return self

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> CSRGraph:
        """The augmented (k,ρ)-graph queries actually run on."""
        return self._pre.graph

    @property
    def radii(self) -> np.ndarray:
        """The per-vertex radii r_ρ(·) driving the step schedule."""
        return self._pre.radii

    @property
    def preprocessing(self) -> PreprocessResult:
        """Full preprocessing record (edge counts, configuration)."""
        return self._pre

    @property
    def perm(self) -> np.ndarray | None:
        """External → internal id map (``None`` = identity numbering).

        Set when preprocessing ran under ``reorder=...``; every public
        query on this facade already translates through it, so callers
        only need it to reach the internal numbering deliberately (to
        check a parent row against :attr:`graph`, say)."""
        return self._perm

    @property
    def inv_perm(self) -> np.ndarray | None:
        """Internal → external id map (``None`` iff :attr:`perm` is)."""
        return self._inv

    @property
    def queries_answered(self) -> int:
        """Number of queries so far — the amortization denominator.

        Every query path increments it: :meth:`solve`,
        :meth:`distances` and :meth:`solve_seeded` by one,
        :meth:`solve_many` and
        :meth:`mean_steps` by the number of *requested* sources
        (duplicates included — the denominator counts answered queries,
        not distinct solves).
        """
        return self._queries

    def _count_queries(self, n: int) -> None:
        """Charge ``n`` answered queries to the amortization counter.

        Every query path of this class charges through here.
        Lock-protected: a threaded serving front end charges this
        counter from many threads, and a bare ``+=`` is a
        read-modify-write that loses increments under preemption.
        """
        with self._queries_lock:
            self._queries += int(n)

    def set_observer(self, obs) -> None:
        """Install (or clear, with ``None``) an engine-telemetry observer.

        ``obs`` is a :class:`repro.obs.metrics.EngineTelemetry` —
        anything with ``bind(engine) -> handle`` where the handle has
        ``record_step``/``record_run``.  :meth:`solve` and
        :meth:`solve_seeded` pass the bound handle live into the engine
        (a seeded solve under ``vectorized``, whose schedule it runs), and
        so does :meth:`solve_many` when it runs in process; with a fork
        pool it folds run totals in post-hoc from the returned results,
        because workers mutate a copy-on-write *copy* of the registry
        that the parent never sees.  Opt-in: the facade does no
        telemetry until a serving layer (``RoutingService.instrument`` /
        ``ShardRouter.instrument``) installs one.
        """
        self._observer = obs

    # ------------------------------------------------------------------ #
    def resolve_engine(self, engine: Engine) -> str:
        """Map ``"auto"`` to a concrete registered engine name.

        ``"auto"`` is ``"vectorized"`` — Radius-Stepping on the flat
        frontier, the one radius substrate, at any weights: on unit
        weights its frontier is §3.4's BFS-style frontier.

        Public because the serving layer keys caches by the *resolved*
        name — two requests for ``"auto"`` and ``"vectorized"`` must
        share cache entries.
        """
        return "vectorized" if engine == "auto" else engine

    def _internal_stop(self, stop: StopRule | None) -> StopRule | None:
        """Check a rule's targets as vertices and map them to internal ids."""
        if stop is None:
            return None
        n = self.graph.n
        targets = [check_vertex(t, "target", n) for t in stop.targets]
        if self._perm is not None:
            targets = [int(self._perm[t]) for t in targets]
        return StopRule(tuple(targets), int(stop.settled))

    def solve(
        self,
        source: int,
        *,
        engine: Engine = "auto",
        track_parents: bool = False,
        track_trace: bool = False,
        ledger=None,
        stop: StopRule | None = None,
    ) -> SsspResult:
        """Exact shortest paths from ``source`` on the preprocessed graph.

        ``engine="auto"`` resolves to ``"vectorized"``.  Any name from
        :func:`repro.engine.available_engines` is accepted — e.g.
        ``"rho"`` for ρ-stepping or ``"bst"`` for the faithful
        Algorithm-2 reference (slow; for validation and PRAM
        accounting).

        Distances returned are distances in the *input* graph: shortcuts
        carry exact shortest-path weights, so augmentation never changes
        the metric (Lemma 4.1 discussion) — and they are indexed by
        *input* vertex ids even when preprocessing reordered the graph
        (the facade translates at the boundary).  A bool or non-integer
        ``source`` raises :class:`TypeError`, one outside ``[0, n)``
        :class:`ValueError`.

        ``stop`` (a :class:`~repro.engine.driver.StopRule`, targets in
        input ids) lets a table engine end at the first step that
        settles what it asks for; the result's ``bound`` then says which
        entries are final (see :class:`~repro.core.result.SsspResult`).
        ``bst`` and plugin engines ignore it and return a full row.
        """
        source = check_vertex(source, "source", self.graph.n)
        stop = self._internal_stop(stop)
        self._count_queries(1)
        name = self.resolve_engine(engine)
        internal = source if self._perm is None else int(self._perm[source])
        with span("solver.solve", engine=name, source=int(source)):
            return externalize_result(
                solve_with_engine(
                    name,
                    self.graph,
                    internal,
                    self.radii,
                    track_parents=track_parents,
                    track_trace=track_trace,
                    ledger=ledger,
                    obs=self._observer,
                    stop=stop,
                ),
                self._perm,
                self._inv,
            )

    def distances(self, source: int) -> np.ndarray:
        """Just the distance vector from ``source``."""
        return self.solve(source).dist

    def solve_many(
        self,
        sources: Iterable[int],
        *,
        engine: Engine = "auto",
        track_parents: bool = False,
        n_jobs: int = 1,
        stops: Iterable[StopRule | None] | None = None,
    ) -> list[SsspResult]:
        """Answer a batch of queries; one result per source, input order.

        Repeated sources are deduplicated before fan-out — each distinct
        source is solved exactly once and its result is fanned back to
        every input position that requested it (duplicate positions
        share one ``SsspResult`` object; treat results as read-only).

        ``n_jobs > 1`` (0 = all cores) fans source chunks out to a
        fork-based process pool.  The augmented CSR graph and radii are
        staged once and inherited copy-on-write by every worker — no
        per-query graph serialization — and chunked results are
        reassembled in input order, so the output is identical for any
        ``n_jobs``.  Every source is checked as in :meth:`solve` before
        anything is solved.

        ``stops`` gives one optional :class:`~repro.engine.driver.StopRule`
        per source, as :meth:`solve` takes it; a repeated source is
        solved once under the union of its rules (``None``, a full row,
        covers every rule).
        """
        n = self.graph.n
        source_arr = np.asarray(
            [check_vertex(s, "source", n) for s in sources], dtype=np.int64
        )
        rules = None
        if stops is not None:
            rules = [self._internal_stop(rule) for rule in stops]
            if len(rules) != len(source_arr):
                raise ValueError(
                    f"{len(rules)} stop rules for {len(source_arr)} sources"
                )
        name = self.resolve_engine(engine)
        # fail fast (unknown engine, unsupported parents) before forking
        spec = get_engine(name)
        if track_parents and not spec.supports_parents:
            raise ValueError(f"the {name} engine does not track parents")
        self._count_queries(len(source_arr))
        unique, inverse = np.unique(source_arr, return_inverse=True)
        internal = unique if self._perm is None else self._perm[unique]
        merged: dict[int, StopRule | None] = {}
        for i, rule in zip(inverse.tolist(), rules or ()):
            if i not in merged:
                merged[i] = rule
            elif merged[i] is not None:
                merged[i] = merged[i].union(rule)
        # In process, the observer runs live inside the engine (per-step
        # histograms included); fork-pool workers see only a
        # copy-on-write copy of the registry, so their runs are folded
        # in below from the returned results.
        live = self._observer if resolve_jobs(n_jobs) == 1 else None
        payload = (
            self.graph, self.radii, name, track_parents, self._perm, self._inv,
            internal, [merged.get(i) for i in range(len(unique))], live,
        )
        with span(
            "solver.solve_many", engine=name, sources=int(len(unique)),
            n_jobs=int(n_jobs),
        ):
            blocks = parallel_map(
                _solve_chunk, payload, np.arange(len(unique)), n_jobs=n_jobs
            )
        flat = [res for block in blocks for res in block]
        if self._observer is not None and live is None:
            bound = self._observer.bind(name)
            for res in flat:
                bound.record_run(res)
        return [flat[i] for i in inverse]

    def solve_seeded(
        self,
        seed_dist: np.ndarray,
        *,
        track_parents: bool = False,
        stop: StopRule | None = None,
    ) -> SsspResult:
        """Exact distances from many seeds at once: a virtual-source solve.

        ``seed_dist`` is one float64 row in input ids: entry ``v`` is
        ``v``'s initial tentative distance, ``inf`` meaning "not a
        seed".  The answer is ``min over seeds (seed_dist[u] + d(u, v))``
        for every ``v``, from one Radius-Stepping run on this facade's
        radii (Algorithm 1 is exact from any initial tentative
        distances).  With ``track_parents``, each seed no arc strictly
        improves is a root (parent ``-1``).  ``stop`` ends the run as in
        :meth:`solve`, and the result's ``bound`` says which entries are
        final.  Charges one query.

        A row of the wrong length, or one holding NaN or a negative
        entry, raises :class:`ValueError`; so does a stop target outside
        ``[0, n)``.
        """
        n = self.graph.n
        seed_dist = np.asarray(seed_dist, dtype=np.float64)
        if seed_dist.shape != (n,):
            raise ValueError(
                f"seed row must have shape ({n},), got {seed_dist.shape}"
            )
        if not np.all(seed_dist >= 0):  # NaN compares false too
            raise ValueError("seed distances must be >= 0 (and not NaN)")
        stop = self._internal_stop(stop)
        self._count_queries(1)
        internal = seed_dist if self._perm is None else seed_dist[self._inv]
        vertices = np.flatnonzero(internal < np.inf)
        obs = None if self._observer is None else self._observer.bind("vectorized")
        with span("solver.solve_seeded", seeds=int(len(vertices))):
            res = run_engine(
                self.graph,
                None,
                RadiusBucketSchedule(self.radii),
                seeds=(vertices, internal[vertices]),
                track_parents=track_parents,
                algorithm_name="radius-stepping-seeded",
                obs=obs,
                stop=stop,
            )
        if obs is not None:
            obs.record_run(res)
        return externalize_result(res, self._perm, self._inv)

    def mean_steps(self, sources: Iterable[int], *, n_jobs: int = 1) -> float:
        """Average step count over ``sources`` — the §5.3 metric."""
        results = self.solve_many(sources, n_jobs=n_jobs)
        return float(np.mean([r.steps for r in results]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        p = self._pre
        return (
            f"PreprocessedSSSP(k={p.k}, rho={p.rho}, heuristic={p.heuristic!r}, "
            f"n={self.graph.n}, m={self.graph.m}, "
            f"+{p.new_edges} shortcut edges, {self._queries} queries)"
        )
