"""`RoutingService` — the synchronous serving facade.

One object wires the whole serving stack together: the preprocessed
(k,ρ)-graph (built cold, or warm-started from a persisted artifact,
optionally memory-mapped), the engine registry, and the
caching/coalescing :class:`~repro.serve.planner.QueryPlanner`.  It is
the embeddable core a network front end calls into — and
that is safe: the planner underneath is thread-safe (one lock over
one LRU, single-flight solves), so :mod:`repro.serve.http`'s
``ThreadingHTTPServer`` worker threads all drive one service instance
concurrently::

    svc = RoutingService(graph, k=2, rho=32)        # cold start
    svc.save_artifact("kr.npz")                     # persist once
    ...
    svc = RoutingService.from_artifact("kr.npz",    # every later boot:
                                       expect_graph=graph)  # milliseconds
    svc.route(3, 94).distance                       # cached after 1st query
    svc.batch([(3, 94), KNearest(3, 5), 17])        # one coalesced solve
    rows = np.stack([r.dist for r in svc.solver.solve_many(range(64), n_jobs=8)])
"""

from __future__ import annotations

import math
from pathlib import Path

from ..core.solver import PreprocessedSSSP
from ..engine.driver import StopRule
from ..graphs.csr import CSRGraph
from ..preprocess.pipeline import ShardedPreprocessResult
from .artifacts import ARTIFACT_VERSION, load_artifact, save_artifact
from .planner import QueryPlanner
from .surface import PlannerSurface, json_finite

__all__ = ["RoutingService", "shard_services"]


class RoutingService(PlannerSurface):
    """Synchronous query-serving facade over a preprocessed graph.

    Parameters
    ----------
    graph: input graph to preprocess (ignored when ``solver`` is given).
    solver: an existing :class:`PreprocessedSSSP` to serve (e.g. from
        :func:`repro.serve.artifacts.load_solver`).
    k, rho, heuristic, preprocess_jobs: forwarded to
        :func:`~repro.preprocess.build_kr_graph` on a cold start.
    reorder, reorder_seed: locality ordering for the cold-start
        preprocessing (:mod:`repro.graphs.reorder`; ``"rcm"`` is the
        usual winner on road-like graphs).  Invisible to every caller —
        queries and answers stay in the input graph's vertex ids — but
        the kernel's CSR gathers run on the cache-friendly layout.
    engine: engine selector for every query (resolved once).
    cache_capacity: planner LRU size (source rows).  The service is
        safe to call from many threads (an HTTP front end's worker
        threads); see :class:`~repro.serve.planner.QueryPlanner` for the
        locking / single-flight model.
    track_parents: record predecessors so :meth:`route` returns paths
        (the default — it is a *routing* service).  Distance-only
        workloads should pass ``False``: it halves cached-row memory.
        Every engine tracks parents but the treap reference ``bst``,
        which must be served with ``False``.
    """

    def __init__(
        self,
        graph: CSRGraph | None = None,
        *,
        solver: PreprocessedSSSP | None = None,
        k: int = 2,
        rho: int = 32,
        heuristic: str = "dp",
        engine: str = "auto",
        cache_capacity: int = 256,
        track_parents: bool = True,
        preprocess_jobs: int = 1,
        reorder: str = "natural",
        reorder_seed: int = 0,
    ) -> None:
        if solver is None:
            if graph is None:
                raise ValueError("provide either a graph or a solver")
            solver = PreprocessedSSSP(
                graph,
                k=k,
                rho=rho,
                heuristic=heuristic,
                n_jobs=preprocess_jobs,
                reorder=reorder,
                reorder_seed=reorder_seed,
            )
        self._solver = solver
        self._planner = QueryPlanner(
            solver,
            engine=engine,
            capacity=cache_capacity,
            track_parents=track_parents,
        )

    # ------------------------------------------------------------------ #
    # Construction / persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        *,
        expect_graph: CSRGraph | None = None,
        mmap: bool = False,
        **kwargs,
    ) -> "RoutingService":
        """Warm start: restore the preprocessing from an artifact bundle.

        ``expect_graph`` (recommended) pins the artifact to the graph
        this service is meant to answer for; ``mmap=True`` keeps the
        augmented CSR arrays memory-mapped off the bundle file (the
        near-RAM-size knob — see
        :func:`repro.serve.artifacts.load_artifact`); remaining keyword
        arguments are the serving knobs of the constructor.
        Preprocessing knobs are rejected — the artifact *is* the
        preprocessing, so a ``k``/``rho``/``heuristic`` here would be
        silently ignored, and the caller who wants different ones must
        rebuild and re-save.
        """
        baked = {
            "graph",
            "solver",
            "k",
            "rho",
            "heuristic",
            "preprocess_jobs",
            "reorder",
            "reorder_seed",
        }
        rejected = baked & kwargs.keys()
        if rejected:
            raise TypeError(
                f"from_artifact does not accept {sorted(rejected)}: the "
                "artifact fixes the preprocessing; rebuild with "
                "RoutingService(graph, ...) to change it"
            )
        pre = load_artifact(path, expect_graph=expect_graph, mmap=mmap)
        solver = PreprocessedSSSP.from_preprocessed(pre, input_graph=expect_graph)
        return cls(solver=solver, **kwargs)

    def save_artifact(self, path: str | Path) -> Path:
        """Persist this service's preprocessing for future warm starts."""
        return save_artifact(path, self._solver.preprocessing)

    # ------------------------------------------------------------------ #
    # Observability (instrument() comes from PlannerSurface)
    # ------------------------------------------------------------------ #
    def _shard_services(self) -> list:
        """The single-graph service is its own shard 0."""
        return [(0, self)]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def solver(self) -> PreprocessedSSSP:
        """The underlying preprocessed facade."""
        return self._solver

    @property
    def planner(self) -> QueryPlanner:
        """The planner every query of this service runs through."""
        return self._planner

    def solve_seeded(
        self, seed_dist, *, track_parents: bool = False, stop: StopRule | None = None
    ):
        """One seeded solve on this service's graph
        (:meth:`PreprocessedSSSP.solve_seeded`) — what a shard answers
        for the router's stitch.  Not cached: a seed row is not a
        source key.

        A run that ``stop`` ends early leaves tentative distances past
        its bound.  They are blanked here to ``inf`` (parent ``-1``), so
        the answer is final wherever it is finite, on both transports:
        the in-process backend and ``POST /internal/solve`` both call
        this.
        """
        res = self._solver.solve_seeded(
            seed_dist, track_parents=track_parents, stop=stop
        )
        if res.bound < math.inf:
            beyond = res.dist > res.bound
            res.dist[beyond] = math.inf
            if res.parent is not None:
                res.parent[beyond] = -1
        return res

    def stats(self) -> dict:
        """Planner counters plus preprocessing provenance.

        ``engine`` is the planner's *resolved* engine (what every query
        actually dispatches to) and ``engines`` the full registry with
        per-engine descriptions — enough for an operator at
        ``GET /stats`` to see which engine answers and what the
        alternatives are.  ``reorder`` names the locality ordering
        preprocessing ran under and ``locality`` its mean-neighbor-gap
        diagnostic (input layout vs the layout queries actually run on;
        ``null`` when it was never measured).

        Topology fields mirror the sharded surface
        (:meth:`repro.serve.router.ShardRouter.stats`): a single-graph
        service is the one-shard special case, so it reports
        ``shards: 1``, its artifact version, and a one-entry per-shard
        table with a zero-size boundary.
        """
        from ..engine.registry import available_engines, get_engine

        pre = self._solver.preprocessing
        return {
            **self._planner.stats(),
            "queries_answered": self._solver.queries_answered,
            "k": pre.k,
            "rho": pre.rho,
            "heuristic": pre.heuristic,
            "n": self._solver.graph.n,
            "m": self._solver.graph.m,
            "shortcut_edges": pre.new_edges,
            "reorder": getattr(pre, "reorder", "natural"),
            "locality": {
                "before": json_finite(getattr(pre, "locality_before", float("nan"))),
                "after": json_finite(getattr(pre, "locality_after", float("nan"))),
            },
            "engines": {
                name: get_engine(name).description
                for name in available_engines()
            },
            "shards": 1,
            "artifact_version": ARTIFACT_VERSION,
            "topology": {
                "shards": [
                    {
                        "shard": 0,
                        "vertices": self._solver.graph.n,
                        "boundary": 0,
                        "engine": self._planner.engine,
                    }
                ],
                "overlay": {"vertices": 0, "edges": 0},
            },
        }

    def healthz(self) -> dict:
        """Liveness payload (``GET /healthz``): the single-graph service
        is the one-shard special case of the sharded surface."""
        return {
            "status": "ok",
            "shards": 1,
            "artifact_version": ARTIFACT_VERSION,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"RoutingService(n={s['n']}, m={s['m']}, engine={s['engine']!r}, "
            f"{s['cached_rows']}/{s['capacity']} rows cached, "
            f"{s['hits']} hits / {s['misses']} misses)"
        )


def shard_services(
    sharded: ShardedPreprocessResult, **knobs
) -> list[RoutingService | None]:
    """One :class:`RoutingService` per shard of a sharded preprocessing,
    built with the serving ``knobs`` of the constructor; ``None`` for an
    empty shard, which can never own a query vertex.

    What a shard server serves, and what a local
    :class:`~repro.serve.router.ShardRouter`'s
    :class:`~repro.serve.backends.LocalBackend` objects wrap.
    """
    return [
        RoutingService(solver=PreprocessedSSSP.from_preprocessed(pre), **knobs)
        if len(verts)
        else None
        for pre, verts in zip(sharded.shards, sharded.shard_vertices)
    ]
