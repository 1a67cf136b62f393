"""End-to-end (k,ρ)-graph construction (Section 4).

``build_kr_graph`` turns any connected graph into a (k,ρ)-graph plus the
matching radii ``r(v) = r_ρ(v)``:

1. a truncated Dijkstra ball per vertex (Lemma 4.2),
2. shortcut selection per ball tree — ``full`` for (1,ρ), ``greedy`` or
   ``dp`` for (k,ρ) (§4.1–4.2),
3. shortcut edges ``(s, v, d(s, v))`` merged into the graph.

After this, Radius-Stepping with the returned radii enjoys both bounds:
≤ k+2 substeps per step (Thm 3.2, because every ball member is within k
hops via tree + shortcut edges, so r_ρ(v) ≤ r̄_k(v)) and
≤ ⌈n/ρ⌉(1+⌈log₂ ρL⌉) steps (Thm 3.3, because |B(v, r_ρ(v))| ≥ ρ).
Distances are unchanged: every shortcut carries its exact shortest-path
weight.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..graphs.build import add_shortcuts, induced_subgraph
from ..graphs.csr import CSRGraph
from ..parallel.pool import parallel_map
from .select_batched import batched_select, check_heuristic

__all__ = [
    "PreprocessResult",
    "ShardedPreprocessResult",
    "build_kr_graph",
    "build_sharded_kr_graph",
]


class _StageClock:
    """Wall-clock accounting for the preprocessing pipeline's stages.

    Each ``with clock.stage("..."):`` block accumulates its elapsed
    seconds into :attr:`stages` (what the result records as
    ``stage_seconds``) and, when a metrics registry was handed to the
    builder, observes the same duration into the
    ``preprocess_stage_seconds{stage}`` histogram.  The registry is
    duck-typed (anything with ``.histogram()``) so preprocessing keeps
    zero hard dependency on :mod:`repro.obs`.
    """

    def __init__(self, registry=None) -> None:
        self.stages: dict[str, float] = {}
        self._hist = None
        if registry is not None:
            self._hist = registry.histogram(
                "preprocess_stage_seconds",
                "wall-clock seconds per (k,rho)-preprocessing stage",
                ("stage",),
            )

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            self.stages[name] = self.stages.get(name, 0.0) + elapsed
            if self._hist is not None:
                self._hist.labels(name).observe(elapsed)


@dataclass
class PreprocessResult:
    """Output of :func:`build_kr_graph`.

    Attributes
    ----------
    graph: the augmented (k,ρ)-graph — in *internal* (possibly
        reordered) vertex numbering.
    radii: ``r_ρ(v)`` per internal vertex — feed straight into
        :func:`repro.core.radius_stepping`.
    added_edges: shortcut count *before* merging (the paper's Tables 2/3
        metric: one per selected tree node per source).
    new_edges: undirected edges genuinely new to the graph after merge
        (duplicates across sources / existing edges collapse).
    k, rho, heuristic: the configuration.
    source_hash: :meth:`~repro.graphs.csr.CSRGraph.content_hash` of the
        *input* graph (pre-reordering — the graph the user hands to a
        serving process), so a persisted artifact can later be verified
        against the graph that process intends to query.
    reorder: name of the locality ordering preprocessing ran under
        (:mod:`repro.graphs.reorder`); ``"natural"`` = input numbering.
    perm: external → internal id map (``perm[input_id] = internal_id``),
        or ``None`` for the identity (no reordering).  Persisted by
        serving artifacts so the query facade can keep the reordering
        invisible: every answer is translated back to input ids at the
        boundary.
    inv_perm: the inverse map (``inv_perm[internal_id] = input_id``);
        ``None`` iff ``perm`` is.
    locality_before / locality_after: the
        :func:`~repro.graphs.reorder.mean_neighbor_gap` diagnostic of
        the input graph and of the (reordered) graph preprocessing ran
        on; ``nan`` when never measured (hand-built records).
    stage_seconds: wall-clock seconds per pipeline stage of this build
        (``reorder`` / ``ball_shortcuts`` / ``merge``) — the telemetry
        a capacity planner reads; empty for hand-built records and
        artifact rehydrations (loading is not building).
    """

    graph: CSRGraph
    radii: np.ndarray
    added_edges: int
    new_edges: int
    k: int
    rho: int
    heuristic: str
    source_hash: str = ""
    reorder: str = "natural"
    perm: np.ndarray | None = field(default=None, repr=False)
    inv_perm: np.ndarray | None = field(default=None, repr=False)
    locality_before: float = float("nan")
    locality_after: float = float("nan")
    stage_seconds: dict = field(default_factory=dict, repr=False)

    @property
    def edge_factor(self) -> float:
        """added_edges / m of the input graph — Figure 3's y-axis."""
        base_m = self.graph.m - self.new_edges
        return self.added_edges / base_m if base_m else float("inf")

    def save(self, path) -> None:
        """Persist this result as a serving artifact (``.npz`` bundle).

        The export hook into :mod:`repro.serve.artifacts` (imported
        lazily — preprocessing must not depend on the serving layer):
        ``load_artifact(path)`` restores an equal record in milliseconds,
        skipping the whole (k,ρ)-construction.
        """
        from ..serve.artifacts import save_artifact

        save_artifact(path, self)


def build_kr_graph(
    graph: CSRGraph,
    k: int,
    rho: int,
    *,
    heuristic: str = "dp",
    include_ties: bool = True,
    n_jobs: int = 1,
    reorder: str = "natural",
    reorder_seed: int = 0,
    registry=None,
) -> PreprocessResult:
    """Preprocess ``graph`` into a (k,ρ)-graph; see module docstring.

    ``heuristic='full'`` ignores ``k`` for selection (every ball member is
    brought to hop 1) and therefore produces a (1,ρ)-graph — pass ``k=1``
    for clarity.  ``include_ties`` is §5.1's deterministic tie handling
    (recommended: it is what makes r_ρ(v) ≤ r̄_k(v) hold with equality at
    the ball boundary).  Balls come from the batched slot engine and
    selections from the forest-level engine
    (:func:`~repro.preprocess.select_batched.batched_select`); radii and
    shortcut selections equal the scalar heap reference's
    (:func:`~repro.preprocess.scalar.scalar_select`) bit for bit.

    ``reorder`` renumbers the vertices with a locality ordering from
    :mod:`repro.graphs.reorder` (``"bfs"``, ``"rcm"``, ``"degree"``,
    ``"random"``; ``"natural"`` = keep the input numbering) *before* any
    preprocessing runs, so the augmented graph, the radii and every
    later query enjoy the cache-friendly layout.  The permutation and
    its inverse are recorded in the result (and in serving artifacts);
    :class:`repro.core.solver.PreprocessedSSSP` translates
    ids at the query boundary, so callers never see internal numbering
    — the reordering is invisible except for speed.  ``source_hash``
    stays the hash of the *input* graph for the same reason.

    Every build times its stages into ``PreprocessResult.stage_seconds``
    (``reorder``, ``ball_shortcuts``, ``merge`` — the batched engine
    runs ball construction and §4.2 selection fused, so they are timed
    as one stage).  ``registry`` optionally
    mirrors the same durations into a
    :class:`repro.obs.metrics.MetricsRegistry` as the
    ``preprocess_stage_seconds{stage}`` histogram.
    """
    check_heuristic(heuristic)
    if k < 1:
        raise ValueError("k >= 1 required")
    if rho < 1:
        raise ValueError("rho >= 1 required")
    # Lazy import: the graphs layer must stay importable without the
    # preprocessing layer, not vice versa — but keep module load light.
    from ..graphs.reorder import compute_ordering, inverse_permutation, mean_neighbor_gap
    from ..graphs.transform import permute_vertices

    clock = _StageClock(registry)
    input_graph = graph
    with clock.stage("reorder"):
        locality_before = mean_neighbor_gap(graph)
        perm = inv_perm = None
        if reorder != "natural":
            perm = compute_ordering(graph, reorder, seed=reorder_seed)
            inv_perm = inverse_permutation(perm)
            graph = permute_vertices(graph, perm)
        locality_after = (
            mean_neighbor_gap(graph) if perm is not None else locality_before
        )
    sources = np.arange(graph.n, dtype=np.int64)
    with clock.stage("ball_shortcuts"):
        if graph.n == 0:
            # degenerate but legal (an empty shard of a partitioned graph):
            # there is nothing to search and nothing to shortcut
            blocks = []
            radii = np.empty(0, dtype=np.float64)
            src = dst = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=np.float64)
        else:
            blocks = parallel_map(
                batched_select,
                graph,
                sources,
                n_jobs=n_jobs,
                fn_kwargs={
                    "k": k,
                    "rho": rho,
                    "heuristic": heuristic,
                    "include_ties": include_ties,
                },
            )
            radii = np.concatenate([b[0] for b in blocks])
            src = np.concatenate([b[1] for b in blocks])
            dst = np.concatenate([b[2] for b in blocks])
            w = np.concatenate([b[3] for b in blocks])
    with clock.stage("merge"):
        aug = add_shortcuts(graph, src, dst, w)
    return PreprocessResult(
        graph=aug,
        radii=radii,
        added_edges=len(src),
        new_edges=aug.m - graph.m,
        k=k,
        rho=rho,
        heuristic=heuristic,
        source_hash=input_graph.content_hash(),
        reorder=reorder,
        perm=perm,
        inv_perm=inv_perm,
        locality_before=locality_before,
        locality_after=locality_after,
        stage_seconds=clock.stages,
    )


# --------------------------------------------------------------------- #
# Sharded preprocessing — partition → per-shard (k,ρ) → boundary overlay
# --------------------------------------------------------------------- #
@dataclass
class ShardedPreprocessResult:
    """Output of :func:`build_sharded_kr_graph`.

    One record holds everything a shard router needs to answer exact
    queries: the partition, one complete :class:`PreprocessResult` per
    shard (over *shard-local* vertex numbering), and the boundary
    overlay.

    Attributes
    ----------
    shards: per-shard preprocessing — ``shards[s].graph`` is the
        augmented (k,ρ)-graph of shard ``s`` in shard-local ids.
    shard_vertices: ``shard_vertices[s][i]`` is the original id of
        shard ``s``'s local vertex ``i`` (sorted ascending, the
        :func:`~repro.graphs.build.induced_subgraph` convention).
    labels: ``labels[v]`` is the shard owning original vertex ``v``.
    overlay_graph: the boundary overlay — vertices are the boundary
        vertices of every shard (overlay-local ids), arcs are (a) every
        original inter-shard edge at its original weight and (b) for
        each shard, an arc per boundary pair carrying the exact
        within-shard shortest-path distance.  Shortest paths *in the
        overlay* between boundary vertices therefore equal shortest
        paths in the full graph: any full-graph shortest path
        decomposes into maximal intra-shard segments (each replaced by
        a type-(b) arc) joined by cut edges (type (a)).
    overlay_vertices: original ids of the overlay vertices (sorted).
    partition_method / partition_seed: how the shards were cut.
    edge_cut / balance: the partition quality metrics
        (:class:`~repro.graphs.partition.Partition`).
    k, rho, heuristic: the per-shard preprocessing configuration.
    source_hash: content hash of the *input* graph, as for
        :class:`PreprocessResult`.
    stage_seconds: wall-clock seconds per pipeline stage of this build
        (``partition`` / ``shard_preprocess`` / ``overlay``); empty for
        hand-built records and artifact rehydrations.
    """

    shards: list[PreprocessResult]
    shard_vertices: list[np.ndarray]
    labels: np.ndarray = field(repr=False)
    overlay_graph: CSRGraph = field(repr=False)
    overlay_vertices: np.ndarray = field(repr=False)
    partition_method: str
    partition_seed: int
    edge_cut: int
    balance: float
    k: int
    rho: int
    heuristic: str
    source_hash: str = ""
    stage_seconds: dict = field(default_factory=dict, repr=False)

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def n(self) -> int:
        """Number of vertices of the partitioned input graph."""
        return len(self.labels)

    def save(self, path) -> None:
        """Persist as a sharded serving bundle (directory of artifacts).

        Export hook into :mod:`repro.serve.artifacts` (imported lazily —
        preprocessing must not depend on the serving layer):
        ``load_sharded_artifact(path)`` restores an equal record.
        """
        from ..serve.artifacts import save_sharded_artifact

        save_sharded_artifact(path, self)


def _preprocess_shard_chunk(payload: tuple, shard_ids: np.ndarray):
    """Pool worker: per-shard induced subgraph + (k,ρ)-preprocessing.

    The full graph and shard labels arrive fork-inherited copy-on-write
    (:func:`repro.parallel.parallel_map`); each worker carves out
    its shards' induced subgraphs locally, so no subgraph is ever
    pickled through the task pipe.
    """
    graph, labels, kwargs = payload
    out = []
    for s in shard_ids:
        sub, _ids = induced_subgraph(graph, np.flatnonzero(labels == s))
        out.append(build_kr_graph(sub, n_jobs=1, **kwargs))
    return out


def build_sharded_kr_graph(
    graph: CSRGraph,
    k: int,
    rho: int,
    *,
    n_shards: int,
    partition: str = "contiguous",
    partition_seed: int = 0,
    heuristic: str = "dp",
    include_ties: bool = True,
    n_jobs: int = 1,
    registry=None,
) -> ShardedPreprocessResult:
    """Partition → per-shard (k,ρ)-preprocessing → boundary overlay.

    The sharded counterpart of :func:`build_kr_graph`:

    1. cut the graph into ``n_shards`` shards with the named
       partitioner (:mod:`repro.graphs.partition`);
    2. run :func:`build_kr_graph` independently on every shard's
       induced subgraph — ball search and shortcut selection are
       per-source local, so shards never need each other — fanned over
       the fork pool when ``n_jobs > 1``;
    3. build the **boundary overlay**: a graph on the boundary vertices
       whose arcs are the original inter-shard edges plus, per shard,
       the exact within-shard shortest-path distance between each pair
       of its boundary vertices (solved on the shard's own augmented
       graph, so step 2's speedup compounds here).

    Exactness: every overlay arc weight is either an original edge
    weight or an exact within-shard distance, and any full-graph
    shortest path between boundary vertices decomposes into exactly
    such pieces — so the overlay preserves the boundary-to-boundary
    metric, and a router stitching ``source shard → overlay → target
    shard`` answers with true full-graph distances
    (:class:`repro.serve.router.ShardRouter` is that router).

    Cost note: the overlay holds up to ``Σ_s |∂s|²`` distance arcs; the
    partitioners are built to keep boundary sets small, but a partition
    of a dense graph into many tiny shards can make the overlay the
    dominant artifact — ``edge_cut`` and ``balance`` on the result are
    the metrics to watch.

    Stages are timed into ``stage_seconds`` (``partition`` /
    ``shard_preprocess`` / ``overlay``) and, when ``registry`` is given,
    into its ``preprocess_stage_seconds{stage}`` histogram, exactly as
    in :func:`build_kr_graph`.
    """
    from ..graphs.partition import compute_partition

    clock = _StageClock(registry)
    with clock.stage("partition"):
        part = compute_partition(graph, partition, n_shards, seed=partition_seed)
    kwargs = {
        "k": k,
        "rho": rho,
        "heuristic": heuristic,
        "include_ties": include_ties,
    }
    with clock.stage("shard_preprocess"):
        blocks = parallel_map(
            _preprocess_shard_chunk,
            (graph, part.labels, kwargs),
            np.arange(n_shards, dtype=np.int64),
            n_jobs=n_jobs,
        )
        shards = [pre for block in blocks for pre in block]
    shard_vertices = [part.members(s) for s in range(n_shards)]
    with clock.stage("overlay"):
        overlay_graph, overlay_vertices = _build_overlay(
            graph, part.labels, shards, shard_vertices, n_jobs=n_jobs
        )
    return ShardedPreprocessResult(
        shards=shards,
        shard_vertices=shard_vertices,
        labels=part.labels,
        overlay_graph=overlay_graph,
        overlay_vertices=overlay_vertices,
        partition_method=partition,
        partition_seed=partition_seed,
        edge_cut=part.edge_cut,
        balance=part.balance,
        k=k,
        rho=rho,
        heuristic=heuristic,
        source_hash=graph.content_hash(),
        stage_seconds=clock.stages,
    )


def _build_overlay(
    graph: CSRGraph,
    labels: np.ndarray,
    shards: list[PreprocessResult],
    shard_vertices: list[np.ndarray],
    *,
    n_jobs: int = 1,
) -> tuple[CSRGraph, np.ndarray]:
    """The inter-shard stitching graph; see
    :class:`ShardedPreprocessResult.overlay_graph` for the contract."""
    from ..core.solver import PreprocessedSSSP
    from ..graphs.build import from_arc_arrays

    n = graph.n
    tails = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    cross = labels[tails] != labels[graph.indices]
    overlay_vertices = np.unique(tails[cross])
    ov_index = np.full(n, -1, dtype=np.int64)
    ov_index[overlay_vertices] = np.arange(len(overlay_vertices), dtype=np.int64)
    us = [ov_index[tails[cross]]]
    vs = [ov_index[graph.indices[cross]]]
    ws = [graph.weights[cross]]
    for s, pre in enumerate(shards):
        verts = shard_vertices[s]
        if len(verts) == 0:
            continue
        # shard-local ids of this shard's boundary vertices
        local_of = np.full(n, -1, dtype=np.int64)
        local_of[verts] = np.arange(len(verts), dtype=np.int64)
        boundary = overlay_vertices[labels[overlay_vertices] == s]
        if len(boundary) < 2:
            continue
        b_local = local_of[boundary]
        solver = PreprocessedSSSP.from_preprocessed(pre)
        rows = solver.solve_many(b_local, n_jobs=n_jobs)
        b_ov = ov_index[boundary]
        for i, res in enumerate(rows):
            d = res.dist[b_local]
            ok = np.isfinite(d)
            ok[i] = False  # no self loops
            us.append(np.full(int(ok.sum()), b_ov[i], dtype=np.int64))
            vs.append(b_ov[ok])
            ws.append(d[ok])
    overlay = from_arc_arrays(
        len(overlay_vertices),
        np.concatenate(us) if us else np.empty(0, dtype=np.int64),
        np.concatenate(vs) if vs else np.empty(0, dtype=np.int64),
        np.concatenate(ws) if ws else np.empty(0, dtype=np.float64),
        symmetrize=True,
        validate=False,
    )
    return overlay, overlay_vertices
