"""Cross-shard parity: the ShardRouter must be bit-identical to the
unsharded RoutingService.

The acceptance bar of the sharded refactor: for **every registered
engine**, under **both shipped partitioners**, on **three graph
families** with integer weights (float sums of integers < 2⁵³ are exact,
so "exact metric" means *bit-identical*), the stitched answers equal the
single-graph service's — full rows with ``np.array_equal``, routes with
``==`` on distances, k-nearest with identical vertex and distance
arrays.  Queries whose shortest paths cross two or more shard
boundaries are exercised explicitly, since those are the ones the
overlay stitching exists for.

Sharded preprocessing is cached per (family, partitioner) at module
scope; per-test work is planner construction plus a handful of queries.
"""

import math

import numpy as np
import pytest

from repro.core.dijkstra import dijkstra
from repro.core.result import parent_path
from repro.engine.registry import available_engines, get_engine
from repro.graphs.generators import grid_2d, small_world
from repro.graphs.weights import random_integer_weights
from repro.serve import RoutingService, ShardRouter

from tests.helpers import random_connected_graph

K, RHO = 2, 12
N_SHARDS = 4

FAMILIES = {
    "grid": lambda: random_integer_weights(grid_2d(9, 12), low=1, high=30, seed=1),
    "small-world": lambda: random_integer_weights(
        small_world(104, 4, seed=2), low=1, high=30, seed=3
    ),
    "sparse-random": lambda: random_connected_graph(
        110, 240, seed=4, weight_high=30
    ),
}
PARTITIONERS = ("contiguous", "ldd")


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in FAMILIES.items()}


@pytest.fixture(scope="module")
def solvers(graphs):
    """One unsharded preprocessing per family (shared by every engine)."""
    from repro.core.solver import PreprocessedSSSP

    return {
        name: PreprocessedSSSP(g, k=K, rho=RHO, heuristic="dp")
        for name, g in graphs.items()
    }


@pytest.fixture(scope="module")
def sharded(graphs):
    """One sharded preprocessing per (family, partitioner)."""
    from repro.preprocess import build_sharded_kr_graph

    out = {}
    for name, g in graphs.items():
        for part in PARTITIONERS:
            out[name, part] = build_sharded_kr_graph(
                g, K, RHO, n_shards=N_SHARDS, partition=part, heuristic="dp"
            )
    return out


def _crossing_pairs(graph, labels, want=3):
    """(s, t) pairs whose shortest path crosses >= 2 shard boundaries,
    found by walking dijkstra parent chains on the *input* graph."""
    pairs = []
    for s in range(0, graph.n, 7):
        res = dijkstra(graph, s, track_parents=True)
        for t in range(graph.n - 1, -1, -13):
            if not np.isfinite(res.dist[t]) or t == s:
                continue
            path = parent_path(res.parent, t)
            crossings = sum(
                1
                for a, b in zip(path, path[1:])
                if labels[a] != labels[b]
            )
            if crossings >= 2:
                pairs.append((s, t))
                break
        if len(pairs) >= want:
            break
    return pairs


@pytest.mark.parametrize("partition", PARTITIONERS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("engine", available_engines())
class TestEveryEngineParity:
    def test_rows_routes_nearest_bit_identical(
        self, engine, family, partition, graphs, solvers, sharded
    ):
        g = graphs[family]
        track_parents = get_engine(engine).supports_parents
        service = RoutingService(
            solver=solvers[family], engine=engine, track_parents=track_parents
        )
        router = ShardRouter(
            sharded=sharded[family, partition],
            engine=engine,
            track_parents=track_parents,
        )
        rng = np.random.default_rng(hash((engine, family, partition)) % 2**32)
        sources = rng.choice(g.n, size=3, replace=False)
        for s in map(int, sources):
            assert np.array_equal(service.distances(s), router.distances(s))
        for s, t in [(0, g.n - 1), (3, g.n // 2)]:
            a, b = service.route(s, t), router.route(s, t)
            assert a.distance == b.distance
            if track_parents and np.isfinite(b.distance):
                assert b.path is not None
                assert b.path[0] == s and b.path[-1] == t
        for s in (1, g.n - 2):
            a, b = service.nearest(s, 6), router.nearest(s, 6)
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.distances, b.distances)


@pytest.mark.parametrize("partition", PARTITIONERS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestMultiBoundaryCrossing:
    def test_queries_crossing_two_plus_boundaries(
        self, family, partition, graphs, sharded
    ):
        """The stitching path the overlay exists for: shortest paths
        that traverse at least two shard boundaries."""
        g = graphs[family]
        sh = sharded[family, partition]
        pairs = _crossing_pairs(g, sh.labels)
        assert pairs, "graph families must admit multi-crossing queries"
        router = ShardRouter(sharded=sh)
        for s, t in pairs:
            ref = dijkstra(g, s).dist
            got = router.route(s, t)
            assert got.distance == ref[t]
            assert np.array_equal(router.distances(s), ref)

    def test_stitched_path_telescopes_exactly(
        self, family, partition, graphs, sharded
    ):
        """Every hop of a stitched path is a composite edge whose weight
        is the exact input-graph distance between its endpoints, and the
        hop distances telescope to the route distance."""
        g = graphs[family]
        sh = sharded[family, partition]
        pairs = _crossing_pairs(g, sh.labels, want=1)
        router = ShardRouter(sharded=sh)
        s, t = pairs[0]
        route = router.route(s, t)
        assert route.path is not None
        total = 0.0
        for u, v in zip(route.path, route.path[1:]):
            total += dijkstra(g, int(u)).dist[v]
        assert total == route.distance


@pytest.mark.parametrize("partition", PARTITIONERS)
def test_zero_weight_cuts_route_without_parent_cycles(partition):
    """Zero-weight arcs, cut arcs among them, make ties everywhere: the
    stitched parent forest must stay acyclic, and every route must
    telescope exactly to its distance."""
    from repro.graphs.build import from_arc_arrays
    from repro.preprocess import build_sharded_kr_graph

    grid = grid_2d(7, 8)
    tails = np.repeat(np.arange(grid.n), grid.degrees())
    edge = tails < grid.indices
    weights = np.random.default_rng(9).integers(0, 4, int(edge.sum()))
    g = from_arc_arrays(grid.n, tails[edge], grid.indices[edge], weights)
    sh = build_sharded_kr_graph(g, K, RHO, n_shards=N_SHARDS, partition=partition)
    cut = sh.labels[np.repeat(np.arange(g.n), g.degrees())] != sh.labels[g.indices]
    assert np.any(g.weights[cut] == 0)
    router = ShardRouter(sharded=sh)
    oracle = [dijkstra(g, u).dist for u in range(g.n)]
    for s in range(0, g.n, 5):
        assert np.array_equal(router.distances(s), oracle[s])
        for t in range(g.n):
            route = router.route(s, t)  # a parent cycle raises here
            path = route.path
            assert path[0] == s and path[-1] == t
            assert sum(oracle[u][v] for u, v in zip(path, path[1:])) == route.distance


class TestUnitWeightFamily:
    """A preprocessing whose augmented graph stays unit-weight (k=1, tiny
    rho, full heuristic), served by the default engine with parents."""

    def setup_method(self):
        self.g = grid_2d(8, 10)

    @pytest.mark.parametrize("partition", PARTITIONERS)
    def test_default_engine_parity(self, partition):
        from repro.preprocess import build_sharded_kr_graph

        sh = build_sharded_kr_graph(
            self.g, 1, 2, n_shards=3, partition=partition, heuristic="full"
        )
        router = ShardRouter(sharded=sh)
        service = RoutingService(self.g, k=1, rho=2, heuristic="full")
        assert service.stats()["engine"] == "vectorized"
        for s in (0, 37, 79):
            assert np.array_equal(service.distances(s), router.distances(s))
            a, b = service.route(s, 0), router.route(s, 0)
            assert a.distance == b.distance
            assert a.path[0] == b.path[0] == s and a.path[-1] == b.path[-1] == 0


class TestRouterSurface:
    """Router-specific surface behavior beyond raw parity."""

    @pytest.fixture(scope="class")
    def pair(self, graphs, sharded):
        g = graphs["grid"]
        return g, ShardRouter(sharded=sharded["grid", "contiguous"])

    def test_batch_matches_individual_queries(self, pair):
        from repro.serve import KNearest

        g, router = pair
        answers = router.batch([(0, g.n - 1), 5, KNearest(7, 4)])
        assert answers[0].distance == router.route(0, g.n - 1).distance
        assert np.array_equal(answers[1], router.distances(5))
        assert np.array_equal(answers[2].vertices, router.nearest(7, 4).vertices)

    def test_validation_mirrors_planner(self, pair):
        g, router = pair
        with pytest.raises(ValueError):
            router.distances(-1)
        with pytest.raises(ValueError):
            router.distances(g.n)
        with pytest.raises(TypeError):
            router.distances(True)
        with pytest.raises(TypeError):
            router.nearest(0, 2.5)
        with pytest.raises(ValueError):
            router.nearest(0, -1)

    def test_warm_and_stitched_cache(self, graphs, sharded):
        g = graphs["grid"]
        router = ShardRouter(sharded=sharded["grid", "contiguous"])
        router.warm([0, 1, 2])
        before = router.stats()["stitched"]
        assert before["misses"] >= 3
        router.distances(1)  # cached
        after = router.stats()["stitched"]
        assert after["hits"] == before["hits"] + 1

    def test_stats_topology(self, pair):
        g, router = pair
        stats = router.stats()
        assert stats["shards"] == N_SHARDS
        assert stats["partition"] == "contiguous"
        assert len(stats["topology"]["shards"]) == N_SHARDS
        assert (
            sum(s["vertices"] for s in stats["topology"]["shards"]) == g.n
        )
        assert all(s["boundary"] >= 1 for s in stats["topology"]["shards"])
        health = router.healthz()
        assert health["status"] == "ok" and health["shards"] == N_SHARDS

    def test_stats_backends_table_local_mode(self, pair):
        """The backend seam is visible even fully in process: one
        'local' row per shard, healthy, zero failures."""
        _g, router = pair
        router.distances(0)  # at least one fetch recorded somewhere
        table = router.stats()["backends"]
        assert len(table) == N_SHARDS
        for s, row in enumerate(table):
            assert row["shard"] == s
            assert row["kind"] == "local"
            assert row["endpoint"] is None
            assert row["healthy"] is True
            assert row["consecutive_failures"] == 0
            assert row["failures_total"] == 0
        assert sum(row["row_fetches"] for row in table) >= 1

    def test_read_only_rows(self, pair):
        _g, router = pair
        row = router.distances(0)
        with pytest.raises(ValueError):
            row[0] = 1.0

    def test_single_shard_degenerates_to_service(self, graphs):
        """n_shards=1: no overlay, still exact."""
        g = graphs["small-world"]
        router = ShardRouter(g, n_shards=1, k=K, rho=RHO)
        assert router.n_shards == 1
        ref = dijkstra(g, 11).dist
        assert np.array_equal(router.distances(11), ref)

    def test_strided_sources_fit_the_stitched_cache(self):
        """Sources 0, 8, …, 56 are eight rows for an eight-row
        stitched cache: the second round of ``distances`` is all hits."""
        from repro.preprocess import build_sharded_kr_graph

        g = random_integer_weights(grid_2d(12, 12), low=1, high=30, seed=3)
        sh = build_sharded_kr_graph(
            g, K, RHO, n_shards=3, partition="ldd", heuristic="dp"
        )
        router = ShardRouter(sharded=sh, cache_capacity=8)
        sources = range(0, 64, 8)
        for s in sources:
            router.distances(s)
        first = router.stats()["stitched"]
        for s in sources:
            assert np.array_equal(router.distances(s), dijkstra(g, s).dist)
        stitched = router.stats()["stitched"]
        assert stitched["hits"] - first["hits"] == 8
        assert stitched["misses"] == first["misses"] == 8
        assert (stitched["cached_rows"], stitched["evictions"]) == (8, 0)

    def test_cold_start_requires_shard_count(self, graphs):
        with pytest.raises(ValueError, match="n_shards"):
            ShardRouter(graphs["grid"])
        with pytest.raises(ValueError, match="graph or a sharded"):
            ShardRouter()


# --------------------------------------------------------------------- #
# Stopped route stitches: a cold route solves only its target's shard
# --------------------------------------------------------------------- #
def _wire(router) -> dict:
    """The router's backend wire counters, summed over shards."""
    keys = ("source_rows", "seeded_solves", "frame_bytes_sent", "frame_bytes_received")
    table = router.stats()["backends"]
    return {key: sum(row[key] for row in table) for key in keys}


def _telescopes(g, route) -> bool:
    path = route.path
    hops = sum(dijkstra(g, int(u)).dist[v] for u, v in zip(path, path[1:]))
    return path[0] == route.source and path[-1] == route.target and hops == route.distance


@pytest.mark.parametrize("partition", PARTITIONERS)
def test_zero_weight_cuts_route_first_without_parent_cycles(partition):
    """The zero-weight graph above with no ``/distances`` before the
    routes and no row cache: every route comes from a stopped stitched
    row, whose parent walk joins a target shard's seeded solve, the
    overlay and the source row.  The walk must stay acyclic and
    telescope exactly."""
    from repro.graphs.build import from_arc_arrays
    from repro.preprocess import build_sharded_kr_graph

    grid = grid_2d(7, 8)
    tails = np.repeat(np.arange(grid.n), grid.degrees())
    edge = tails < grid.indices
    weights = np.random.default_rng(9).integers(0, 4, int(edge.sum()))
    g = from_arc_arrays(grid.n, tails[edge], grid.indices[edge], weights)
    sh = build_sharded_kr_graph(g, K, RHO, n_shards=N_SHARDS, partition=partition)
    # a cached stopped row extends to a full one on its first miss
    router = ShardRouter(sharded=sh, cache_capacity=0)
    oracle = [dijkstra(g, u).dist for u in range(g.n)]
    for s in range(0, g.n, 5):
        for t in range(g.n):
            route = router.route(s, t)  # a parent cycle raises here
            path = route.path
            assert route.distance == oracle[s][t]
            assert path[0] == s and path[-1] == t
            assert sum(oracle[u][v] for u, v in zip(path, path[1:])) == route.distance
    stitched = router.stats()["stitched"]
    # no row was full: every stitch stopped at its target's shard
    assert stitched["partial_solves"] == stitched["misses"] > 0


class TestStoppedRouteStitch:
    """A route rule stitches one seeded solve per target shard; what the
    stopped row does not cover stitches again, in full."""

    def test_cached_stopped_rows_answer_only_settled_vertices(self):
        """Shards large against ρ, so a stopped shard solve leaves
        tentative distances past its bound: every later route a cached
        stopped row answers must still be exact."""
        from repro.preprocess import build_sharded_kr_graph

        g = random_integer_weights(grid_2d(16, 18), low=1, high=30, seed=11)
        sh = build_sharded_kr_graph(g, 2, 4, n_shards=3, partition="ldd")
        for s in (0, 100, 287):
            ref = dijkstra(g, s).dist
            for shard in range(3):
                verts = np.flatnonzero(sh.labels == shard)
                mid = int(verts[np.argsort(ref[verts], kind="stable")[len(verts) // 2]])
                near = verts[ref[verts] <= ref[mid]]
                router = ShardRouter(sharded=sh)
                for t in map(int, (mid, *near)):
                    assert router.route(s, t).distance == ref[t]
                # the row stopped at the shard's median vertex answers
                # every vertex of the shard up to it
                st = router.stats()["stitched"]
                assert (st["partial_solves"], st["misses"], st["hits"]) == (
                    1, 1, len(near)
                )
                for t in map(int, verts):
                    assert router.route(s, t).distance == ref[t]
                assert router.stats()["stitched"]["misses"] <= 2

    def test_nearest_and_distances_after_a_route(self, graphs, sharded):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        from repro.serve.planner import nearest_from_row

        g = graphs["grid"]
        sh = sharded["grid", "ldd"]
        matrix = csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
        s = 0
        t = int(np.flatnonzero(sh.labels != sh.labels[s])[-1])
        ref = scipy_dijkstra(matrix, indices=s)
        router = ShardRouter(sharded=sh)
        before = _wire(router)
        route = router.route(s, t)
        assert route.distance == ref[t] and _telescopes(g, route)
        wire = _wire(router)
        assert wire["source_rows"] - before["source_rows"] == 1
        assert wire["seeded_solves"] - before["seeded_solves"] == 1
        st = router.stats()["stitched"]
        assert (st["partial_solves"], st["extensions"], st["misses"]) == (1, 0, 1)
        # the stopped row settles no prefix: a nearest query misses, is
        # an extension, and stitches in full
        near = router.nearest(s, 6)
        want = nearest_from_row(s, ref, 6)
        assert np.array_equal(near.vertices, want.vertices)
        assert np.array_equal(near.distances, want.distances)
        st = router.stats()["stitched"]
        assert (st["partial_solves"], st["extensions"], st["misses"]) == (1, 1, 2)
        # the full row now answers everything
        assert np.array_equal(router.distances(s), ref)
        assert router.route(s, t).distance == ref[t]
        st = router.stats()["stitched"]
        assert (st["misses"], st["hits"]) == (2, 2)

    def test_distances_after_a_route_is_an_extension(self, graphs, sharded):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

        g = graphs["sparse-random"]
        sh = sharded["sparse-random", "contiguous"]
        matrix = csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
        router = ShardRouter(sharded=sh)
        for s, t in [(3, g.n - 1), (40, 41)]:
            ref = scipy_dijkstra(matrix, indices=s)
            assert router.route(s, t).distance == ref[t]
            before = _wire(router)
            assert np.array_equal(router.distances(s), ref)
            wire = _wire(router)
            assert wire["source_rows"] - before["source_rows"] == 1
            assert 1 <= wire["seeded_solves"] - before["seeded_solves"] <= N_SHARDS
        st = router.stats()["stitched"]
        assert (st["partial_solves"], st["extensions"]) == (2, 2)

    def test_cold_batch_with_targets_in_two_shards(self, graphs, sharded):
        g = graphs["small-world"]
        sh = sharded["small-world", "ldd"]
        s = 5
        others = [c for c in range(N_SHARDS) if c != sh.labels[s]]
        t1 = int(np.flatnonzero(sh.labels == others[0])[0])
        t2 = int(np.flatnonzero(sh.labels == others[1])[-1])
        ref = dijkstra(g, s).dist
        router = ShardRouter(sharded=sh)
        before = _wire(router)
        a, b = router.batch([(s, t1), (s, t2)])
        wire = _wire(router)
        assert wire["source_rows"] - before["source_rows"] == 1
        assert wire["seeded_solves"] - before["seeded_solves"] == 2
        for route, t in ((a, t1), (b, t2)):
            assert route.distance == ref[t] and _telescopes(g, route)
        st = router.stats()["stitched"]
        assert (st["partial_solves"], st["misses"]) == (1, 1)
        # the one stopped row covers both targets
        assert router.route(s, t1) == a and router.route(s, t2) == b
        assert router.stats()["stitched"]["hits"] == 2

    def test_repeated_source_stitches_at_most_twice(self, graphs, sharded):
        """Routes from one source alternating between two other shards:
        the first stitch stops at its target's shard, the first route
        it does not cover stitches the full row, and every later route
        hits that row."""
        g = graphs["small-world"]
        sh = sharded["small-world", "ldd"]
        s = 5
        others = [c for c in range(N_SHARDS) if c != sh.labels[s]]
        targets = [
            int(np.flatnonzero(sh.labels == others[i % 2])[i // 2]) for i in range(12)
        ]
        ref = dijkstra(g, s).dist
        router = ShardRouter(sharded=sh)
        for t in targets:
            route = router.route(s, t)
            assert route.distance == ref[t] and _telescopes(g, route)
        st = router.stats()["stitched"]
        assert (st["misses"], st["partial_solves"], st["extensions"]) == (2, 1, 1)
        assert st["hits"] == len(targets) - 2
        assert _wire(router)["source_rows"] == 2

    def test_parentless_shards_route_by_a_full_stitch(self, graphs, sharded):
        """A router that tracks parents over shards that track none:
        the source shard sends its row without parents, so a cold route
        stitches in full and still returns a telescoping path."""
        from repro.serve import LocalBackend
        from repro.serve.artifacts import ShardTopology
        from repro.serve.service import shard_services

        g = graphs["grid"]
        sh = sharded["grid", "ldd"]
        backends = [
            None if service is None else LocalBackend(c, service)
            for c, service in enumerate(shard_services(sh, track_parents=False))
        ]
        router = ShardRouter(topology=ShardTopology.from_sharded(sh), backends=backends)
        for s, t in [(0, g.n - 1), (7, g.n // 2), (50, 51)]:
            route = router.route(s, t)
            assert route.distance == dijkstra(g, s).dist[t] and _telescopes(g, route)
        st = router.stats()["stitched"]
        assert (st["misses"], st["partial_solves"]) == (3, 0)

    def test_target_in_the_source_shard(self, graphs, sharded):
        g = graphs["grid"]
        sh = sharded["grid", "contiguous"]
        router = ShardRouter(sharded=sh)
        s = 10
        same = np.flatnonzero(sh.labels == sh.labels[s])
        ref = dijkstra(g, s).dist
        for t in map(int, same[::3]):
            route = router.route(s, t)
            assert route.distance == ref[t] and _telescopes(g, route)
        assert router.route(s, s).path == (s,)
        assert router.stats()["stitched"]["partial_solves"] >= 1

    def test_unreachable_targets(self):
        """Two components: a route into the other one is unreachable,
        whether or not the target's shard gets a seed at all."""
        from repro.graphs.build import from_arc_arrays
        from repro.preprocess import build_sharded_kr_graph

        half = grid_2d(4, 5)
        tails = np.repeat(np.arange(half.n), half.degrees())
        edge = tails < half.indices
        t, h = tails[edge], half.indices[edge]
        g = from_arc_arrays(
            2 * half.n,
            np.concatenate([t, t + half.n]),
            np.concatenate([h, h + half.n]),
            np.arange(1, 2 * len(t) + 1) % 7,
        )
        sh = build_sharded_kr_graph(g, K, RHO, n_shards=3, partition="ldd")
        ref = dijkstra(g, 0).dist
        router = ShardRouter(sharded=sh)
        for target in range(g.n):
            route = router.route(0, target)
            assert route.distance == ref[target]
            if target >= half.n:
                assert route.distance == math.inf and route.path is None
            else:
                assert _telescopes(g, route)
        assert router.stats()["stitched"]["partial_solves"] >= 1


def _zero_weight_grid():
    """The 7×8 grid with weights 0–3 of the zero-weight tests above."""
    from repro.graphs.build import from_arc_arrays

    grid = grid_2d(7, 8)
    tails = np.repeat(np.arange(grid.n), grid.degrees())
    edge = tails < grid.indices
    weights = np.random.default_rng(9).integers(0, 4, int(edge.sum()))
    return from_arc_arrays(grid.n, tails[edge], grid.indices[edge], weights)


@pytest.mark.parametrize("partition", PARTITIONERS)
@pytest.mark.parametrize(
    "graph, step",
    [(_zero_weight_grid, 8), (lambda: grid_2d(12, 12), 36)],
    ids=["zero-weight-7x8", "unit-12x12"],
)
def test_a_route_depends_only_on_its_pair(graph, step, partition):
    """A stopped row and a full row come from one stitch, stopped at
    different points, so a route takes one path whatever was cached:
    the uncached router's every route is a stopped stitch, and the
    other answers from the cached ``distances(s)`` row.  Ties are
    everywhere on both graphs, so every path must also telescope."""
    from repro.preprocess import build_sharded_kr_graph

    g = graph()
    sh = build_sharded_kr_graph(g, 2, 8, n_shards=3, partition=partition)
    stopped = ShardRouter(sharded=sh, cache_capacity=0)
    cached = ShardRouter(sharded=sh)
    oracle = [dijkstra(g, u).dist for u in range(g.n)]
    for s in range(0, g.n, step):
        cached.distances(s)
        for t in range(g.n):
            route = stopped.route(s, t)
            assert route == cached.route(s, t)
            path = route.path
            assert route.distance == oracle[s][t]
            assert path[0] == s and path[-1] == t
            assert sum(oracle[u][v] for u, v in zip(path, path[1:])) == route.distance
    st = stopped.stats()["stitched"]
    assert st["partial_solves"] == st["misses"] > 0
    assert cached.stats()["stitched"]["partial_solves"] == 0
