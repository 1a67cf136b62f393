"""Query planner: cache behavior, coalescing, and answer correctness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.engine import StopRule
from repro.serve import (
    KNearest,
    Nearest,
    PointToPoint,
    QueryPlanner,
    Route,
    SingleSource,
    nearest_from_row,
)

from tests.helpers import random_connected_graph


@pytest.fixture(scope="module")
def case():
    g = random_connected_graph(50, 120, seed=17, weight_high=25)
    return g, PreprocessedSSSP(g, k=2, rho=8, heuristic="dp")


def make_planner(case, **kwargs):
    _, sp = case
    kwargs.setdefault("track_parents", True)
    return QueryPlanner(sp, **kwargs)


class TestCorrectness:
    def test_single_source_matches_dijkstra(self, case):
        g, _ = case
        planner = make_planner(case)
        for s in (0, 7, 23):
            assert np.array_equal(planner.distances(s), dijkstra(g, s).dist)

    def test_point_to_point(self, case):
        g, _ = case
        planner = make_planner(case)
        route = planner.route(3, 40)
        ref = dijkstra(g, 3).dist
        assert isinstance(route, Route)
        assert route.distance == ref[40]
        assert route.path[0] == 3 and route.path[-1] == 40

    def test_route_path_telescopes_on_augmented_graph(self, case):
        """Each hop is a real (possibly shortcut) edge whose weights sum
        to the exact distance."""
        _, sp = case
        planner = make_planner(case)
        route = planner.route(5, 31)
        aug = sp.graph
        total = 0.0
        for u, v in zip(route.path, route.path[1:]):
            total += aug.edge_weight(u, v)
        assert total == route.distance

    def test_route_without_parent_tracking_has_no_path(self, case):
        planner = make_planner(case, track_parents=False)
        route = planner.route(3, 40)
        assert route.path is None
        assert route.distance == dijkstra(case[0], 3).dist[40]

    def test_k_nearest(self, case):
        g, _ = case
        planner = make_planner(case)
        near = planner.nearest(11, 5)
        ref = dijkstra(g, 11).dist
        assert isinstance(near, Nearest)
        assert len(near.vertices) == 5
        assert 11 not in near.vertices
        assert np.array_equal(near.distances, ref[near.vertices])
        # the k smallest non-source distances, sorted (distance, vertex)
        assert np.array_equal(near.distances, np.sort(ref)[1:6])
        assert near.distances.tolist() == sorted(near.distances.tolist())

    def test_k_nearest_clamps_to_graph(self, case):
        g, _ = case
        planner = make_planner(case)
        near = planner.nearest(0, 10_000)
        assert len(near.vertices) == g.n - 1

    def test_k_nearest_deterministic_tie_break(self, case):
        planner = make_planner(case)
        a = planner.nearest(2, 8)
        b = planner.nearest(2, 8)
        assert np.array_equal(a.vertices, b.vertices)

    def test_k_nearest_never_returns_unreachable(self):
        """On a disconnected graph, vertices in other components must
        not be presented as 'nearest' — fewer results come back."""
        from repro.graphs import from_edge_list, unit_weights

        g = unit_weights(from_edge_list(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]))
        sp = PreprocessedSSSP(g, k=1, rho=1, heuristic="full")
        planner = QueryPlanner(sp)
        near = planner.nearest(0, 5)
        assert near.vertices.tolist() == [1, 2]
        assert np.isfinite(near.distances).all()


class TestCache:
    def test_hit_miss_counters(self, case):
        planner = make_planner(case, capacity=8)
        planner.distances(0)
        planner.distances(0)
        planner.route(0, 5)
        s = planner.stats()
        assert s["misses"] == 1
        assert s["hits"] == 2
        assert s["solves"] == 1

    def test_point_to_point_served_from_cached_row(self, case):
        """After one single-source query, any route from that source is
        a pure cache read."""
        planner = make_planner(case)
        planner.distances(9)
        before = planner.stats()["solves"]
        for t in (1, 2, 3, 4):
            planner.route(9, t)
        s = planner.stats()
        assert s["solves"] == before
        assert s["hits"] >= 4

    def test_eviction_lru_order(self, case):
        planner = make_planner(case, capacity=2)
        planner.distances(0)   # cache: {0}
        planner.distances(1)   # cache: {0, 1}
        planner.distances(0)   # refresh 0 → LRU order {1, 0}
        planner.distances(2)   # evicts 1
        assert planner.stats()["evictions"] == 1
        before = planner.stats()["solves"]
        planner.distances(0)   # still cached
        assert planner.stats()["solves"] == before
        planner.distances(1)   # evicted → re-solve
        assert planner.stats()["solves"] == before + 1

    def test_capacity_zero_disables_cache(self, case):
        planner = make_planner(case, capacity=0)
        planner.distances(0)
        planner.distances(0)
        s = planner.stats()
        assert s["cached_rows"] == 0
        assert s["hits"] == 0
        assert s["solves"] == 2

    def test_negative_capacity_rejected(self, case):
        with pytest.raises(ValueError, match="capacity"):
            make_planner(case, capacity=-1)

    def test_total_cached_rows_bounded(self, case):
        planner = make_planner(case, capacity=6)
        for s in range(20):
            planner.distances(s)
        stats = planner.stats()
        assert stats["cached_rows"] <= 6
        assert stats["evictions"] >= 14
        assert stats["lookups"] == stats["hits"] + stats["misses"] == 20

    def test_strided_hot_set_fits_the_cache(self):
        """Sources that share a residue mod 8 (0, 8, …, 56) are as many
        rows as the cache holds: warmed, each answers its route from the
        cache, and nothing is evicted."""
        g = random_connected_graph(64, 150, seed=5, weight_high=25)
        planner = QueryPlanner(PreprocessedSSSP(g, k=2, rho=8), capacity=8)
        sources = range(0, 64, 8)
        planner.warm(sources)
        warmed = planner.stats()
        for s in sources:
            planner.route(s, 1)
        stats = planner.stats()
        assert stats["cached_rows"] == 8
        assert stats["hits"] - warmed["hits"] == 8
        assert stats["solves"] == warmed["solves"] == 8
        assert stats["evictions"] == 0

    def test_cached_rows_are_read_only(self, case):
        planner = make_planner(case)
        row = planner.distances(4)
        with pytest.raises(ValueError):
            row[0] = -1.0

    def test_cached_parents_are_int32_and_route_like_int64_solve(self, case):
        """Parent rows are cached at half width; every route still walks
        exactly the int64 solve's parent chain."""
        _, sp = case
        planner = make_planner(case)
        sources = (0, 7, 23)
        planner.warm(sources)
        for s in sources:
            parent = planner._peek(s).parent
            assert parent.dtype == np.int32
            ref = sp.solve(s, engine=planner.engine, track_parents=True)
            assert np.array_equal(parent, ref.parent)
            for t in range(sp.graph.n):
                assert planner.route(s, t).path == tuple(ref.path_to(t))

    def test_auto_and_concrete_engine_share_cache(self, case):
        """'auto' resolves before keying, so it hits rows cached under
        the concrete name."""
        _, sp = case
        planner = make_planner(case, engine="auto")
        assert planner.stats()["engine"] == sp.resolve_engine("auto")


class TestBatching:
    def test_mixed_batch_answers_in_order(self, case):
        g, _ = case
        planner = make_planner(case)
        ref0 = dijkstra(g, 0).dist
        answers = planner.execute(
            [SingleSource(0), PointToPoint(0, 9), KNearest(0, 3), SingleSource(7)]
        )
        assert np.array_equal(answers[0], ref0)
        assert answers[1].distance == ref0[9]
        assert np.array_equal(answers[2].distances, np.sort(ref0)[1:4])
        assert np.array_equal(answers[3], dijkstra(g, 7).dist)

    def test_batch_coalesces_shared_sources(self, case):
        """Five queries over two distinct sources = one batch, two
        solves, three coalesced requests."""
        planner = make_planner(case)
        planner.execute(
            [
                SingleSource(3),
                PointToPoint(3, 10),
                KNearest(3, 2),
                PointToPoint(8, 1),
                SingleSource(8),
            ]
        )
        s = planner.stats()
        assert s["batches"] == 1
        assert s["solves"] == 2
        assert s["coalesced"] == 3

    def test_batch_mixes_hits_and_misses(self, case):
        planner = make_planner(case)
        planner.distances(5)
        planner.execute([SingleSource(5), SingleSource(6)])
        s = planner.stats()
        assert s["hits"] == 1
        assert s["misses"] == 2  # first 5, then 6

    def test_shorthand_queries(self, case):
        g, _ = case
        planner = make_planner(case)
        answers = planner.execute([4, (4, 12)])
        assert np.array_equal(answers[0], dijkstra(g, 4).dist)
        assert answers[1] == planner.route(4, 12)

    def test_unsupported_query_type_rejected(self, case):
        planner = make_planner(case)
        with pytest.raises(TypeError, match="unsupported query"):
            planner.execute(["not-a-query"])

    def test_out_of_range_vertices_rejected(self, case):
        """Negative indices must not silently serve vertex n+v (numpy
        wraparound); past-the-end must be a clear error, not an
        IndexError from deep inside."""
        g, _ = case
        planner = make_planner(case)
        with pytest.raises(ValueError, match="target -1 out of range"):
            planner.route(3, -1)
        with pytest.raises(ValueError, match="target"):
            planner.route(3, g.n)
        with pytest.raises(ValueError, match="source"):
            planner.distances(-2)
        with pytest.raises(ValueError, match="source"):
            planner.nearest(g.n + 5, 3)

    def test_warm_prepopulates(self, case):
        planner = make_planner(case)
        planner.warm([1, 2, 3])
        before = planner.stats()["solves"]
        planner.distances(2)
        assert planner.stats()["solves"] == before


class TestValidation:
    def test_warm_validates_sources(self, case):
        """Regression: warm() used to skip _check_vertex — warm([-1])
        silently solved from vertex n-1 and cached the row under key
        -1.  It must raise and cache/solve nothing."""
        g, _ = case
        planner = make_planner(case)
        with pytest.raises(ValueError, match="source -1 out of range"):
            planner.warm([-1])
        with pytest.raises(ValueError, match="source"):
            planner.warm([0, g.n])
        s = planner.stats()
        assert s["solves"] == 0
        assert s["cached_rows"] == 0

    def test_warm_rejects_bool_sources(self, case):
        planner = make_planner(case)
        with pytest.raises(TypeError, match="bool"):
            planner.warm([True])

    def test_bool_query_rejected(self, case):
        """Regression: bool is an int subclass, so True used to become
        SingleSource(1) via isinstance(..., int)."""
        planner = make_planner(case)
        with pytest.raises(TypeError, match="bool"):
            planner.execute([True])
        with pytest.raises(TypeError, match="bool"):
            planner.execute([(True, 4)])
        with pytest.raises(TypeError, match="bool"):
            planner.distances(False)
        from repro.serve import SingleSource as SS

        with pytest.raises(TypeError, match="bool"):
            planner.execute([SS(True)])

    def test_negative_k_rejected(self, case):
        """Regression: KNearest(s, -3) used to silently return an empty
        Nearest instead of flagging the malformed request."""
        planner = make_planner(case)
        with pytest.raises(ValueError, match="k must be >= 0"):
            planner.nearest(3, -3)
        with pytest.raises(ValueError, match="k must be >= 0"):
            planner.execute([KNearest(3, -1)])
        with pytest.raises(TypeError, match="k must be an integer"):
            planner.execute([KNearest(3, True)])
        # k = 0 stays a valid (empty) request
        near = planner.nearest(3, 0)
        assert len(near.vertices) == 0

    def test_numpy_integer_sources_still_accepted(self, case):
        g, _ = case
        planner = make_planner(case)
        row = planner.distances(np.int64(7))
        assert np.array_equal(row, dijkstra(g, 7).dist)
        planner.warm(np.array([1, 2], dtype=np.int64))


class TestBoundedRows:
    """A route or nearest miss stops at the step that settles its answer;
    the row is cached with that bound and answers what the bound covers."""

    @pytest.fixture(scope="class")
    def road(self):
        from repro.graphs.generators import road_network
        from repro.graphs.weights import random_integer_weights

        g = random_integer_weights(road_network(400, seed=2)[0], low=1, high=40, seed=3)
        return g, PreprocessedSSSP(g, k=2, rho=8, reorder="rcm")

    def test_route_miss_caches_a_stopped_row(self, road):
        g, sp = road
        planner = QueryPlanner(sp, track_parents=True)
        full = sp.solve(4, track_parents=True)
        near = int(np.argsort(full.dist)[3])
        route = planner.route(4, near)
        assert route.distance == full.dist[near]
        assert route.path == tuple(full.path_to(near))
        row = planner._peek(4)
        assert row.bound < np.inf and row.dist[near] <= row.bound
        stats = planner.stats()
        assert (stats["partial_solves"], stats["extensions"]) == (1, 0)
        # a vertex within the bound hits; everything else is a miss
        inside = int(np.flatnonzero(row.dist <= row.bound)[-1])
        assert planner.route(4, inside).distance == full.dist[inside]
        assert planner.stats()["hits"] == 1

    def test_uncovered_queries_extend_the_row(self, road):
        g, sp = road
        planner = QueryPlanner(sp, track_parents=True)
        full = sp.solve(9, track_parents=True)
        planner.nearest(9, 3)
        bound = planner._peek(9).bound
        mid = int(np.argsort(full.dist)[g.n // 2])
        assert planner.route(9, mid).path == tuple(full.path_to(mid))
        assert np.inf > planner._peek(9).bound > bound
        assert np.array_equal(planner.distances(9), full.dist)
        assert planner._peek(9).bound == np.inf
        stats = planner.stats()
        assert stats["misses"] == stats["solves"] == 3
        assert stats["extensions"] == 2
        # the full row now answers everything
        planner.nearest(9, 50)
        planner.route(9, 0)
        assert planner.stats()["hits"] == 2

    def test_nearest_needs_k_plus_one_settled(self, road):
        _, sp = road
        planner = QueryPlanner(sp)
        planner.nearest(5, 4)
        row = planner._peek(5)
        assert row.settled >= 5
        planner.nearest(5, row.settled - 1)
        assert planner.stats()["hits"] == 1
        planner.nearest(5, row.settled)
        assert planner.stats()["misses"] == 2

    def test_insert_never_lowers_the_bound(self, road):
        _, sp = road
        planner = QueryPlanner(sp)
        planner.distances(6)
        full = planner._peek(6)
        planner._insert(6, planner._rows.solve([6], [StopRule(settled=3)])[0])
        assert planner._peek(6) is full

    def test_single_source_and_warm_always_solve_fully(self, road):
        _, sp = road
        planner = QueryPlanner(sp)
        planner.warm([1])
        planner.execute([PointToPoint(2, 3), SingleSource(2)])
        assert planner._peek(1).bound == planner._peek(2).bound == np.inf
        assert planner.stats()["partial_solves"] == 0

    def test_answers_do_not_depend_on_the_cache(self, road):
        """The same queries from a cold and from a full-row planner."""
        g, sp = road
        rng = np.random.default_rng(4)
        cold = QueryPlanner(sp, track_parents=True, capacity=2)
        warm = QueryPlanner(sp, track_parents=True)
        for _ in range(40):
            s, t = (int(v) for v in rng.integers(0, g.n, 2))
            warm.warm([s])
            q = [PointToPoint(s, t), KNearest(s, int(rng.integers(0, 30)))]
            a, b = cold.execute(q), warm.execute(q)
            assert a[0] == b[0]
            assert np.array_equal(a[1].vertices, b[1].vertices)
            assert np.array_equal(a[1].distances, b[1].distances)
        assert cold.stats()["partial_solves"] > 0


@given(
    st.lists(st.integers(1, 5), min_size=1, max_size=40),
    st.data(),
)
def test_nearest_from_row_ties_match_brute_force(values, data):
    """(distance, vertex) order on rows full of ties, against a full
    lexsort; unreachable vertices and the source never appear."""
    dist = np.array(values, dtype=np.float64)
    n = len(dist)
    unreachable = data.draw(st.lists(st.integers(0, n - 1), max_size=n // 3))
    dist[unreachable] = np.inf
    source = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n + 1))
    got = nearest_from_row(source, dist, k)
    others = np.flatnonzero(np.isfinite(dist))
    others = others[others != source]
    want = others[np.lexsort((others, dist[others]))][:k]
    assert got.vertices.tolist() == want.tolist()
    assert np.array_equal(got.distances, dist[want])
