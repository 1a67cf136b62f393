"""Id-transparent serving over a reordered graph.

A service built with ``reorder=...`` must be observationally identical
to one built without: every distance row bit-identical, every route a
valid path in the *input* graph realizing the same distance, every
k-nearest listing equal.  The reordering may only change speed.
"""

import numpy as np
import pytest

from repro.core import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.engine.registry import available_engines, get_engine
from repro.serve import KNearest, RoutingService

from tests.helpers import random_connected_graph

K, RHO = 2, 8


def _assert_valid_external_parents(solver, dist, parent, source):
    """Externalized parents must realize every distance through an edge
    of the solver's (internal, augmented) graph: shortcut edges are
    legitimate hops, so validation maps each external pair back through
    the permutation before the edge lookup."""
    perm = solver.perm
    aug = solver.graph
    for v in range(len(dist)):
        p = int(parent[v])
        if v == source or not np.isfinite(dist[v]):
            assert p == -1
            continue
        assert p >= 0, f"reachable vertex {v} lacks a parent"
        pi, vi = (p, v) if perm is None else (int(perm[p]), int(perm[v]))
        w = aug.edge_weight(pi, vi)
        assert dist[p] + w == dist[v], (
            f"parent edge ({p}->{v}) does not realize dist"
        )


@pytest.fixture(scope="module")
def graph():
    return random_connected_graph(80, 190, seed=51, weight_high=30)


@pytest.fixture(scope="module")
def pair(graph):
    base = PreprocessedSSSP(graph, k=K, rho=RHO)
    re = PreprocessedSSSP(graph, k=K, rho=RHO, reorder="rcm")
    return base, re


class TestSolverBoundary:
    def test_preprocessing_carries_maps(self, pair):
        _base, re = pair
        pre = re.preprocessing
        assert pre.reorder == "rcm"
        assert np.array_equal(np.sort(pre.perm), np.arange(len(pre.perm)))
        assert np.array_equal(pre.inv_perm[pre.perm], np.arange(len(pre.perm)))
        assert pre.locality_after < pre.locality_before

    def test_source_hash_is_input_graph(self, graph, pair):
        _base, re = pair
        assert re.preprocessing.source_hash == graph.content_hash()

    @pytest.mark.parametrize("engine", available_engines())
    def test_solve_bit_identical_per_engine(self, graph, pair, engine):
        base, re = pair
        tp = get_engine(engine).supports_parents
        for s in (0, 17, 63):
            a = base.solve(s, engine=engine, track_parents=tp)
            b = re.solve(s, engine=engine, track_parents=tp)
            assert np.array_equal(a.dist, b.dist)
            if tp:
                _assert_valid_external_parents(re, b.dist, b.parent, s)

    def test_parent_minus_one_preserved(self, graph, pair):
        """Unreachable/-root sentinels must come back as -1, never as a
        wrongly-translated id."""
        _base, re = pair
        res = re.solve(9, track_parents=True)
        assert res.parent[9] == -1

    def test_solve_many_matches(self, pair):
        base, re = pair
        for a, b in zip(base.solve_many([2, 40, 2, 77]), re.solve_many([2, 40, 2, 77])):
            assert np.array_equal(a.dist, b.dist)

    def test_solve_many_parallel_workers(self, pair):
        """Pool workers externalize their rows: parents come back in
        input ids, each realizing its distance."""
        base, re = pair
        sources = [1, 30, 66]
        got = re.solve_many(sources, n_jobs=2, track_parents=True)
        want = base.solve_many(sources)
        for s, a, b in zip(sources, want, got):
            assert np.array_equal(a.dist, b.dist)
            _assert_valid_external_parents(re, b.dist, b.parent, s)


class TestService:
    @pytest.fixture(scope="class")
    def services(self, graph):
        return (
            RoutingService(graph, k=K, rho=RHO, cache_capacity=16),
            RoutingService(graph, k=K, rho=RHO, reorder="bfs", cache_capacity=16),
        )

    def test_distances_rows_equal(self, services):
        plain, re = services
        for s in (0, 33, 79):
            assert np.array_equal(plain.distances(s), re.distances(s))

    def test_routes_equal_distance_and_valid(self, graph, services):
        plain, re = services
        for s, t in ((0, 70), (12, 45), (79, 3)):
            a, b = plain.route(s, t), re.route(s, t)
            assert a.distance == b.distance
            assert b.path is not None
            assert b.path[0] == s and b.path[-1] == t
            # every hop is an input-graph edge (or preprocessing
            # shortcut realizing an exact subpath); the summed length
            # must reproduce the distance exactly via dijkstra check
            assert b.distance == dijkstra(graph, s).dist[t]

    def test_nearest_equal(self, services):
        plain, re = services
        a, b = plain.nearest(7, 9), re.nearest(7, 9)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.distances, b.distances)

    def test_batch_coalesced_equal(self, services):
        plain, re = services
        queries = [(2, 60), KNearest(2, 4), 44, (60, 2)]
        got = re.batch(queries)
        want = plain.batch(queries)
        assert got[0].distance == want[0].distance
        assert np.array_equal(got[1].vertices, want[1].vertices)
        assert np.array_equal(got[2], want[2])
        assert got[3].distance == want[3].distance

    def test_stats_surface_reorder(self, services):
        _plain, re = services
        stats = re.stats()
        assert stats["reorder"] == "bfs"
        assert stats["locality"]["after"] < stats["locality"]["before"]

    def test_warm_then_hit(self, services):
        _plain, re = services
        re.warm([5, 6])
        before = re.stats()["hits"]
        re.distances(5)
        assert re.stats()["hits"] == before + 1


class TestArtifactRoundTrip:
    def test_save_load_serve_equal(self, graph, tmp_path):
        svc = RoutingService(graph, k=K, rho=RHO, reorder="rcm")
        path = tmp_path / "re.npz"
        svc.save_artifact(path)
        warm = RoutingService.from_artifact(path, expect_graph=graph)
        plain = RoutingService(graph, k=K, rho=RHO)
        for s in (0, 41):
            assert np.array_equal(warm.distances(s), plain.distances(s))
        assert warm.stats()["reorder"] == "rcm"

    def test_from_artifact_rejects_reorder_kwarg(self, graph, tmp_path):
        svc = RoutingService(graph, k=K, rho=RHO, reorder="rcm")
        path = tmp_path / "re.npz"
        svc.save_artifact(path)
        with pytest.raises(TypeError, match="artifact fixes the preprocessing"):
            RoutingService.from_artifact(path, expect_graph=graph, reorder="bfs")


class TestHttp:
    def test_http_answers_in_input_ids(self, graph):
        """The whole stack: HTTP front end over a reordered service
        answers identically to an unreordered one."""
        import json
        import urllib.request

        from repro.serve.http import RoutingHTTPServer

        plain = RoutingService(graph, k=K, rho=RHO, cache_capacity=8)
        re = RoutingService(graph, k=K, rho=RHO, reorder="rcm", cache_capacity=8)
        answers = []
        for svc in (plain, re):
            with RoutingHTTPServer(svc) as server:
                with urllib.request.urlopen(f"{server.url}/route/3/55") as resp:
                    answers.append(json.loads(resp.read()))
                with urllib.request.urlopen(f"{server.url}/stats") as resp:
                    stats = json.loads(resp.read())
        assert answers[0]["distance"] == answers[1]["distance"]
        assert answers[0]["path"][0] == answers[1]["path"][0] == 3
        assert stats["reorder"] == "rcm"  # stats of the reordered server
