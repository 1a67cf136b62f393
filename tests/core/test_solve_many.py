"""Batched multi-source queries: determinism, parallel fan-out, dispatch."""

import numpy as np
import pytest

from repro.core import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.graphs import from_edge_list, unit_weights
from repro.graphs.generators import grid_2d

from tests.helpers import random_connected_graph

SOURCES = [0, 7, 19, 33, 42, 55, 11, 3]


@pytest.fixture(scope="module")
def solver():
    g = random_connected_graph(60, 140, seed=8, weight_high=30)
    return g, PreprocessedSSSP(g, k=2, rho=10, heuristic="dp")


class TestDeterminism:
    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_matches_oracle_any_worker_count(self, solver, n_jobs):
        g, sp = solver
        results = sp.solve_many(SOURCES, n_jobs=n_jobs)
        assert len(results) == len(SOURCES)
        for s, res in zip(SOURCES, results):
            assert np.allclose(res.dist, dijkstra(g, s).dist)

    def test_parallel_bitwise_equals_serial(self, solver):
        """Fan-out must not change a single bit: chunked results come back
        in input order and each query is computed identically."""
        _, sp = solver
        serial = sp.solve_many(SOURCES, n_jobs=1)
        parallel = sp.solve_many(SOURCES, n_jobs=4)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.dist, b.dist)
            assert (a.steps, a.substeps, a.relaxations) == (
                b.steps,
                b.substeps,
                b.relaxations,
            )

    def test_input_order_preserved(self, solver):
        _, sp = solver
        results = sp.solve_many([42, 0, 7], n_jobs=4)
        assert [r.params["source"] for r in results] == [42, 0, 7]


class TestDispatch:
    def test_engine_override(self, solver):
        _, sp = solver
        results = sp.solve_many([0, 7], engine="bucket", n_jobs=1)
        assert all(r.algorithm == "radius-stepping-bucket" for r in results)

    def test_parallel_engine_override(self, solver):
        _, sp = solver
        a = sp.solve_many([0, 7, 19], engine="dijkstra", n_jobs=1)
        b = sp.solve_many([0, 7, 19], engine="dijkstra", n_jobs=4)
        for x, y in zip(a, b):
            assert np.array_equal(x.dist, y.dist)

    def test_track_parents(self, solver):
        _, sp = solver
        results = sp.solve_many([0, 7], track_parents=True, n_jobs=4)
        assert all(r.parent is not None for r in results)

    def test_parent_support_enforced(self, solver):
        _, sp = solver
        with pytest.raises(ValueError, match="does not track parents"):
            sp.solve_many([0], engine="bst", track_parents=True)

    def test_unknown_engine_rejected(self, solver):
        _, sp = solver
        with pytest.raises(ValueError, match="registered engines"):
            sp.solve_many([0], engine="quantum")

    def test_query_counter_counts_batch(self, solver):
        g = random_connected_graph(30, 70, seed=1)
        sp = PreprocessedSSSP(g, k=1, rho=6, heuristic="full")
        sp.solve_many([0, 1, 2], n_jobs=2)
        assert sp.queries_answered == 3

    def test_auto_resolves_vectorized_on_unit_graph(self):
        sp = PreprocessedSSSP(grid_2d(6, 6), k=1, rho=2, heuristic="full")
        assert sp.graph.is_unweighted
        results = sp.solve_many([0, 5], track_parents=True, n_jobs=2)
        assert all(r.algorithm == "radius-stepping" for r in results)
        path = results[0].path_to(35)
        assert path[0] == 0 and path[-1] == 35
        assert len(path) - 1 == results[0].dist[35] == 10

    def test_empty_batch(self, solver):
        _, sp = solver
        assert sp.solve_many([], n_jobs=4) == []

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_disconnected_graph_rows(self, n_jobs):
        """A row reads ``inf`` outside its source's component."""
        g = unit_weights(from_edge_list(6, [(0, 1, 1.0), (2, 3, 1.0)]))
        sp = PreprocessedSSSP(g, k=1, rho=1, heuristic="full")
        rows = np.stack([r.dist for r in sp.solve_many([0, 2], n_jobs=n_jobs)])
        assert rows[0, 1] == 1.0
        assert np.isinf(rows[0, 2:]).all()
        assert rows[1, 3] == 1.0
        assert np.isinf(rows[1, [0, 1, 4, 5]]).all()


class TestSourceDedup:
    """Repeated sources are solved once and fanned back in input order."""

    @pytest.mark.parametrize("n_jobs", [1, 4])
    def test_duplicates_answered_in_input_order(self, solver, n_jobs):
        g, sp = solver
        dup_sources = [7, 0, 7, 19, 0, 7]
        results = sp.solve_many(dup_sources, n_jobs=n_jobs)
        assert [r.params["source"] for r in results] == dup_sources
        for s, res in zip(dup_sources, results):
            assert np.array_equal(res.dist, dijkstra(g, s).dist)

    def test_duplicates_share_one_solve(self, solver):
        """The compute side sees each distinct source once: duplicate
        positions share the result object of the unique solve."""
        _, sp = solver
        results = sp.solve_many([3, 11, 3, 3, 11])
        assert results[0] is results[2] is results[3]
        assert results[1] is results[4]
        assert results[0] is not results[1]

    def test_duplicated_equals_deduplicated_run(self, solver):
        _, sp = solver
        a = sp.solve_many([0, 7, 19])
        b = sp.solve_many([0, 7, 0, 19, 7])
        for x, y in zip(a, (b[0], b[1], b[3])):
            assert np.array_equal(x.dist, y.dist)
            assert (x.steps, x.substeps, x.relaxations) == (
                y.steps,
                y.substeps,
                y.relaxations,
            )

    def test_mean_steps_weights_duplicates(self, solver):
        """mean_steps averages over *requested* sources, so a duplicated
        source keeps its weight in the mean."""
        _, sp = solver
        lone = sp.solve_many([0, 7])
        expected = (2 * lone[0].steps + lone[1].steps) / 3
        assert sp.mean_steps([0, 0, 7]) == expected


class TestQueryCounter:
    """queries_answered is the amortization denominator: every query
    path charges it — solve, solve_many (duplicates included),
    mean_steps and solve_seeded."""

    def test_counter_across_all_paths(self):
        g = random_connected_graph(30, 70, seed=2)
        sp = PreprocessedSSSP(g, k=1, rho=6, heuristic="full")
        assert sp.queries_answered == 0
        sp.solve(0)
        assert sp.queries_answered == 1
        sp.distances(5)
        assert sp.queries_answered == 2
        sp.solve_many([0, 1, 2, 1])  # dedup must not shrink the count
        assert sp.queries_answered == 6
        sp.mean_steps([3, 4])
        assert sp.queries_answered == 8
        sp.solve_many([], n_jobs=2)
        assert sp.queries_answered == 8
        seed = np.full(g.n, np.inf)
        seed[[3, 7]] = [0.0, 2.0]
        sp.solve_seeded(seed)  # one seed row, one query
        assert sp.queries_answered == 9
