"""Seeded solves: Algorithm 1 from many initial tentative distances.

Algorithm 1 is exact for any radii, and for the same reason from any
initial tentative distances.  A run seeded with ``(vertices, dists)``
must therefore equal Dijkstra from a virtual source wired to every seed
at its distance, on any graph the engine accepts: zero-weight arcs and
parallel arcs included, under Radius-Stepping with random, zero and
infinite radii (r ≡ ∞ is the Bellman–Ford engine's schedule).  With
parents tracked, every
non-root's parent arc realizes its distance, and every root is a seed.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.dijkstra import dijkstra
from repro.core.solver import PreprocessedSSSP
from repro.engine.driver import run_engine
from repro.engine.kernel import RelaxationKernel
from repro.engine.schedules import RadiusBucketSchedule
from repro.graphs.build import from_arc_arrays
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import grid_2d
from repro.graphs.weights import random_integer_weights


def _multigraph(n, edges) -> CSRGraph:
    """An undirected CSR multigraph: parallel arcs kept, self loops dropped."""
    edges = [(u, v, w) for u, v, w in edges if u != v]
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    ws = np.array([e[2] for e in edges], dtype=np.float64)
    tails = np.concatenate([us, vs])
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    heads = np.concatenate([vs, us])[order]
    return CSRGraph(indptr, heads, np.concatenate([ws, ws])[order], validate=False)


def _virtual_source_oracle(graph, vertices, dists) -> np.ndarray:
    """Dijkstra from an extra vertex joined to each seed at its distance."""
    n = graph.n
    tails = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    virt = from_arc_arrays(
        n + 1,
        np.concatenate([tails, np.full(len(vertices), n, dtype=np.int64)]),
        np.concatenate([graph.indices, vertices]),
        np.concatenate([graph.weights, dists]),
    )
    return dijkstra(virt, n, track_parents=False).dist[:n]


@st.composite
def seeded_cases(draw):
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 7.0])
    edges = draw(st.lists(st.tuples(vertex, vertex, weight), max_size=3 * n))
    seeds = draw(
        st.lists(st.tuples(vertex, st.integers(0, 9).map(float)), max_size=n)
    )
    radii = draw(
        st.one_of(
            st.just(np.zeros(n)),
            st.just(np.full(n, np.inf)),
            st.lists(st.sampled_from([0.0, 1.0, 4.0, np.inf]), min_size=n, max_size=n)
            .map(np.array),
        )
    )
    vertices = np.array([v for v, _ in seeds], dtype=np.int64)
    dists = np.array([d for _, d in seeds], dtype=np.float64)
    return _multigraph(n, edges), vertices, dists, radii


@given(case=seeded_cases())
def test_seeded_run_is_a_virtual_source_solve(case):
    graph, vertices, dists, radii = case
    res = run_engine(
        graph,
        None,
        RadiusBucketSchedule(radii),
        seeds=(vertices, dists),
        track_parents=True,
    )
    want = _virtual_source_oracle(graph, vertices, dists)
    assert np.array_equal(res.dist, want)
    # parents: each non-root's arc realizes its distance ...
    tails = np.repeat(np.arange(graph.n, dtype=np.int64), graph.degrees())
    for v in np.flatnonzero(res.parent >= 0):
        p = res.parent[v]
        arcs = (tails == p) & (graph.indices == v)
        assert np.any(res.dist[p] + graph.weights[arcs] == res.dist[v])
    # ... and every root is a seed at exactly its seeded distance
    roots = np.flatnonzero((res.parent < 0) & np.isfinite(res.dist))
    for v in roots:
        assert v in vertices
        assert res.dist[v] == dists[vertices == v].min()


class TestSeedValidation:
    def setup_method(self):
        self.g = grid_2d(3, 3)

    def test_source_and_seeds_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            RelaxationKernel(self.g, 0, seeds=([1], [0.0]))

    @pytest.mark.parametrize(
        "vertices, dists",
        [([9], [0.0]), ([-1], [0.0]), ([0], [-1.0]), ([0], [np.nan]), ([0], [np.inf])],
    )
    def test_bad_seeds_rejected(self, vertices, dists):
        with pytest.raises(ValueError):
            RelaxationKernel(self.g, None, seeds=(vertices, dists))

    def test_repeated_seed_keeps_least_distance(self):
        k = RelaxationKernel(self.g, None, seeds=([4, 4], [3.0, 1.0]))
        assert k.dist[4] == 1.0 and k.settled_count == 0

    def test_no_seeds_reaches_nothing(self):
        res = run_engine(
            self.g, None, RadiusBucketSchedule(np.inf), seeds=([], []),
            track_parents=True,
        )
        assert np.isinf(res.dist).all() and (res.parent == -1).all()


class TestFacade:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_integer_weights(grid_2d(9, 9), low=1, high=20, seed=4)

    def test_one_seed_at_zero_is_the_source_row(self, graph):
        sp = PreprocessedSSSP(graph, k=2, rho=8)
        seed = np.full(graph.n, np.inf)
        seed[17] = 0.0
        assert np.array_equal(sp.solve_seeded(seed).dist, sp.solve(17).dist)

    def test_rcm_facade_matches_plain_facade(self, graph):
        plain = PreprocessedSSSP(graph, k=2, rho=8)
        rcm = PreprocessedSSSP(graph, k=2, rho=8, reorder="rcm")
        assert rcm.perm is not None
        rng = np.random.default_rng(5)
        for _ in range(3):
            seed = np.full(graph.n, np.inf)
            picks = rng.choice(graph.n, size=4, replace=False)
            seed[picks] = rng.integers(0, 30, size=4)
            a = plain.solve_seeded(seed, track_parents=True)
            b = rcm.solve_seeded(seed, track_parents=True)
            assert np.array_equal(a.dist, b.dist)
            assert np.array_equal(
                b.dist, _virtual_source_oracle(graph, picks, seed[picks])
            )
            # parents in input ids: every root is a seed, every other
            # vertex hangs off a vertex no farther away
            for res in (a, b):
                roots = np.flatnonzero(res.parent < 0)
                assert set(roots.tolist()) <= set(picks.tolist())
                tree = res.parent >= 0
                assert np.all(res.dist[res.parent[tree]] <= res.dist[tree])

    @pytest.mark.parametrize(
        "row", [np.zeros(80), np.full(81, np.nan), np.full(81, -1.0)]
    )
    def test_bad_seed_row_raises(self, graph, row):
        sp = PreprocessedSSSP(graph, k=2, rho=8)
        with pytest.raises(ValueError):
            sp.solve_seeded(row)
        assert sp.queries_answered == 0
