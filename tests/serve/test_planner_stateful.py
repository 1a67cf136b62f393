"""Stateful model checking of the serving planner's bounded rows.

A route or nearest miss solves only until the step that settles its
answer, and the cache keeps that row with its radius bound.  Unit tests
cover chosen sequences; this rule-based state machine lets hypothesis
drive a tiny-cache ``RoutingService`` through adversarial interleavings
of ``distances``, ``route``, ``nearest``, ``batch`` and ``warm``, and
checks after every rule that

* every answer equals SciPy's row and the full solve's answer (the
  parent path, and the nearest list in ``(distance, vertex)`` order), so
  no answer depends on what was cached before;
* route hops telescope to the distance;
* ``hits + misses == lookups`` and ``cached_rows <= capacity``;
* a cached row's bound never falls.

The graph is fixed: integer weights, zero-weight and parallel arcs, and
three components, so some targets are unreachable; queries draw their
sources from a few vertices, so cached rows meet later queries.  A threaded test
adds the single-flight case: two followers of one stopped flight.
"""

import threading
import time

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.core.solver import PreprocessedSSSP
from repro.engine import StopRule, available_engines, get_engine
from repro.graphs.build import from_arc_arrays
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.serve import KNearest, Nearest, PointToPoint, RoutingService, SingleSource

N = 36
ENGINES = tuple(e for e in available_engines() if get_engine(e).supports_parents)


def _edges() -> list[tuple[int, int, float]]:
    """Three components (0..23, 24..33, 34..35).  The first is a light
    path with heavy chords, so a stopped run leaves reached vertices
    whose tentative distance is still too large; zero-weight and
    parallel edges throughout."""
    rng = np.random.default_rng(7)
    edges = [(v - 1, v, float(rng.integers(0, 3))) for v in range(1, 24)]
    for _ in range(8):
        u, v = (int(x) for x in rng.choice(24, size=2, replace=False))
        edges.append((u, v, float(rng.integers(6, 10))))
    edges += [(v - 1, v, float(rng.integers(1, 4))) for v in range(25, 34)]
    for _ in range(10):
        u, v = (int(x) for x in rng.choice(np.arange(24, 34), size=2, replace=False))
        edges.append((u, v, float(rng.integers(0, 6))))
    edges += [(34, 35, 2.0), (1, 2, 5.0), (25, 26, 0.0), (25, 26, 3.0)]
    return edges


def _multigraph(edges) -> CSRGraph:
    """An undirected CSR multigraph: parallel arcs kept."""
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    ws = np.array([e[2] for e in edges], dtype=np.float64)
    tails = np.concatenate([us, vs])
    order = np.argsort(tails, kind="stable")
    indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=N), out=indptr[1:])
    heads = np.concatenate([vs, us])[order]
    return CSRGraph(indptr, heads, np.concatenate([ws, ws])[order], validate=False)


EDGES = _edges()
GRAPH = _multigraph(EDGES)
SOLVER = PreprocessedSSSP(GRAPH, k=1, rho=3)
# SciPy on the same metric: parallel arcs folded to their lightest,
# explicit zeros kept as zero-weight edges
_simple = from_arc_arrays(N, *(np.array(c) for c in zip(*EDGES)))
SCIPY = scipy_dijkstra(
    csr_matrix((_simple.weights, _simple.indices, _simple.indptr), shape=(N, N))
)
assert (SCIPY == 0).sum() > N and np.isinf(SCIPY).any()
_FULL: dict = {}


def _full(engine: str, source: int):
    key = (engine, source)
    if key not in _FULL:
        _FULL[key] = SOLVER.solve(source, engine=engine, track_parents=True)
    return _FULL[key]


def _brute_nearest(row: np.ndarray, source: int, k: int) -> list[int]:
    others = np.flatnonzero(np.isfinite(row))
    others = others[others != source]
    return others[np.lexsort((others, row[others]))][:k].tolist()


def check_answer(engine: str, query, answer) -> None:
    s = query.source
    row, full = SCIPY[s], _full(engine, s)
    assert np.array_equal(full.dist, row)
    if isinstance(query, SingleSource):
        assert np.array_equal(answer, row)
    elif isinstance(query, PointToPoint):
        t = query.target
        assert answer.distance == row[t]
        if not np.isfinite(row[t]):
            assert answer.path is None
            return
        assert answer.path == tuple(full.path_to(t))
        hops = [SOLVER.graph.edge_weight(u, v) for u, v in zip(answer.path, answer.path[1:])]
        assert sum(hops) == answer.distance
        assert all(row[u] + w == row[v] for (u, v), w in zip(zip(answer.path, answer.path[1:]), hops))
    else:
        assert isinstance(answer, Nearest)
        assert answer.vertices.tolist() == _brute_nearest(row, s, query.k)
        assert np.array_equal(answer.distances, row[answer.vertices])


VERTEX = st.integers(0, N - 1)
#: a few sources, so cached rows meet later queries
SOURCES = (0, 7, 15, 24, 30, 35)
SOURCE = st.sampled_from(SOURCES)
K = st.integers(0, 12)


@st.composite
def pairs(draw) -> PointToPoint:
    """A source and a target, often a few ids away: along the first
    component's path that is near the edge of a stopped row."""
    s = draw(SOURCE)
    near = st.integers(-6, 6).map(lambda d: min(N - 1, max(0, s + d)))
    return PointToPoint(s, draw(st.one_of(near, VERTEX)))


QUERY = st.one_of(
    SOURCE.map(SingleSource),
    pairs(),
    st.builds(KNearest, SOURCE, K),
)


class PlannerMachine(RuleBasedStateMachine):
    @initialize(
        capacity=st.integers(1, 3),
        engine=st.sampled_from(ENGINES),
    )
    def start(self, capacity, engine):
        self.engine = engine
        self.capacity = capacity
        self.service = RoutingService(
            solver=SOLVER,
            engine=engine,
            cache_capacity=capacity,
        )
        self.bounds: dict[int, float] = {}

    @rule(s=SOURCE)
    def distances(self, s):
        check_answer(self.engine, SingleSource(s), self.service.distances(s))

    @rule(query=pairs())
    def route(self, query):
        answer = self.service.route(query.source, query.target)
        check_answer(self.engine, query, answer)

    @rule(s=SOURCE, k=K)
    def nearest(self, s, k):
        check_answer(self.engine, KNearest(s, k), self.service.nearest(s, k))

    @rule(queries=st.lists(QUERY, min_size=1, max_size=5))
    def batch(self, queries):
        for query, answer in zip(queries, self.service.batch(queries)):
            check_answer(self.engine, query, answer)

    @rule(sources=st.lists(SOURCE, max_size=2))
    def warm(self, sources):
        self.service.warm(sources)

    @invariant()
    def counters_balance(self):
        if not hasattr(self, "service"):
            return
        stats = self.service.stats()
        assert stats["hits"] + stats["misses"] == stats["lookups"]
        assert stats["cached_rows"] <= self.capacity
        assert stats["inflight"] == 0
        assert stats["partial_solves"] <= stats["solves"]

    @invariant()
    def bounds_never_fall(self):
        if not hasattr(self, "service"):
            return
        bounds = {s: row.bound for s, row in self.service.planner._cache.items()}
        for s, bound in bounds.items():
            assert bound >= self.bounds.get(s, -np.inf)
        self.bounds = bounds


PlannerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestPlannerStateful = PlannerMachine.TestCase


def test_routes_into_a_stopped_rows_frontier():
    """The case the machine meets only rarely, for every source and
    first route: a second route to a vertex the stopped row reached but
    did not settle.  Its tentative distance may still be too large, so
    the row must not answer it."""
    checked = 0
    for s in SOURCES:
        for t in range(N):
            first = SOLVER.solve(s, stop=StopRule((t,)))
            frontier = np.isfinite(first.dist) & (first.dist > first.bound)
            for t2 in np.flatnonzero(frontier).tolist():
                service = RoutingService(solver=SOLVER, cache_capacity=1)
                service.route(s, t)
                query = PointToPoint(s, t2)
                check_answer("vectorized", query, service.route(s, t2))
                checked += 1
    assert checked > 100


def test_followers_of_a_stopped_flight_get_their_own_answers(monkeypatch):
    """A leader solving a near route publishes a stopped row; a follower
    wanting a far target and one wanting ``distances`` must not be
    answered from it, and both get exact answers."""
    g = random_integer_weights(road_network(300, seed=5)[0], low=1, high=20, seed=6)
    sp = PreprocessedSSSP(g, k=2, rho=8)
    service = RoutingService(solver=sp, cache_capacity=4)
    planner = service.planner
    full = sp.solve(0, track_parents=True)
    near, far = int(np.argsort(full.dist)[2]), int(np.argmax(full.dist))
    gate, calls = threading.Event(), []
    real = PreprocessedSSSP.solve_many

    def gated(sources, **kwargs):
        calls.append(kwargs.get("stops"))
        if len(calls) == 1:
            gate.wait(10)
        return real(sp, sources, **kwargs)

    monkeypatch.setattr(sp, "solve_many", gated)
    answers = {}

    def ask(name, fn, *args):
        answers[name] = fn(*args)

    leader = threading.Thread(target=ask, args=("near", service.route, 0, near))
    leader.start()
    while not calls:
        time.sleep(0.001)
    followers = [
        threading.Thread(target=ask, args=("far", service.route, 0, far)),
        threading.Thread(target=ask, args=("row", service.distances, 0)),
    ]
    for t in followers:
        t.start()
    deadline = time.monotonic() + 10
    while planner.stats()["lookups"] < 3 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)  # let both followers reach the in-flight record
    gate.set()
    for t in [leader, *followers]:
        t.join(10)
        assert not t.is_alive()

    assert answers["near"].path == tuple(full.path_to(near))
    assert answers["far"].distance == full.dist[far]
    assert answers["far"].path == tuple(full.path_to(far))
    assert np.array_equal(answers["row"], full.dist)
    stats = planner.stats()
    assert calls[0][0].targets == (near,)
    assert stats["partial_solves"] >= 1
    assert stats["single_flight_waits"] >= 2
    assert stats["inflight"] == 0
    assert planner._peek(0).bound == np.inf
