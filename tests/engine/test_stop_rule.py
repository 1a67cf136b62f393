"""Stopped runs: a run a ``StopRule`` ends is an exact prefix of the full run.

After step ``i`` of Algorithm 1 the settled set is ``{v | δ(v) ≤ d_i}``
(Line 10), and a settled vertex never changes again.  So every table
engine (each runs ``run_engine``) must stop at the first step that
settles the rule's targets and count, with the full run's per-step
trace so far, and its distances and parents on every vertex within the
bound.  ``bst`` and plugin engines take no rule: the dispatcher does
not pass one, and they return full rows.
"""

import math

import numpy as np
import pytest

from repro.analysis import max_steps_bound, max_substeps_bound
from repro.core.solver import PreprocessedSSSP
from repro.engine import (
    StopRule,
    available_engines,
    get_engine,
    register_engine,
    run_engine,
    solve_with_engine,
)
from repro.engine.schedules import RadiusBucketSchedule
from repro.graphs import from_edge_list
from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.preprocess import build_kr_graph

from tests.helpers import random_connected_graph

TABLE_ENGINES = tuple(e for e in available_engines() if get_engine(e).supports_stop)
K, RHO = 2, 16


@pytest.fixture(scope="module")
def pre():
    g = random_integer_weights(road_network(600, seed=3)[0], low=1, high=50, seed=4)
    return build_kr_graph(g, K, RHO, heuristic="dp")


def _rules(n: int, rng) -> list[StopRule]:
    t = [int(v) for v in rng.choice(n, 3, replace=False)]
    return [
        StopRule((t[0],)),
        StopRule(tuple(t)),
        StopRule(settled=17),
        StopRule((t[1],), settled=120),
    ]


def _met(dist: np.ndarray, radius: float, rule: StopRule) -> bool:
    """Whether the settled set ``{v | δ(v) ≤ radius}`` satisfies ``rule``."""
    within = dist <= radius
    return bool(within[list(rule.targets)].all() and within.sum() >= rule.settled)


def test_every_engine_but_bst_takes_a_rule():
    assert set(available_engines()) - set(TABLE_ENGINES) == {"bst"}


@pytest.mark.parametrize("engine", TABLE_ENGINES)
def test_stopped_run_is_a_prefix_of_the_full_run(engine, pre):
    graph, radii = pre.graph, pre.radii
    rng = np.random.default_rng(5)
    for source in rng.choice(graph.n, 3, replace=False).tolist():
        full = solve_with_engine(
            engine, graph, source, radii, track_parents=True, track_trace=True
        )
        assert full.bound == math.inf
        for rule in _rules(graph.n, rng):
            res = solve_with_engine(
                engine, graph, source, radii,
                track_parents=True, track_trace=True, stop=rule,
            )
            assert res.trace == full.trace[: res.steps]
            assert res.max_substeps == max(t.substeps for t in res.trace)
            within = res.dist <= res.bound
            assert np.array_equal(within, full.dist <= res.bound)
            assert np.array_equal(res.dist[within], full.dist[within])
            assert np.array_equal(res.parent[within], full.parent[within])
            assert np.all(res.dist[~within] > res.bound)
            assert _met(full.dist, res.bound, rule)
            if res.bound < math.inf:
                # stopped at the first step whose d_i covers the rule
                assert res.bound == res.trace[-1].radius
                assert res.steps == 1 or not _met(
                    full.dist, full.trace[res.steps - 2].radius, rule
                )


def test_stopped_runs_keep_the_paper_bounds(pre):
    """Thm 3.2 (≤ k+2 substeps per step) and Thm 3.3 (the step count)
    hold for stopped Radius-Stepping runs as for full ones."""
    graph = pre.graph
    weights = graph.weights[graph.weights > 0]
    L = float(weights.max() / weights.min())
    rng = np.random.default_rng(9)
    for source in rng.choice(graph.n, 8, replace=False).tolist():
        for rule in _rules(graph.n, rng):
            res = solve_with_engine(
                "vectorized", graph, source, pre.radii, stop=rule
            )
            assert res.max_substeps <= max_substeps_bound(K)
            assert res.steps <= max_steps_bound(graph.n, RHO, L)


def test_unreachable_target_runs_to_the_end():
    g = from_edge_list(6, [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 4.0), (3, 4, 1.0)])
    res = run_engine(g, 0, RadiusBucketSchedule(None), stop=StopRule((4,)))
    assert res.bound == math.inf
    assert res.dist[:3].tolist() == [0.0, 2.0, 3.0]
    assert np.isinf(res.dist[3:]).all()
    # a rule every reachable vertex satisfies stops short of n settled
    res = run_engine(g, 0, RadiusBucketSchedule(None), stop=StopRule((2,)))
    assert res.bound == 3.0 and res.steps == 2


def test_bst_and_plugins_ignore_the_rule():
    g = random_connected_graph(30, 70, seed=6)
    rule = StopRule((1,))
    full = solve_with_engine("bst", g, 0, None)
    res = solve_with_engine("bst", g, 0, None, stop=rule)
    assert res.bound == math.inf and np.array_equal(res.dist, full.dist)

    def plugin(graph, source, radii, *, track_parents, track_trace, ledger, obs):
        return run_engine(graph, source, RadiusBucketSchedule(radii))

    register_engine("test-no-stop", plugin, overwrite=True)
    try:
        res = solve_with_engine("test-no-stop", g, 0, None, stop=rule)
        assert res.bound == math.inf
        assert np.isfinite(res.dist).all()
    finally:
        import repro.engine.registry as reg

        reg._REGISTRY.pop("test-no-stop", None)


def test_facade_translates_targets_and_merges_rules():
    """On a reordered facade the rule's targets are input ids; a repeated
    source is solved once under the union of its rules."""
    g = random_integer_weights(road_network(400, seed=8)[0], low=1, high=30, seed=9)
    sp = PreprocessedSSSP(g, k=2, rho=8, reorder="rcm")
    full = sp.solve(3, track_parents=True)
    far = int(np.argmax(full.dist))
    near = int(np.argsort(full.dist)[5])
    res = sp.solve(3, track_parents=True, stop=StopRule((far,)))
    assert res.dist[far] == full.dist[far] <= res.bound
    assert res.parent[far] == full.parent[far]

    a, b, c = sp.solve_many(
        [3, 3, 4], track_parents=True,
        stops=[StopRule((near,)), StopRule(settled=50), None],
    )
    assert a is b
    assert a.dist[near] <= a.bound and np.count_nonzero(a.dist <= a.bound) >= 50
    assert c.bound == math.inf
    assert sp.solve_many([3, 3], stops=[StopRule((near,)), None])[0].bound == math.inf
    with pytest.raises(ValueError):
        sp.solve(3, stop=StopRule((g.n,)))
    with pytest.raises(TypeError):
        sp.solve_many([3], stops=[StopRule((True,))])
    with pytest.raises(ValueError):
        sp.solve_many([3, 4], stops=[None])
