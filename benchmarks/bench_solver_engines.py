"""Engine ablation: wall-clock and instrumentation across all solvers.

Not a paper artifact per se — the paper reports steps, not seconds — but
the engine's design choices (vectorized engine vs faithful BST engine;
Radius-Stepping vs the ∆-stepping / Dijkstra / Bellman–Ford baselines,
the latter two timed as the ``delta`` and ``bellman-ford`` engines)
deserve a timing ablation.  All solvers must agree on distances, and the
vectorized engine should not be slower than the BST engine (that is its
reason to exist).  The ``test_scipy_floor`` row times SciPy's C Dijkstra
on the same augmented graph and source, so every engine row reads
against the floor.
"""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.core import (
    dijkstra,
    landmark_sssp,
    radius_stepping,
    radius_stepping_bst,
)
from repro.core.solver import PreprocessedSSSP
from repro.engine import solve_with_engine
from repro.graphs.generators import road_network
from repro.graphs.weights import random_integer_weights
from repro.preprocess import build_kr_graph

pytestmark = pytest.mark.paper_artifact("engine ablation")


@pytest.fixture(scope="module")
def workload():
    base, _coords = road_network(900, seed=4)
    g = random_integer_weights(base, low=1, high=1000, seed=5)
    pre = build_kr_graph(g, k=2, rho=16, heuristic="dp")
    ref = dijkstra(g, 0).dist
    return g, pre, ref


def test_dijkstra_baseline(benchmark, workload):
    g, _, ref = workload
    res = benchmark(dijkstra, g, 0)
    assert np.allclose(res.dist, ref)


def test_bellman_ford_baseline(benchmark, workload):
    g, _, ref = workload
    res = benchmark(solve_with_engine, "bellman-ford", g, 0)
    assert np.allclose(res.dist, ref)


def test_delta_stepping_baseline(benchmark, workload):
    g, _, ref = workload
    res = benchmark(solve_with_engine, "delta", g, 0)
    assert np.allclose(res.dist, ref)


def test_landmark_baseline(benchmark, workload):
    """The Ullman–Yannakakis / Klein–Subramanian family of Table 1:
    comparable depth knob, much more work than Radius-Stepping."""
    g, pre, ref = workload
    res = benchmark.pedantic(
        landmark_sssp, args=(g, 0, 8), kwargs=dict(seed=0), rounds=2, iterations=1
    )
    assert np.allclose(res.dist, ref)
    rs = radius_stepping(pre.graph, 0, pre.radii)
    assert res.relaxations > rs.relaxations  # the work gap Table 1 charges


def test_radius_stepping_vectorized(benchmark, workload):
    g, pre, ref = workload
    res = benchmark(radius_stepping, pre.graph, 0, pre.radii)
    assert np.allclose(res.dist, ref)
    assert res.max_substeps <= 2 + 2  # Thm 3.2 at k=2


def test_scipy_floor(benchmark, workload):
    """SciPy's C Dijkstra with predecessors on the augmented graph and
    source the vectorized row solves: the floor beside it."""
    _, pre, ref = workload
    aug = pre.graph
    mat = csr_matrix((aug.weights, aug.indices, aug.indptr), shape=(aug.n, aug.n))
    dist, _pred = benchmark(
        scipy_dijkstra, mat, indices=0, return_predecessors=True
    )
    assert np.allclose(dist, ref)


def test_solve_many_batched(benchmark, workload):
    """Multi-source serving: 8 queries through the facade, serial pool
    path (the n_jobs>1 fork path is exercised by tests/core)."""
    g, pre, ref = workload
    sp = PreprocessedSSSP.from_preprocessed(pre, input_graph=g)
    sources = [0, 100, 200, 300, 400, 500, 600, 700]
    results = benchmark.pedantic(
        sp.solve_many, args=(sources,), rounds=3, iterations=1
    )
    assert np.allclose(results[0].dist, ref)


def test_radius_stepping_bst_reference(benchmark, workload):
    g, pre, ref = workload
    res = benchmark.pedantic(
        radius_stepping_bst,
        args=(pre.graph, 0, pre.radii),
        rounds=2,
        iterations=1,
    )
    assert np.allclose(res.dist, ref)


def test_engines_step_parity(workload):
    """The engines implement one algorithm: identical step counts."""
    _, pre, _ = workload
    a = radius_stepping(pre.graph, 0, pre.radii)
    b = radius_stepping_bst(pre.graph, 0, pre.radii)
    c = solve_with_engine("bucket", pre.graph, 0, pre.radii)
    assert (a.steps, a.substeps) == (b.steps, b.substeps)
    assert (a.steps, a.substeps) == (c.steps, c.substeps)
    assert np.array_equal(a.dist, c.dist)
