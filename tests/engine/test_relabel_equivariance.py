"""Relabel equivariance across the whole engine registry.

For every registered engine and every registered ordering:
``solve(permute(g), perm[s]).dist[perm] == solve(g, s).dist`` —
bit-for-bit, not approximately.  Converged SSSP distances are minima
over per-path left-to-right float sums, and relabeling permutes the
path set without touching any sum, so even float rounding is identical.
This is the property that lets the serving layer run queries on a
locality-reordered graph and hand back answers in the caller's ids with
zero numerical drift.
"""

import numpy as np
import pytest

from repro.engine.registry import available_engines, get_engine, solve_with_engine
from repro.graphs.reorder import available_orderings, reorder_graph

from tests.helpers import assert_valid_parents, random_connected_graph

RADII_SEED = 99


def _case():
    """Integer weights so equality is exact."""
    g = random_connected_graph(60, 140, seed=31, weight_high=25)
    rng = np.random.default_rng(RADII_SEED)
    radii = rng.uniform(0.5, 6.0, g.n)
    return g, radii


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("method", available_orderings())
def test_dist_bit_identical_under_relabeling(engine, method):
    g, radii = _case()
    res = reorder_graph(g, method, seed=41)
    source = 3
    a = solve_with_engine(engine, g, source, radii)
    b = solve_with_engine(
        engine, res.graph, int(res.perm[source]), radii[res.inv_perm]
    )
    assert np.array_equal(b.dist[res.perm], a.dist), (
        f"{engine} under {method}: distances drifted"
    )


@pytest.mark.parametrize("engine", available_engines())
def test_parents_valid_under_relabeling(engine):
    """Parent pointers may differ on equal-weight ties, but the mapped
    tree must still realize every distance in the original graph."""
    spec = get_engine(engine)
    if not spec.supports_parents:
        pytest.skip(f"{engine} does not track parents")
    g, radii = _case()
    res = reorder_graph(g, "rcm", seed=41)
    source = 3
    b = solve_with_engine(
        engine,
        res.graph,
        int(res.perm[source]),
        radii[res.inv_perm],
        track_parents=True,
    )
    # map back to original ids: parent_ext[v] = inv[parent_int[perm[v]]]
    p_int = b.parent[res.perm]
    parent = np.full(g.n, -1, dtype=np.int64)
    mask = p_int >= 0
    parent[mask] = res.inv_perm[p_int[mask]]
    assert_valid_parents(g, b.dist[res.perm], parent, source)


@pytest.mark.parametrize("engine", available_engines())
def test_relaxation_count_invariant(engine):
    """Work accounting is also permutation-invariant for radius-driven
    engines: the schedule depends on (dist, radii) values, not ids —
    the fairness property the reorder benchmark relies on."""
    if engine in ("delta", "delta-star", "rho", "bst"):
        pytest.skip("schedule breaks distance ties by id")
    g, radii = _case()
    res = reorder_graph(g, "random", seed=43)
    a = solve_with_engine(engine, g, 5, radii)
    b = solve_with_engine(
        engine, res.graph, int(res.perm[5]), radii[res.inv_perm]
    )
    assert a.relaxations == b.relaxations
