"""Preprocessing ablation: heuristic cost and quality (Section 4).

Times `build_kr_graph` per heuristic on one road-map workload and asserts
the quality ordering the paper proves per tree: DP never selects more
shortcuts than greedy, and 'full' (the (1,ρ) strategy) is the
k-independent upper envelope.  Also times the two fidelity knobs of the
ball search (ties, lightest-edge restriction) that Lemma 4.2's cost
analysis is about.

The engine ablation (``TestBackendComparison``) pits the batched
slot-engine against the scalar heap reference
(:mod:`repro.preprocess.scalar`) on an n ≥ 5000 road network: outputs
must be bit-identical, the batched ball-search throughput ≥ 3× the
scalar reference's, and the forest-level selection engine ≥ 2.5× the
per-tree DP walk on the same trees.  Wall times of both sides are
written to ``BENCH_preprocessing.json`` (the CI artifact tracking the
preprocessing perf trajectory).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.graphs.build import add_shortcuts
from repro.graphs.generators import road_network, scale_free
from repro.graphs.weights import random_integer_weights
from repro.preprocess import (
    ball_search,
    batched_ball_trees,
    block_from_trees,
    build_kr_graph,
    compute_radii_sweep,
    dp_select,
    forest_select,
    greedy_select,
    scalar_radii,
    scalar_select,
    sort_adjacency_by_weight,
)

pytestmark = pytest.mark.paper_artifact("preprocessing ablation")

K, RHO = 3, 16


@pytest.fixture(scope="module")
def road():
    g, _coords = road_network(700, seed=1)
    return random_integer_weights(g, low=1, high=100, seed=2)


@pytest.mark.parametrize("heuristic", ["full", "greedy", "dp"])
def test_build_kr_graph_heuristics(benchmark, road, heuristic, report_sink):
    k = 1 if heuristic == "full" else K
    pre = benchmark.pedantic(
        build_kr_graph,
        args=(road, k, RHO),
        kwargs=dict(heuristic=heuristic),
        rounds=2,
        iterations=1,
    )
    report_sink.append(
        (
            f"preprocessing ({heuristic})",
            f"k={k} rho={RHO}: {pre.added_edges} selections, "
            f"{pre.new_edges} new edges ({pre.edge_factor:.2f}x m)",
        )
    )


def test_dp_beats_greedy_at_same_k(road):
    greedy = build_kr_graph(road, K, RHO, heuristic="greedy")
    dp = build_kr_graph(road, K, RHO, heuristic="dp")
    assert dp.added_edges <= greedy.added_edges


def test_dp_gap_explodes_on_scale_free():
    """§5.2: hubs off the (ki+1)-layer make greedy pay, DP does not."""
    web = scale_free(600, attach=4, seed=9)
    greedy = build_kr_graph(web, K, 32, heuristic="greedy")
    dp = build_kr_graph(web, K, 32, heuristic="dp")
    assert dp.added_edges * 2 <= greedy.added_edges


def test_ball_search_plain(benchmark, road):
    ball = benchmark(ball_search, road, 0, 32)
    assert len(ball) >= 32


def test_ball_search_lightest_edges(benchmark, road):
    """Lemma 4.2's lightest-ρ-edge restriction: correct ball interior at
    reduced scan cost on weight-sorted adjacency."""
    sorted_road = sort_adjacency_by_weight(road)
    ball = benchmark(
        ball_search, sorted_road, 0, 32, lightest_edges=True, weight_sorted=True
    )
    full = ball_search(road, 0, 32)
    assert ball.edges_scanned <= full.edges_scanned
    assert ball.r_rho(32) >= full.r_rho(32)  # restriction can only lose ties


# --------------------------------------------------------------------- #
# Scalar reference vs batched engines on an n >= 5000 road network
# --------------------------------------------------------------------- #
BIG_N = 5200
SWEEP_RHOS = (4, 16, 64, 256)


@pytest.fixture(scope="module")
def big_road():
    g, _coords = road_network(BIG_N, seed=1)
    return random_integer_weights(g, low=1, high=100, seed=2)


def _scalar_radii_sweep(g, rhos):
    """``compute_radii_sweep``'s output from the scalar reference."""
    table = scalar_radii(g, np.arange(g.n, dtype=np.int64), rhos)
    return {rho: table[:, j].copy() for j, rho in enumerate(rhos)}


def _scalar_kr_graph(g, k, rho, *, heuristic):
    """``build_kr_graph``'s graph, radii and selection count from the
    scalar reference: heap balls, per-tree selection, the same merge."""
    sources = np.arange(g.n, dtype=np.int64)
    radii, src, dst, w = scalar_select(g, sources, rho, k, heuristic)
    return add_shortcuts(g, src, dst, w), radii, len(src)


def _timed(fn, *args, repeats=1, **kwargs):
    """Best-of-N wall time plus the last result."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


class TestBackendComparison:
    """The PR-2 acceptance gate: bit-identical outputs, >= 3x faster
    ball-search engine, and a JSON perf artifact for both sides."""

    def test_backends_on_big_road(self, big_road, report_sink):
        g = big_road
        assert g.n >= 5000
        times: dict[str, float] = {}

        # Radii sweep — the pure ball-search workload (one truncated
        # search per vertex at rho_max; every smaller rho rides along).
        # Both sides use the identical best-of-2 protocol so the gated
        # ratio is not biased by asymmetric measurement.
        compute_radii_sweep(g, [4])  # warm scratch
        times["radii_sweep_scalar"], scalar_radii_out = _timed(
            _scalar_radii_sweep, g, SWEEP_RHOS, repeats=2
        )
        times["radii_sweep_batched"], batched_radii_out = _timed(
            compute_radii_sweep, g, SWEEP_RHOS, repeats=2
        )
        for rho in SWEEP_RHOS:
            assert np.array_equal(scalar_radii_out[rho], batched_radii_out[rho])

        # Full (k, rho)-construction — ball trees + shortcut selection.
        # Same best-of-2 protocol on both sides.
        for heuristic in ("greedy", "dp"):
            key = f"build_kr_{heuristic}"
            times[f"{key}_scalar"], (graph_s, radii_s, added_s) = _timed(
                _scalar_kr_graph, g, K, RHO, heuristic=heuristic, repeats=2
            )
            times[f"{key}_batched"], pre_b = _timed(
                build_kr_graph, g, K, RHO, heuristic=heuristic, repeats=2
            )
            assert graph_s == pre_b.graph  # identical shortcut edges
            assert np.array_equal(radii_s, pre_b.radii)
            assert added_s == pre_b.added_edges

        # Selection-stage comparison (the PR-3 tentpole): identical ball
        # trees, per-tree walkers vs the forest engine over one
        # TreeBlock.  The block is timed out of band because the real
        # pipeline gets it for free (the slot engine emits the flat
        # layout directly), so the measured quantity is the selection
        # stage alone — the per-tree Python that Amdahl-bounded
        # build_kr_graph's end-to-end ratio before the forest engine.
        sources = np.arange(g.n, dtype=np.int64)
        _, trees = batched_ball_trees(g, sources, RHO)
        blk = block_from_trees(trees)
        select_speedups: dict[str, float] = {}
        for heuristic, select in (("greedy", greedy_select), ("dp", dp_select)):
            key = f"select_{heuristic}"
            times[f"{key}_scalar"], sel_s = _timed(
                lambda sel=select: [sel(t, K) for t in trees], repeats=2
            )
            times[f"{key}_batched"], sel_b = _timed(
                forest_select, blk, heuristic, K, repeats=2
            )
            assert len(sel_s) == len(sel_b)
            for a, b in zip(sel_s, sel_b):
                assert np.array_equal(a, b)  # bit-identical selections
            select_speedups[heuristic] = (
                times[f"{key}_scalar"] / times[f"{key}_batched"]
            )

        sweep_speedup = times["radii_sweep_scalar"] / times["radii_sweep_batched"]
        build_speedups = {
            h: times[f"build_kr_{h}_scalar"] / times[f"build_kr_{h}_batched"]
            for h in ("greedy", "dp")
        }
        payload = {
            "workload": f"road_network(n={g.n}, m={g.m}), weights 1..100",
            "rhos": list(SWEEP_RHOS),
            "k": K,
            "rho": RHO,
            "seconds": {k: round(v, 4) for k, v in times.items()},
            "speedup": {
                "radii_sweep": round(sweep_speedup, 2),
                **{f"build_kr_{h}": round(s, 2) for h, s in build_speedups.items()},
                **{f"select_{h}": round(s, 2) for h, s in select_speedups.items()},
            },
        }
        out_path = os.environ.get(
            "BENCH_PREPROCESSING_JSON", "BENCH_preprocessing.json"
        )
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2)
        report_sink.append(
            (
                "preprocessing engines vs scalar reference (road n=%d)" % g.n,
                "\n".join(
                    [
                        f"radii sweep rhos={list(SWEEP_RHOS)}: "
                        f"scalar {times['radii_sweep_scalar']:.3f}s, "
                        f"batched {times['radii_sweep_batched']:.3f}s "
                        f"({sweep_speedup:.2f}x)",
                    ]
                    + [
                        f"build_kr_graph[{h}] k={K} rho={RHO}: "
                        f"scalar {times[f'build_kr_{h}_scalar']:.3f}s, "
                        f"batched {times[f'build_kr_{h}_batched']:.3f}s "
                        f"({s:.2f}x)"
                        for h, s in build_speedups.items()
                    ]
                    + [
                        f"selection[{h}] k={K} rho={RHO}: "
                        f"per-tree {times[f'select_{h}_scalar']:.3f}s, "
                        f"forest {times[f'select_{h}_batched']:.3f}s "
                        f"({s:.2f}x)"
                        for h, s in select_speedups.items()
                    ]
                ),
            )
        )
        # The acceptance gate: the batched ball-search engine must be at
        # least 3x the scalar reference on the pure ball-search workload.
        # (build_kr_graph's end-to-end ratio is Amdahl-bounded by the
        # shortcut merge both sides share; it is reported, and its
        # outputs are gated on bit-identity above.)  Shared CI runners
        # are noisy, so the enforced floor is env-tunable; the local
        # acceptance check keeps the full 3.0 (measured ~3.6-3.9x,
        # best-of-2).
        min_sweep = float(os.environ.get("BENCH_PREPROCESSING_MIN_SPEEDUP", "3.0"))
        min_build = float(
            os.environ.get("BENCH_PREPROCESSING_MIN_BUILD_SPEEDUP", "1.1")
        )
        assert sweep_speedup >= min_sweep, payload
        assert build_speedups["greedy"] >= min_build, payload
        # The PR-3 acceptance gate: the forest engine must beat the
        # per-tree DP walk >= 2.5x on the dp-heuristic selection stage
        # of build_kr_graph (measured ~15-20x, best-of-2; the CI floor
        # is env-lowered for shared-runner noise).
        min_select = float(
            os.environ.get("BENCH_PREPROCESSING_MIN_SELECT_SPEEDUP", "2.5")
        )
        assert select_speedups["dp"] >= min_select, payload
