"""Calibration races — measure, per graph, which engine actually wins.

Dong, Gu & Sun (arXiv 2105.06145) show the fastest member of the
stepping-algorithm family (ρ-stepping, ∆*-stepping, ∆-stepping,
radius-stepping …) varies widely across graph families; no static
heuristic picks the winner reliably.  This module makes the choice
empirical: :func:`race_engines` times every candidate engine on a small
sample of sources, and :func:`pick_engine` returns the fastest.

The race is deliberately cheap — a handful of solves per engine,
capped by a wall-clock budget — because its output is meant to be
*stored*: :func:`repro.preprocess.pipeline.build_kr_graph` can stamp
the winner into the preprocessing result, and versioned artifacts
(:mod:`repro.serve.artifacts`) carry it as ``preferred_engine`` so
every later ``engine="auto"`` query dispatches to the measured winner
at zero per-request cost.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.csr import CSRGraph
from .registry import available_engines, solve_with_engine

__all__ = ["DEFAULT_CANDIDATES", "pick_engine", "race_engines", "sample_sources"]

#: Engines raced by default: the unified-loop schedules that are ever
#: competitive on general weighted graphs, always including
#: ``vectorized`` (``auto``'s fallback) so the winner can never be a
#: regression against it.  ``bucket`` runs the same schedule as
#: ``vectorized``, so racing both would only let noise pick a name.
#: ``bellman-ford`` (the radius schedule at ``r ≡ ∞``) is included
#: because a race is exactly the safe place for it — on small or
#: low-diameter graphs its fat vectorized substeps win outright, and
#: where its substep count blows up the per-engine budget caps the
#: damage and it simply loses.  ``bst`` (PRAM reference, orders of
#: magnitude slower) is opt-in.
DEFAULT_CANDIDATES = (
    "vectorized",
    "dijkstra",
    "delta",
    "delta-star",
    "rho",
    "bellman-ford",
)


def sample_sources(graph: CSRGraph, samples: int, *, seed: int = 0) -> np.ndarray:
    """``samples`` distinct source vertices, degree-biased.

    Sampling proportionally to (degree + 1) favours well-connected
    vertices, whose solves exercise realistic frontier growth; a
    uniform draw on a power-law graph mostly picks leaves.
    """
    if graph.n == 0:
        raise ValueError("cannot sample sources from an empty graph")
    samples = min(samples, graph.n)
    rng = np.random.default_rng(seed)
    weights = graph.degrees().astype(np.float64) + 1.0
    return rng.choice(
        graph.n, size=samples, replace=False, p=weights / weights.sum()
    )


def race_engines(
    graph: CSRGraph,
    radii: np.ndarray | None = None,
    *,
    engines: tuple[str, ...] | None = None,
    samples: int = 3,
    seed: int = 0,
    budget: float = 1.0,
) -> dict[str, float]:
    """Time every candidate engine on the same sampled sources.

    Parameters
    ----------
    graph: the graph queries will run on (after preprocessing, pass the
        augmented graph — that is what serving solves on).
    radii: per-vertex radii for the radius-stepping engines; ``None``
        lets each engine derive its own default.
    engines: candidate names; defaults to the registered subset of
        :data:`DEFAULT_CANDIDATES`.
    samples: number of distinct sources each engine solves.
    seed: source-sampling seed (same sources for every engine).
    budget: approximate wall-clock cap in seconds **per engine**; once
        an engine has spent it, its remaining sources are skipped and
        its mean covers the solves that ran.

    Returns
    -------
    Mean seconds per solve for each engine that completed at least one
    solve.  An engine that raises ``ValueError`` — the documented "not
    applicable to this graph" signal for plugins with preconditions (no
    built-in engine has one) — is dropped; any other exception is a
    broken engine and propagates instead of quietly losing the race.
    """
    if engines is None:
        registered = set(available_engines())
        engines = tuple(e for e in DEFAULT_CANDIDATES if e in registered)
    if not engines:
        raise ValueError("no candidate engines to race")
    sources = sample_sources(graph, samples, seed=seed)

    timings: dict[str, float] = {}
    for name in engines:
        elapsed: list[float] = []
        spent = 0.0
        try:
            for s in sources:
                t0 = time.perf_counter()
                solve_with_engine(name, graph, int(s), radii)
                dt = time.perf_counter() - t0
                elapsed.append(dt)
                spent += dt
                if spent >= budget:
                    break
        except ValueError:
            continue  # engine inapplicable to this graph: drop from the race
        if elapsed:
            timings[name] = float(np.mean(elapsed))
    return timings


def pick_engine(
    graph: CSRGraph,
    radii: np.ndarray | None = None,
    *,
    budget: float = 1.0,
    engines: tuple[str, ...] | None = None,
    samples: int = 3,
    seed: int = 0,
) -> str:
    """Race the candidates on ``graph`` and return the fastest engine.

    A thin argmin over :func:`race_engines`; ties break toward the
    earlier candidate (so ``vectorized``, the historical default, wins
    exact ties).  Raises ``ValueError`` when no candidate completes a
    solve.
    """
    timings = race_engines(
        graph, radii, engines=engines, samples=samples, seed=seed, budget=budget
    )
    if not timings:
        raise ValueError("no candidate engine completed a calibration solve")
    return min(timings, key=timings.__getitem__)
