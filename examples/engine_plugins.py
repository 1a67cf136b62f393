#!/usr/bin/env python
"""Engine plugins: write a custom StepSchedule, register it, serve it.

The engine subsystem (:mod:`repro.engine`) factors every stepping
algorithm into one data-parallel relaxation loop plus a *step schedule*
that answers "what is the next round distance d_i?".  This example
builds a schedule the library does not ship — **geometric stepping**,
where the round boundaries grow as ``d_i = d_0 · growth^i`` (the annuli
double in width each step, mirroring how Theorem 3.3's ⌈log₂ ρL⌉ factor
slices distance scales) — registers it as a named engine, and serves
queries through the same :class:`repro.core.solver.PreprocessedSSSP`
facade as the built-in engines.

A schedule only implements four methods (bind/push/next_bound/
split_active); correctness comes for free from the shared kernel, which
is exactly the "correct for any radii/boundaries" robustness of
Algorithm 1 that §3 proves.

Run:  python examples/engine_plugins.py
"""

from __future__ import annotations

import numpy as np

from repro import PreprocessedSSSP, dijkstra, generators, random_integer_weights
from repro.engine import available_engines, register_engine, run_engine


class GeometricSchedule:
    """Round boundaries d_i = d_0 · growth^i over the reached frontier."""

    name = "geometric"

    def __init__(self, growth: float = 2.0) -> None:
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        self.growth = growth

    def bind(self, kernel) -> None:
        self.kernel = kernel
        base = kernel.graph.min_positive_weight
        self._d0 = base if np.isfinite(base) else 1.0
        self._bound = 0.0

    def push(self, improved) -> None:
        pass  # the frontier is recomputed from kernel state each step

    def _pending(self):
        k = self.kernel
        return np.isfinite(k.dist) & ~k.settled

    def next_bound(self) -> float | None:
        pending = self._pending()
        if not pending.any():
            return None
        low = float(self.kernel.dist[pending.nonzero()[0]].min())
        # smallest geometric boundary that covers the nearest vertex
        bound = max(self._bound * self.growth, self._d0)
        while bound < low:
            bound *= self.growth
        self._bound = bound
        return bound

    def split_active(self, bound: float):
        k = self.kernel
        pending = self._pending()
        return np.nonzero(pending & (k.dist <= bound))[0]


def geometric_engine(
    graph,
    source,
    radii,
    *,
    track_parents=False,
    track_trace=False,
    ledger=None,
    obs=None,
):
    """Registry adapter: the shared calling convention -> run_engine.

    ``obs`` is the dispatcher's live telemetry handle; forwarding it
    gives the plugin the same per-step metrics as the built-in engines.
    """
    return run_engine(
        graph,
        source,
        GeometricSchedule(),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
        algorithm_name="geometric-stepping",
    )


def main(n: int = 400, rho: int = 16, seed: int = 7) -> None:
    if "geometric" not in available_engines():  # idempotent for repeated runs
        register_engine(
            "geometric",
            geometric_engine,
            description="d_i = d_0 * growth^i boundaries (this example)",
        )

    # -- a weighted workload, preprocessed once -----------------------------
    base = generators.road_network(n, seed=seed)[0]
    graph = random_integer_weights(base, low=1, high=1000, seed=seed)
    sp = PreprocessedSSSP(graph, k=2, rho=rho, heuristic="dp")
    source = 0

    # -- the custom engine serves through the same facade -------------------
    geo = sp.solve(source, engine="geometric", track_trace=True)
    ref = dijkstra(graph, source)
    assert np.allclose(geo.dist, ref.dist), "custom schedule must stay exact"
    print(f"geometric-stepping distances match Dijkstra on {graph.n} vertices")

    # -- compare step structure against the built-ins -----------------------
    for engine in ("geometric", "vectorized", "bucket", "dijkstra"):
        res = sp.solve(source, engine=engine)
        print(
            f"  engine={engine:<11} steps={res.steps:>4} "
            f"substeps={res.substeps:>5} relaxations={res.relaxations:>7}"
        )
    widths = [t.radius for t in geo.trace[:6]]
    print("first geometric boundaries:", " ".join(f"{w:.0f}" for w in widths))
    print(
        "custom schedules plug in with four methods; the kernel supplies "
        "correctness"
    )


if __name__ == "__main__":
    main()
