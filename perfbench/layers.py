"""Per-layer probes: timed calls into one layer's public functions.

Each probe opens a ``repro.obs.trace.trace_request`` root around the
call it times, so the spans the program already emits (``solver.*``,
``planner.*``, ``router.*``) nest under it and a layer's *self time* can
be read off the tree.  Nothing here adds a span inside the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse.csgraph import dijkstra

from oracle import as_matrix
from repro.analysis import max_steps_bound, max_substeps_bound
from repro.core.solver import PreprocessedSSSP
from repro.engine.registry import available_engines, get_engine
from repro.obs.trace import trace_request
from repro.serve.planner import PointToPoint, QueryPlanner

#: sources of the traced engine probe, and timed calls per HTTP probe
PROBE_SOURCES = 8
PROBE_REPS = 25
#: probe sources each engine of the sweep solves
SWEEP_SOURCES = 3
#: timed cache-hit executions of the planner probe
PLANNER_REPS = 2000


def traced(name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under a fresh trace root; returns
    ``(result, trace)``."""
    with trace_request(name) as trace:
        out = fn(*args, **kwargs)
    return out, trace


def self_ms(trace, name: str) -> float:
    """Summed self time (ms) of every span called ``name`` in ``trace``:
    its duration minus the part its child spans cover."""
    total = 0.0
    for span in trace.root.walk():
        if span.name == name and span.duration is not None:
            total += span.duration - sum(c.duration or 0.0 for c in span.children)
    return total * 1e3


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def sweep_engines() -> list[str]:
    """Registered engines that track parents (so not the treap reference
    ``bst`` nor the unit-weight engine)."""
    return [name for name in available_engines() if get_engine(name).supports_parents]


def weight_ratio(graph) -> float:
    """Theorem 3.3's ``L``: heaviest edge over lightest positive edge."""
    return graph.max_weight / graph.min_positive_weight


def bound_ratios(results, *, n: int, k: int, rho: int, L: float) -> dict:
    """Measured headroom under Thm 3.2 (substeps per step <= k+2) and
    Thm 3.3 (steps <= ceil(n/rho)(1+ceil(log2 rho L))); above 1 is a
    violated bound."""
    return {
        "engine.substep_bound_ratio": max(r.max_substeps for r in results)
        / max_substeps_bound(k),
        "engine.step_bound_ratio": max(r.steps for r in results)
        / max_steps_bound(n, rho, L),
    }


def engine_probe(pre, sources) -> tuple[dict, int, int]:
    """The resolved engine against the SciPy C Dijkstra floor on the
    same augmented graph, plus every parent-tracking engine on a few of
    the same sources.  Returns ``(metrics, answers checked, wrong
    answers)``; every answer is checked against the floor's row."""
    sp = PreprocessedSSSP.from_preprocessed(pre)
    aug = as_matrix(pre.graph)
    perm = pre.perm
    solve_ms, floor_ms, refs = [], [], []
    steps, substeps, relax = [], [], []
    checked = wrong = 0
    for s in sources:
        res, trace = traced("bench.engine.solve", sp.solve, int(s), track_parents=True)
        solve_ms.append(trace.duration * 1e3)
        internal = int(s) if perm is None else int(perm[s])
        t0 = time.perf_counter()
        ref = dijkstra(aug, indices=internal)
        floor_ms.append((time.perf_counter() - t0) * 1e3)
        ref = ref if perm is None else ref[perm]
        refs.append(ref)
        checked += 1
        wrong += not np.array_equal(res.dist, ref)
        steps.append(res.steps)
        substeps.append(res.substeps)
        relax.append(res.relaxations)
    metrics = {
        "engine.solve_ms": median(solve_ms),
        "engine.scipy_floor_ms": median(floor_ms),
        "engine.steps": float(np.mean(steps)),
        "engine.substeps": float(np.mean(substeps)),
        "engine.relaxations": float(np.mean(relax)),
    }
    metrics["engine.floor_ratio"] = metrics["engine.solve_ms"] / metrics["engine.scipy_floor_ms"]
    for name in sweep_engines():
        times = []
        for s, ref in zip(sources[:SWEEP_SOURCES], refs):
            res, trace = traced(
                "bench.engine.sweep", sp.solve, int(s), engine=name, track_parents=True
            )
            times.append(trace.duration * 1e3)
            checked += 1
            wrong += not np.array_equal(res.dist, ref)
        metrics[f"engine.sweep.{name}_ms"] = median(times)
    return metrics, checked, wrong


def planner_probe(solver, source: int, target: int) -> dict:
    """A cache-hit ``QueryPlanner.execute``, untraced and traced,
    interleaved so drift hits both alike.  The difference is the cost of
    one ``trace_request`` root and the ``planner.*`` spans under it."""
    planner = QueryPlanner(solver, track_parents=True)
    planner.warm([source])
    query = [PointToPoint(source, target)]
    plain, with_trace = [], []
    for _ in range(PLANNER_REPS):
        t0 = time.perf_counter()
        planner.execute(query)
        t1 = time.perf_counter()
        with trace_request("bench.planner.execute"):
            planner.execute(query)
        t2 = time.perf_counter()
        plain.append(t1 - t0)
        with_trace.append(t2 - t1)
    return {
        "planner.hit_us": median(plain) * 1e6,
        "obs.trace_overhead": (median(with_trace) - median(plain)) * 1e6,
    }
