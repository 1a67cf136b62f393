"""Unified relaxation-engine subsystem.

One kernel (:mod:`repro.engine.kernel`), one driver loop
(:mod:`repro.engine.driver`), pluggable step schedules
(:mod:`repro.engine.schedules`) — Radius-Stepping on one substrate,
the calendar-queue buckets of :mod:`repro.engine.buckets` — and a
table-driven, name-based registry (:mod:`repro.engine.registry`) that
:class:`repro.core.solver.PreprocessedSSSP` dispatches through.  The
solvers in :mod:`repro.core` are thin adapters over these pieces.
"""

from .buckets import LazyBucketQueue
from .kernel import RelaxationKernel, gather_frontier_arcs
from .schedules import (
    BellmanFordSchedule,
    DeltaSchedule,
    DeltaStarSchedule,
    DijkstraSchedule,
    RadiusBucketSchedule,
    RhoSchedule,
    StepSchedule,
    default_bucket_width,
    default_rho,
)
from .driver import run_engine
from .autoselect import pick_engine, race_engines
from .registry import (
    EngineSpec,
    available_engines,
    get_engine,
    register_engine,
    solve_with_engine,
)

__all__ = [
    "BellmanFordSchedule",
    "DeltaSchedule",
    "DeltaStarSchedule",
    "DijkstraSchedule",
    "EngineSpec",
    "LazyBucketQueue",
    "RadiusBucketSchedule",
    "RelaxationKernel",
    "RhoSchedule",
    "StepSchedule",
    "available_engines",
    "default_bucket_width",
    "default_rho",
    "gather_frontier_arcs",
    "get_engine",
    "pick_engine",
    "race_engines",
    "register_engine",
    "run_engine",
    "solve_with_engine",
]
