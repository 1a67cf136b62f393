"""Unified relaxation-engine subsystem.

One kernel (:mod:`repro.engine.kernel`), one driver loop
(:mod:`repro.engine.driver`), pluggable step schedules
(:mod:`repro.engine.schedules`) — Radius-Stepping at any radii
(Bellman–Ford is r ≡ ∞), ∆, ∆* and ρ all served by one flat frontier
of reached, unsettled vertices — and a
table-driven, name-based registry (:mod:`repro.engine.registry`) that
:class:`repro.core.solver.PreprocessedSSSP` dispatches through.  The
solvers in :mod:`repro.core` are thin adapters over these pieces.
"""

from .kernel import RelaxationKernel, gather_frontier_arcs
from .schedules import (
    DeltaSchedule,
    DeltaStarSchedule,
    DijkstraSchedule,
    RadiusBucketSchedule,
    RhoSchedule,
    StepSchedule,
    as_radii,
    default_rho,
    suggest_delta,
)
from .driver import StopRule, run_engine
from .registry import (
    EngineSpec,
    available_engines,
    get_engine,
    register_engine,
    solve_with_engine,
)

__all__ = [
    "DeltaSchedule",
    "DeltaStarSchedule",
    "DijkstraSchedule",
    "EngineSpec",
    "RadiusBucketSchedule",
    "RelaxationKernel",
    "RhoSchedule",
    "StepSchedule",
    "StopRule",
    "as_radii",
    "available_engines",
    "default_rho",
    "gather_frontier_arcs",
    "get_engine",
    "register_engine",
    "run_engine",
    "solve_with_engine",
    "suggest_delta",
]
