"""Named engine registry — how solvers are selected at query time.

:class:`repro.core.solver.PreprocessedSSSP` (and anything else that
answers SSSP queries) dispatches by engine *name* through this
registry, so adding a solver variant — a new schedule, a different
data-structure substrate, an accelerator backend — is one
:func:`register_engine` call away from being servable, benchmarkable
and parity-testable with no solver-facade changes.  Every entry shares
one calling convention::

    fn(graph, source, radii, *,
       track_parents=False, track_trace=False, ledger=None,
       obs=None) -> SsspResult

``radii`` may be ignored by engines that do not use per-vertex radii
(∆-stepping, Bellman–Ford); they accept it so one dispatch site serves
all engines.  ``obs`` is an optional per-engine telemetry handle (see
:class:`repro.obs.metrics.BoundEngineTelemetry`), always passed:
engines built on the unified driver feed it live per-step
observations, others may ignore it — run-level totals are recorded
uniformly by :func:`solve_with_engine` from the returned result either
way.

An engine registered with ``supports_stop=True`` also takes
``stop=`` (a :class:`~repro.engine.driver.StopRule`) and may end its run
at the first step that settles what the rule asks for; its result's
``bound`` says how far the row is final.  Every table engine below does,
through :func:`run_engine`.  :func:`solve_with_engine` passes a rule only
to such engines, so ``bst`` and plugins keep the convention above and
return full rows (``bound = ∞``), which answer every query.

Built-in engines
----------------
``vectorized``    Radius-Stepping on one flat frontier (``auto``'s
                  default, unit weights included: the flat frontier is
                  §3.4's BFS-style frontier).
``bucket``        an alias for the same schedule.
``bst``           the faithful Algorithm-2 treap reference (no parents).
``dijkstra``      equal-distance batched Dijkstra (``r ≡ 0``).
``delta``         ∆-stepping: fixed bucket boundaries ``(j+1)·∆``.
``delta-star``    ∆*-stepping: floating min+∆ window, light/heavy split.
``rho``           ρ-stepping: the ρ nearest frontier vertices per step.
``bellman-ford``  the radius schedule at ``r ≡ ∞``: one step, rounds as
                  substeps.

The ∆-stepping and Bellman–Ford baselines exist only as these engines,
and every engine but ``bst`` runs :func:`run_engine`, so an engine
change reaches each of them in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..core.result import SsspResult
from ..graphs.validate import check_vertex
from .driver import StopRule, run_engine
from .schedules import (
    DeltaSchedule,
    DeltaStarSchedule,
    DijkstraSchedule,
    RadiusBucketSchedule,
    RhoSchedule,
)

__all__ = [
    "EngineSpec",
    "available_engines",
    "get_engine",
    "register_engine",
    "solve_with_engine",
]

EngineFn = Callable[..., SsspResult]


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine.

    Attributes
    ----------
    name: registry key (what ``solve(engine=...)`` takes).
    fn: the solver callable (see module docstring for the convention).
    supports_parents: whether ``track_parents=True`` is honoured; the
        dispatcher raises ``ValueError`` up front instead of silently
        returning ``parent=None``.
    supports_stop: whether ``fn`` takes ``stop=`` (see the module
        docstring); without it a rule is not passed and the row is full.
    description: one-liner for ``available_engines`` listings.
    """

    name: str
    fn: EngineFn
    supports_parents: bool = True
    supports_stop: bool = False
    description: str = ""


_REGISTRY: dict[str, EngineSpec] = {}


def register_engine(
    name: str,
    fn: EngineFn,
    *,
    supports_parents: bool = True,
    supports_stop: bool = False,
    description: str = "",
    overwrite: bool = False,
) -> EngineSpec:
    """Register ``fn`` under ``name``; returns the spec.

    Re-registering an existing name raises unless ``overwrite=True``
    (guards against plugin name collisions).  ``fn`` takes the calling
    convention of the module docstring, ``obs`` included.
    """
    if not name or name == "auto":
        raise ValueError(f"invalid engine name {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"engine {name!r} already registered")
    spec = EngineSpec(
        name=name,
        fn=fn,
        supports_parents=supports_parents,
        supports_stop=supports_stop,
        description=description,
    )
    _REGISTRY[name] = spec
    return spec


def get_engine(name: str) -> EngineSpec:
    """Look up a registered engine; ``ValueError`` lists known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def available_engines() -> tuple[str, ...]:
    """Sorted names of every registered engine."""
    return tuple(sorted(_REGISTRY))


def solve_with_engine(
    name: str,
    graph,
    source: int,
    radii=None,
    *,
    track_parents: bool = False,
    track_trace: bool = False,
    ledger=None,
    obs=None,
    stop: StopRule | None = None,
) -> SsspResult:
    """Dispatch one query through the registry (shared validation).

    The source is checked once here for every engine, plugins included:
    a bool or non-integer raises :class:`TypeError`, an id outside
    ``[0, n)`` :class:`ValueError`.

    ``obs`` is an optional :class:`~repro.obs.metrics.EngineTelemetry`;
    the engine label is bound here (once per query, not per step) and
    run-level totals are folded in from the result after the solve, so
    every engine gets run telemetry even if it ignores the live hook.

    ``stop`` reaches only engines registered with ``supports_stop``;
    any other engine ignores it and returns a full row.
    """
    spec = get_engine(name)
    source = check_vertex(source, "source", graph.n)
    if track_parents and not spec.supports_parents:
        raise ValueError(f"the {name} engine does not track parents")
    bound = obs.bind(name) if obs is not None else None
    extra = {"stop": stop} if stop is not None and spec.supports_stop else {}
    res = spec.fn(
        graph,
        source,
        radii,
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=bound,
        **extra,
    )
    if bound is not None:
        bound.record_run(res)
    return res


# --------------------------------------------------------------------- #
# Built-in engines.  Every unified-loop engine is one table row: a
# schedule factory ``radii -> StepSchedule``, its ``SsspResult.algorithm``
# label and a description, served by one adapter.  The treap reference
# lives in the core solver modules, which import the engine package, so
# it is imported lazily.
# --------------------------------------------------------------------- #
_SCHEDULE_ENGINES = (
    (
        "vectorized",
        RadiusBucketSchedule,
        "radius-stepping",
        "Radius-Stepping on one flat frontier (auto's default)",
    ),
    (
        "bucket",
        RadiusBucketSchedule,
        "radius-stepping-bucket",
        "Radius-Stepping on one flat frontier (alias of vectorized)",
    ),
    (
        "dijkstra",
        lambda radii: DijkstraSchedule(),
        "dijkstra-steps",
        "equal-distance batched Dijkstra (r = 0)",
    ),
    (
        "delta",
        lambda radii: DeltaSchedule(),
        "delta-stepping-engine",
        "Delta-stepping boundaries in the unified engine",
    ),
    (
        "delta-star",
        lambda radii: DeltaStarSchedule(),
        "delta-star-stepping",
        "Delta*-stepping: floating min+Delta window, light/heavy arc split",
    ),
    (
        "rho",
        lambda radii: RhoSchedule(),
        "rho-stepping",
        "rho-stepping: settle the rho nearest frontier vertices per step",
    ),
    (
        "bellman-ford",
        lambda radii: RadiusBucketSchedule(math.inf),
        "bellman-ford-engine",
        "single-step Bellman-Ford: Radius-Stepping at r = inf",
    ),
)


def _schedule_engine(factory, label: str) -> EngineFn:
    """The one adapter: the registry calling convention → :func:`run_engine`."""

    def solve(
        graph, source, radii, *, track_parents, track_trace, ledger, obs, stop=None
    ):
        return run_engine(
            graph,
            source,
            factory(radii),
            track_parents=track_parents,
            track_trace=track_trace,
            ledger=ledger,
            obs=obs,
            algorithm_name=label,
            stop=stop,
        )

    return solve


def _bst(graph, source, radii, *, track_parents, track_trace, ledger, obs):
    from ..core.radius_stepping_bst import radius_stepping_bst

    return radius_stepping_bst(
        graph, source, radii, track_trace=track_trace, ledger=ledger
    )


for _name, _factory, _label, _description in _SCHEDULE_ENGINES:
    register_engine(
        _name,
        _schedule_engine(_factory, _label),
        supports_stop=True,
        description=_description,
    )
register_engine(
    "bst",
    _bst,
    supports_parents=False,
    description="faithful Algorithm-2 treap reference (slow; PRAM accounting)",
)
