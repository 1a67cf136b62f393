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
:class:`repro.obs.metrics.BoundEngineTelemetry`): engines built on the
unified driver feed it live per-step observations, others may ignore
it — run-level totals are recorded uniformly by
:func:`solve_with_engine` from the returned result either way.
Plugins may omit ``obs`` from their signature entirely (the
pre-telemetry convention); the dispatcher detects this at registration
and simply skips the live hook for them.

Built-in engines
----------------
``vectorized``    Radius-Stepping on one flat frontier (``auto``'s
                  default).
``bucket``        an alias for the same schedule.
``bst``           the faithful Algorithm-2 treap reference.
``unweighted``    the §3.4 BFS-style specialization (unit weights only).
``dijkstra``      equal-distance batched Dijkstra (``r ≡ 0``).
``delta``         ∆-stepping: fixed bucket boundaries ``(j+1)·∆``.
``delta-star``    ∆*-stepping: floating min+∆ window, light/heavy split.
``rho``           ρ-stepping: the ρ nearest frontier vertices per step.
``bellman-ford``  single-step Bellman–Ford (``r ≡ ∞``), rounds as substeps.

The ∆-stepping and Bellman–Ford baselines exist only as these engines,
so an engine change reaches each of them in one place.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..core.result import SsspResult
from ..graphs.validate import check_vertex
from .driver import run_engine
from .schedules import (
    BellmanFordSchedule,
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
    description: one-liner for ``available_engines`` listings.
    accepts_obs: whether ``fn`` takes the ``obs`` telemetry keyword —
        detected from its signature at registration, so plugins written
        against the pre-telemetry convention keep working (they still
        get run-level telemetry from the dispatcher, just no live
        per-step hook).
    """

    name: str
    fn: EngineFn
    supports_parents: bool = True
    description: str = ""
    accepts_obs: bool = True


_REGISTRY: dict[str, EngineSpec] = {}


def _accepts_obs(fn: EngineFn) -> bool:
    """Whether ``fn``'s signature admits the ``obs`` keyword."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # uninspectable callables: assume yes
        return True
    return "obs" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def register_engine(
    name: str,
    fn: EngineFn,
    *,
    supports_parents: bool = True,
    description: str = "",
    overwrite: bool = False,
) -> EngineSpec:
    """Register ``fn`` under ``name``; returns the spec.

    Re-registering an existing name raises unless ``overwrite=True``
    (guards against plugin name collisions).  ``fn`` may omit the
    ``obs`` keyword (the pre-telemetry plugin convention); the
    dispatcher then skips the live hook for that engine.
    """
    if not name or name == "auto":
        raise ValueError(f"invalid engine name {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"engine {name!r} already registered")
    spec = EngineSpec(
        name=name,
        fn=fn,
        supports_parents=supports_parents,
        description=description,
        accepts_obs=_accepts_obs(fn),
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
) -> SsspResult:
    """Dispatch one query through the registry (shared validation).

    The source is checked once here for every engine, plugins included:
    a bool or non-integer raises :class:`TypeError`, an id outside
    ``[0, n)`` :class:`ValueError`.

    ``obs`` is an optional :class:`~repro.obs.metrics.EngineTelemetry`;
    the engine label is bound here (once per query, not per step) and
    run-level totals are folded in from the result after the solve, so
    every engine gets run telemetry even if it ignores the live hook.
    """
    spec = get_engine(name)
    source = check_vertex(source, "source", graph.n)
    if track_parents and not spec.supports_parents:
        raise ValueError(f"the {name} engine does not track parents")
    bound = obs.bind(name) if obs is not None else None
    kwargs = {
        "track_parents": track_parents,
        "track_trace": track_trace,
        "ledger": ledger,
    }
    if spec.accepts_obs:
        kwargs["obs"] = bound
    res = spec.fn(graph, source, radii, **kwargs)
    if bound is not None:
        bound.record_run(res)
    return res


# --------------------------------------------------------------------- #
# Built-in engines.  Every unified-loop engine is one table row: a
# schedule factory ``(graph, radii) -> StepSchedule``, its
# ``SsspResult.algorithm`` label and a description, served by one
# adapter.  The core solver modules import the engine package, so the
# two engines that live there (and ``as_radii``) are imported lazily.
# --------------------------------------------------------------------- #
def _radius_schedule(graph, radii):
    from ..core.radius_stepping import as_radii

    return RadiusBucketSchedule(as_radii(graph, radii))


_SCHEDULE_ENGINES = (
    (
        "vectorized",
        _radius_schedule,
        "radius-stepping",
        "Radius-Stepping on one flat frontier (auto's default)",
    ),
    (
        "bucket",
        _radius_schedule,
        "radius-stepping-bucket",
        "Radius-Stepping on one flat frontier (alias of vectorized)",
    ),
    (
        "dijkstra",
        lambda graph, radii: DijkstraSchedule(),
        "dijkstra-steps",
        "equal-distance batched Dijkstra (r = 0)",
    ),
    (
        "delta",
        lambda graph, radii: DeltaSchedule(),
        "delta-stepping-engine",
        "Delta-stepping boundaries in the unified engine",
    ),
    (
        "delta-star",
        lambda graph, radii: DeltaStarSchedule(),
        "delta-star-stepping",
        "Delta*-stepping: floating min+Delta window, light/heavy arc split",
    ),
    (
        "rho",
        lambda graph, radii: RhoSchedule(),
        "rho-stepping",
        "rho-stepping: settle the rho nearest frontier vertices per step",
    ),
    (
        "bellman-ford",
        lambda graph, radii: BellmanFordSchedule(),
        "bellman-ford-engine",
        "single-step Bellman-Ford (r = inf)",
    ),
)


def _schedule_engine(factory, label: str) -> EngineFn:
    """The one adapter: the registry calling convention → :func:`run_engine`."""

    def solve(
        graph, source, radii, *, track_parents, track_trace, ledger, obs=None
    ):
        return run_engine(
            graph,
            source,
            factory(graph, radii),
            track_parents=track_parents,
            track_trace=track_trace,
            ledger=ledger,
            obs=obs,
            algorithm_name=label,
        )

    return solve


def _bst(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from ..core.radius_stepping_bst import radius_stepping_bst

    return radius_stepping_bst(
        graph, source, radii, track_trace=track_trace, ledger=ledger
    )


def _unweighted(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from ..core.radius_stepping_unweighted import radius_stepping_unweighted

    return radius_stepping_unweighted(
        graph, source, radii, track_trace=track_trace, ledger=ledger
    )


for _name, _factory, _label, _description in _SCHEDULE_ENGINES:
    register_engine(
        _name, _schedule_engine(_factory, _label), description=_description
    )
register_engine(
    "bst",
    _bst,
    supports_parents=False,
    description="faithful Algorithm-2 treap reference (slow; PRAM accounting)",
)
register_engine(
    "unweighted",
    _unweighted,
    supports_parents=False,
    description="§3.4 BFS-style engine (unit-weight graphs only)",
)
