"""Metrics registry — thread-safe counters, gauges, and histograms.

The paper's claims are about *counts* — steps, substeps, relaxations —
and the serving stack's claims are about *latency*; this module is the
dependency-free substrate both are measured on in a running process.
Design constraints, in order:

1. **O(1), lock-striped hot path.**  Every metric site sits on the
   serving hot path (a request handler, a planner probe, an engine
   step), so an observation must cost one dict-free child access plus
   one short critical section.  Locking is per child: each *child*
   (one label combination of one family) owns its own mutex, so two
   endpoints, two engines or two shards never contend — only two
   threads updating the very same series do, and then only for a float
   add.
2. **Exact totals.**  Counters are never approximate: a lost update
   under preemption is a bug the concurrency tests hammer for
   (``hits + misses == lookups`` style invariants must hold at
   quiescence), so updates take the child lock rather than trusting the
   GIL across the read-modify-write.
3. **Prometheus-compatible semantics.**  Families are typed
   (``counter`` / ``gauge`` / ``histogram``), histograms are
   fixed-bucket with cumulative exposition, and
   :mod:`repro.obs.expo` renders the standard text format for
   ``GET /metrics``.

Registries are injectable: library code takes a ``registry`` argument
(or an instrumentation object built from one), and the process-global
:data:`DEFAULT_REGISTRY` exists so one running server exposes one
coherent scrape without plumbing a registry through every constructor.
Tests inject a fresh :class:`MetricsRegistry` and assert on it in
isolation.

Scrape-time **collectors** bridge subsystems that already keep exact
counters of their own (the planner's row LRU, the shard router's
stitched-row LRU): a collector is a zero-argument callable
returning metric families built from a ``stats()`` snapshot, so the hot
path pays *nothing* and the scrape is always consistent with
``GET /stats``.  Collectors are held by weak reference — a dead service
silently drops out of the scrape instead of being pinned alive by the
process-global registry.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = [
    "Counter",
    "DEFAULT_REGISTRY",
    "EngineTelemetry",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "COUNT_BUCKETS",
    "MetricFamily",
    "MetricsRegistry",
    "Sample",
    "exponential_buckets",
    "get_default_registry",
]

_KINDS = ("counter", "gauge", "histogram")

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str, what: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid {what} {name!r}")
    return name


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """``count`` log-spaced bucket upper bounds: start, start·f, start·f², …

    The standard shape for latency and count distributions, whose
    interesting structure spans orders of magnitude.  The implicit
    ``+Inf`` bucket is added by :class:`Histogram` itself.
    """
    if start <= 0:
        raise ValueError("start > 0 required")
    if factor <= 1:
        raise ValueError("factor > 1 required")
    if count < 1:
        raise ValueError("count >= 1 required")
    return tuple(start * factor**i for i in range(count))


#: request-latency buckets: 100 µs … ~13 s, doubling.  Cache hits sit in
#: the first few buckets, cold stitched solves in the last few.
LATENCY_BUCKETS = exponential_buckets(1e-4, 2.0, 18)

#: count buckets (steps, substeps, relaxations, frontier sizes):
#: 1 … ~2 M, quadrupling — step counts are the paper's bounded quantity,
#: relaxation counts the work proxy.
COUNT_BUCKETS = exponential_buckets(1.0, 4.0, 12)


# --------------------------------------------------------------------- #
# Children — one labeled series each, own lock (the striping unit)
# --------------------------------------------------------------------- #
class Counter:
    """Monotone counter child.  ``inc`` only accepts non-negative steps."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time value child (cache sizes, in-flight requests)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram child.

    ``observe`` is a bisect over ≤ ~20 precomputed bounds plus three
    adds under the child lock — O(log B) with B fixed at construction,
    i.e. O(1) for the serving hot path.  Exposition is cumulative
    (Prometheus ``le`` semantics) and the reader-visible invariant
    ``sum(bucket_counts) == count`` (non-cumulative counts, ``+Inf``
    included) holds at quiescence — the concurrency tests pin it.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """(non-cumulative bucket counts incl. +Inf, sum, count) — one
        consistent view under the child lock."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution quantile estimate (upper bucket bound).

        The standard log-bucket estimate: the smallest bound whose
        cumulative count reaches ``q * count``.  Observations above the
        last finite bound report that bound (a conservative floor).
        ``None`` while the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        counts, _total, count = self.snapshot()
        if count == 0:
            return None
        rank = max(1, math.ceil(q * count))
        acc = 0
        for bound, c in zip(self.bounds, counts):
            acc += c
            if acc >= rank:
                return bound
        return self.bounds[-1] if self.bounds else None

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum


# --------------------------------------------------------------------- #
# Families — a named metric plus its children by label values
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Sample:
    """One exposition sample: suffixed name, labels, value."""

    suffix: str
    labels: tuple[tuple[str, str], ...]
    value: float


@dataclass
class MetricFamily:
    """A scrape-ready family: what :func:`repro.obs.expo.render` consumes.

    Collectors return these directly; registered families produce them
    via :meth:`_Family.collect`.
    """

    name: str
    kind: str
    help: str
    samples: list[Sample] = field(default_factory=list)


class _Family:
    """One registered metric family: typed, labeled, children on demand.

    The child dict is guarded by a family lock taken only on first use
    of a new label combination; steady-state callers go through
    :meth:`labels`, whose hit path is a single dict read (safe under the
    GIL for a dict that only ever grows) — and hot call sites cache the
    child once and never come back here at all.
    """

    __slots__ = ("name", "kind", "help", "labelnames", "_buckets", "_lock", "_children")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self._buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets)

    def labels(self, *values) -> Counter | Gauge | Histogram:
        """The child for one label-value combination (created on first
        use).  Values are stringified — labels are text in exposition."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    # unlabeled convenience: family-as-child
    def _solo(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labeled {self.labelnames}; use .labels()")
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def collect(self) -> MetricFamily:
        fam = MetricFamily(self.name, self.kind, self.help)
        with self._lock:
            items = sorted(self._children.items())
        for key, child in items:
            base = tuple(zip(self.labelnames, key))
            if self.kind == "histogram":
                counts, total, count = child.snapshot()
                acc = 0
                for bound, c in zip(child.bounds, counts):
                    acc += c
                    fam.samples.append(
                        Sample("_bucket", base + (("le", _fmt_bound(bound)),), acc)
                    )
                acc += counts[-1]
                fam.samples.append(Sample("_bucket", base + (("le", "+Inf"),), acc))
                fam.samples.append(Sample("_sum", base, total))
                fam.samples.append(Sample("_count", base, count))
            else:
                fam.samples.append(Sample("", base, child.value))
        return fam


def _fmt_bound(bound: float) -> str:
    """``le`` label text: integers without a trailing .0, floats as repr."""
    if bound == math.inf:
        return "+Inf"
    if float(bound).is_integer() and abs(bound) < 1e15:
        return str(int(bound))
    return repr(float(bound))


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class MetricsRegistry:
    """A namespace of metric families plus scrape-time collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family (so two servers over one
    process-global registry share series instead of colliding), and
    asking with a conflicting type, label set, or bucket layout raises —
    a silent mismatch would corrupt the scrape.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[weakref.ref] = []

    # -- family constructors ------------------------------------------- #
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        _check_name(name, "metric name")
        labelnames = tuple(labelnames)
        for ln in labelnames:
            _check_name(ln, "label name")
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as {fam.kind} "
                        f"with labels {fam.labelnames}"
                    )
                if kind == "histogram" and fam._buckets != buckets:
                    raise ValueError(
                        f"histogram {name!r} already registered with "
                        "different buckets"
                    )
                return fam
            fam = _Family(name, kind, help, labelnames, buckets)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _Family:
        """A monotone counter family."""
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> _Family:
        """A point-in-time gauge family."""
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> _Family:
        """A fixed-bucket histogram family (log-spaced latency buckets
        by default; pass :data:`COUNT_BUCKETS` for count distributions)."""
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and strictly increasing")
        return self._family(name, "histogram", help, labelnames, bounds)

    # -- collectors ---------------------------------------------------- #
    def register_collector(
        self, fn: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Add a scrape-time collector (weakly referenced).

        ``fn`` is called at every :meth:`collect` and returns
        :class:`MetricFamily` records built from some subsystem's own
        counters — the bridge that puts the planner's LRU
        counters on ``GET /metrics`` with zero hot-path cost.  Bound
        methods are held via :class:`weakref.WeakMethod`, so a garbage-
        collected service drops out of the scrape on its own.
        """
        ref = (
            weakref.WeakMethod(fn)
            if hasattr(fn, "__self__")
            else weakref.ref(fn)
        )
        with self._lock:
            self._collectors.append(ref)

    def unregister_collector(
        self, fn: Callable[[], Iterable[MetricFamily]]
    ) -> None:
        """Remove ``fn`` from the scrape (a no-op when it is not
        registered).  Bound methods match by equality, so passing
        ``obj.method`` again finds the collector ``obj.method``
        registered."""
        with self._lock:
            self._collectors = [r for r in self._collectors if r() != fn]

    def collect(self) -> list[MetricFamily]:
        """Every family — registered and collected — sorted by name.

        Families sharing a name across collectors are merged (their
        kinds must agree); registered families win name conflicts
        against collector output.
        """
        with self._lock:
            families = list(self._families.values())
            refs = list(self._collectors)
        out: dict[str, MetricFamily] = {}
        for fam in families:
            out[fam.name] = fam.collect()
        dead = []
        for ref in refs:
            fn = ref()
            if fn is None:
                dead.append(ref)
                continue
            for fam in fn():
                have = out.get(fam.name)
                if have is None:
                    out[fam.name] = MetricFamily(
                        fam.name, fam.kind, fam.help, list(fam.samples)
                    )
                    continue
                if have.kind != fam.kind:
                    raise ValueError(
                        f"collector redeclares {fam.name!r} as {fam.kind} "
                        f"(registered: {have.kind})"
                    )
                have.samples.extend(fam.samples)
        if dead:
            with self._lock:
                self._collectors = [r for r in self._collectors if r not in dead]
        return [out[name] for name in sorted(out)]


#: the process-global registry a running server exposes by default.
DEFAULT_REGISTRY = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-global default registry (``GET /metrics`` source when
    no registry is injected)."""
    return DEFAULT_REGISTRY


# --------------------------------------------------------------------- #
# Engine telemetry — the opt-in `obs` hook's registry-facing half
# --------------------------------------------------------------------- #
class EngineTelemetry:
    """Folds engine runs and steps into per-engine histograms.

    The paper's whole pitch is bounding *step counts* (Theorems 3.2 and
    3.3), so the serving stack records them as first-class metrics: one
    :class:`EngineTelemetry` wraps a registry and
    :meth:`bind` pre-resolves the ``engine`` label into cached child
    handles, making the per-step hot path a couple of histogram
    observations with zero dict lookups.

    ``bind(name)`` is what :func:`repro.engine.registry.solve_with_engine`
    calls once per query; the bound handle is the ``obs`` object
    :func:`repro.engine.driver.run_engine` sees.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._solves = registry.counter(
            "engine_solves_total", "completed SSSP engine runs", ("engine",)
        )
        self._steps = registry.histogram(
            "engine_solve_steps",
            "outer steps per run (Thm 3.3's bounded quantity)",
            ("engine",),
            buckets=COUNT_BUCKETS,
        )
        self._substeps = registry.histogram(
            "engine_solve_substeps",
            "total inner substeps per run",
            ("engine",),
            buckets=COUNT_BUCKETS,
        )
        self._relaxations = registry.histogram(
            "engine_solve_relaxations",
            "arcs relaxed per run (work proxy)",
            ("engine",),
            buckets=COUNT_BUCKETS,
        )
        self._step_settled = registry.histogram(
            "engine_step_settled",
            "vertices settled per outer step (frontier size)",
            ("engine",),
            buckets=COUNT_BUCKETS,
        )
        self._step_substeps = registry.histogram(
            "engine_step_substeps",
            "substeps per outer step (Thm 3.2 bounds this by k+2)",
            ("engine",),
            buckets=COUNT_BUCKETS,
        )
        self._bound_lock = threading.Lock()
        self._bound: dict[str, BoundEngineTelemetry] = {}

    def bind(self, engine: str) -> "BoundEngineTelemetry":
        """Label-resolved handle for one engine name (cached)."""
        handle = self._bound.get(engine)
        if handle is None:
            with self._bound_lock:
                handle = self._bound.get(engine)
                if handle is None:
                    handle = BoundEngineTelemetry(self, engine)
                    self._bound[engine] = handle
        return handle


class BoundEngineTelemetry:
    """The ``obs`` hook handle: one engine's cached histogram children.

    ``record_step`` is called live from inside
    :func:`~repro.engine.driver.run_engine`'s outer loop (per step, not
    per substep — an O(1) pair of observations on a path that just did
    O(frontier) work); ``record_run`` once per completed solve, from
    the dispatch layer, with the :class:`~repro.core.result.SsspResult`
    — which also makes telemetry work for results that crossed a
    process boundary (the fork-pool batch path), where live in-worker
    observations would mutate the wrong process's registry.
    """

    __slots__ = (
        "engine",
        "_solves",
        "_steps",
        "_substeps",
        "_relaxations",
        "_step_settled",
        "_step_substeps",
    )

    def __init__(self, telemetry: EngineTelemetry, engine: str) -> None:
        self.engine = engine
        self._solves = telemetry._solves.labels(engine)
        self._steps = telemetry._steps.labels(engine)
        self._substeps = telemetry._substeps.labels(engine)
        self._relaxations = telemetry._relaxations.labels(engine)
        self._step_settled = telemetry._step_settled.labels(engine)
        self._step_substeps = telemetry._step_substeps.labels(engine)

    def record_step(self, settled: int, substeps: int) -> None:
        """One outer engine step: frontier size + substep count."""
        self._step_settled.observe(settled)
        self._step_substeps.observe(substeps)

    def record_run(self, result) -> None:
        """One completed solve: fold the run-level counts."""
        self._solves.inc()
        self._steps.observe(result.steps)
        self._substeps.observe(result.substeps)
        self._relaxations.observe(result.relaxations)
