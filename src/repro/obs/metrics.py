"""The metrics registry: named counters, gauges and histograms.

Every component that used to keep its own ad-hoc stat dict — the batch
evaluator's compile cache, the compressor's plan cache, the open-store
cache — now reports into one process-wide
:class:`MetricsRegistry` (:func:`get_registry`), so a single
:meth:`~MetricsRegistry.snapshot` answers "what has the engine been doing"
across all of them.

The registry is deliberately primitive: metrics are plain Python objects
with attribute counters (an increment is an attribute add, cheap enough for
hot paths), snapshots are plain nested dicts (JSON-serialisable as-is), and
cross-process aggregation is snapshot arithmetic —
:meth:`MetricsRegistry.diff` computes the delta a pool worker ships home,
:meth:`MetricsRegistry.merge` folds it into the parent.

Lifecycle: :meth:`MetricsRegistry.reset` zeroes everything (counters used
to accumulate for the life of a shared cache with no way back), and
:meth:`MetricsRegistry.scope` brackets one evaluation, yielding the metric
delta that run produced.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A named value that goes up and down (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A named distribution summarised as count/sum/min/max.

    Enough to answer "how many, how long in total, best and worst" for
    timings and sizes without keeping samples around.
    """

    __slots__ = ("name", "count", "sum", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """The running mean (0.0 before any sample)."""
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """The count/sum/min/max/mean dict :meth:`MetricsRegistry.snapshot` emits."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum})"


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Metric creation is locked (first use from any thread wins); increments
    and observations are plain attribute arithmetic — under CPython's GIL
    that is accurate enough for operational metrics and costs the hot paths
    essentially nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- metric handles ------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(name, Counter(name))
        return metric

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(name, Gauge(name))
        return metric

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first use."""
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.setdefault(name, Histogram(name))
        return metric

    # -- convenience write paths ---------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)

    # -- snapshots and lifecycle ---------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """All current values as one JSON-serialisable nested dict.

        Shape: ``{"counters": {name: int}, "gauges": {name: float},
        "histograms": {name: {count, sum, min, max, mean}}}``.
        """
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {n: h.summary() for n, h in self._histograms.items()},
        }

    def snapshot_prefix(self, prefix: str) -> Dict[str, Any]:
        """Like :meth:`snapshot`, restricted to names starting with ``prefix``.

        The cheap way for a subsystem (``"resilience."``, ``"store_cache."``)
        to report just its own metrics without callers filtering the full
        snapshot by hand.
        """
        return {
            section: {
                name: value
                for name, value in values.items()
                if name.startswith(prefix)
            }
            for section, values in self.snapshot().items()
        }

    def reset(self) -> None:
        """Zero every registered metric (names stay registered).

        This is the per-run lifecycle valve: cache hit/miss counters used to
        accumulate for the life of a shared cache with no way to scope them.
        """
        with self._lock:
            for counter in self._counters.values():
                counter.value = 0
            for gauge in self._gauges.values():
                gauge.value = 0.0
            for histogram in self._histograms.values():
                histogram.count = 0
                histogram.sum = 0.0
                histogram.min = None
                histogram.max = None

    @staticmethod
    def diff(before: Mapping[str, Any], after: Mapping[str, Any]) -> Dict[str, Any]:
        """The metric delta between two snapshots (``after − before``).

        Counters and histogram count/sum subtract; gauges and histogram
        min/max take the ``after`` value (levels, not totals).  This is what
        a worker ships back, and what :meth:`scope` reports per evaluation.
        """
        before_counters = before.get("counters", {})
        counters = {
            name: value - before_counters.get(name, 0)
            for name, value in after.get("counters", {}).items()
            if value - before_counters.get(name, 0)
        }
        before_hists = before.get("histograms", {})
        histograms = {}
        for name, summary in after.get("histograms", {}).items():
            prior = before_hists.get(name, {})
            count = summary["count"] - prior.get("count", 0)
            if count:
                delta_sum = summary["sum"] - prior.get("sum", 0.0)
                histograms[name] = {
                    "count": count,
                    "sum": delta_sum,
                    "min": summary["min"],
                    "max": summary["max"],
                    "mean": delta_sum / count,
                }
        return {
            "counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "histograms": histograms,
        }

    def merge(self, delta: Mapping[str, Any]) -> None:
        """Fold a snapshot/delta (e.g. shipped by a pool worker) into this
        registry: counters and histogram counts/sums add, histogram min/max
        widen, gauges take the incoming value."""
        for name, value in delta.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, summary in delta.get("histograms", {}).items():
            histogram = self.histogram(name)
            count = int(summary.get("count", 0))
            if not count:
                continue
            histogram.count += count
            histogram.sum += float(summary.get("sum", 0.0))
            for bound, pick in (("min", min), ("max", max)):
                incoming = summary.get(bound)
                if incoming is None:
                    continue
                current = getattr(histogram, bound)
                setattr(
                    histogram,
                    bound,
                    incoming if current is None else pick(current, incoming),
                )

    @contextmanager
    def scope(self) -> Iterator["_Scope"]:
        """Bracket one evaluation: yields an object whose ``metrics`` holds
        the delta this block produced (filled at exit).

        >>> registry = MetricsRegistry()
        >>> with registry.scope() as run:
        ...     registry.inc("requests")
        >>> run.metrics["counters"]["requests"]
        1
        """
        scope = _Scope()
        before = self.snapshot()
        try:
            yield scope
        finally:
            scope.metrics = self.diff(before, self.snapshot())

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class _Scope:
    """The handle :meth:`MetricsRegistry.scope` yields (delta at exit)."""

    __slots__ = ("metrics",)

    def __init__(self) -> None:
        self.metrics: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}


#: The process-wide registry every instrumented component reports into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry singleton."""
    return _REGISTRY
