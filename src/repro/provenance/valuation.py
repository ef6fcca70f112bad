"""Valuations: assignments of values to provenance variables.

Hypothetical reasoning with provenance boils down to repeatedly *assigning
values* to the provenance variables and reading off the new query results.
This module provides:

* :class:`Valuation` — an immutable mapping from variable names to numbers,
  with convenience constructors for the scenarios of the paper (e.g. "scale
  the March price variables by 0.8");
* :class:`FingerprintCache` — the small LRU cache behind the engine's
  compile, compression-plan and open-store caches.

The numpy-compiled forms that make repeated assignment cheap live with the
numeric semiring backends (:mod:`repro.provenance.backends.numeric`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    TypeVar,
)

from repro.provenance.polynomial import Number, Polynomial, ProvenanceSet

T = TypeVar("T")

#: Sentinel distinguishing "key absent" from a legitimately cached falsy
#: value (``None``, ``0``, ``False`` ...) in :class:`FingerprintCache`.
_MISSING = object()


def _resolve_value_backend(semiring):
    """Resolve a ``semiring=`` argument to a backend, or ``None`` for real.

    ``None`` (and the real backend itself) resolve to ``None`` so the plain
    float pipeline keeps its dependency-free fast path.
    """
    if semiring is None:
        return None
    from repro.provenance.backends import resolve_backend

    backend = resolve_backend(semiring)
    return None if backend.name == "real" else backend


class FingerprintCache:
    """A small LRU cache keyed by content fingerprints.

    Compiling provenance (a backend's compiled set) and planning its
    compression are worth paying once per distinct provenance set: the
    batch evaluator's compile cache and the compressor's plan cache key
    their entries by the exact
    :meth:`~repro.provenance.polynomial.ProvenanceSet.fingerprint`, and the
    open-store cache keys mapped stores by ``(path, mtime, size)``.  This
    class centralises the LRU + hit/miss bookkeeping they share.

    ``metrics=`` names a prefix under which the cache additionally reports
    hits/misses into the process-wide
    :class:`~repro.obs.metrics.MetricsRegistry` (as ``{prefix}.hits`` /
    ``{prefix}.misses``), so every cache in the engine shows up in one
    ``snapshot()``.  The per-instance counters behind :meth:`info` are kept
    independently — they are this cache's lifetime view, while the registry
    ones obey the registry's reset/scope lifecycle.
    """

    __slots__ = (
        "_capacity",
        "_entries",
        "_hits",
        "_misses",
        "_metric_hits",
        "_metric_misses",
    )

    def __init__(self, capacity: int = 8, metrics: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        if metrics is None:
            self._metric_hits = None
            self._metric_misses = None
        else:
            from repro.obs.metrics import get_registry

            registry = get_registry()
            self._metric_hits = registry.counter(f"{metrics}.hits")
            self._metric_misses = registry.counter(f"{metrics}.misses")

    def get(self, key: Hashable, default: object = None) -> Optional[object]:
        """The cached value under ``key`` (marking it most-recently used).

        Hits and misses are both counted here, and a cached falsy value
        (``None``, ``0``, ``False``) is a hit like any other — lookups are
        resolved against a sentinel, never against the value's truthiness.
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            if self._metric_misses is not None:
                self._metric_misses.inc()
            return default
        self._entries.move_to_end(key)
        self._hits += 1
        if self._metric_hits is not None:
            self._metric_hits.inc()
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert ``value`` under ``key``, evicting the least-recently used."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def get_or_build(self, key: Hashable, factory: Callable[[], T]) -> T:
        """Return the cached value under ``key``, building it on a miss."""
        cached = self.get(key, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        value = factory()
        self.put(key, value)
        return value

    def info(self) -> Dict[str, int]:
        """Hit/miss/size counters (the shape ``BatchEvaluator.cache_info`` reports)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "entries": len(self._entries),
            "capacity": self._capacity,
        }

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def reset_stats(self) -> None:
        """Zero this cache's lifetime hit/miss counters (entries are kept).

        Registry-side counters are untouched — scope or reset those through
        :class:`~repro.obs.metrics.MetricsRegistry`.
        """
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)


class Valuation(Mapping[str, float]):
    """An immutable assignment of values to provenance variables.

    Behaves as a read-only mapping; algebraic helpers return new valuations.
    By default values are floats (the counting-semiring pipeline); passing
    ``semiring=`` (a backend name, a :class:`~repro.provenance.semiring.
    Semiring` instance, or a backend) types the values by that semiring's
    carrier and routes ``scaled``/``set_to`` through the backend's scenario
    semantics — e.g. Boolean truthinesses or Why-provenance witness sets.

    Examples
    --------
    >>> v = Valuation({"p1": 1.0, "m1": 1.0, "m3": 1.0})
    >>> v.scaled({"m3"}, 0.8)["m3"]
    0.8
    """

    __slots__ = ("_values", "_backend")

    def __init__(
        self,
        values: Optional[Mapping[str, object]] = None,
        semiring: Optional[object] = None,
    ) -> None:
        backend = _resolve_value_backend(semiring)
        self._backend = backend
        if backend is None:
            self._values: Dict[str, object] = {
                str(name): float(value) for name, value in (values or {}).items()
            }
        else:
            self._values = {
                str(name): backend.coerce(value)
                for name, value in (values or {}).items()
            }

    # -- constructors -----------------------------------------------------

    @classmethod
    def uniform(
        cls,
        variables: Iterable[str],
        value: Number = 1.0,
        semiring: Optional[object] = None,
    ) -> "Valuation":
        """Assign the same ``value`` to every variable in ``variables``.

        The identity valuation (all ones) reproduces the original query
        result when applied to the provenance polynomials.
        """
        return cls({name: value for name in variables}, semiring=semiring)

    @classmethod
    def identity_for(
        cls,
        provenance: "ProvenanceSet | Polynomial",
        semiring: Optional[object] = None,
    ) -> "Valuation":
        """The identity valuation over the variables of ``provenance``.

        All ones for the float pipeline; each backend defines its own
        per-variable identity (e.g. each variable's singleton witness set
        for Why-provenance) under which evaluation reproduces the original
        result.
        """
        backend = _resolve_value_backend(semiring)
        if backend is None:
            return cls.uniform(provenance.variables(), 1.0)
        return cls(
            {name: backend.default_value(name) for name in provenance.variables()},
            semiring=backend,
        )

    # -- the backend --------------------------------------------------------

    @property
    def backend(self):
        """The :class:`~repro.provenance.backends.SemiringBackend` typing the
        values (the real backend for plain float valuations)."""
        if self._backend is None:
            from repro.provenance.backends import resolve_backend

            return resolve_backend("real")
        return self._backend

    @property
    def semiring_name(self) -> str:
        """The backend name (``"real"`` for plain float valuations)."""
        return "real" if self._backend is None else self._backend.name

    # -- mapping interface --------------------------------------------------

    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def get(self, name: str, default: Any = None) -> Any:
        # One dict lookup: ``Mapping.get`` goes through ``__getitem__`` and
        # a ``KeyError``, and batch lowering calls this once per variable.
        return self._values.get(name, default)

    def as_dict(self) -> Dict[str, float]:
        """A mutable copy of the underlying mapping."""
        return dict(self._values)

    # -- functional updates --------------------------------------------------

    def updated(self, changes: Mapping[str, object]) -> "Valuation":
        """Return a valuation with ``changes`` overriding/extending this one."""
        merged = dict(self._values)
        if self._backend is None:
            for name, value in changes.items():
                merged[str(name)] = float(value)
        else:
            for name, value in changes.items():
                merged[str(name)] = self._backend.coerce(value)
        return self._rebuild(merged)

    def scaled(self, variables: Iterable[str], factor: Number) -> "Valuation":
        """Return a valuation with a scenario *scale* applied to the variables.

        For numeric backends this multiplies (missing variables are treated
        as their identity first), matching the paper's multiplicative
        parameterisation ("decrease the ppm of all plans by 20%" == scale the
        corresponding variables by 0.8).  Set-valued backends interpret a
        zero factor as deletion and any other factor as a no-op.
        """
        merged = dict(self._values)
        if self._backend is None:
            for name in variables:
                merged[name] = merged.get(name, 1.0) * float(factor)
        else:
            backend = self._backend
            factor = float(factor)
            for name in variables:
                # Look up through a sentinel: a stored None is a legitimate
                # carrier value (the lineage semiring's zero), not a miss.
                current = merged.get(name, _MISSING)
                if current is _MISSING:
                    current = backend.default_value(name)
                merged[name] = backend.scale_value(current, factor)
        return self._rebuild(merged)

    def set_to(self, variables: Iterable[str], amount: Number) -> "Valuation":
        """Return a valuation with a scenario *set* applied to the variables.

        Numeric backends assign the amount itself; set-valued backends
        interpret amount 0 as deletion (the semiring zero) and any other
        amount as restoring the variable's identity value.
        """
        if self._backend is None:
            return self.updated({name: float(amount) for name in variables})
        backend = self._backend
        amount = float(amount)
        merged = dict(self._values)
        for name in variables:
            merged[name] = backend.set_value(amount, name)
        return self._rebuild(merged)

    def restricted(self, variables: Iterable[str]) -> "Valuation":
        """Return the valuation restricted to ``variables`` (missing ones skipped)."""
        keep = set(variables)
        return self._rebuild(
            {name: value for name, value in self._values.items() if name in keep}
        )

    def _rebuild(self, values: Dict[str, object]) -> "Valuation":
        """Build a valuation with the same backend from pre-coerced values."""
        result = Valuation.__new__(Valuation)
        result._values = values
        result._backend = self._backend
        return result

    def covers(self, variables: Iterable[str]) -> bool:
        """Whether every variable in ``variables`` has a value."""
        return all(name in self._values for name in variables)

    def missing(self, variables: Iterable[str]) -> Tuple[str, ...]:
        """The variables in ``variables`` that have no value, sorted."""
        return tuple(sorted(name for name in set(variables) if name not in self._values))

    def __repr__(self) -> str:
        if self._backend is None:
            return f"Valuation({len(self._values)} variables)"
        return (
            f"Valuation({len(self._values)} variables, "
            f"semiring={self._backend.name!r})"
        )
