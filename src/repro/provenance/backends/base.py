"""The abstract semiring-backend interface and the backend registry.

A :class:`SemiringBackend` packages everything the evaluation pipeline needs
to answer what-if scenarios in one commutative semiring:

* the *value semantics* of scenario operations — what "scale by 0.8" or
  "set to 0" means for values of the semiring's carrier (multiplication for
  numeric semirings, deletion/restoration for set-valued ones);
* a *compiled evaluator* — for numeric semirings a vectorised numpy kernel
  (:mod:`repro.provenance.backends.numeric`), otherwise a pure-Python
  fallback driven by :func:`~repro.provenance.semiring.evaluate_in_semiring`
  (:mod:`repro.provenance.backends.generic`);
* the *error measure* comparing full against compressed results — numeric
  deltas for numeric backends, symmetric-difference cardinality for set
  backends — so abstraction error is meaningful in every semiring.

Backends are resolved by name (``"real"``, ``"tropical"``, ``"bool"``,
``"why"``, ``"lineage"``), by semiring instance, or passed through verbatim
via :func:`resolve_backend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import SemiringError
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.semiring import Semiring


class CompiledSemiringSet(ABC):
    """A provenance set compiled for repeated evaluation in one semiring.

    The numeric backends' compiled sets
    (:mod:`repro.provenance.backends.numeric`, e.g. the real backend's
    ``CompiledProvenanceSet``) and the generic fallback share this surface,
    so the session and batch layers can dispatch without caring which
    backend produced the compilation.
    """

    #: Empty so slotted compilations (every numeric kernel) stay dict-free.
    __slots__ = ()

    #: Whether this compiled form implements the sparse delta surface
    #: (``baseline_totals`` / ``evaluate_deltas``).  Numeric compilations
    #: set this; set-valued ones fall back to dense per-scenario evaluation.
    supports_deltas: bool = False

    @property
    @abstractmethod
    def keys(self) -> Tuple[Tuple, ...]:
        """The result keys, in row order."""

    @property
    @abstractmethod
    def variables(self) -> Tuple[str, ...]:
        """All variables of the compiled set, sorted."""

    @abstractmethod
    def size(self) -> int:
        """Total number of monomials (the provenance size)."""

    @abstractmethod
    def evaluate(self, valuation: Mapping[str, Any]) -> Dict[Tuple, Any]:
        """Evaluate every polynomial, returning key → semiring value."""

    def evaluate_many(
        self, valuations: Sequence[Mapping[str, Any]]
    ) -> Tuple[Dict[Tuple, Any], ...]:
        """Evaluate a batch of valuations (generic per-valuation loop)."""
        return tuple(self.evaluate(valuation) for valuation in valuations)

    def evaluate_deltas(self, plan: Any) -> Any:
        """Sparse scenario evaluation of a :class:`~repro.batch.planner.DeltaPlan`.

        Numeric compilations override this with a kernel whose cost follows
        the changed variables, not the set size; the default signals that the caller should take the dense
        path instead.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sparse delta evaluation"
        )

    def dense_row_footprint(self) -> int:
        """float64 cells the dense matrix path materialises per scenario row
        (memory-budget accounting; the symbolic fallback reports its size)."""
        return max(1, self.size())


class SemiringBackend(ABC):
    """One evaluation backend: a semiring plus its pipeline semantics.

    Subclasses set :attr:`name` (the CLI spelling) and :attr:`is_numeric`
    (whether values live on the real line and the numpy matrix pipeline
    applies) and implement compilation plus the value/error semantics.
    """

    #: The registry/CLI name of the backend (e.g. ``"tropical"``).
    name: str = ""
    #: Whether values are real numbers and the numpy matrix path applies.
    is_numeric: bool = False

    @property
    @abstractmethod
    def semiring(self) -> Semiring:
        """The semiring this backend evaluates in."""

    # -- value semantics ----------------------------------------------------

    @abstractmethod
    def coerce(self, value: Any) -> Any:
        """Normalise a raw input value into the semiring's carrier."""

    def default_value(self, name: str) -> Any:
        """The identity/base value of variable ``name`` (the analogue of the
        float pipeline's default of 1.0: evaluating every variable at its
        default reproduces the unmodified query result)."""
        return self.semiring.one

    def scale_value(self, value: Any, factor: float) -> Any:
        """Apply a scenario ``scale`` operation to ``value``.

        Numeric backends multiply; set-valued (idempotent) backends treat a
        zero factor as deletion and any other factor as a no-op.
        """
        if factor == 0:
            return self.semiring.zero
        return value

    def set_value(self, amount: float, name: str) -> Any:
        """Translate a scenario ``set`` amount into a carrier value for
        ``name`` (numeric backends use the amount itself; set-valued
        backends interpret 0 as deletion and non-zero as restoration)."""
        if amount == 0:
            return self.semiring.zero
        return self.default_value(name)

    def embed_coefficient(self, coefficient: float) -> Any:
        """Map an N[X] coefficient into the carrier (presence by default)."""
        return self.semiring.zero if coefficient == 0 else self.semiring.one

    # -- evaluation ---------------------------------------------------------

    @abstractmethod
    def compile(self, provenance: ProvenanceSet) -> CompiledSemiringSet:
        """Compile ``provenance`` for repeated evaluation in this backend."""

    # -- comparison / reporting --------------------------------------------

    @abstractmethod
    def error(self, full: Any, compressed: Any) -> float:
        """The abstraction error between a full and a compressed result."""

    def delta(self, baseline: Any, value: Any) -> float:
        """How much ``value`` changed from ``baseline`` (signed for numeric
        backends, a non-negative distance otherwise)."""
        return self.error(baseline, value)

    def magnitude(self, value: Any) -> float:
        """A non-negative size of ``value`` (the relative-error denominator)."""
        return self.error(self.semiring.zero, value)

    def reduce_members(self, values: Sequence[Any]) -> Any:
        """Combine member values into a meta-variable default.

        Set-valued (idempotent) semirings use the semiring sum (union), which
        agrees with every member when the members coincide; numeric backends
        override this with the paper's arithmetic mean.
        """
        return self.semiring.sum(values)

    def format_value(self, value: Any, width: int = 14) -> str:
        """Render a result value for CLI tables."""
        text = str(value)
        if len(text) > width:
            text = text[: width - 1] + "…"
        return text

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, SemiringBackend] = {}

BackendLike = Union[str, Semiring, SemiringBackend, None]


def register_backend(backend: SemiringBackend) -> SemiringBackend:
    """Register ``backend`` under its :attr:`~SemiringBackend.name`."""
    if not backend.name:
        raise SemiringError("backend must define a non-empty name")
    _REGISTRY[backend.name] = backend
    return backend


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, in registration order."""
    return tuple(_REGISTRY)


def resolve_backend(spec: BackendLike = None) -> SemiringBackend:
    """Resolve a backend from a name, a semiring instance, or a backend.

    ``None`` resolves to the real (counting) backend — the float pipeline
    the rest of the system has always used.
    """
    from repro.provenance import backends as _pkg  # ensure registration ran

    del _pkg
    if spec is None:
        spec = "real"
    if isinstance(spec, SemiringBackend):
        return spec
    if isinstance(spec, Semiring):
        for backend in _REGISTRY.values():
            if type(backend.semiring) is type(spec):
                return backend
        raise SemiringError(
            f"no registered backend evaluates in {spec.name()}; "
            "register one with repro.provenance.backends.register_backend"
        )
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            raise SemiringError(
                f"unknown semiring backend {spec!r}; "
                f"available: {', '.join(sorted(_REGISTRY))}"
            ) from None
    raise SemiringError(f"cannot resolve a semiring backend from {spec!r}")
