"""Semiring evaluation backends: one pipeline, many semirings.

The paper's hypothetical-reasoning model is defined over arbitrary
commutative semirings — abstraction commutes with any valuation homomorphism
out of N[X] — and this subpackage makes the *evaluation pipeline* generic in
the same way.  A :class:`SemiringBackend` bundles a semiring with its value
semantics for scenarios, a compiled evaluator, and a semiring-appropriate
error measure; the session, batch and CLI layers dispatch through it.

Five backends ship by default:

========== ============================ =======================================
name       semiring                     evaluator
========== ============================ =======================================
``real``   counting ``(R, +, *)``       numpy (``np.add.reduceat`` kernel)
``tropical`` min-plus ``(R∪{∞},min,+)`` numpy (``np.minimum.reduceat`` kernel)
``bool``   Boolean ``({0,1},or,and)``   numpy (packed ``np.logical_or`` kernel)
``why``    witness sets                 pure Python (``evaluate_in_semiring``)
``lineage`` variable sets               pure Python (``evaluate_in_semiring``)
========== ============================ =======================================

Resolve one with :func:`resolve_backend` by name, semiring instance, or
backend object; ``None`` resolves to ``real`` (the original float pipeline).
"""

from repro.provenance.backends.base import (
    BackendLike,
    CompiledSemiringSet,
    SemiringBackend,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.provenance.backends.generic import (
    CompiledGenericSet,
    GenericBackend,
    LineageBackend,
    WhyBackend,
)
from repro.provenance.backends.numeric import (
    BooleanBackend,
    CompiledProvenanceSet,
    NumericBackend,
    RealBackend,
    TropicalBackend,
)

register_backend(RealBackend())
register_backend(TropicalBackend())
register_backend(BooleanBackend())
register_backend(WhyBackend())
register_backend(LineageBackend())

#: The names accepted by ``--semiring`` and every ``semiring=`` parameter.
SEMIRING_BACKEND_NAMES = backend_names()

__all__ = [
    "BackendLike",
    "CompiledSemiringSet",
    "CompiledProvenanceSet",
    "SemiringBackend",
    "NumericBackend",
    "RealBackend",
    "TropicalBackend",
    "BooleanBackend",
    "GenericBackend",
    "CompiledGenericSet",
    "WhyBackend",
    "LineageBackend",
    "register_backend",
    "resolve_backend",
    "backend_names",
    "SEMIRING_BACKEND_NAMES",
]
