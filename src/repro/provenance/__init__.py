"""Provenance substrate: symbolic polynomials, semirings and valuations.

This subpackage implements the provenance model COBRA consumes:

* :mod:`repro.provenance.variables` — provenance variables and registries;
* :mod:`repro.provenance.monomial` — products of variables with exponents;
* :mod:`repro.provenance.polynomial` — N[X]-style provenance polynomials and
  multisets of polynomials (one per query-result tuple/group);
* :mod:`repro.provenance.semiring` — the generic commutative-semiring
  framework of Green et al. (PODS 2007) together with standard instances;
* :mod:`repro.provenance.semimodule` — aggregate provenance in the spirit of
  Amsterdamer et al. (PODS 2011), producing symbolic aggregate expressions;
* :mod:`repro.provenance.valuation` — assignments of values to variables;
* :mod:`repro.provenance.backends` — per-semiring evaluation, including the
  numpy-compiled (vectorised) forms of the numeric semirings;
* :mod:`repro.provenance.parser` — a text format for polynomials;
* :mod:`repro.provenance.serialization` — JSON round-tripping;
* :mod:`repro.provenance.store` — zero-copy mmap-able compiled stores.
"""

from repro.provenance.variables import Variable, VariableRegistry
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.valuation import Valuation, FingerprintCache
from repro.provenance.parser import parse_polynomial, format_polynomial
from repro.provenance.semiring import (
    Semiring,
    BooleanSemiring,
    CountingSemiring,
    TropicalSemiring,
    WhySemiring,
    LineageSemiring,
    PolynomialSemiring,
    evaluate_in_semiring,
)
from repro.provenance.backends import (
    SEMIRING_BACKEND_NAMES,
    CompiledProvenanceSet,
    BooleanBackend,
    GenericBackend,
    LineageBackend,
    RealBackend,
    SemiringBackend,
    TropicalBackend,
    WhyBackend,
    resolve_backend,
)
from repro.provenance.semimodule import AggregateTerm, AggregateExpression
from repro.provenance.statistics import (
    ProvenanceStatistics,
    describe_provenance,
)
from repro.provenance.incidence import (
    ProvenanceIncidence,
    VariableIncidence,
)
from repro.provenance.store import (
    clear_store_cache,
    open_store,
    read_store_header,
    write_store,
)

__all__ = [
    "Variable",
    "VariableRegistry",
    "Monomial",
    "Polynomial",
    "ProvenanceSet",
    "Valuation",
    "CompiledProvenanceSet",
    "FingerprintCache",
    "parse_polynomial",
    "format_polynomial",
    "Semiring",
    "BooleanSemiring",
    "CountingSemiring",
    "TropicalSemiring",
    "WhySemiring",
    "LineageSemiring",
    "PolynomialSemiring",
    "evaluate_in_semiring",
    "SemiringBackend",
    "RealBackend",
    "TropicalBackend",
    "BooleanBackend",
    "GenericBackend",
    "WhyBackend",
    "LineageBackend",
    "resolve_backend",
    "SEMIRING_BACKEND_NAMES",
    "AggregateTerm",
    "AggregateExpression",
    "ProvenanceStatistics",
    "describe_provenance",
    "ProvenanceIncidence",
    "VariableIncidence",
    "open_store",
    "read_store_header",
    "write_store",
    "clear_store_cache",
]
