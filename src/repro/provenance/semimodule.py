"""Aggregate provenance in the style of Amsterdamer et al. (PODS 2011).

Aggregate query results cannot be described by a bare semiring annotation:
the *value* being aggregated and the *annotation* saying which tuples
contributed must be combined.  PODS 2011 models this with a semimodule whose
elements are formal sums of ``value ⊗ annotation`` terms.

In COBRA's setting the aggregated values are numbers, the annotations are
N[X] provenance polynomials, and the aggregate of interest is SUM, so a
tensor ``v ⊗ p`` flattens to the polynomial ``v * p``.  We keep the
intermediate tensor representation explicit (:class:`AggregateExpression`)
because it is the faithful substrate the paper's Example 2 is produced from
— the expression ``208.8 · p1 · m1 + ...`` is exactly the flattening of
``SUM(Dur * Price)`` over provenance-annotated join results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Tuple

from repro.provenance.polynomial import Number, Polynomial


@dataclass(frozen=True)
class AggregateTerm:
    """One ``value ⊗ annotation`` tensor in an aggregate expression.

    Attributes
    ----------
    value:
        The numeric value contributed by one joined tuple (e.g.
        ``Dur * Price`` for one customer-month).
    annotation:
        The provenance polynomial annotating that tuple (e.g. ``p1 * m1``).
    """

    value: float
    annotation: Polynomial

    def flatten(self) -> Polynomial:
        """Flatten the tensor into an N[X] polynomial: ``value * annotation``."""
        return self.annotation.scale(self.value)


class AggregateExpression:
    """A formal sum of :class:`AggregateTerm` tensors (a semimodule element).

    Supports the two semimodule operations needed by SUM aggregation —
    addition of expressions and scaling of an expression by a semiring
    annotation — plus flattening into a provenance polynomial, which is what
    COBRA stores per result group.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[AggregateTerm] = ()) -> None:
        self._terms: List[AggregateTerm] = list(terms)

    @classmethod
    def zero(cls) -> "AggregateExpression":
        """The empty aggregate (neutral element of expression addition)."""
        return cls()

    @classmethod
    def of(cls, value: Number, annotation: Polynomial) -> "AggregateExpression":
        """A single-tensor expression ``value ⊗ annotation``."""
        return cls([AggregateTerm(float(value), annotation)])

    def terms(self) -> Tuple[AggregateTerm, ...]:
        """The tensors of this expression, in insertion order."""
        return tuple(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "AggregateExpression") -> "AggregateExpression":
        if not isinstance(other, AggregateExpression):
            return NotImplemented
        return AggregateExpression(self._terms + other._terms)

    def scale_by_annotation(self, annotation: Polynomial) -> "AggregateExpression":
        """Multiply every tensor's annotation by ``annotation``.

        This is the semimodule action of the provenance semiring: when an
        aggregated tuple is further joined with an annotated tuple, the whole
        aggregate expression is scaled by that tuple's annotation.
        """
        return AggregateExpression(
            AggregateTerm(term.value, term.annotation * annotation)
            for term in self._terms
        )

    def scale_by_value(self, factor: Number) -> "AggregateExpression":
        """Multiply every tensor's numeric value by ``factor``."""
        return AggregateExpression(
            AggregateTerm(term.value * float(factor), term.annotation)
            for term in self._terms
        )

    def flatten(self) -> Polynomial:
        """Flatten into an N[X] polynomial (sum of ``value * annotation``)."""
        return Polynomial.sum(term.flatten() for term in self._terms)

    def evaluate(self, valuation: Mapping[str, Number]) -> float:
        """Evaluate the aggregate under a valuation of the provenance variables."""
        return self.flatten().evaluate(valuation)

    def __repr__(self) -> str:
        return f"AggregateExpression(terms={len(self._terms)})"
