"""Unit tests for aggregate provenance (the semimodule layer)."""

import pytest

from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial
from repro.provenance.semimodule import AggregateExpression, AggregateTerm


def annotation(*names):
    return Polynomial.from_terms([(1.0, list(names))])


class TestAggregateTerm:
    def test_flatten_scales_annotation(self):
        term = AggregateTerm(522.0, annotation("p1", "m1"))
        flattened = term.flatten()
        assert flattened.coefficient(Monomial.of("p1", "m1")) == pytest.approx(522.0)

    def test_flatten_with_constant_annotation(self):
        term = AggregateTerm(3.0, Polynomial.one())
        assert term.flatten().constant_term() == pytest.approx(3.0)


class TestAggregateExpression:
    def test_zero_flattens_to_zero(self):
        assert AggregateExpression.zero().flatten().is_zero()

    def test_of_single_term(self):
        expression = AggregateExpression.of(2.0, annotation("x"))
        assert len(expression) == 1
        assert expression.flatten().coefficient(Monomial.of("x")) == pytest.approx(2.0)

    def test_addition_concatenates_terms(self):
        a = AggregateExpression.of(1.0, annotation("x"))
        b = AggregateExpression.of(2.0, annotation("y"))
        combined = a + b
        assert len(combined) == 2
        assert combined.flatten() == a.flatten() + b.flatten()

    def test_sum_merges_identical_annotations_on_flatten(self):
        # Two tuples with the same annotation contribute a single monomial.
        a = AggregateExpression.of(2.0, annotation("p1", "m1"))
        b = AggregateExpression.of(3.0, annotation("p1", "m1"))
        flattened = (a + b).flatten()
        assert flattened.num_monomials() == 1
        assert flattened.coefficient(Monomial.of("p1", "m1")) == pytest.approx(5.0)

    def test_flatten_matches_the_addition_fold_exactly(self):
        expression = AggregateExpression(
            AggregateTerm(value, annotation(*names))
            for value, names in [
                (0.1, ["x"]), (0.2, ["y"]), (-0.1, ["x"]), (0.7, ["x", "y"]), (0.3, ["x"]),
            ]
        )
        folded = Polynomial.zero()
        for term in expression.terms():
            folded = folded + term.flatten()
        flattened = expression.flatten()
        assert [(m, c.hex()) for m, c in flattened._terms.items()] == [
            (m, c.hex()) for m, c in folded._terms.items()
        ]

    def test_scale_by_annotation(self):
        expression = AggregateExpression.of(2.0, annotation("x"))
        scaled = expression.scale_by_annotation(annotation("y"))
        assert scaled.flatten().coefficient(Monomial.of("x", "y")) == pytest.approx(2.0)

    def test_scale_by_value(self):
        expression = AggregateExpression.of(2.0, annotation("x"))
        assert expression.scale_by_value(3.0).flatten().coefficient(
            Monomial.of("x")
        ) == pytest.approx(6.0)

    def test_evaluate_matches_flatten_then_evaluate(self):
        expression = (
            AggregateExpression.of(522.0, annotation("p1", "m1"))
            + AggregateExpression.of(480.0, annotation("p1", "m3"))
        )
        valuation = {"p1": 0.4, "m1": 1.0, "m3": 1.25}
        assert expression.evaluate(valuation) == pytest.approx(
            expression.flatten().evaluate(valuation)
        )

    def test_example2_style_construction(self):
        # SUM(Dur * Price) where Price is parameterised: the per-tuple values
        # are Dur and the annotations carry the price * variables polynomial.
        rows = [
            (522.0, Polynomial.from_terms([(0.4, ["p1", "m1"])])),
            (480.0, Polynomial.from_terms([(0.5, ["p1", "m3"])])),
        ]
        expression = AggregateExpression.zero()
        for duration, price in rows:
            expression = expression + AggregateExpression.of(duration, price)
        flattened = expression.flatten()
        assert flattened.coefficient(Monomial.of("p1", "m1")) == pytest.approx(208.8)
        assert flattened.coefficient(Monomial.of("p1", "m3")) == pytest.approx(240.0)
