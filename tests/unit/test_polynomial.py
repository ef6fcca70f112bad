"""Unit tests for provenance polynomials and provenance sets."""

import pytest

from repro.exceptions import (
    InvalidPolynomialError,
    MissingValuationError,
)
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet


def poly(**coeffs):
    """Helper: poly(x=2, y=3) == 2*x + 3*y."""
    return Polynomial({Monomial.of(name): value for name, value in coeffs.items()})


class TestConstruction:
    def test_zero_and_one(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.one().constant_term() == 1.0
        assert Polynomial.one().num_monomials() == 1

    def test_constant(self):
        assert Polynomial.constant(3.5).constant_term() == pytest.approx(3.5)

    def test_variable(self):
        p = Polynomial.variable("x", 2.0)
        assert p.coefficient(Monomial.of("x")) == pytest.approx(2.0)

    def test_from_terms_merges_duplicates(self):
        p = Polynomial.from_terms([(2.0, ["x"]), (3.0, ["x"]), (1.0, ["y"])])
        assert p.coefficient(Monomial.of("x")) == pytest.approx(5.0)
        assert p.num_monomials() == 2

    def test_zero_coefficients_dropped(self):
        p = Polynomial({Monomial.of("x"): 0.0, Monomial.of("y"): 1.0})
        assert p.num_monomials() == 1

    def test_opposite_terms_cancel(self):
        p = Polynomial({Monomial.of("x"): 2.0}) + Polynomial({Monomial.of("x"): -2.0})
        assert p.is_zero()

    def test_rejects_non_monomial_keys(self):
        with pytest.raises(InvalidPolynomialError):
            Polynomial({"x": 1.0})

    def test_rejects_non_numeric_coefficients(self):
        with pytest.raises(InvalidPolynomialError):
            Polynomial({Monomial.of("x"): "abc"})


class TestInspection:
    def test_num_monomials_is_provenance_size(self):
        p = Polynomial.from_terms([(1, ["p1", "m1"]), (2, ["p1", "m3"]), (3, ["v", "m1"])])
        assert p.num_monomials() == 3

    def test_variables(self):
        p = Polynomial.from_terms([(1, ["p1", "m1"]), (2, ["v"])])
        assert p.variables() == frozenset({"p1", "m1", "v"})

    def test_degree(self):
        p = Polynomial({Monomial({"x": 3}): 1.0, Monomial.of("y"): 2.0})
        assert p.degree() == 3
        assert Polynomial.zero().degree() == 0

    def test_terms_sorted_canonically(self):
        p = Polynomial.from_terms([(1, ["z"]), (2, ["a"])])
        names = [m.to_text() for m, _ in p.terms()]
        assert names == sorted(names)

    def test_contains_and_len(self):
        p = poly(x=1, y=2)
        assert Monomial.of("x") in p
        assert len(p) == 2


class TestAlgebra:
    def test_addition_merges(self):
        assert (poly(x=2) + poly(x=3, y=1)) == poly(x=5, y=1)

    def test_addition_with_scalar(self):
        p = poly(x=2) + 5
        assert p.constant_term() == pytest.approx(5.0)

    def test_subtraction(self):
        assert (poly(x=5) - poly(x=2)) == poly(x=3)

    def test_negation(self):
        assert (-poly(x=2)).coefficient(Monomial.of("x")) == pytest.approx(-2.0)

    def test_scalar_multiplication(self):
        assert (poly(x=2) * 3) == poly(x=6)
        assert (3 * poly(x=2)) == poly(x=6)

    def test_polynomial_multiplication(self):
        p = Polynomial.variable("x") + Polynomial.variable("y")
        q = Polynomial.variable("x")
        product = p * q
        assert product.coefficient(Monomial({"x": 2})) == pytest.approx(1.0)
        assert product.coefficient(Monomial.of("x", "y")) == pytest.approx(1.0)

    def test_multiplication_distributes_over_addition(self):
        a, b, c = poly(x=2), poly(y=3), poly(z=4)
        assert (a * (b + c)) == (a * b + a * c)

    def test_zero_annihilates(self):
        assert (poly(x=2) * Polynomial.zero()).is_zero()

    def test_one_is_identity(self):
        p = poly(x=2, y=1)
        assert p * Polynomial.one() == p

    def test_unit_factor_returns_the_other_operand(self):
        p = poly(x=2, y=1)
        assert p * Polynomial.one() is p
        assert Polynomial.one() * p is p

    @pytest.mark.parametrize("factor", [1.0 + 1e-15, 2.0])
    def test_non_unit_constant_goes_through_the_product(self, factor):
        p = poly(x=2, y=1)
        for product in (p * Polynomial.constant(factor), Polynomial.constant(factor) * p):
            assert product is not p
            assert product.coefficient(Monomial.of("x")) == 2.0 * factor
            assert product.coefficient(Monomial.of("y")) == 1.0 * factor


class TestNarySum:
    def test_empty_sum_is_zero(self):
        assert Polynomial.sum([]).is_zero()

    def test_cancelled_term_is_dropped_and_readded_at_the_end(self):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        total = Polynomial.sum([x + y, -x, x * 2.0])
        assert total == (x + y) + (-x) + x * 2.0
        assert [m.to_text() for m, _ in total._terms.items()] == ["y", "x"]

    def test_running_coefficient_within_epsilon_is_dropped(self):
        x = Polynomial.variable("x")
        total = Polynomial.sum([x, Polynomial.variable("x", -1.0 + 5e-13)])
        assert total.is_zero()

    def test_rejects_non_polynomials(self):
        with pytest.raises(InvalidPolynomialError):
            Polynomial.sum([poly(x=1), 2.0])


class TestRenameSubstituteEvaluate:
    def test_rename_merges_monomials(self):
        p = Polynomial.from_terms([(2, ["b1", "m1"]), (3, ["b2", "m1"])])
        merged = p.rename({"b1": "SB", "b2": "SB"})
        assert merged.num_monomials() == 1
        assert merged.coefficient(Monomial.of("SB", "m1")) == pytest.approx(5.0)

    def test_rename_keeps_distinct_residues_apart(self):
        p = Polynomial.from_terms([(2, ["b1", "m1"]), (3, ["b2", "m3"])])
        merged = p.rename({"b1": "SB", "b2": "SB"})
        assert merged.num_monomials() == 2

    def test_substitute_partial(self):
        p = Polynomial.from_terms([(2, ["x", "y"]), (3, ["y"])])
        specialised = p.substitute({"x": 2.0})
        assert specialised.coefficient(Monomial.of("y")) == pytest.approx(7.0)
        assert specialised.variables() == frozenset({"y"})

    def test_substitute_everything_matches_evaluate(self):
        p = Polynomial.from_terms([(2, ["x", "y"]), (3, ["y"]), (1, [])])
        valuation = {"x": 1.5, "y": 2.0}
        assert p.substitute(valuation).constant_term() == pytest.approx(
            p.evaluate(valuation)
        )

    def test_evaluate(self):
        p = Polynomial.from_terms([(208.8, ["p1", "m1"]), (240.0, ["p1", "m3"])])
        value = p.evaluate({"p1": 1.0, "m1": 1.0, "m3": 0.8})
        assert value == pytest.approx(208.8 + 240.0 * 0.8)

    def test_evaluate_missing_variable_raises(self):
        p = poly(x=1)
        with pytest.raises(MissingValuationError) as excinfo:
            p.evaluate({})
        assert "x" in str(excinfo.value)

    def test_restrict_variables(self):
        p = Polynomial.from_terms([(1, ["x", "y"]), (2, ["x"]), (3, [])])
        restricted = p.restrict_variables({"x"})
        assert restricted.num_monomials() == 2  # 2*x and the constant

    def test_almost_equal(self):
        a = poly(x=1.0)
        b = poly(x=1.0 + 1e-12)
        assert a.almost_equal(b)
        assert not a.almost_equal(poly(x=1.1))

    def test_to_text(self):
        p = Polynomial.from_terms([(208.8, ["p1", "m1"]), (240, ["p1", "m3"])])
        text = p.to_text()
        assert "208.8*m1*p1" in text
        assert "240*m3*p1" in text


class TestProvenanceSet:
    def test_set_and_get_with_scalar_keys(self):
        provenance = ProvenanceSet()
        provenance["10001"] = poly(x=1)
        assert provenance[("10001",)] == poly(x=1)
        assert "10001" in provenance

    def test_add_sums_into_existing_key(self):
        provenance = ProvenanceSet()
        provenance.add("k", poly(x=1))
        provenance.add("k", poly(x=2))
        assert provenance[("k",)] == poly(x=3)

    def test_rejects_non_polynomial_values(self):
        provenance = ProvenanceSet()
        with pytest.raises(InvalidPolynomialError):
            provenance["k"] = 42

    def test_size_and_variables(self):
        provenance = ProvenanceSet()
        provenance["a"] = Polynomial.from_terms([(1, ["x", "m1"]), (2, ["y", "m1"])])
        provenance["b"] = Polynomial.from_terms([(3, ["x", "m2"])])
        assert provenance.size() == 3
        assert provenance.num_variables() == 4

    def test_rename_applies_to_every_group(self):
        provenance = ProvenanceSet()
        provenance["a"] = Polynomial.from_terms([(1, ["x"]), (2, ["y"])])
        provenance["b"] = Polynomial.from_terms([(3, ["x"])])
        renamed = provenance.rename({"x": "g", "y": "g"})
        assert renamed[("a",)].num_monomials() == 1
        assert renamed[("b",)].coefficient(Monomial.of("g")) == pytest.approx(3.0)

    def test_monomials_never_merge_across_groups(self):
        provenance = ProvenanceSet()
        provenance["a"] = Polynomial.from_terms([(1, ["x"])])
        provenance["b"] = Polynomial.from_terms([(1, ["y"])])
        renamed = provenance.rename({"x": "g", "y": "g"})
        assert renamed.size() == 2

    def test_evaluate_per_group(self):
        provenance = ProvenanceSet()
        provenance["a"] = poly(x=2)
        provenance["b"] = poly(x=3)
        results = provenance.evaluate({"x": 2.0})
        assert results[("a",)] == pytest.approx(4.0)
        assert results[("b",)] == pytest.approx(6.0)

    def test_substitute(self):
        provenance = ProvenanceSet()
        provenance["a"] = Polynomial.from_terms([(2, ["x", "y"])])
        specialised = provenance.substitute({"x": 3.0})
        assert specialised[("a",)].coefficient(Monomial.of("y")) == pytest.approx(6.0)

    def test_map(self):
        provenance = ProvenanceSet({("a",): poly(x=1)})
        doubled = provenance.map(lambda p: p * 2)
        assert doubled[("a",)] == poly(x=2)

    def test_equality_and_almost_equal(self):
        a = ProvenanceSet({("k",): poly(x=1)})
        b = ProvenanceSet({("k",): poly(x=1.0 + 1e-12)})
        assert a.almost_equal(b)
        assert a != ProvenanceSet({("k",): poly(x=2)})

    def test_get_default(self):
        provenance = ProvenanceSet()
        assert provenance.get("missing") is None


class TestProvenanceSetCaches:
    def test_variables_cached_and_invalidated_on_setitem(self):
        provenance = ProvenanceSet({("a",): poly(x=1)})
        first = provenance.variables()
        assert provenance.variables() is first  # cached object reused
        provenance[("b",)] = poly(y=2)
        assert provenance.variables() == frozenset({"x", "y"})

    def test_variables_invalidated_on_add(self):
        provenance = ProvenanceSet({("a",): poly(x=1)})
        assert provenance.variables() == frozenset({"x"})
        provenance.add(("a",), poly(z=1))
        assert provenance.variables() == frozenset({"x", "z"})

    def test_size_cached_and_invalidated(self):
        provenance = ProvenanceSet({("a",): poly(x=1)})
        assert provenance.size() == 1
        provenance[("b",)] = poly(y=2)
        assert provenance.size() == 2
        provenance.add(("a",), poly(z=1))
        assert provenance.size() == 3

    def test_fingerprint_stable_for_equal_content(self):
        a = ProvenanceSet({("k",): poly(x=1, y=2)})
        b = ProvenanceSet({("k",): poly(x=1, y=2)})
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_changes_with_content(self):
        provenance = ProvenanceSet({("k",): poly(x=1)})
        before = provenance.fingerprint()
        provenance[("k2",)] = poly(y=3)
        assert provenance.fingerprint() != before

    def test_fingerprint_distinguishes_coefficients(self):
        a = ProvenanceSet({("k",): poly(x=1)})
        b = ProvenanceSet({("k",): poly(x=2)})
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_ignores_insertion_order(self):
        a = ProvenanceSet()
        a[("k1",)] = poly(x=1)
        a[("k2",)] = poly(y=2)
        b = ProvenanceSet()
        b[("k2",)] = poly(y=2)
        b[("k1",)] = poly(x=1)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_is_exact(self):
        a = ProvenanceSet({("k",): poly(x=1.0)})
        b = ProvenanceSet({("k",): poly(x=1.0 + 1e-12)})
        assert a != b
        assert a.fingerprint() != b.fingerprint()

    def test_equal_numeric_keys_share_a_fingerprint(self):
        sets = [
            ProvenanceSet({key: poly(x=2.0)}) for key in [(1,), (1.0,), (True,)]
        ]
        assert sets[0] == sets[1] == sets[2]
        assert len({s.fingerprint() for s in sets}) == 1
        other = ProvenanceSet({(2,): poly(x=2.0)})
        assert other.fingerprint() != sets[0].fingerprint()

    def test_fingerprint_is_stable_across_processes(self):
        import subprocess
        import sys
        from pathlib import Path

        import repro

        code = (
            "from repro.provenance.polynomial import Polynomial, ProvenanceSet\n"
            "from repro.provenance.monomial import Monomial\n"
            "s = ProvenanceSet()\n"
            "s[('z', 1)] = Polynomial({Monomial.of('x', 'y'): 2.5})\n"
            "s[('a', 2)] = Polynomial({Monomial.unit(): 1.0, Monomial.of('w'): 3.0})\n"
            "print(s.fingerprint())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        prints = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
            for seed in ("1", "2")
        }
        assert len(prints) == 1

    def test_fingerprint_distinguishes_key_boundaries(self):
        a = ProvenanceSet({("ab",): poly(x=1)})
        b = ProvenanceSet({("a",): poly(x=1), ("b",): poly(x=1)})
        assert a.fingerprint() != b.fingerprint()
