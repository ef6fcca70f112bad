"""Property-based tests of the polynomial algebra (hypothesis).

The provenance polynomial layer must behave as a commutative semiring (in
fact a commutative ring once negative coefficients are allowed) and its
rename operation must commute with evaluation.  These are the invariants
everything above (compression, valuation, the engine) relies on.
"""

import operator
from functools import reduce

from hypothesis import given, settings, strategies as st

import pytest

from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial

VARIABLE_NAMES = ["x", "y", "z", "w", "v"]


@st.composite
def monomials(draw, max_degree=3):
    variables = draw(
        st.dictionaries(
            st.sampled_from(VARIABLE_NAMES),
            st.integers(min_value=1, max_value=max_degree),
            max_size=3,
        )
    )
    return Monomial(variables)


@st.composite
def polynomials(draw, max_terms=6):
    terms = draw(
        st.dictionaries(
            monomials(),
            st.floats(
                min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
            ),
            max_size=max_terms,
        )
    )
    return Polynomial(terms)


@st.composite
def valuations(draw):
    return {
        name: draw(
            st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)
        )
        for name in VARIABLE_NAMES
    }


@st.composite
def renamings(draw):
    targets = VARIABLE_NAMES + ["g1", "g2"]
    return {
        name: draw(st.sampled_from(targets))
        for name in draw(st.sets(st.sampled_from(VARIABLE_NAMES), max_size=5))
    }


def fold(polynomials_):
    """The reference for ``Polynomial.sum``: ``+`` folded from zero."""
    return reduce(operator.add, polynomials_, Polynomial.zero())


def layout(polynomial):
    """Terms in insertion order, coefficients as exact ``float.hex()`` strings."""
    return [(monomial, coefficient.hex()) for monomial, coefficient in polynomial._terms.items()]


@st.composite
def cancelling_sequences(draw):
    """Summand lists whose running coefficients cancel to ``|c| <= 1e-12`` mid-way.

    After some summands a polynomial is appended that negates chosen running
    coefficients up to a residue at or below the drop threshold, so the
    per-step drop fires and later summands may bring the monomial back.
    """
    sequence = []
    running = Polynomial.zero()
    for polynomial in draw(st.lists(polynomials(), min_size=1, max_size=6)):
        sequence.append(polynomial)
        running = running + polynomial
        if running.is_zero() or not draw(st.booleans()):
            continue
        residue = draw(st.sampled_from([0.0, 4e-13, -4e-13, 1e-12, -1e-12]))
        cancelled = draw(
            st.sets(st.sampled_from([m for m, _ in running.terms()]), min_size=1)
        )
        canceller = Polynomial({m: residue - running.coefficient(m) for m in cancelled})
        sequence.append(canceller)
        running = running + canceller
    return sequence


class TestNarySum:
    @given(st.lists(polynomials(), max_size=8))
    def test_sum_matches_fold_term_for_term(self, sequence):
        assert layout(Polynomial.sum(sequence)) == layout(fold(sequence))

    @given(cancelling_sequences())
    def test_sum_matches_fold_through_cancellation(self, sequence):
        assert layout(Polynomial.sum(sequence)) == layout(fold(sequence))


class TestRingAxioms:
    @given(polynomials(), polynomials())
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials(), polynomials())
    def test_addition_associates(self, p, q, r):
        assert ((p + q) + r).almost_equal(p + (q + r), tolerance=1e-6)

    @given(polynomials())
    def test_zero_is_additive_identity(self, p):
        assert p + Polynomial.zero() == p

    @given(polynomials())
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero()

    @given(polynomials(), polynomials())
    def test_multiplication_commutes(self, p, q):
        assert (p * q).almost_equal(q * p, tolerance=1e-6)

    @settings(max_examples=30)
    @given(polynomials(max_terms=4), polynomials(max_terms=4), polynomials(max_terms=4))
    def test_multiplication_associates(self, p, q, r):
        assert ((p * q) * r).almost_equal(p * (q * r), tolerance=1e-4)

    @given(polynomials())
    def test_one_is_multiplicative_identity(self, p):
        assert p * Polynomial.one() == p

    @given(polynomials())
    def test_zero_annihilates(self, p):
        assert (p * Polynomial.zero()).is_zero()

    @settings(max_examples=40)
    @given(polynomials(max_terms=4), polynomials(max_terms=4), polynomials(max_terms=4))
    def test_distributivity(self, p, q, r):
        assert (p * (q + r)).almost_equal(p * q + p * r, tolerance=1e-4)


class TestEvaluationHomomorphism:
    @given(polynomials(), polynomials(), valuations())
    def test_evaluation_of_sum(self, p, q, valuation):
        left = (p + q).evaluate(valuation)
        right = p.evaluate(valuation) + q.evaluate(valuation)
        assert left == pytest.approx(right, rel=1e-6, abs=1e-6)

    @settings(max_examples=40)
    @given(polynomials(max_terms=4), polynomials(max_terms=4), valuations())
    def test_evaluation_of_product(self, p, q, valuation):
        left = (p * q).evaluate(valuation)
        right = p.evaluate(valuation) * q.evaluate(valuation)
        assert left == pytest.approx(right, rel=1e-5, abs=1e-5)

    @given(polynomials(), valuations())
    def test_substitute_all_matches_evaluate(self, p, valuation):
        assert p.substitute(valuation).constant_term() == pytest.approx(
            p.evaluate(valuation), rel=1e-6, abs=1e-6
        )

    @given(polynomials(), valuations())
    def test_scaling_scales_evaluation(self, p, valuation):
        assert (p * 3.0).evaluate(valuation) == pytest.approx(
            3.0 * p.evaluate(valuation), rel=1e-6, abs=1e-6
        )


class TestRenameInvariants:
    @given(polynomials(), renamings())
    def test_rename_never_increases_size(self, p, renaming):
        assert p.rename(renaming).num_monomials() <= p.num_monomials()

    @given(polynomials(), renamings(), valuations())
    def test_rename_commutes_with_evaluation(self, p, renaming, valuation):
        """Evaluating the renamed polynomial with the target values equals
        evaluating the original with each variable reading its target's value."""
        target_valuation = dict(valuation)
        target_valuation.update({"g1": 1.7, "g2": -0.3})
        pulled_back = {
            name: target_valuation[renaming.get(name, name)]
            for name in VARIABLE_NAMES
        }
        left = p.rename(renaming).evaluate(target_valuation)
        right = p.evaluate(pulled_back)
        assert left == pytest.approx(right, rel=1e-6, abs=1e-6)

    @given(
        polynomials(),
        st.dictionaries(
            st.sampled_from(VARIABLE_NAMES), st.sampled_from(["g1", "g2"]), max_size=5
        ),
    )
    def test_rename_into_fresh_targets_is_idempotent(self, p, renaming):
        """Renaming into names outside the original variable set is idempotent."""
        renamed = p.rename(renaming)
        assert renamed.rename(renaming) == renamed

    @given(polynomials())
    def test_identity_rename_is_identity(self, p):
        assert p.rename({}) == p
        assert p.rename({name: name for name in VARIABLE_NAMES}) == p
