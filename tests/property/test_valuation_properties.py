"""Property-based tests: the compiled evaluators agree with naive evaluation."""

from hypothesis import given, settings, strategies as st

import pytest

from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.semiring import evaluate_in_semiring
from repro.provenance.valuation import Valuation

VARIABLE_NAMES = ["a", "b", "c", "d", "e", "f"]


@st.composite
def polynomials(draw, max_terms=8):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exponents = draw(
            st.dictionaries(
                st.sampled_from(VARIABLE_NAMES),
                st.integers(min_value=1, max_value=3),
                max_size=3,
            )
        )
        coefficient = draw(
            st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
        )
        monomial = Monomial(exponents)
        terms[monomial] = terms.get(monomial, 0.0) + coefficient
    return Polynomial(terms)


@st.composite
def provenance_sets(draw, max_groups=4):
    result = ProvenanceSet()
    for index in range(draw(st.integers(min_value=1, max_value=max_groups))):
        result[(f"g{index}",)] = draw(polynomials())
    return result


@st.composite
def valuations(draw):
    return {
        name: draw(
            st.floats(
                min_value=-2.5, max_value=2.5, allow_nan=False, allow_infinity=False
            )
        )
        for name in VARIABLE_NAMES
    }


def _reference(provenance, backend, valuation):
    return {
        key: evaluate_in_semiring(
            polynomial,
            backend.semiring,
            valuation,
            coefficient_embedding=backend.embed_coefficient,
        )
        for key, polynomial in provenance.items()
    }


@pytest.mark.parametrize("name", ["real", "tropical", "bool"])
class TestCompiledNumericSet:
    @settings(max_examples=40)
    @given(provenance=provenance_sets(), values=valuations())
    def test_matches_reference_evaluation(self, name, provenance, values):
        backend = resolve_backend(name)
        valuation = Valuation(values, semiring=name)
        naive = _reference(provenance, backend, valuation)
        fast = backend.compile(provenance).evaluate(valuation)
        assert set(fast) == set(naive)
        for key in naive:
            assert fast[key] == pytest.approx(naive[key], rel=1e-6, abs=1e-6)

    @given(provenance=provenance_sets())
    def test_size_preserved(self, name, provenance):
        assert resolve_backend(name).compile(provenance).size() == provenance.size()

    @settings(max_examples=40)
    @given(provenance=provenance_sets(), values=valuations())
    def test_vector_and_mapping_agree(self, name, provenance, values):
        compiled = resolve_backend(name).compile(provenance)
        valuation = Valuation(values, semiring=name)
        vector = compiled.evaluate_vector(valuation)
        mapping = compiled.evaluate(valuation)
        for index, key in enumerate(compiled.keys):
            assert vector[index] == pytest.approx(
                float(mapping[key]), rel=1e-9, abs=1e-9
            )
