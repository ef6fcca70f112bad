"""Property test: compiling from the incidence rows equals the per-monomial loop.

The numeric backends build their width-groups by slicing the provenance
set's id-encoded incidence rows; ``tests/oracles/polynomial_compile.py``
keeps the loop over every polynomial's terms they replaced.  Parity is
exact: the same keys and variables, the same row constants and, per
width-group, ``array_equal`` coefficient, variable-index, exponent and
segment arrays — so every reduction over them is bit-identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.polynomial_compile import compile_by_polynomial

from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet

VARIABLES = ("a", "b", "c", "x", "y", "z")

coefficients = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -1.0, 0.5, 2.0, 1e-13]),
)
# Empty dicts are unit monomials; exponents reach above 1.
monomials = st.dictionaries(
    st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=3), max_size=4
).map(Monomial)
# Empty term lists (and cancelled coefficients) give empty polynomials.
polynomials = st.lists(st.tuples(monomials, coefficients), max_size=8).map(
    lambda terms: Polynomial(dict(terms))
)
provenance_sets = st.lists(polynomials, min_size=1, max_size=5).map(
    lambda polys: ProvenanceSet({(f"g{i}",): p for i, p in enumerate(polys)})
)

GROUP_ARRAYS = (
    "coefficients",
    "indices",
    "exponents",
    "segment_starts",
    "segment_rows",
)


def assert_same_compiled(actual, expected) -> None:
    assert actual.keys == expected.keys
    assert actual.variables == expected.variables
    assert actual._index == expected._index
    assert np.array_equal(actual._constant, expected._constant)
    assert actual._constant.dtype == expected._constant.dtype
    assert len(actual._groups) == len(expected._groups)
    for mine, theirs in zip(actual._groups, expected._groups):
        for name in GROUP_ARRAYS:
            ours, reference = getattr(mine, name), getattr(theirs, name)
            assert ours.dtype == reference.dtype, name
            assert ours.shape == reference.shape, name
            assert np.array_equal(ours, reference), name
        assert mine.has_higher_powers == theirs.has_higher_powers
    assert actual.size() == expected.size()
    assert actual.source_fingerprint == expected.source_fingerprint


@pytest.mark.parametrize("semiring", ["real", "tropical", "bool"])
@settings(max_examples=150, deadline=None)
@given(provenance=provenance_sets)
def test_compile_matches_the_polynomial_loop(semiring, provenance):
    compiled = resolve_backend(semiring).compile(provenance)
    assert_same_compiled(
        compiled, compile_by_polynomial(type(compiled), provenance)
    )


@pytest.mark.parametrize("semiring", ["real", "tropical", "bool"])
def test_unit_and_empty_polynomials(semiring):
    provenance = ProvenanceSet()
    provenance[("constant",)] = Polynomial({Monomial.unit(): -2.5})
    provenance[("empty",)] = Polynomial.zero()
    provenance[("mixed",)] = Polynomial(
        {Monomial.unit(): 3.0, Monomial({"x": 2, "y": 1}): 4.0, Monomial.of("x"): 1.0}
    )
    compiled = resolve_backend(semiring).compile(provenance)
    expected = compile_by_polynomial(type(compiled), provenance)
    assert_same_compiled(compiled, expected)
    assert [group.indices.shape[1] for group in compiled._groups] == [1, 2]
