"""Property-based tests of the exact provenance fingerprint (hypothesis).

``ProvenanceSet.fingerprint`` keys the batch evaluator's compile cache,
the compressor's plan cache and compiled stores, so it must separate
exactly the sets ``==`` separates: insertion order of keys and terms does
not matter, and a coefficient one ulp away does.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet

VARIABLE_NAMES = ["x", "y", "z", "w"]
KEYS = [("g1",), ("g2",), ("g1", 2), (3,)]

monomials = st.dictionaries(
    st.sampled_from(VARIABLE_NAMES), st.integers(1, 3), max_size=3
).map(Monomial)
coefficients = st.floats(min_value=0.001, max_value=100.0) | st.floats(
    min_value=-100.0, max_value=-0.001
)
provenance_terms = st.dictionaries(
    st.sampled_from(KEYS),
    st.dictionaries(monomials, coefficients, max_size=5),
    max_size=len(KEYS),
)


def _build(terms_by_key):
    provenance = ProvenanceSet()
    for key, terms in terms_by_key.items():
        provenance[key] = Polynomial(dict(terms))
    return provenance


@settings(max_examples=80, deadline=None)
@given(provenance_terms, st.randoms(use_true_random=False))
def test_insertion_order_does_not_change_the_fingerprint(terms_by_key, rnd):
    provenance = _build(terms_by_key)
    keys = list(terms_by_key)
    rnd.shuffle(keys)
    shuffled = {}
    for key in keys:
        items = list(terms_by_key[key].items())
        rnd.shuffle(items)
        shuffled[key] = items
    permuted = _build(shuffled)
    assert permuted == provenance
    assert permuted.fingerprint() == provenance.fingerprint()


@settings(max_examples=80, deadline=None)
@given(provenance_terms, st.data())
def test_a_one_ulp_nudge_changes_the_fingerprint(terms_by_key, data):
    provenance = _build(terms_by_key)
    candidates = [key for key, terms in terms_by_key.items() if terms]
    if not candidates:
        return
    key = data.draw(st.sampled_from(candidates))
    monomial = data.draw(st.sampled_from(sorted(terms_by_key[key], key=repr)))
    nudged_terms = {k: dict(v) for k, v in terms_by_key.items()}
    value = nudged_terms[key][monomial]
    nudged_terms[key][monomial] = math.nextafter(value, math.copysign(math.inf, value))
    nudged = _build(nudged_terms)
    assert nudged != provenance
    assert nudged.fingerprint() != provenance.fingerprint()


@settings(max_examples=120, deadline=None)
@given(provenance_terms, provenance_terms)
def test_fingerprint_equality_is_set_equality(first, second):
    a, b = _build(first), _build(second)
    assert (a.fingerprint() == b.fingerprint()) == (a == b)
