"""Property tests: the real set's row-aggregated delta kernel.

``CompiledProvenanceSet.evaluate_deltas`` answers sparse scenarios from
per-entry baseline sums plus an exact fix-up for monomials holding two or
more changed columns.  It must agree with

* the dense ``evaluate_matrix`` path on the same rows, and
* the per-monomial ratio kernel it replaced (``tests/oracles/``),

at rtol = atol = 1e-9, over widths 0–4, exponents up to 3, zero and
negative bases, zero new values, zero/subnormal bases (the exact-row
fallback) and overflowing updates.  And a scenario's row must not depend
on the batch around it: alone, in the whole batch or in any split of it,
the row is bit-identical — process sharding relies on that.
"""

from hypothesis import given, settings, strategies as st

import numpy as np

from oracles.ratio_delta_kernel import ratio_evaluate_deltas
from repro.batch import DeltaPlan
from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet

NAMES = ["a", "b", "c", "d", "e", "f"]

#: Ordinary magnitudes, signs and exact zeros.
ORDINARY = st.one_of(
    st.just(0.0), st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
)

#: Base values whose ratios are not finite: zero and subnormal.
NON_FINITE_RATIO = st.sampled_from([0.0, 5e-324, 1e-310])


@st.composite
def polynomials(draw):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        width = draw(st.integers(min_value=0, max_value=4))
        names = draw(
            st.lists(st.sampled_from(NAMES), min_size=width, max_size=width, unique=True)
        )
        monomial = Monomial(
            {name: draw(st.integers(min_value=1, max_value=3)) for name in names}
        )
        coefficient = draw(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
        )
        terms[monomial] = terms.get(monomial, 0.0) + coefficient
    return Polynomial(terms)


@st.composite
def compiled_sets(draw):
    provenance = ProvenanceSet()
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        provenance[(f"g{index}",)] = draw(polynomials())
    return resolve_backend("real").compile(provenance)


@st.composite
def cases(draw, repeated_columns=False):
    """``(compiled, base vector, plans)``; plan columns distinct unless asked."""
    compiled = draw(compiled_sets())
    width = len(compiled.variables)
    base = np.array(
        [
            draw(st.one_of(ORDINARY, NON_FINITE_RATIO) if draw(st.booleans()) else ORDINARY)
            for _ in range(width)
        ],
        dtype=np.float64,
    )
    plans = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if width == 0:
            columns = []
        elif repeated_columns:
            columns = draw(st.lists(st.integers(0, width - 1), max_size=6))
        else:
            columns = draw(
                st.lists(st.integers(0, width - 1), max_size=width, unique=True)
            )
        values = [draw(ORDINARY) for _ in columns]
        plans.append(
            (np.array(columns, dtype=np.intp), np.array(values, dtype=np.float64))
        )
    return compiled, base, plans


def _dense(compiled, base, plans):
    matrix = np.tile(base, (len(plans), 1))
    for row, (columns, values) in zip(matrix, plans):
        row[columns] = values
    return compiled.evaluate_matrix(matrix)


@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_matches_dense_and_oracle(case):
    compiled, base, plans = case
    plan = DeltaPlan.from_pairs(base, plans)
    got = compiled.evaluate_deltas(plan)
    np.testing.assert_allclose(got, _dense(compiled, base, plans), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        got, ratio_evaluate_deltas(compiled, plan), rtol=1e-9, atol=1e-9
    )


@settings(max_examples=200, deadline=None)
@given(case=cases(repeated_columns=True))
def test_repeated_columns_take_the_last_value(case):
    compiled, base, plans = case
    np.testing.assert_allclose(
        compiled.evaluate_deltas(DeltaPlan.from_pairs(base, plans)),
        _dense(compiled, base, plans),
        rtol=1e-9,
        atol=1e-9,
    )


@settings(max_examples=200, deadline=None)
@given(case=cases(repeated_columns=True), data=st.data())
def test_rows_do_not_depend_on_the_batch(case, data):
    compiled, base, plans = case
    whole = compiled.evaluate_deltas(DeltaPlan.from_pairs(base, plans))
    for index, pair in enumerate(plans):
        single = DeltaPlan.from_pairs(base, [pair])
        assert np.array_equal(compiled.evaluate_deltas(single)[0], whole[index])
    cuts = sorted(
        data.draw(st.lists(st.integers(0, len(plans)), max_size=3), label="cuts")
    )
    bounds = [0] + cuts + [len(plans)]
    pieces = [
        compiled.evaluate_deltas(DeltaPlan.from_pairs(base, plans[start:end]))
        for start, end in zip(bounds[:-1], bounds[1:])
    ]
    assert np.array_equal(np.concatenate(pieces, axis=0), whole)


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(min_value=1, max_value=4),
    exponent=st.integers(min_value=1, max_value=3),
    ratio=st.floats(min_value=2.0, max_value=8.0),
)
def test_overflowing_updates_fall_back_to_exact_rows(width, exponent, ratio):
    """A ratio update past the float range re-evaluates its row exactly."""
    names = NAMES[:width]
    provenance = ProvenanceSet(
        {
            ("huge",): Polynomial(
                {Monomial({name: exponent for name in names}): 1e308}
            ),
            ("small",): Polynomial({Monomial.of(NAMES[-1]): 2.0}),
        }
    )
    compiled = resolve_backend("real").compile(provenance)
    base = np.ones(len(compiled.variables))
    changed = np.arange(width, dtype=np.intp)
    plans = [
        (changed, np.full(width, ratio)),
        (np.array([len(compiled.variables) - 1], dtype=np.intp), np.array([0.5])),
    ]
    with np.errstate(over="ignore"):
        expected = _dense(compiled, base, plans)
        plan = DeltaPlan.from_pairs(base, plans)
        oracle = ratio_evaluate_deltas(compiled, plan)
        got = compiled.evaluate_deltas(plan)
    assert np.isinf(got[0, 0])
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got, oracle, rtol=1e-9, atol=1e-9)
