"""Property tests: sparse delta evaluation equals the dense matrix path.

The sparse pipeline (baseline-once + deltas through the inverted
variable→monomial index) must be indistinguishable from the dense
``scenarios × variables`` pipeline for every registered backend: element-wise
equal within fp tolerance for the real semiring (whose deltas are additive
corrections), exactly equal for the idempotent tropical/bool kernels (which
recompute the same contributions), and trivially equal for the set-valued
backends (whose sparse mode degrades to the same generic loop).  Scenario
programs deliberately include ``set 0`` / ``scale 0`` operations and bases
containing zeros, so the real kernel's zero-crossing fallback is on the
tested path.  The batched tropical/bool kernel is also pinned byte for byte
to the per-scenario loop it replaced
(``tests/oracles/segment_delta_kernel.py``).
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest

from oracles.segment_delta_kernel import segment_evaluate_deltas

from repro.batch import BatchEvaluator, DeltaPlan
from repro.engine.scenario import Scenario
from repro.provenance.backends import numeric, resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.valuation import Valuation

VARIABLE_NAMES = ["a", "b", "c", "d", "e", "f"]
#: Selectors deliberately include names outside the provenance universe.
SELECTOR_POOL = VARIABLE_NAMES + ["ghost1", "ghost2"]


#: Wide enough for monomials of 8+ factors, where ``np.sum`` turns pairwise.
WIDE_NAMES = [f"w{i}" for i in range(10)]


@st.composite
def polynomials(draw, max_terms=6, names=VARIABLE_NAMES, max_width=3):
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        exponents = draw(
            st.dictionaries(
                st.sampled_from(names),
                st.integers(min_value=1, max_value=3),
                max_size=max_width,
            )
        )
        coefficient = draw(
            st.floats(min_value=-20, max_value=20, allow_nan=False, allow_infinity=False)
        )
        monomial = Monomial(exponents)
        terms[monomial] = terms.get(monomial, 0.0) + coefficient
    return Polynomial(terms)


@st.composite
def provenance_sets(draw, max_groups=3):
    result = ProvenanceSet()
    for index in range(draw(st.integers(min_value=1, max_value=max_groups))):
        result[(f"g{index}",)] = draw(polynomials())
    return result


@st.composite
def scenarios(draw, max_operations=3):
    scenario = Scenario(f"s{draw(st.integers(min_value=0, max_value=10**6))}")
    for _ in range(draw(st.integers(min_value=0, max_value=max_operations))):
        selector = draw(
            st.one_of(
                st.sampled_from(SELECTOR_POOL),
                st.lists(st.sampled_from(SELECTOR_POOL), max_size=2),
            )
        )
        # Zero amounts are drawn often: they are the zero-crossing updates
        # the real kernel's ratio path must hand off to its fallback.
        amount = draw(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            )
        )
        if draw(st.booleans()):
            scenario = scenario.scale(selector, amount)
        else:
            scenario = scenario.set_value(selector, amount)
    return scenario


@st.composite
def base_valuations(draw):
    return Valuation(
        {
            name: draw(
                st.one_of(
                    st.just(0.0),
                    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                )
            )
            for name in draw(
                st.lists(st.sampled_from(VARIABLE_NAMES), unique=True)
            )
        }
    )


def _reports(provenance, scenario_list, base, semiring):
    evaluator = BatchEvaluator()
    dense = evaluator.evaluate(
        provenance, scenario_list, base_valuation=base,
        semiring=semiring, mode="dense",
    )
    sparse = evaluator.evaluate(
        provenance, scenario_list, base_valuation=base,
        semiring=semiring, mode="sparse",
    )
    return dense, sparse


@settings(max_examples=50, deadline=None)
@given(
    provenance=provenance_sets(),
    scenario_list=st.lists(scenarios(), min_size=1, max_size=5),
    base=base_valuations(),
)
def test_real_sparse_matches_dense_within_tolerance(
    provenance, scenario_list, base
):
    dense, sparse = _reports(provenance, scenario_list, base, semiring="real")
    assert dense.mode == "dense" and sparse.mode == "sparse"
    np.testing.assert_allclose(
        sparse.baseline, dense.baseline, rtol=1e-9, atol=1e-9
    )
    np.testing.assert_allclose(
        sparse.full_results, dense.full_results, rtol=1e-9, atol=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(
    provenance=provenance_sets(),
    scenario_list=st.lists(scenarios(), min_size=1, max_size=5),
    base=base_valuations(),
)
@pytest.mark.parametrize("semiring", ["tropical", "bool"])
def test_idempotent_sparse_matches_dense_exactly(
    semiring, provenance, scenario_list, base
):
    dense, sparse = _reports(provenance, scenario_list, base, semiring=semiring)
    assert np.array_equal(sparse.baseline, dense.baseline)
    assert np.array_equal(sparse.full_results, dense.full_results)


@settings(max_examples=20, deadline=None)
@given(
    provenance=provenance_sets(max_groups=2),
    scenario_list=st.lists(scenarios(max_operations=2), min_size=1, max_size=3),
)
@pytest.mark.parametrize("semiring", ["why", "lineage"])
def test_generic_backends_are_mode_independent(
    semiring, provenance, scenario_list
):
    evaluator = BatchEvaluator()
    reports = [
        evaluator.evaluate(
            provenance, scenario_list, semiring=semiring, mode=mode
        )
        for mode in ("dense", "sparse", "auto")
    ]
    assert all(report.mode == "generic" for report in reports)
    reference = reports[0]
    for report in reports[1:]:
        assert np.array_equal(report.full_results, reference.full_results)


#: Base and changed values of the segment kernel cases: zeros (the Boolean
#: deletions), negatives and non-integers for the tropical sums.
SEGMENT_VALUES = st.sampled_from([0.0, 1.0, -1.5, 0.25, 3.0])


@st.composite
def segment_cases(draw):
    """A wide provenance set and a plan over its names plus two ghosts.

    The plan's pool holds every wide name and two ghost names the set never
    mentions; scenarios draw any of them (some none at all), so projecting
    the plan onto the set leaves ghost-only and empty scenarios.  ``cuts``
    split the projected plan into row ranges.
    """
    provenance = ProvenanceSet()
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        provenance[(f"g{index}",)] = draw(
            polynomials(max_terms=8, names=WIDE_NAMES, max_width=9)
        )
    pool = WIDE_NAMES + ["ghost1", "ghost2"]
    base = np.array([draw(SEGMENT_VALUES) for _ in pool])
    pairs = [
        (columns, [draw(SEGMENT_VALUES) for _ in columns])
        for columns in draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=4),
                max_size=8,
            )
        )
    ]
    cuts = draw(st.lists(st.integers(min_value=0, max_value=len(pairs)), max_size=3))
    other = np.array([draw(SEGMENT_VALUES) for _ in pool])
    return provenance, pool, DeltaPlan.from_pairs(base, pairs), sorted(cuts), other


@settings(max_examples=60, deadline=None)
@given(case=segment_cases())
@pytest.mark.parametrize("semiring", ["tropical", "bool"])
def test_batched_segment_kernel_is_the_loop_byte_for_byte(semiring, case):
    provenance, pool, pool_plan, cuts, other = case
    compiled = resolve_backend(semiring).compile(provenance)
    columns = np.array([pool.index(name) for name in compiled.variables], dtype=np.intp)
    plan = pool_plan.project(columns)
    expected = segment_evaluate_deltas(compiled, plan).tobytes()

    # A cold baseline, then another one, then the first again: the third
    # call takes the baseline LRU's hit (and move-to-front) path.
    assert compiled.evaluate_deltas(plan).tobytes() == expected
    compiled.evaluate_deltas(DeltaPlan.from_pairs(other[columns], [([], [])]))
    bounds = [0, *cuts, len(plan)]
    pieces = [
        compiled.evaluate_deltas(plan.rows(lo, hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    assert np.concatenate(pieces, axis=0).tobytes() == expected
    # Blocks of a handful of factor cells: one pass per scenario or two.
    with mock.patch.object(numeric, "_DELTA_BLOCK_CELLS", 4):
        assert compiled.evaluate_deltas(plan).tobytes() == expected
