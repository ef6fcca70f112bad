"""Property tests: the factored pipeline equals the sparse and dense paths.

Shared-delta factoring applies a sweep's common operation prefix once to a
factored baseline and evaluates only per-scenario residuals.  The residual
rows are produced by the same sequential float operations the unfactored
lowering applies, so for every numeric backend the factored results must be
indistinguishable from the other pipelines: within fp tolerance for the
real semiring (whose delta kernel rescales against a different baseline),
exactly equal for the idempotent tropical/bool kernels (which recompute the
affected contributions from the rows themselves).  Scenario programs are
drawn as composed sweeps — a random shared base prefix plus small random
residuals, including ``set 0`` / ``scale 0`` operations — so the factored
row genuinely differs from the plain baseline in most examples.  Every
sweep is also evaluated over a compressed set (a random grouping of the
variables into meta-variables), so the meta lowering of each path is held to
the same agreement.
"""

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest

from repro.batch import BatchEvaluator, ScenarioBatch
from repro.core.compression import Abstraction, apply_abstraction
from repro.engine.plan import compose
from repro.engine.scenario import Scenario
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.valuation import Valuation

VARIABLE_NAMES = ["a", "b", "c", "d", "e", "f"]
#: Selectors deliberately include names outside the provenance universe.
SELECTOR_POOL = VARIABLE_NAMES + ["ghost1", "ghost2"]


@st.composite
def polynomials(draw, max_terms=6):
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


def _amounts(draw):
    # Zero amounts are drawn often: they are the zero-crossing updates the
    # real kernel's ratio path must hand off to its fallback.
    return draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        )
    )


def _extend(draw, scenario):
    selector = draw(
        st.one_of(
            st.sampled_from(SELECTOR_POOL),
            st.lists(st.sampled_from(SELECTOR_POOL), max_size=3),
        )
    )
    amount = _amounts(draw)
    if draw(st.booleans()):
        return scenario.scale(selector, amount)
    return scenario.set_value(selector, amount)


@st.composite
def composed_sweeps(draw, max_prefix=3, max_residual=2, max_variants=6):
    """A sweep whose scenarios share a random base prefix (possibly empty)."""
    base = Scenario("base")
    for _ in range(draw(st.integers(min_value=0, max_value=max_prefix))):
        base = _extend(draw, base)
    variants = []
    for index in range(draw(st.integers(min_value=1, max_value=max_variants))):
        variant = Scenario(f"v{index}")
        for _ in range(draw(st.integers(min_value=0, max_value=max_residual))):
            variant = _extend(draw, variant)
        variants.append(variant)
    return compose(base, variants).scenarios()


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


@st.composite
def abstractions(draw):
    """Each variable stays itself or joins one of two meta-variables."""
    groups = {}
    for name in VARIABLE_NAMES:
        meta = draw(st.sampled_from([None, "m0", "m1"]))
        if meta is not None:
            groups.setdefault(meta, []).append(name)
    return Abstraction.from_groups(groups)


def _reports(provenance, scenario_list, base, semiring, abstraction):
    compressed = apply_abstraction(provenance, abstraction).compressed
    evaluator = BatchEvaluator()
    return {
        mode: evaluator.evaluate(
            provenance, scenario_list, base_valuation=base,
            compressed=compressed, abstraction=abstraction,
            semiring=semiring, mode=mode,
        )
        for mode in ("dense", "sparse", "factored")
    }


@settings(max_examples=50, deadline=None)
@given(
    provenance=provenance_sets(),
    scenario_list=composed_sweeps(),
    base=base_valuations(),
    abstraction=abstractions(),
)
def test_real_factored_matches_dense_and_sparse(
    provenance, scenario_list, base, abstraction
):
    reports = _reports(
        provenance, scenario_list, base, semiring="real", abstraction=abstraction
    )
    assert reports["factored"].mode == "factored"
    for other in ("dense", "sparse"):
        for field in ("baseline", "full_results", "compressed_results"):
            np.testing.assert_allclose(
                getattr(reports["factored"], field),
                getattr(reports[other], field),
                rtol=1e-9, atol=1e-9,
            )


@settings(max_examples=40, deadline=None)
@given(
    provenance=provenance_sets(),
    scenario_list=composed_sweeps(),
    base=base_valuations(),
    abstraction=abstractions(),
)
@pytest.mark.parametrize("semiring", ["tropical", "bool"])
def test_idempotent_factored_matches_dense_exactly(
    semiring, provenance, scenario_list, base, abstraction
):
    reports = _reports(
        provenance, scenario_list, base, semiring=semiring,
        abstraction=abstraction,
    )
    assert np.array_equal(
        reports["factored"].baseline, reports["dense"].baseline
    )
    for other in ("dense", "sparse"):
        for field in ("full_results", "compressed_results"):
            assert np.array_equal(
                getattr(reports["factored"], field),
                getattr(reports[other], field),
            )


@settings(max_examples=50, deadline=None)
@given(scenario_list=composed_sweeps(), base=base_valuations())
def test_residual_rows_equal_unfactored_rows_bitwise(scenario_list, base):
    """Row-level invariant: factored row + residual == base row + full delta,
    bit for bit — independent of any provenance."""
    batch = ScenarioBatch(scenario_list, VARIABLE_NAMES)
    flat = batch.delta_plan(base)
    factored = batch.delta_plan(base, prefix=batch.prefix_length)
    for row in range(len(flat)):
        cols_a, vals_a = flat.cells(row)
        cols_b, vals_b = factored.cells(row)
        row_a = flat.base_row.copy()
        row_a[cols_a] = vals_a
        row_b = factored.base_row.copy()
        row_b[cols_b] = vals_b
        np.testing.assert_array_equal(row_a, row_b)
