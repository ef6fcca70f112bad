"""Property tests: the array meta lowering against its loop oracle.

The batch evaluator lowers scenario values of the original variables to the
compressed variables through a member CSR and its transpose
(:class:`repro.batch.evaluator.MetaLowering`); the loop implementations it
replaced live in ``tests/oracles/meta_lowering.py``.  For sweeps lowered
sparse (:meth:`ScenarioBatch.delta_plan`), factored
(``delta_plan(prefix=…)``) and dense (:meth:`ScenarioBatch.valuation_matrix`),
under each numeric backend's value domain and identity fill:

* every rebuilt meta row — the lowered plan's base row with the scenario's
  cells applied — matches the oracle's within
  ``members · eps · mean(|member values|)``: the means are sums in member
  order either way, but ``np.mean`` and ``reduceat`` may group the
  additions differently;
* the sparse, factored and dense lowerings build ``array_equal`` meta rows,
  because all three take one ``reduceat`` over the same member values.
"""

from hypothesis import given, settings, strategies as st

import numpy as np
import pytest

from oracles.meta_lowering import (
    _meta_lowering,
    oracle_lower_meta_deltas,
    oracle_lower_meta_matrix,
)
from repro.batch import ScenarioBatch
from repro.batch.evaluator import MetaLowering
from repro.core.compression import Abstraction
from repro.engine.plan import compose
from repro.engine.scenario import Scenario
from repro.provenance.backends import resolve_backend
from repro.provenance.valuation import Valuation

VARIABLE_NAMES = [f"v{i}" for i in range(8)]
#: Selectors and groups deliberately include names outside the universe.
GHOSTS = ["ghost1", "ghost2"]
SELECTOR_POOL = VARIABLE_NAMES + GHOSTS

#: Per backend: the values a base valuation or a set step draws from.
VALUES = {
    "real": st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    "tropical": st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    "bool": st.sampled_from([0.0, 1.0]),
}
#: Per backend: the factors a scale step draws from.
FACTORS = {
    "real": st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    "tropical": st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    "bool": st.sampled_from([0.0, 1.0]),
}


def _extend(draw, scenario, semiring):
    selector = draw(
        st.one_of(
            st.sampled_from(SELECTOR_POOL),
            st.lists(st.sampled_from(SELECTOR_POOL), max_size=4),
        )
    )
    if draw(st.booleans()):
        return scenario.scale(selector, draw(FACTORS[semiring]))
    return scenario.set_value(selector, draw(VALUES[semiring]))


@st.composite
def cases(draw, semiring):
    """``(abstraction, batch, base valuation, meta variables)``."""
    base = Scenario("base")
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        base = _extend(draw, base, semiring)
    variants = []
    for index in range(draw(st.integers(min_value=1, max_value=8))):
        variant = Scenario(f"s{index}")
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            variant = _extend(draw, variant, semiring)
        variants.append(variant)
    batch = ScenarioBatch(compose(base, variants).scenarios(), VARIABLE_NAMES)

    groups = {}
    for name in VARIABLE_NAMES + GHOSTS:
        meta = draw(st.sampled_from([None, "m0", "m1", "m2"]))
        if meta is not None:
            groups.setdefault(meta, []).append(name)
    abstraction = Abstraction.from_groups(groups)
    # The compressed universe: the metas, the untouched originals, and a
    # name that is neither (lowered to the identity fill).
    meta_variables = tuple(
        sorted(
            set(groups)
            | {name for name in VARIABLE_NAMES if name not in abstraction.mapping}
            | {"stray"}
        )
    )
    valuation = Valuation(
        {
            name: draw(VALUES[semiring])
            for name in draw(st.lists(st.sampled_from(VARIABLE_NAMES), unique=True))
        }
    )
    return abstraction, batch, valuation, meta_variables


def _rebuilt(plan):
    """The rows a delta plan stands for: its base row with each scenario's
    cells applied."""
    rows = np.tile(plan.base_row, (len(plan), 1))
    rows[plan.scenario_ids(), plan.columns] = plan.values
    return rows


def _assert_within_summation_bound(got, oracle, matrix, table):
    """``|got − oracle| ≤ members · eps · mean(|member values|)`` per cell."""
    eps = np.finfo(np.float64).eps
    bound = np.zeros_like(oracle)
    for j, (kind, source) in enumerate(table):
        if kind == "mean":
            bound[:, j] = source.size * eps * np.abs(matrix[:, source]).mean(axis=1)
    assert np.all(np.abs(got - oracle) <= bound), np.max(np.abs(got - oracle) - bound)


def _check(abstraction, batch, valuation, meta_variables, semiring):
    fill = resolve_backend(semiring).numeric_fill
    matrix = batch.valuation_matrix(valuation, fill=fill)
    lowering = MetaLowering(abstraction, batch.variables, meta_variables)
    dense = lowering.lower_matrix(matrix, fill)
    plans = {
        "sparse": batch.delta_plan(valuation, fill=fill),
        "factored": batch.delta_plan(
            valuation, fill=fill, prefix=batch.prefix_length
        ),
    }
    for plan in plans.values():
        lowered = lowering.lower_deltas(plan, fill)
        assert np.array_equal(_rebuilt(lowered), dense)

    table = _meta_lowering(abstraction, batch, meta_variables)
    oracle = oracle_lower_meta_matrix(abstraction, batch, matrix, meta_variables, fill)
    _assert_within_summation_bound(dense, oracle, matrix, table)
    # The sparse oracle rebuilds the same rows as the dense one, within the
    # same bound of the new lowering.
    oracle_base, oracle_changes = oracle_lower_meta_deltas(
        abstraction, batch, plans["sparse"], meta_variables, fill
    )
    oracle_rows = np.tile(oracle_base, (len(batch), 1))
    for row, (columns, values) in enumerate(oracle_changes):
        oracle_rows[row, columns] = values
    _assert_within_summation_bound(dense, oracle_rows, matrix, table)


@pytest.mark.parametrize("semiring", ["real", "tropical", "bool"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lowerings_agree_with_each_other_and_the_oracle(semiring, data):
    case = data.draw(cases(semiring), label="case")
    _check(*case, semiring)


def test_pass_and_fill_columns_are_exact():
    """A mean of one member is the member itself, bit for bit; columns with
    no member in the universe take the fill."""
    abstraction = Abstraction.from_groups({"m": ["ghost1"], "n": ["v0", "v1"]})
    batch = ScenarioBatch(
        [Scenario("s").scale(["v2"], 1.0 / 3.0), Scenario("t").set_value("v0", 0.1)],
        ["v0", "v1", "v2"],
    )
    valuation = Valuation({"v0": 0.7, "v1": 0.2, "v2": 0.3})
    plan = MetaLowering(abstraction, batch.variables, ("m", "n", "v2")).lower_deltas(
        batch.delta_plan(valuation), 1.0
    )
    rows = _rebuilt(plan)
    assert rows[:, 0].tolist() == [1.0, 1.0]
    assert rows[0, 2] == 0.3 * (1.0 / 3.0)
    assert rows[1, 1] == (0.1 + 0.2) / 2
