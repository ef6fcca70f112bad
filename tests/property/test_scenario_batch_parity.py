"""Property tests: the interned operation table lowers exactly as the oracle.

:class:`~repro.batch.planner.ScenarioBatch` interns each distinct operation
once, resolves each distinct selector once and derives the cells and the
shared prefix as array work.  The per-scenario implementation
it replaced lives on as :mod:`oracles.scenario_batch`.  Batches are drawn
with ``str``, list, tuple and callable selectors (shared predicates and
freshly built ones), operations shared by object with a base scenario,
re-built equal operations, ghost names, empty selectors and operation-free
scenarios.  Every lowering must be bit-identical to the oracle's, and the
batch's own prefix is never shorter than the oracle's dataclass-equality
prefix except where the two operations differ only in the sign of a zero
amount (equal by value, different in the bits they lower to).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles.scenario_batch import (
    OracleScenarioBatch,
    common_prefix_length as oracle_prefix_length,
    oracle_factoring,
)
from repro.batch import ScenarioBatch
from repro.engine.scenario import Scenario

VARIABLES = ["a", "b", "c", "d", "e", "f"]
#: Selectors may name variables outside the universe.
NAME_POOL = VARIABLES + ["ghost1", "ghost2"]
SCALES = [0.0, -0.0, 0.5, 1.0, 2.0, 3.25, math.inf]
VALUES = [0.0, -0.0, 1.0, -2.5, 7.0, math.inf]


def _vowel(name):
    return name in ("a", "e")


def _nothing(name):
    return False


SHARED_PREDICATES = [_vowel, _nothing, str.isalpha]


def _fresh_predicate(names):
    """A new predicate object on every call (never identical to another)."""
    chosen = frozenset(names)
    return lambda name: name in chosen


@st.composite
def selectors(draw):
    style = draw(st.sampled_from(["str", "list", "tuple", "shared", "fresh"]))
    if style == "str":
        return draw(st.sampled_from(NAME_POOL))
    if style == "shared":
        return draw(st.sampled_from(SHARED_PREDICATES))
    names = draw(st.lists(st.sampled_from(NAME_POOL), max_size=4))
    if style == "fresh":
        return _fresh_predicate(names)
    return names if style == "list" else tuple(names)


@st.composite
def operation_specs(draw):
    kind = draw(st.sampled_from(["scale", "set"]))
    amount = draw(st.sampled_from(SCALES if kind == "scale" else VALUES))
    return kind, draw(selectors()), amount


def _build(specs, name="s"):
    """A scenario from ``(kind, selector, amount)`` specs: new operation
    objects every call, with list selectors copied."""
    scenario = Scenario(name)
    for kind, selector, amount in specs:
        if isinstance(selector, list):
            selector = list(selector)
        if kind == "scale":
            scenario = scenario.scale(selector, amount)
        else:
            scenario = scenario.set_value(selector, amount)
    return scenario


@st.composite
def batches(draw):
    base_specs = draw(st.lists(operation_specs(), max_size=4))
    base = _build(base_specs, "base")
    pool = _build(draw(st.lists(operation_specs(), max_size=3)), "pool").operations
    scenarios = []
    for index in range(draw(st.integers(min_value=0, max_value=7))):
        head = draw(st.sampled_from(["shared", "rebuilt", "none"]))
        if head == "shared":
            operations = base.operations
        elif head == "rebuilt":
            operations = _build(base_specs).operations
        else:
            operations = ()
        tail = draw(st.lists(operation_specs(), max_size=3))
        operations += _build(tail).operations
        if pool and draw(st.booleans()):
            operations += (draw(st.sampled_from(pool)),)
        scenarios.append(Scenario(f"s{index}", operations=operations))
    base_values = draw(
        st.dictionaries(
            st.sampled_from(VARIABLES), st.sampled_from([0.0, 0.5, 2.0, 10.0])
        )
    )
    fill = draw(st.sampled_from([1.0, 0.0]))
    return scenarios, base_values, fill


def _same_bits(left, right):
    left, right = np.asarray(left), np.asarray(right)
    return (
        left.dtype == right.dtype
        and left.shape == right.shape
        and left.tobytes() == right.tobytes()
    )


def _same_plan(plan, expected):
    return (
        _same_bits(plan.base_row, expected.base_row)
        and _same_bits(plan.offsets, expected.offsets)
        and _same_bits(plan.columns, expected.columns)
        and _same_bits(plan.values, expected.values)
    )


def _differ_only_in_zero_sign(scenarios, position):
    """Whether some scenario's operation at ``position`` equals row 0's by
    dataclass equality but carries a zero amount of the other sign."""
    first = scenarios[0].operations[position]
    for scenario in scenarios[1:]:
        operation = scenario.operations[position]
        if (
            operation == first
            and operation.amount == 0.0
            and math.copysign(1.0, operation.amount)
            != math.copysign(1.0, first.amount)
        ):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(batches())
def test_lowerings_match_the_oracle(drawn):
    scenarios, base_values, fill = drawn
    batch = ScenarioBatch(scenarios, VARIABLES)
    oracle = OracleScenarioBatch(scenarios, VARIABLES)

    assert _same_bits(
        batch.valuation_matrix(base_values, fill),
        oracle.valuation_matrix(base_values, fill),
    )
    assert _same_plan(
        batch.delta_plan(base_values, fill), oracle.delta_plan(base_values, fill)
    )
    assert _same_bits(batch.touched_counts(), oracle.touched_counts())
    for cells, expected in zip(batch._operation_cells(), oracle._operation_cells()):
        assert _same_bits(cells, expected)
    for steps, expected in zip(batch.resolved_operations, oracle.resolved_operations):
        assert len(steps) == len(expected)
        for (kind, columns, amount), (want_kind, want_columns, want_amount) in zip(
            steps, expected
        ):
            assert kind == want_kind and _same_bits(columns, want_columns)
            assert _same_bits(np.float64(amount), np.float64(want_amount))


@settings(max_examples=300, deadline=None)
@given(batches())
def test_factoring_matches_the_oracle(drawn):
    scenarios, base_values, fill = drawn
    batch = ScenarioBatch(scenarios, VARIABLES)
    oracle = OracleScenarioBatch(scenarios, VARIABLES)
    expected_prefix = oracle_prefix_length(scenarios)

    # The batch's own prefix is never shorter, short of a signed-zero split.
    prefix = batch.prefix_length
    if prefix < expected_prefix:
        assert _differ_only_in_zero_sign(scenarios, prefix)

    # At every prefix both share, the factored row and residual plan are the
    # oracle's, bit for bit.
    for shared in range(min(prefix, expected_prefix) + 1):
        factored_row, residual_plan = oracle_factoring(
            oracle, base_values, fill, prefix_length=shared
        )
        factored = batch.delta_plan(base_values, fill, prefix=shared)
        assert _same_bits(factored.base_row, factored_row)
        assert _same_plan(factored, residual_plan)

    # At its own prefix, the factored row plus each residual row rebuilds
    # the valuation matrix (the delta plans' value-equality contract).
    plan = batch.delta_plan(base_values, fill, prefix=prefix)
    rows = np.tile(plan.base_row, (len(batch), 1))
    rows[plan.scenario_ids(), plan.columns] = plan.values
    assert np.array_equal(
        rows, batch.valuation_matrix(base_values, fill), equal_nan=True
    )
