"""Property test: the array rename and load model equal the dict oracles.

``ProvenanceSet.rename`` (and so ``apply_abstraction``) and
``build_load_model`` run on the id-encoded incidence rows.  The loops they
replaced live in ``tests/oracles/dict_abstraction.py``.  Parity is exact:
same keys in the same order, and per group the same ``_terms`` dict —
coefficients compared with ``==`` and terms in the same insertion order —
so nothing downstream (fingerprints, folds, compiled stores) can tell the
two paths apart.
"""

import pytest
from hypothesis import given, settings, strategies as st
from oracles.dict_abstraction import (
    dict_apply_abstraction,
    dict_load_model,
    dict_rename,
)

from repro.exceptions import InvalidVariableNameError, UnsupportedPolynomialError
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.core.abstraction_tree import AbstractionForest
from repro.core.compression import Abstraction, apply_abstraction
from repro.core.greedy import optimize_greedy
from repro.core.optimizer import build_load_model
from repro.workloads.random_polynomials import (
    random_provenance,
    random_single_tree_instance,
    random_tree,
)

VARIABLES = ("a", "b", "c", "x", "y", "z")
METAS = ("v", "w", "x")  # "x" is also a variable: renames may merge into it

coefficients = st.one_of(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    # Values whose sums cancel to (or near) the 1e-12 drop threshold.
    st.sampled_from([1.0, -1.0, 0.1, 0.2, -0.3, 1e-13, 6e-13, -6e-13, 2e-12]),
)
monomials = st.dictionaries(
    st.sampled_from(VARIABLES), st.integers(min_value=1, max_value=3), max_size=3
).map(Monomial)
polynomials = st.lists(st.tuples(monomials, coefficients), max_size=8).map(
    lambda terms: Polynomial(dict(terms))
)
provenance_sets = st.lists(polynomials, min_size=1, max_size=4).map(
    lambda polys: ProvenanceSet({(f"g{i}",): p for i, p in enumerate(polys)})
)
mappings = st.dictionaries(
    st.sampled_from(VARIABLES), st.sampled_from(VARIABLES + METAS)
)


def assert_identical(actual: ProvenanceSet, expected: ProvenanceSet) -> None:
    assert actual.keys() == expected.keys()
    for key in expected.keys():
        assert actual[key]._terms == expected[key]._terms
        assert list(actual[key]._terms.items()) == list(expected[key]._terms.items())
    assert actual.variables() == expected.variables()
    assert actual.fingerprint() == expected.fingerprint()


@settings(max_examples=200, deadline=None)
@given(provenance_sets, mappings)
def test_rename_matches_the_dict_oracle(provenance, mapping):
    assert_identical(provenance.rename(mapping), dict_rename(provenance, mapping))


@settings(max_examples=50, deadline=None)
@given(provenance_sets, mappings)
def test_rename_of_an_equal_but_distinct_set(provenance, mapping):
    # Same fingerprint, different objects and term insertion order: the
    # cached rows of the first set must not answer for the second.
    provenance.rename(mapping)
    reordered = ProvenanceSet(
        {
            key: Polynomial(dict(reversed(list(polynomial._terms.items()))))
            for key, polynomial in provenance.items()
        }
    )
    assert_identical(reordered.rename(mapping), dict_rename(reordered, mapping))


class TestRenameCases:
    def test_two_variables_of_one_monomial_merge(self):
        provenance = ProvenanceSet(
            {("g",): Polynomial({Monomial.of("x", "y"): 2.0, Monomial.of("x"): 1.0})}
        )
        renamed = provenance.rename({"x": "v", "y": "v"})
        assert renamed[("g",)]._terms == {
            Monomial({"v": 2}): 2.0,
            Monomial.of("v"): 1.0,
        }
        assert_identical(renamed, dict_rename(provenance, {"x": "v", "y": "v"}))

    def test_cancelled_group_keeps_its_key(self):
        provenance = ProvenanceSet(
            {
                ("g1",): Polynomial({Monomial.of("x"): 1.0, Monomial.of("y"): -1.0}),
                ("g2",): Polynomial({Monomial.of("z"): 3.0}),
            }
        )
        mapping = {"x": "v", "y": "v"}
        renamed = provenance.rename(mapping)
        assert renamed.keys() == (("g1",), ("g2",))
        assert renamed[("g1",)].is_zero()
        assert_identical(renamed, dict_rename(provenance, mapping))

    def test_unit_monomials(self):
        provenance = ProvenanceSet(
            {
                ("g1",): Polynomial({Monomial.unit(): 5.0, Monomial.of("x"): 1.0}),
                ("g2",): Polynomial({Monomial.unit(): 2.0}),
            }
        )
        for mapping in ({}, {"x": "v"}):
            assert_identical(provenance.rename(mapping), dict_rename(provenance, mapping))

    def test_from_groups_target(self):
        provenance, _tree = random_single_tree_instance(seed=3)
        abstraction = Abstraction.from_groups({"G": ["x1", "x2", "x3"], "e": ["e1"]})
        actual = apply_abstraction(provenance, abstraction)
        expected = dict_apply_abstraction(provenance, abstraction)
        assert_identical(actual.compressed, expected.compressed)
        assert actual.summary() == expected.summary()

    def test_invalid_meta_name_is_rejected(self):
        provenance, _tree = random_single_tree_instance(seed=3)
        abstraction = Abstraction.from_groups({"not a name": ["x1", "x2"]})
        with pytest.raises(InvalidVariableNameError):
            dict_apply_abstraction(provenance, abstraction)
        with pytest.raises(InvalidVariableNameError):
            apply_abstraction(provenance, abstraction)

    def test_invalid_name_for_absent_variables_is_ignored(self):
        # Neither path looks at targets of variables that do not occur.
        provenance, _tree = random_single_tree_instance(seed=3)
        mapping = {"ghost": "not a name"}
        assert_identical(provenance.rename(mapping), dict_rename(provenance, mapping))


@st.composite
def forest_instances(draw):
    """1–2 random trees and provenance whose monomials may mix their leaves."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    trees = [random_tree(draw(st.integers(2, 7)), seed=seed, inner_prefix="gx", root="RX")]
    extra = ["e1", "e2"]
    if draw(st.booleans()):
        trees.append(
            random_tree(
                draw(st.integers(2, 5)),
                seed=seed + 1,
                leaf_prefix="y",
                inner_prefix="gy",
                root="RY",
            )
        )
        extra = list(trees[1].leaves()) + extra
    provenance = random_provenance(
        trees[0].leaves(),
        num_groups=draw(st.integers(1, 3)),
        monomials_per_group=draw(st.integers(2, 12)),
        extra_variables=extra,
        max_degree=draw(st.integers(1, 3)),
        seed=seed + 2,
    )
    return provenance, AbstractionForest(trees)


@settings(max_examples=50, deadline=None)
@given(forest_instances(), st.integers(min_value=0, max_value=100))
def test_greedy_mappings_on_forests(instance, percent):
    provenance, forest = instance
    bound = provenance.size() * percent // 100
    result = optimize_greedy(provenance, forest, bound, allow_infeasible=True)
    expected = dict_apply_abstraction(provenance, result.abstraction)
    assert_identical(result.compressed, expected.compressed)
    assert result.compression.summary() == expected.summary()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=4),
)
def test_load_model_matches_the_dict_oracle(seed, num_leaves, num_groups):
    provenance, tree = random_single_tree_instance(
        num_leaves=num_leaves, num_groups=num_groups, seed=seed
    )
    actual = build_load_model(provenance, tree)
    expected = dict_load_model(provenance, tree)
    assert actual.loads == expected.loads
    assert actual.base_monomials == expected.base_monomials
    assert actual.leaf_occurrences == expected.leaf_occurrences


@settings(max_examples=100, deadline=None)
@given(forest_instances())
def test_load_model_on_mixed_monomials(instance):
    # Monomials may hold several leaves of the first tree: both paths then
    # reject the input, naming the same monomial.
    provenance, forest = instance
    tree = forest.trees()[0]
    try:
        expected = dict_load_model(provenance, tree)
    except UnsupportedPolynomialError as error:
        with pytest.raises(UnsupportedPolynomialError) as raised:
            build_load_model(provenance, tree)
        assert str(raised.value) == str(error)
        return
    actual = build_load_model(provenance, tree)
    assert actual.loads == expected.loads
    assert actual.base_monomials == expected.base_monomials
    assert actual.leaf_occurrences == expected.leaf_occurrences


def test_multi_leaf_monomial_is_unsupported():
    provenance, tree = random_single_tree_instance(seed=1)
    leaves = tree.leaves()
    provenance[("mixed",)] = Polynomial({Monomial.of(leaves[0], leaves[1]): 1.0})
    with pytest.raises(UnsupportedPolynomialError) as expected:
        dict_load_model(provenance, tree)
    with pytest.raises(UnsupportedPolynomialError) as actual:
        build_load_model(provenance, tree)
    assert str(actual.value) == str(expected.value)
