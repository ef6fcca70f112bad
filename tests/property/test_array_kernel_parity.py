"""Property test: the array greedy kernel matches the dict-row kernel oracle.

:class:`repro.core.kernel.greedy.IncrementalGreedyKernel` keeps its rows and
gain counters in arrays (signature codes per candidate).  It must be a pure
re-implementation of the dict-row kernel kept in
``tests/oracles/dict_greedy_kernel.py``: after **every** step, on arbitrary
and greedy step paths, the full gain table (``saved``, ``lost`` and the
float ``ratio``), the predicted and live sizes, the next choice, the cuts,
the step records and the heap-pop / gain-update counters must be identical.

The instances cover 1–3 trees, exponents up to 3, several leaves of one
subtree in the same monomial, tree leaves absent from the provenance,
unit-only provenance (no variable at all), the empty set, coefficients that
cancel when monomials merge (the predicted and live sizes drift apart), and
one instance whose signature radices overflow ``int64``.
"""

import random

from hypothesis import given, settings, strategies as st
from oracles.dict_greedy_kernel import IncrementalGreedyKernel as DictKernel

from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
from repro.core.kernel.greedy import IncrementalGreedyKernel
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.workloads.random_polynomials import random_tree

#: Coefficients with opposite signs, so merged monomials often cancel.
COEFFICIENTS = (-2.0, -1.0, 1.0, 2.0, 0.5)


@st.composite
def instances(draw):
    """A 1–3 tree forest and provenance over some of its leaves and extras."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    trees = [
        random_tree(
            draw(st.integers(min_value=1, max_value=7)),
            seed=seed + index,
            leaf_prefix=f"t{index}x",
            inner_prefix=f"t{index}g",
            root=f"T{index}",
        )
        for index in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    forest = AbstractionForest(trees)
    leaves = [leaf for tree in trees for leaf in tree.leaves()]
    # Some leaves never occur; free variables sit outside every tree.
    pool = draw(
        st.lists(st.sampled_from(leaves), unique=True, max_size=len(leaves))
    ) + draw(st.lists(st.sampled_from(["e1", "e2", "e3"]), unique=True))
    monomials = st.dictionaries(
        st.sampled_from(pool) if pool else st.nothing(),
        st.integers(min_value=1, max_value=3),
        max_size=min(3, len(pool)),
    )
    provenance = ProvenanceSet()
    for group in range(draw(st.integers(min_value=0, max_value=3))):
        terms = draw(
            st.lists(
                st.tuples(monomials, st.sampled_from(COEFFICIENTS)),
                max_size=10,
            )
        )
        provenance[(f"g{group}",)] = Polynomial(
            {Monomial(factors): coefficient for factors, coefficient in terms}
        )
    return provenance, forest


def assert_same_state(array, oracle):
    assert array.gain_table() == oracle.gain_table()
    assert array.current_size == oracle.current_size
    assert array.live_size == oracle.live_size
    assert array.best() == oracle.best()
    assert array.cuts() == oracle.cuts()
    assert array.heap_pops == oracle.heap_pops
    assert array.gain_updates == oracle.gain_updates


def replay(provenance, forest, rng=None):
    """Step both kernels to exhaustion, comparing after every step.

    With ``rng`` the step is an arbitrary active candidate, otherwise the
    greedy's choice.  Returns the number of steps taken.
    """
    array = IncrementalGreedyKernel(provenance, forest)
    oracle = DictKernel(provenance, forest)
    steps = 0
    while True:
        assert_same_state(array, oracle)
        table = oracle.gain_table()
        if not table:
            assert array.best() is None
            return steps
        choice = oracle.best() if rng is None else rng.choice(sorted(table))
        assert array.apply(choice) == oracle.apply(choice)
        steps += 1


@settings(max_examples=200, deadline=None)
@given(instances())
def test_greedy_path_matches_dict_kernel(instance):
    provenance, forest = instance
    replay(provenance, forest)


@settings(max_examples=200, deadline=None)
@given(instances(), st.randoms(use_true_random=False))
def test_arbitrary_path_matches_dict_kernel(instance, rng):
    provenance, forest = instance
    replay(provenance, forest, rng)


def test_cancellation_drift_matches_dict_kernel():
    # a1*e and a2*e merge at A with coefficients 1 and -1: the predicted
    # size counts the merged row, the live size drops it.
    tree = AbstractionTree("R", {"R": ["A", "b"], "A": ["a1", "a2"]})
    provenance = ProvenanceSet()
    provenance[("g",)] = Polynomial(
        {
            Monomial.of("a1", "e"): 1.0,
            Monomial.of("a2", "e"): -1.0,
            Monomial.of("b"): 3.0,
        }
    )
    array = IncrementalGreedyKernel(provenance, tree)
    oracle = DictKernel(provenance, tree)
    assert array.apply("A") == oracle.apply("A")
    assert array.current_size - array.live_size == 1
    assert_same_state(array, oracle)
    assert replay(provenance, tree) == 2


def test_fold_order_matches_dict_kernel():
    # Coarsening A renames three rows; coarsening X then merges them, and
    # the float sum depends on their order: (1e16 - 1e16) + 1 keeps the
    # merged row, (1 - 1e16) + 1e16 would cancel it.
    forest = AbstractionForest(
        [
            AbstractionTree("A", {"A": ["a1", "a2"]}),
            AbstractionTree("X", {"X": ["x", "y", "z"]}),
        ]
    )
    provenance = ProvenanceSet()
    provenance[("g",)] = Polynomial(
        {
            Monomial.of("a1", "x"): 1e16,
            Monomial.of("a1", "y"): -1e16,
            Monomial.of("a1", "z"): 1.0,
        }
    )
    array = IncrementalGreedyKernel(provenance, forest)
    oracle = DictKernel(provenance, forest)
    for name in ("A", "X"):
        assert array.apply(name) == oracle.apply(name)
        assert_same_state(array, oracle)
    assert array.live_size == 1


def test_unit_only_and_empty_provenance():
    tree = AbstractionTree("R", {"R": ["a", "b"]})
    unit_only = ProvenanceSet()
    unit_only[("g",)] = Polynomial({Monomial.unit(): 2.0})
    assert replay(unit_only, tree) == 1
    assert replay(ProvenanceSet(), tree) == 1


def test_signature_overflow_takes_the_exact_interned_path():
    # 100 groups of width-6 monomials over 100 leaves: the mixed-radix key
    # space (candidates x groups x (101 ids x 7 exponents)^6) exceeds int64.
    # Each group's monomials differ only in their block-0 leaf, so
    # coarsening B0 merges them before the root is worth it.
    rng = random.Random(7)
    leaves = [f"v{i}" for i in range(100)]
    tree = AbstractionTree(
        "R",
        {
            "R": [f"B{block}" for block in range(10)],
            **{
                f"B{block}": leaves[10 * block : 10 * block + 10]
                for block in range(10)
            },
        },
    )
    provenance = ProvenanceSet()
    for group in range(100):
        base = rng.sample(leaves[10:], 5)
        provenance[(f"g{group}",)] = Polynomial(
            {Monomial.of(leaf, *base): 1.0 for leaf in rng.sample(leaves[:10], 4)}
        )
    kernel = IncrementalGreedyKernel(provenance, tree)
    assert kernel._interned is not None
    assert replay(provenance, tree) > 1
    assert replay(provenance, tree, random.Random(3)) > 1


def test_long_trajectory_compacts_retired_rows():
    # 40 two-leaf bundles, every leaf in each of 40 groups: each bundle step
    # retires 80 rows and appends 40, so retired rows pile up until the
    # kernel compacts them away (during the 35th step).  The root step then
    # folds the 40 bundle rows of a group in creation order:
    # 1e16 - 1e16 + 32 * 0.01 + (0.5 - 0.5) * 3 keeps the row, while the
    # compacted 34 in reverse order would absorb the 0.01s and cancel it.
    edges = {"L": [f"b{i}" for i in range(40)]}
    for i in range(40):
        edges[f"b{i}"] = [f"l{i}a", f"l{i}b"]
    tree = AbstractionTree("L", edges)
    halves = [5e15, -5e15] + [0.005] * 32 + [0.25, -0.25] * 3
    provenance = ProvenanceSet()
    for group in range(40):
        provenance[(f"g{group}",)] = Polynomial(
            {
                Monomial.of(leaf): halves[index // 2]
                for index, leaf in enumerate(tree.leaves())
            }
        )
    array = IncrementalGreedyKernel(provenance, tree)
    oracle = DictKernel(provenance, tree)
    appended = 0
    while oracle.best() is not None:
        live, retired = array.live_size, array.affected_rows
        step = oracle.apply(oracle.best())
        assert array.apply(step["coarsened_at"]) == step
        assert_same_state(array, oracle)
        appended += array.live_size - live + array.affected_rows - retired
    # Without compaction every row ever created would still be stored.
    assert array._used < provenance.size() + appended
    assert array.live_size == 40
