"""Property test: the kernel's delta-updated gain table never drifts.

The incremental kernel's entire claim is that its per-candidate merge-gain
counters — updated only for the monomials a coarsening actually touches —
always equal what a naive full recompute (the greedy oracle's
``renamed_size`` scan over every monomial) would produce.  This test
replays random coarsening sequences over random forests and random
provenance and checks the full gain table (``saved``, ``lost`` and the
selection ``ratio``) after **every** step, including the running size the
kernel predicts.
"""

from hypothesis import given, settings, strategies as st
from oracles.greedy_scan import renamed_size

from repro.core.abstraction_tree import AbstractionForest
from repro.core.kernel.greedy import IncrementalGreedyKernel
from repro.workloads.random_polynomials import random_provenance, random_tree


@st.composite
def forest_instances(draw):
    """A random forest (1–2 trees) plus random provenance over its leaves.

    Monomials may combine variables of both trees and free "extra"
    variables, so the general (multi-variable-per-monomial) update paths are
    exercised, not just the single-tree case.
    """
    seed = draw(st.integers(min_value=0, max_value=10_000))
    trees = [
        random_tree(
            draw(st.integers(min_value=2, max_value=7)),
            seed=seed,
            leaf_prefix="x",
            inner_prefix="gx",
            root="RX",
        )
    ]
    extra = ["e1", "e2"]
    if draw(st.booleans()):
        trees.append(
            random_tree(
                draw(st.integers(min_value=2, max_value=5)),
                seed=seed + 1,
                leaf_prefix="y",
                inner_prefix="gy",
                root="RY",
            )
        )
        extra = list(trees[1].leaves()) + extra
    forest = AbstractionForest(trees)
    provenance = random_provenance(
        trees[0].leaves(),
        num_groups=draw(st.integers(min_value=1, max_value=3)),
        monomials_per_group=draw(st.integers(min_value=2, max_value=12)),
        extra_variables=extra,
        max_degree=draw(st.integers(min_value=1, max_value=3)),
        seed=seed + 2,
    )
    return provenance, forest


def _naive_gain_table(forest, cuts, current, current_size):
    """The legacy greedy's per-candidate (saved, lost) by full rescan."""
    table = {}
    for index, tree in enumerate(forest.trees()):
        cut_nodes = cuts[index]
        for candidate in tree.inner_nodes():
            if candidate in cut_nodes:
                continue
            replaced = {
                name
                for name in cut_nodes
                if name == candidate or candidate in tree.ancestors(name)
            }
            if not replaced:
                continue
            rename = {name: candidate for name in replaced}
            saved = current_size - renamed_size(current, rename)
            table[candidate] = {"saved": saved, "lost": len(replaced) - 1}
    return table


@settings(max_examples=30, deadline=None)
@given(forest_instances(), st.randoms(use_true_random=False))
def test_gain_table_matches_naive_recompute_after_every_step(instance, rng):
    provenance, forest = instance
    kernel = IncrementalGreedyKernel(provenance, forest)

    # The naive mirror replays exactly what the legacy greedy maintains:
    # the renamed provenance and the *predicted* running size.
    cuts = [set(tree.leaves()) for tree in forest.trees()]
    current = provenance
    current_size = provenance.size()

    while True:
        naive = _naive_gain_table(forest, cuts, current, current_size)
        kernel_table = kernel.gain_table()
        assert set(kernel_table) == set(naive)
        for name, entry in naive.items():
            assert kernel_table[name]["saved"] == entry["saved"], name
            assert kernel_table[name]["lost"] == entry["lost"], name
        assert kernel.current_size == current_size

        if not naive:
            break
        # Step somewhere arbitrary (not just the greedy's choice), so the
        # delta updates are exercised off the greedy trajectory too.
        choice = rng.choice(sorted(naive))
        for index, tree in enumerate(forest.trees()):
            if choice in tree.inner_nodes():
                replaced = {
                    name
                    for name in cuts[index]
                    if name == choice or choice in tree.ancestors(name)
                }
                rename = {name: choice for name in replaced}
                new_size = renamed_size(current, rename)
                current = current.rename(rename)
                current_size = new_size
                cuts[index] = (cuts[index] - replaced) | {choice}
                break
        kernel.apply(choice)
