"""Unit tests for abstractions and the compression step."""

import pytest

from repro.exceptions import AbstractionError
from repro.core.compression import Abstraction, CompressionResult, apply_abstraction
from repro.core.cut import Cut
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet


class TestAbstraction:
    def test_identity(self):
        abstraction = Abstraction.identity()
        assert abstraction.is_identity()
        assert abstraction.meta_variables() == ()

    def test_from_cut(self, simple_tree):
        abstraction = Abstraction.from_cut(Cut.of(simple_tree, "A", "B"))
        assert abstraction.mapping["a1"] == "A"
        assert abstraction.mapping["b1"] == "B"
        assert set(abstraction.meta_variables()) == {"A", "B"}

    def test_from_cuts_multiple_trees(self, simple_tree):
        from repro.core.abstraction_tree import AbstractionTree

        other = AbstractionTree.flat("M", ["m1", "m2"])
        abstraction = Abstraction.from_cuts(
            [Cut.of(simple_tree, "A", "B"), Cut.of(other, "M")]
        )
        assert abstraction.mapping["m1"] == "M"
        assert abstraction.mapping["a2"] == "A"

    def test_from_groups(self):
        abstraction = Abstraction.from_groups({"SB": ["b1", "b2"], "F": ["f1", "f2"]})
        assert abstraction.grouped_variables() == {
            "SB": ("b1", "b2"),
            "F": ("f1", "f2"),
        }

    def test_from_groups_rejects_overlap(self):
        with pytest.raises(AbstractionError):
            Abstraction.from_groups({"A": ["x"], "B": ["x"]})

    def test_degrees_of_freedom(self):
        abstraction = Abstraction.from_groups({"G": ["a", "b"]})
        assert abstraction.degrees_of_freedom(["a", "b", "c"]) == 2  # G and c

    def test_grouped_variables_sorted(self):
        abstraction = Abstraction.from_groups({"G": ["z", "a"]})
        assert abstraction.grouped_variables()["G"] == ("a", "z")


class TestApplyAbstraction:
    def test_example4_s1_on_p1(self, example2, fig2_tree):
        """Example 4: S1 compresses P1 to 4 monomials over 4 variables."""
        p1 = example2[("10001",)]
        result = apply_abstraction(p1, Cut.of(fig2_tree, "Business", "Special", "Standard"))
        compressed = result.compressed[(0,)]
        assert compressed.num_monomials() == 4
        assert len(compressed.variables()) == 4  # Special, Standard, m1, m3
        assert compressed.coefficient(Monomial.of("Special", "m1")) == pytest.approx(245.3)
        assert compressed.coefficient(Monomial.of("Special", "m3")) == pytest.approx(211.15)
        assert compressed.coefficient(Monomial.of("Standard", "m1")) == pytest.approx(208.8)
        assert compressed.coefficient(Monomial.of("Standard", "m3")) == pytest.approx(240.0)

    def test_example4_s5_on_p1(self, example2, fig2_tree):
        """Example 4: S5 (the root) compresses P1 to 2 monomials over 3 variables."""
        p1 = example2[("10001",)]
        result = apply_abstraction(p1, Cut.of(fig2_tree, "Plans"))
        compressed = result.compressed[(0,)]
        assert compressed.num_monomials() == 2
        assert len(compressed.variables()) == 3  # Plans, m1, m3
        # The m1 coefficient is the sum of P1's m1 coefficients:
        # 208.8 + 127.4 + 75.9 + 42 = 454.1.  (The paper prints 466.1, which
        # does not match its own P1; see EXPERIMENTS.md.)  The m3 coefficient
        # matches the paper exactly.
        assert compressed.coefficient(Monomial.of("Plans", "m1")) == pytest.approx(454.1)
        assert compressed.coefficient(Monomial.of("Plans", "m3")) == pytest.approx(451.15)

    def test_accepts_mapping_cut_or_abstraction(self, simple_provenance, simple_tree):
        cut = Cut.of(simple_tree, "R")
        by_cut = apply_abstraction(simple_provenance, cut)
        by_abstraction = apply_abstraction(simple_provenance, Abstraction.from_cut(cut))
        by_mapping = apply_abstraction(simple_provenance, cut.mapping())
        assert by_cut.compressed == by_abstraction.compressed == by_mapping.compressed

    def test_accepts_polynomial_and_sequence(self):
        p = Polynomial.from_terms([(1, ["a"]), (2, ["b"])])
        result = apply_abstraction([p, p], {"a": "g", "b": "g"})
        assert len(result.compressed) == 2
        assert result.compressed_size == 2

    def test_rejects_non_polynomial_sequence(self):
        with pytest.raises(AbstractionError):
            apply_abstraction([1, 2], {})

    def test_statistics(self, simple_provenance, simple_tree):
        result = apply_abstraction(simple_provenance, Cut.of(simple_tree, "A", "B"))
        assert result.original_size == simple_provenance.size()
        assert result.compressed_size == result.compressed.size()
        assert result.original_variables == simple_provenance.num_variables()
        assert result.compressed_variables == result.compressed.num_variables()
        assert result.size_reduction == result.original_size - result.compressed_size
        assert 0.0 < result.compression_ratio <= 1.0
        assert 0.0 < result.variable_retention <= 1.0

    def test_identity_abstraction_changes_nothing(self, simple_provenance):
        result = apply_abstraction(simple_provenance, Abstraction.identity())
        assert result.compressed == simple_provenance
        assert result.compression_ratio == 1.0

    def test_summary_keys(self, simple_provenance, simple_tree):
        summary = apply_abstraction(
            simple_provenance, Cut.of(simple_tree, "R")
        ).summary()
        assert {
            "original_size",
            "compressed_size",
            "compression_ratio",
            "original_variables",
            "compressed_variables",
            "variable_retention",
            "size_reduction",
        } <= set(summary)

    def test_compression_never_increases_size(self, simple_provenance, simple_tree):
        from repro.core.cut import enumerate_cuts

        for cut in enumerate_cuts(simple_tree):
            result = apply_abstraction(simple_provenance, cut)
            assert result.compressed_size <= result.original_size

    def test_evaluation_agrees_when_groups_share_values(self, example2, fig2_tree):
        """If all grouped variables get the same value, compression is lossless."""
        cut = Cut.of(fig2_tree, "Business", "Special", "Standard")
        result = apply_abstraction(example2, cut)
        full_valuation = {name: 1.0 for name in example2.variables()}
        # Scenario: all Special plans change by the same factor.
        for name in fig2_tree.leaves_under("Special"):
            if name in full_valuation:
                full_valuation[name] = 1.1
        compressed_valuation = {
            name: 1.0 for name in result.compressed.variables()
        }
        compressed_valuation["Special"] = 1.1
        full_results = example2.evaluate(full_valuation)
        compressed_results = result.compressed.evaluate(compressed_valuation)
        for key in full_results:
            assert compressed_results[key] == pytest.approx(full_results[key])


class TestCompressorPlans:
    """``Compressor`` caches one bound-independent plan per method."""

    BOUND_PERCENTS = (100, 80, 60, 40, 1)

    def test_dp_frontier_is_built_once_across_bounds(self):
        from repro.core.compression import Compressor
        from repro.core.optimizer import optimize_single_tree
        from repro.workloads.random_polynomials import random_single_tree_instance

        provenance, tree = random_single_tree_instance(
            num_leaves=9, num_groups=4, monomials_per_group=20, seed=11
        )
        compressor = Compressor()
        for percent in self.BOUND_PERCENTS:
            bound = provenance.size() * percent // 100
            result = compressor.compress(
                provenance, tree, bound, method="auto",
                allow_infeasible=True, keep_trace=True,
            )
            fresh = optimize_single_tree(
                provenance, tree, bound, allow_infeasible=True, keep_trace=True
            )
            assert result.algorithm == "dynamic-programming"
            assert result.cuts == fresh.cuts
            assert result.predicted_size == fresh.predicted_size
            assert result.feasible == fresh.feasible
            assert result.trace == fresh.trace
            assert result.compressed == fresh.compressed
        info = compressor.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == len(self.BOUND_PERCENTS) - 1

    def test_dp_and_greedy_plans_are_cached_separately(self):
        from repro.core.compression import Compressor
        from repro.workloads.random_polynomials import random_single_tree_instance

        provenance, tree = random_single_tree_instance(seed=4)
        compressor = Compressor()
        for method in ("dp", "greedy", "auto", "greedy"):
            compressor.compress(
                provenance, tree, provenance.size() // 2, method=method,
                allow_infeasible=True,
            )
        info = compressor.cache_info()
        assert info["misses"] == 2  # one frontier, one trajectory
        assert info["hits"] == 2

    def test_multi_leaf_input_falls_through_to_greedy(self):
        from repro.core.abstraction_tree import AbstractionTree
        from repro.core.compression import Compressor
        from repro.core.cut import count_cuts

        # 16 two-leaf groups under one root: 2**16 + 1 cuts, more than auto
        # enumerates, and every monomial pairs leaves of different groups.
        leaves = [f"x{i}" for i in range(32)]
        edges = {"R": [f"g{i}" for i in range(16)]}
        edges.update({f"g{i}": leaves[2 * i : 2 * i + 2] for i in range(16)})
        tree = AbstractionTree("R", edges)
        assert count_cuts(tree) > 20_000
        provenance = ProvenanceSet(
            {
                (f"k{i}",): Polynomial(
                    {Monomial.of(leaves[i], leaves[(i + 5) % 32]): 1.0 + i}
                )
                for i in range(32)
            }
        )
        compressor = Compressor()
        for bound in (32, 16):
            result = compressor.compress(
                provenance, tree, bound, method="auto", allow_infeasible=True
            )
            assert result.algorithm == "greedy"
        # Only the greedy trajectory was cached, and reused.
        assert compressor.cache_info()["entries"] == 1
