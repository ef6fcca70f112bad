"""Exhaustive parity tests for the incremental compression kernel.

The kernel must be a pure optimisation: byte-identical cut sequences (and
therefore identical compressed provenance) to the full-rescan greedy oracle
(``tests/oracles/greedy_scan.py``) on every instance, and consistent with the
brute-force oracle on every tree small enough to enumerate.
"""

import pytest

from oracles.greedy_scan import legacy_greedy

from repro.exceptions import AbstractionError, InfeasibleBoundError
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
from repro.core.brute_force import optimize_brute_force
from repro.core.compression import METHODS, Compressor
from repro.core.greedy import optimize_greedy
from repro.core.kernel.greedy import IncrementalGreedyKernel
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.workloads.random_polynomials import (
    random_provenance,
    random_single_tree_instance,
    random_tree,
)


def _assert_identical(legacy, incremental):
    """Byte-identical outcome: cuts, step trace, sizes, compressed set."""
    assert incremental.cuts == legacy.cuts
    assert incremental.cut == legacy.cut
    assert incremental.trace == legacy.trace
    assert incremental.predicted_size == legacy.predicted_size
    assert incremental.feasible == legacy.feasible
    assert incremental.achieved_size == legacy.achieved_size
    assert incremental.compressed == legacy.compressed
    assert incremental.algorithm == legacy.algorithm == "greedy"


class TestCutSequenceParity:
    def test_single_tree_instances(self):
        for seed in range(6):
            provenance, tree = random_single_tree_instance(
                num_leaves=8, num_groups=4, monomials_per_group=15, seed=seed
            )
            for fraction in (0.95, 0.6, 0.3, 0.05):
                bound = max(1, int(provenance.size() * fraction))
                legacy = legacy_greedy(
                    provenance, tree, bound,
                    allow_infeasible=True, keep_trace=True,
                )
                incremental = optimize_greedy(
                    provenance, tree, bound,
                    allow_infeasible=True, keep_trace=True,
                )
                _assert_identical(legacy, incremental)

    def test_forest_with_multi_variable_monomials(self):
        for seed in range(4):
            plans = random_tree(
                6, seed=seed, leaf_prefix="x", inner_prefix="gx", root="RX"
            )
            months = random_tree(
                5, seed=seed + 50, leaf_prefix="y", inner_prefix="gy", root="RY"
            )
            forest = AbstractionForest([plans, months])
            provenance = random_provenance(
                plans.leaves(),
                num_groups=3,
                monomials_per_group=14,
                extra_variables=list(months.leaves()) + ["e1", "e2"],
                max_degree=3,
                seed=seed,
            )
            for fraction in (0.8, 0.4, 0.1):
                bound = max(1, int(provenance.size() * fraction))
                legacy = legacy_greedy(
                    provenance, forest, bound,
                    allow_infeasible=True, keep_trace=True,
                )
                incremental = optimize_greedy(
                    provenance, forest, bound,
                    allow_infeasible=True, keep_trace=True,
                )
                _assert_identical(legacy, incremental)

    def test_infeasible_bound_raises_identically(self, simple_provenance, simple_tree):
        with pytest.raises(InfeasibleBoundError):
            optimize_greedy(simple_provenance, simple_tree, bound=2)

    def test_loose_bound_returns_leaf_cut_without_steps(
        self, simple_provenance, simple_tree
    ):
        result = optimize_greedy(
            simple_provenance, simple_tree, bound=1_000,
            keep_trace=True,
        )
        assert result.cut.is_leaf_cut()
        assert result.trace == {"steps": []}



class TestBruteForceCrossCheck:
    """On every tree small enough to enumerate, the greedy (and its oracle)
    must agree with the brute-force oracle on feasibility, respect the bound
    whenever the oracle says it is reachable, and never report more cut
    variables than the optimum."""

    def test_bound_sweep_on_small_trees(self):
        for num_leaves in (4, 6, 8, 10):
            provenance, tree = random_single_tree_instance(
                num_leaves=num_leaves,
                num_groups=3,
                monomials_per_group=12,
                seed=num_leaves,
            )
            size = provenance.size()
            for bound in range(0, size + 2, max(1, size // 8)):
                oracle = optimize_brute_force(
                    provenance, tree, bound, allow_infeasible=True
                )
                incremental = optimize_greedy(
                    provenance, tree, bound, allow_infeasible=True
                )
                legacy = legacy_greedy(
                    provenance, tree, bound, allow_infeasible=True
                )
                assert incremental.cuts == legacy.cuts
                # Full coarsening reaches the global minimum size, so the
                # greedy is feasible exactly when the oracle is.
                assert incremental.feasible == oracle.feasible
                if oracle.feasible:
                    assert incremental.achieved_size <= bound
                    # The oracle maximises cut cardinality among feasible
                    # cuts; a feasible greedy cut can never beat it.
                    assert (
                        incremental.cut.num_variables()
                        <= oracle.cut.num_variables()
                    )


class TestKernelPreconditions:
    def _colliding_instance(self):
        # "G2" is an inner node *and* a free provenance variable: coarsening
        # there would merge the meta-variable with the real variable, so
        # every method and entry point rejects the input.
        tree = AbstractionTree("R", {"R": ["G2"], "G2": ["a", "b"]})
        provenance = ProvenanceSet()
        provenance[("g",)] = Polynomial(
            {Monomial.of("a"): 1.0, Monomial.of("b"): 2.0, Monomial.of("G2"): 3.0}
        )
        return provenance, tree

    @pytest.mark.parametrize("method", METHODS)
    def test_compressor_rejects_collision_for_every_method(self, method):
        provenance, tree = self._colliding_instance()
        with pytest.raises(AbstractionError, match="G2"):
            Compressor().compress(
                provenance, tree, bound=1, method=method, allow_infeasible=True
            )

    def test_optimize_greedy_rejects_collision(self):
        provenance, tree = self._colliding_instance()
        with pytest.raises(AbstractionError, match="G2"):
            optimize_greedy(provenance, tree, bound=1, allow_infeasible=True)

    def test_kernel_rejects_collision(self):
        provenance, tree = self._colliding_instance()
        with pytest.raises(AbstractionError, match="G2"):
            IncrementalGreedyKernel(provenance, tree)


class TestCompressor:
    def test_sweep_matches_per_bound_legacy(self):
        provenance, tree = random_single_tree_instance(
            num_leaves=9, num_groups=4, monomials_per_group=16, seed=3
        )
        compressor = Compressor()
        size = provenance.size()
        bounds = [size, int(size * 0.7), int(size * 0.4), 1]
        swept = compressor.sweep(
            provenance, tree, bounds, allow_infeasible=True
        )
        for bound in bounds:
            legacy = legacy_greedy(
                provenance, tree, bound, allow_infeasible=True
            )
            assert swept[bound].cuts == legacy.cuts
            assert swept[bound].predicted_size == legacy.predicted_size
            assert swept[bound].feasible == legacy.feasible

    def test_trajectory_is_reused_across_bounds(self):
        provenance, tree = random_single_tree_instance(
            num_leaves=7, num_groups=3, monomials_per_group=10, seed=9
        )
        compressor = Compressor()
        compressor.compress(provenance, tree, bound=provenance.size())
        assert compressor.cache_info()["misses"] == 1
        compressor.compress(provenance, tree, bound=1, allow_infeasible=True)
        info = compressor.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1

    def test_strategy_routing(self, simple_provenance, simple_tree):
        compressor = Compressor()
        greedy = compressor.compress(
            simple_provenance, simple_tree, bound=6, method="greedy"
        )
        assert greedy.algorithm == "greedy"
        dp = compressor.compress(
            simple_provenance, simple_tree, bound=6, method="dp"
        )
        assert dp.algorithm == "dynamic-programming"
        for retired in ("nope", "legacy", "incremental"):
            with pytest.raises(ValueError):
                compressor.compress(
                    simple_provenance, simple_tree, 6, method=retired
                )
        with pytest.raises(ValueError):
            compressor.compress(simple_provenance, simple_tree, -1)

    def test_infeasible_bound(self, simple_provenance, simple_tree):
        compressor = Compressor()
        with pytest.raises(InfeasibleBoundError):
            compressor.compress(simple_provenance, simple_tree, bound=2)
        result = compressor.compress(
            simple_provenance, simple_tree, bound=2, allow_infeasible=True
        )
        assert not result.feasible
        assert result.cut.is_root_cut()


class TestServiceWiring:
    def test_session_compress_greedy_and_sweep(self):
        from repro.engine.session import CobraSession
        from repro.workloads.abstraction_trees import plans_tree
        from repro.workloads.telephony import example2_provenance

        provenance = example2_provenance()
        session = CobraSession(provenance)
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        result = session.compress(method="greedy")
        assert result.algorithm == "greedy"
        assert result.achieved_size <= 6
        # The committed compression drives the assignment path as usual.
        report = session.assign(measure_assignment_speedup=False)
        assert report.compressed_size == result.achieved_size

        swept = session.compress_sweep([8, 6, 4], allow_infeasible=True)
        assert set(swept) == {8, 6, 4}
        assert swept[6].cuts == result.cuts
        # The sweep and the committed compress share one trajectory cache.
        assert session.compressor().cache_info()["misses"] == 1

    def test_batch_compress_and_evaluate(self):
        from repro.batch.evaluator import BatchEvaluator
        from repro.engine.scenario import Scenario
        from repro.workloads.abstraction_trees import plans_tree
        from repro.workloads.telephony import example2_provenance

        provenance = example2_provenance()
        tree = plans_tree()
        scenarios = [
            Scenario("march -20%").scale(["m3"], 0.8),
            Scenario("noop"),
        ]
        evaluator = BatchEvaluator()
        report, result = evaluator.compress_and_evaluate(
            provenance, tree, bound=6, scenarios=scenarios
        )
        assert result.algorithm == "greedy"
        assert report.compressed_size == result.achieved_size
        assert len(report) == len(scenarios)
        # Repeat sweeps at other bounds reuse the cached trajectory (the
        # cache pins the tree *object*, since Cut equality is identity-based).
        evaluator.compress_and_evaluate(
            provenance, tree, bound=4, scenarios=scenarios,
            allow_infeasible=True,
        )
        assert evaluator.compressor.cache_info()["hits"] >= 1


class TestKernelStepping:
    def test_best_matches_applied_choice_and_sizes_track(self):
        provenance, tree = random_single_tree_instance(
            num_leaves=6, num_groups=3, monomials_per_group=10, seed=5
        )
        kernel = IncrementalGreedyKernel(provenance, tree)
        legacy = legacy_greedy(
            provenance, tree, bound=1, allow_infeasible=True, keep_trace=True
        )
        for step in legacy.trace["steps"]:
            assert kernel.best() == step["coarsened_at"]
            applied = kernel.apply(kernel.best())
            assert applied["size_after"] == step["size_after"]
        assert kernel.best() is None
        assert kernel.cuts() == legacy.cuts

    def test_apply_rejects_invalid_candidates(self, simple_provenance, simple_tree):
        kernel = IncrementalGreedyKernel(simple_provenance, simple_tree)
        with pytest.raises(ValueError):
            kernel.apply("a1")  # a leaf, never a candidate
        kernel.apply("R")
        with pytest.raises(ValueError):
            kernel.apply("A")  # below the cut after coarsening at the root
