"""Unit tests for the batch what-if subsystem (repro.batch)."""

import numpy as np
import pytest

from repro.batch import BatchEvaluator, BatchReport, ScenarioBatch
from repro.batch.evaluator import MetaLowering
from repro.core.compression import Abstraction
from repro.engine.plan import compose
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.exceptions import ScenarioError
from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.valuation import Valuation


@pytest.fixture
def provenance():
    result = ProvenanceSet()
    result[("g1",)] = Polynomial(
        {Monomial.of("x", "y"): 2.0, Monomial.of("z"): 3.0, Monomial.unit(): 1.0}
    )
    result[("g2",)] = Polynomial({Monomial.of("x"): 4.0, Monomial.of("y", "z"): 5.0})
    return result


class TestScenarioBatch:
    def test_columns_are_sorted_variable_universe(self):
        batch = ScenarioBatch([], ["b", "a", "c", "a"])
        assert batch.variables == ("a", "b", "c")
        assert list(batch.columns_for(["c", "a"])) == [2, 0]

    def test_valuation_matrix_rows_match_scenario_apply(self):
        variables = ("a", "b", "c")
        scenarios = [
            Scenario("noop"),
            Scenario("scale").scale(["b"], 0.5),
            Scenario("set-then-scale").set_value(["a"], 4.0).scale(["a"], 0.5),
            Scenario("predicate").scale(lambda n: n != "b", 2.0),
        ]
        batch = ScenarioBatch(scenarios, variables)
        base = Valuation({"a": 1.0, "b": 2.0, "c": 3.0})
        matrix = batch.valuation_matrix(base)
        for row, scenario in enumerate(scenarios):
            applied = scenario.apply(base, variables)
            expected = [applied[name] for name in batch.variables]
            assert matrix[row] == pytest.approx(expected)

    def test_missing_base_variables_default_to_one(self):
        batch = ScenarioBatch([Scenario("s").scale(["a"], 3.0)], ["a", "b"])
        matrix = batch.valuation_matrix(Valuation({"b": 5.0}))
        assert matrix[0] == pytest.approx([3.0, 5.0])

    def test_empty_selector_is_a_noop(self):
        batch = ScenarioBatch(
            [Scenario("ghost").scale(["not-there"], 9.0)], ["a", "b"]
        )
        matrix = batch.valuation_matrix()
        assert matrix[0] == pytest.approx([1.0, 1.0])

    def test_names_preserve_row_order(self):
        batch = ScenarioBatch([Scenario("one"), Scenario("two")], ["a"])
        assert batch.names == ("one", "two")
        assert len(batch) == 2

    def test_touched_fraction_empty_universe(self):
        # An empty variable universe (or an empty batch) must report 0.0,
        # not divide by zero — the mode heuristic runs on every batch.
        scenarios = [Scenario("s").scale(["a"], 2.0)]
        assert ScenarioBatch(scenarios, []).touched_fraction() == 0.0
        assert ScenarioBatch([], ["a"]).touched_fraction() == 0.0
        assert ScenarioBatch([], []).touched_fraction() == 0.0

    def test_touched_counts_match_a_per_scenario_loop(self):
        """The one vectorised pass counts what a per-scenario ``np.unique``
        over each scenario's selected columns counts."""
        rng = np.random.default_rng(5)
        variables = [f"v{i}" for i in range(12)]
        scenarios = []
        for index in range(40):
            scenario = Scenario(f"s{index}")
            for _ in range(int(rng.integers(0, 4))):
                picked = rng.choice(variables + ["ghost"], size=3).tolist()
                scenario = scenario.scale(picked, 2.0).set_value(picked[:1], 0.0)
            scenarios.append(scenario)
        batch = ScenarioBatch(scenarios, variables)
        expected = []
        for operations in batch.resolved_operations:
            selected = [columns for _kind, columns, _amount in operations]
            expected.append(
                np.unique(np.concatenate(selected)).size if selected else 0
            )
        assert batch.touched_counts().tolist() == expected
        assert batch.touched_counts() is batch.touched_counts()
        assert batch.touched_fraction() == sum(expected) / (40 * 12)


@pytest.mark.parametrize("name", ["real", "tropical", "bool"])
class TestEvaluateMatrix:
    def test_matches_per_valuation_evaluate(self, provenance, name):
        compiled = resolve_backend(name).compile(provenance)
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0.0, 2.0, size=(7, len(compiled.variables)))
        results = compiled.evaluate_matrix(matrix)
        for row in range(matrix.shape[0]):
            valuation = dict(zip(compiled.variables, matrix[row]))
            expected = compiled.evaluate(valuation)
            for column, key in enumerate(compiled.keys):
                assert results[row, column] == pytest.approx(float(expected[key]))

    def test_shape_validation(self, provenance, name):
        compiled = resolve_backend(name).compile(provenance)
        with pytest.raises(ValueError):
            compiled.evaluate_matrix(np.ones((2, len(compiled.variables) + 1)))
        with pytest.raises(ValueError):
            compiled.evaluate_matrix(np.ones(len(compiled.variables)))

    def test_evaluate_many_mappings(self, provenance, name):
        compiled = resolve_backend(name).compile(provenance)
        valuations = [
            {name: 1.0 for name in compiled.variables},
            {name: 0.5 for name in compiled.variables},
        ]
        results = compiled.evaluate_many(valuations)
        assert results.shape == (2, len(compiled.keys))
        assert compiled.evaluate_many([]).shape == (0, len(compiled.keys))


class TestBatchEvaluatorCache:
    def test_compile_is_cached_by_fingerprint(self, provenance):
        evaluator = BatchEvaluator(cache_size=2)
        first = evaluator.compile(provenance)
        second = evaluator.compile(provenance)
        assert first is second
        assert evaluator.cache_info()["hits"] == 1
        assert evaluator.cache_info()["misses"] == 1

    def test_structurally_equal_sets_share_a_compilation(self, provenance):
        clone = ProvenanceSet({key: poly for key, poly in provenance.items()})
        evaluator = BatchEvaluator()
        assert evaluator.compile(provenance) is evaluator.compile(clone)

    def test_nearly_equal_constants_compile_apart(self):
        # Coefficients that agree to 9 decimals are different provenance:
        # the cache must not answer for one with the other's compiled set.
        a = ProvenanceSet({("k",): Polynomial({Monomial.unit(): 2.0})})
        b = ProvenanceSet({("k",): Polynomial({Monomial.unit(): 2.0 + 4e-10})})
        evaluator = BatchEvaluator()
        compiled_a = evaluator.compile(a)
        compiled_b = evaluator.compile(b)
        assert compiled_b is not compiled_a
        assert compiled_b.evaluate({}) == {("k",): 2.0000000004}
        assert compiled_a.evaluate({}) == {("k",): 2.0}

    def test_mutation_invalidates_fingerprint(self, provenance):
        evaluator = BatchEvaluator()
        first = evaluator.compile(provenance)
        provenance[("g3",)] = Polynomial({Monomial.of("w"): 1.0})
        second = evaluator.compile(provenance)
        assert first is not second
        assert evaluator.cache_info()["misses"] == 2

    def test_lru_eviction(self):
        evaluator = BatchEvaluator(cache_size=1)
        a = ProvenanceSet({("a",): Polynomial({Monomial.of("x"): 1.0})})
        b = ProvenanceSet({("b",): Polynomial({Monomial.of("y"): 1.0})})
        evaluator.compile(a)
        evaluator.compile(b)
        assert evaluator.cache_info()["entries"] == 1
        evaluator.compile(a)  # evicted, so recompiled
        assert evaluator.cache_info()["misses"] == 3

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            BatchEvaluator(cache_size=0)
        with pytest.raises(ValueError):
            BatchEvaluator(chunk_size=0)


class TestBatchEvaluatorEvaluate:
    def test_chunked_and_unchunked_paths_agree(self, provenance):
        scenarios = [
            Scenario(f"s{i}").scale(["x"], 1.0 + i * 0.1) for i in range(10)
        ]
        plain = BatchEvaluator().evaluate(provenance, scenarios)
        chunked = BatchEvaluator(chunk_size=3).evaluate(provenance, scenarios)
        np.testing.assert_allclose(chunked.full_results, plain.full_results)

    def test_baseline_uses_base_valuation(self, provenance):
        evaluator = BatchEvaluator()
        report = evaluator.evaluate(
            provenance, [Scenario("noop")], base_valuation={"x": 2.0}
        )
        expected = provenance.evaluate(
            Valuation.identity_for(provenance).updated({"x": 2.0})
        )
        for column, key in enumerate(report.keys):
            assert report.baseline[column] == pytest.approx(expected[key])
            assert report.full_results[0, column] == pytest.approx(expected[key])

    def test_compressed_requires_abstraction(self, provenance):
        with pytest.raises(ValueError):
            BatchEvaluator().evaluate(
                provenance, [Scenario("s")], compressed=provenance
            )

    def test_empty_scenario_list(self, provenance):
        report = BatchEvaluator().evaluate(provenance, [])
        assert len(report) == 0
        assert report.full_results.shape == (0, len(provenance))


class TestNonFiniteAmounts:
    """``inf × 0`` is NaN on the real semiring, so the real backend rejects
    non-finite amounts up front; tropical and bool outages keep ``inf``."""

    @staticmethod
    def _provenance():
        result = ProvenanceSet()
        result[("g",)] = Polynomial(
            {Monomial({"x": 1, "y": 1}): 2.0, Monomial.of("y"): 3.0}
        )
        return result

    @pytest.mark.parametrize("mode", ["auto", "dense", "sparse", "factored"])
    @pytest.mark.parametrize(
        "bad",
        [
            Scenario("bad").scale(["x"], float("inf")),
            Scenario("bad").set_value("y", float("inf")),
            Scenario("bad").set_value(["x"], -float("inf")),
        ],
    )
    def test_real_rejects_in_every_mode(self, mode, bad):
        scenarios = [Scenario("fine").scale(["x"], 2.0), bad]
        with pytest.raises(ScenarioError, match="'bad'"):
            BatchEvaluator().evaluate(
                self._provenance(), scenarios,
                base_valuation={"x": 0.0, "y": 1.0}, mode=mode,
            )

    def test_real_rejects_plans_and_session_scenarios(self):
        provenance = self._provenance()
        plan = compose(
            Scenario("base").scale(["y"], 2.0),
            [Scenario("up").scale(["x"], float("inf"))],
        )
        with pytest.raises(ScenarioError, match="'up'"):
            BatchEvaluator().evaluate_plan(provenance, plan)
        session = CobraSession(provenance, base_valuation={"x": 0.0, "y": 1.0})
        bad = Scenario("outage").scale(["x"], float("inf"))
        with pytest.raises(ScenarioError, match="'outage'"):
            session.assign_scenario(bad)
        with pytest.raises(ScenarioError, match="'outage'"):
            session.evaluate_many([bad])
        fine = session.evaluate_many([Scenario("fine").scale(["x"], 2.0)])
        assert not np.isnan(fine.full_results).any()

    @pytest.mark.parametrize("semiring", ["tropical", "bool"])
    def test_tropical_and_bool_accept_inf(self, semiring):
        scenarios = [
            Scenario(f"outage{i}")
            .set_value(["x"], float("inf"))
            .scale(["y"], float(i))
            for i in range(3)
        ] + [Scenario("cut").scale(["y"], float("inf"))]
        reports = {
            mode: BatchEvaluator().evaluate(
                self._provenance(), scenarios,
                base_valuation={"x": 1.0, "y": 2.0}, semiring=semiring,
                mode=mode,
            )
            for mode in ("dense", "sparse", "factored")
        }
        dense = reports["dense"].full_results
        assert not np.isnan(dense.astype(np.float64)).any()
        for report in reports.values():
            assert np.array_equal(report.full_results, dense)


class TestLowerMetaMatrix:
    def test_meta_columns_average_members(self):
        abstraction = Abstraction.from_groups({"M": ["x", "y"]})
        batch = ScenarioBatch([Scenario("s")], ["x", "y", "z"])
        matrix = np.array([[2.0, 4.0, 7.0]])
        lowering = MetaLowering(abstraction, batch.variables, ["M", "z"])
        lowered = lowering.lower_matrix(matrix, 1.0)
        assert lowered[0] == pytest.approx([3.0, 7.0])

    def test_unknown_variables_default_to_one(self):
        abstraction = Abstraction.from_groups({"M": ["absent1", "absent2"]})
        batch = ScenarioBatch([Scenario("s")], ["x"])
        lowering = MetaLowering(abstraction, batch.variables, ["M", "other"])
        lowered = lowering.lower_matrix(np.array([[5.0]]), 1.0)
        assert lowered[0] == pytest.approx([1.0, 1.0])


class TestBatchReport:
    def _report(self):
        return BatchReport(
            scenario_names=("up", "down"),
            keys=(("g1",), ("g2",)),
            baseline=np.array([10.0, 20.0]),
            full_results=np.array([[12.0, 21.0], [9.0, 18.0]]),
            compressed_results=np.array([[12.5, 21.0], [9.0, 17.0]]),
            full_size=100,
            compressed_size=40,
        )

    def test_deltas_and_ranking(self):
        report = self._report()
        np.testing.assert_allclose(report.total_deltas, [3.0, -3.0])
        assert report.ranked_by_total_delta() == (0, 1)
        outcome = report.outcome(1)
        assert outcome.total_delta == pytest.approx(-3.0)
        assert outcome.deltas[("g2",)] == pytest.approx(-2.0)

    def test_abstraction_errors(self):
        report = self._report()
        assert report.max_absolute_error == pytest.approx(1.0)
        assert report.mean_absolute_error == pytest.approx(0.375)
        assert report.max_relative_error == pytest.approx(1.0 / 18.0)

    def test_errors_without_compressed_results(self):
        report = BatchReport(
            scenario_names=("s",),
            keys=(("g",),),
            baseline=np.array([1.0]),
            full_results=np.array([[2.0]]),
        )
        assert report.absolute_errors is None
        assert report.max_absolute_error == 0.0
        assert report.max_relative_error == 0.0

    def test_render_and_summary(self):
        report = self._report()
        text = report.render_text(max_rows=1)
        assert "2 scenarios x 2 result groups" in text
        assert "more scenarios" in text
        summary = report.summary()
        assert summary["scenarios"] == 2
        assert summary["compressed_size"] == 40
        assert report.outcome(0).as_dict()["name"] == "up"
