"""Unit tests for semiring-generic batch evaluation."""

import numpy as np
import pytest

from repro.batch import BatchEvaluator
from repro.core.compression import Abstraction, apply_abstraction
from repro.engine.plan import compose
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.exceptions import ScenarioError
from repro.provenance.backends import resolve_backend
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.semiring import evaluate_in_semiring
from repro.provenance.valuation import Valuation
from repro.workloads.abstraction_trees import nation_variable
from repro.workloads.routing import (
    RoutingConfig,
    generate_routing_provenance,
    routing_base_costs,
    routing_scenario_sweep,
    trunk_group_tree,
)
from repro.workloads.tpch import TpchConfig, generate_tpch_catalog
from repro.workloads.tpch_queries import customers_by_nation, tpch_deletion_provenance


@pytest.fixture
def provenance():
    prov = ProvenanceSet()
    prov[("a",)] = Polynomial.from_terms([(2.0, ["x", "y"]), (3.0, ["y"])])
    prov[("b",)] = Polynomial.from_terms([(4.0, ["x", "z"])])
    return prov


class TestNumericBatch:
    def test_tropical_batch_matches_sequential(self, provenance):
        evaluator = BatchEvaluator()
        backend = resolve_backend("tropical")
        base = {"x": 1.0, "y": 2.0, "z": 3.0}
        scenarios = [
            Scenario("congest x").scale(["x"], 2.0),
            Scenario("pin z").set_value(["z"], 0.5),
            Scenario("noop"),
        ]
        report = evaluator.evaluate(
            provenance, scenarios, base_valuation=base, semiring="tropical"
        )
        assert report.semiring == "tropical"
        compiled = backend.compile(provenance)
        for i, scenario in enumerate(scenarios):
            from repro.provenance.valuation import Valuation

            valuation = scenario.apply(
                Valuation(base, semiring="tropical"), ["x", "y", "z"]
            )
            expected = compiled.evaluate(valuation)
            for j, key in enumerate(report.keys):
                assert report.full_results[i, j] == pytest.approx(expected[key])

    def test_bool_batch_results_are_indicator_floats(self, provenance):
        evaluator = BatchEvaluator()
        scenarios = [
            Scenario("delete x").set_value(["x"], 0),
            Scenario("delete x and y").set_value(["x", "y"], 0),
        ]
        report = evaluator.evaluate(provenance, scenarios, semiring="bool")
        # group a survives without x (monomial 3*y), group b does not.
        assert report.full_results[0].tolist() == [1.0, 0.0]
        assert report.full_results[1].tolist() == [0.0, 0.0]
        assert report.baseline.tolist() == [1.0, 1.0]

    def test_compile_cache_is_per_backend(self, provenance):
        evaluator = BatchEvaluator()
        real = evaluator.compile(provenance)
        tropical = evaluator.compile(provenance, "tropical")
        assert real is not tropical
        assert evaluator.compile(provenance) is real
        assert evaluator.compile(provenance, "tropical") is tropical


class TestBooleanDeletionEmptiesAKey:
    """Deleting every customer of one market segment extinguishes its key.

    ``tpch_deletion_provenance`` keys are market segments, each a sum of 4–8
    one-customer monomials at this scale, so only a deletion covering the
    whole segment turns a key false.  Every Boolean pipeline must agree with
    ``evaluate_in_semiring``, on the full set and on a set compressed by
    nation.
    """

    @pytest.fixture(scope="class")
    def workload(self):
        catalog = generate_tpch_catalog(TpchConfig(scale=0.0002, seed=1))
        provenance = tpch_deletion_provenance(catalog).provenance
        groups = {
            nation_variable(nation): members
            for nation, members in customers_by_nation(catalog).items()
        }
        abstraction = Abstraction.from_groups(groups)
        compressed = apply_abstraction(provenance, abstraction).compressed
        return provenance, groups, abstraction, compressed

    @staticmethod
    def _scenarios(provenance):
        keys = sorted(provenance.keys())
        segment = sorted(provenance[keys[0]].variables())
        other = sorted(provenance[keys[1]].variables())
        base = Scenario("drop first").set_value(segment[:1], 0)
        variants = [
            Scenario("empty the segment").set_value(segment[1:], 0),
            Scenario("all but one").set_value(segment[1:-1], 0),
            Scenario("elsewhere").set_value(other[:3], 0),
            Scenario("restore").set_value(segment[:1], 1),
        ]
        return keys[0], tuple(compose(base, variants).lower())

    @pytest.mark.parametrize("mode", ["sparse", "factored", "dense"])
    def test_matches_the_reference_and_empties_the_key(self, workload, mode):
        provenance, groups, abstraction, compressed = workload
        backend = resolve_backend("bool")
        emptied, scenarios = self._scenarios(provenance)
        report = BatchEvaluator().evaluate(
            provenance,
            scenarios,
            compressed=compressed,
            abstraction=abstraction,
            semiring="bool",
            mode=mode,
        )
        assert report.mode == mode
        base = Valuation.uniform(provenance.variables(), True, semiring="bool")
        for row, scenario in enumerate(scenarios):
            valuation = scenario.apply(base)
            # The mean lowering is non-zero exactly when some member is true.
            meta_valuation = dict(valuation)
            for meta, members in groups.items():
                meta_valuation[meta] = any(valuation[name] for name in members)
            for column, key in enumerate(report.keys):
                full = evaluate_in_semiring(
                    provenance[key], backend.semiring, valuation,
                    coefficient_embedding=backend.embed_coefficient,
                )
                reduced = evaluate_in_semiring(
                    compressed[key], backend.semiring, meta_valuation,
                    coefficient_embedding=backend.embed_coefficient,
                )
                assert report.full_results[row, column] == float(full)
                assert report.compressed_results[row, column] == float(reduced)
        emptied_column = list(report.keys).index(emptied)
        assert report.full_results[:, emptied_column].tolist() == [
            0.0, 1.0, 1.0, 1.0
        ]
        assert report.full_results[0].sum() == len(report.keys) - 1


class TestGenericBatch:
    def test_lineage_batch_object_matrices(self, provenance):
        evaluator = BatchEvaluator()
        scenarios = [
            Scenario("delete x").set_value(["x"], 0),
            Scenario("noop"),
        ]
        report = evaluator.evaluate(provenance, scenarios, semiring="lineage")
        assert report.full_results.dtype == object
        assert report.full_results[0, 0] == frozenset({"y"})
        assert report.full_results[0, 1] is None
        assert report.full_results[1, 1] == frozenset({"x", "z"})
        # deltas are backend distances from the baseline.
        deltas = report.deltas
        assert deltas.dtype == np.float64
        assert deltas[1].tolist() == [0.0, 0.0]
        assert deltas[0, 0] > 0.0

    def test_why_batch_with_compression_reports_errors(self, provenance):
        abstraction = Abstraction.from_groups({"g": ["x", "y"]})
        compressed = apply_abstraction(provenance, abstraction).compressed
        evaluator = BatchEvaluator()
        scenarios = [Scenario("noop"), Scenario("delete z").set_value(["z"], 0)]
        report = evaluator.evaluate(
            provenance,
            scenarios,
            compressed=compressed,
            abstraction=abstraction,
            semiring="why",
        )
        assert report.compressed_results is not None
        assert report.absolute_errors is not None
        assert report.max_absolute_error >= 0.0
        assert report.summary()["semiring"] == "why"
        assert "semiring: why" in report.render_text()
        outcome = report.outcome(0)
        assert isinstance(outcome.results[("a",)], frozenset)
        outcome.as_dict()  # JSON-friendly even with set values


class TestSessionBatchRouting:
    def test_evaluate_many_tropical_round_trip(self):
        config = RoutingConfig(num_zips=6, num_trunks=6, routes_per_zip=3)
        provenance = generate_routing_provenance(config)
        session = CobraSession(
            provenance,
            base_valuation=routing_base_costs(config).as_dict(),
            semiring="tropical",
        )
        session.set_abstraction_trees(trunk_group_tree(config))
        session.set_bound(max(1, provenance.size() // 2))
        session.compress(allow_infeasible=True)
        scenarios = routing_scenario_sweep(9, config)
        report = session.evaluate_many(scenarios)
        assert report.semiring == "tropical"
        assert report.full_results.shape == (9, len(provenance))
        # Every batch row agrees with the sequential interactive path.
        for i, scenario in enumerate(scenarios):
            sequential = session.assign_scenario(
                scenario, measure_assignment_speedup=False
            )
            for j, key in enumerate(report.keys):
                group = next(g for g in sequential.groups if g.key == key)
                assert report.full_results[i, j] == pytest.approx(group.full_result)


class TestEdgeCaseRegressions:
    """Regressions from review: NaN/skip hazards at zero and infinity."""

    def test_scaled_does_not_resurrect_deleted_lineage_variable(self):
        from repro.engine.scenario import Scenario
        from repro.provenance.valuation import Valuation

        valuation = Valuation({}, semiring="lineage")
        deleted_then_scaled = (
            Scenario("d").set_value(["x"], 0).scale(["x"], 1.2)
        ).apply(valuation, ["x"])
        assert deleted_then_scaled["x"] is None  # still deleted

    def test_error_metrics_infinite_baseline_reports_inf_not_nan(self):
        from repro.core.metrics import compute_error_metrics

        errors = compute_error_metrics(
            {("g",): float("inf")}, {("g",): 5.0}, semiring="tropical"
        )
        assert errors["max_abs_error"] == float("inf")
        assert errors["max_rel_error"] == float("inf")  # not NaN
        assert errors["mean_rel_error"] == float("inf")

    def test_batch_report_zero_baseline_relative_error_not_skipped(self):
        from repro.batch.report import BatchReport

        report = BatchReport(
            scenario_names=("s",),
            keys=(("g",),),
            baseline=np.array([0.0]),
            full_results=np.array([[0.0]]),
            compressed_results=np.array([[1.0]]),
            semiring="bool",
        )
        assert report.max_relative_error > 1.0  # was silently 0.0

    def test_batch_report_tropical_inf_deltas_are_zero_not_nan(self):
        from repro.batch.report import BatchReport

        inf = float("inf")
        report = BatchReport(
            scenario_names=("s",),
            keys=(("g",), ("h",)),
            baseline=np.array([inf, 2.0]),
            full_results=np.array([[inf, 3.0]]),
            semiring="tropical",
        )
        assert report.deltas.tolist() == [[0.0, 1.0]]
        assert report.total_deltas.tolist() == [1.0]

    def test_batch_report_inf_error_cells_are_zero_when_equal(self):
        from repro.batch.report import BatchReport

        inf = float("inf")
        report = BatchReport(
            scenario_names=("s",),
            keys=(("g",),),
            baseline=np.array([inf]),
            full_results=np.array([[inf]]),
            compressed_results=np.array([[inf]]),
            semiring="tropical",
        )
        assert report.absolute_errors.tolist() == [[0.0]]
        assert report.max_relative_error == 0.0


class TestTropicalZeroTimesInf:
    """A tropical ``scale(sel, inf)`` of a zero cost is ``0 × inf`` — NaN —
    and is rejected by name in every mode; ``set_value(sel, inf)`` cuts a
    link, and scaling a positive cost by ``inf`` keeps working."""

    INF = float("inf")

    @pytest.fixture
    def provenance(self):
        prov = ProvenanceSet()
        prov[("k",)] = Polynomial.from_terms([(2.0, ["x", "y"]), (3.0, ["y"])])
        return prov

    def _evaluate(self, provenance, scenarios, mode, base=None):
        return BatchEvaluator().evaluate(
            provenance, scenarios, base_valuation=base,
            semiring="tropical", mode=mode,
        )

    @pytest.mark.parametrize("mode", ["dense", "sparse", "factored"])
    def test_scaling_a_zero_cost_by_inf_raises(self, provenance, mode):
        scenarios = [
            Scenario("fine").scale(["x"], 2.0),
            Scenario("cut y").scale(["x"], 2.0).scale(["y"], self.INF),
        ]
        with np.errstate(invalid="ignore"), pytest.raises(
            ScenarioError, match=r"'cut y'.*'y'.*set_value"
        ):
            self._evaluate(provenance, scenarios, mode)

    def test_a_nan_shared_prefix_raises_factored(self, provenance):
        scenarios = [
            Scenario(f"s{i}").scale(["y"], self.INF).scale(["x"], 1.0 + i)
            for i in range(3)
        ]
        with np.errstate(invalid="ignore"), pytest.raises(
            ScenarioError, match=r"'s0'.*'y'"
        ):
            self._evaluate(provenance, scenarios, "factored")

    def test_a_prefix_nan_overwritten_by_every_scenario_passes(self, provenance):
        scenarios = [
            Scenario(f"s{i}").scale(["y"], self.INF).set_value(["y"], 1.0 + i)
            for i in range(3)
        ]
        with np.errstate(invalid="ignore"):
            factored = self._evaluate(provenance, scenarios, "factored")
            dense = self._evaluate(provenance, scenarios, "dense")
        np.testing.assert_array_equal(factored.full_results, dense.full_results)

    @pytest.mark.parametrize("mode", ["dense", "sparse", "factored"])
    def test_scaling_a_positive_cost_by_inf_is_an_outage(self, provenance, mode):
        scenarios = [
            Scenario("keep").scale(["x"], 2.0),
            Scenario("outage").scale(["x"], 2.0).scale(["y"], self.INF),
        ]
        report = self._evaluate(provenance, scenarios, mode, {"x": 1.0, "y": 1.5})
        assert report.full_results.tolist() == [[4.5], [self.INF]]

    def test_set_value_inf_cuts_a_zero_cost_link(self, provenance):
        report = self._evaluate(
            provenance, [Scenario("cut").set_value(["y"], self.INF)], "dense"
        )
        assert report.full_results.tolist() == [[self.INF]]

    def test_session_assign_scenario_raises(self, provenance):
        session = CobraSession(provenance, semiring="tropical")
        with np.errstate(invalid="ignore"), pytest.raises(
            ScenarioError, match=r"'cut y'.*'y'"
        ):
            session.assign_scenario(
                Scenario("cut y").scale(["y"], self.INF),
                measure_assignment_speedup=False,
            )
