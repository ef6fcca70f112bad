"""Unit tests for hypothetical scenarios."""

import numpy as np
import pytest

from repro.exceptions import ScenarioError
from repro.engine.scenario import Scenario
from repro.provenance.valuation import Valuation


VARIABLES = ["p1", "f1", "b1", "b2", "e", "m1", "m3"]


class TestScenarioConstruction:
    def test_scenarios_are_immutable_and_fluent(self):
        base = Scenario("base")
        extended = base.scale(["m3"], 0.8)
        assert len(base.operations) == 0
        assert len(extended.operations) == 1

    def test_negative_scale_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario("bad").scale(["x"], -1.0)

    def test_nan_amounts_rejected(self):
        with pytest.raises(ScenarioError, match="NaN"):
            Scenario("bad").scale(["x"], float("nan"))
        with pytest.raises(ScenarioError, match="NaN"):
            Scenario("bad").set_value("x", float("nan"))
        with pytest.raises(ScenarioError, match="NaN"):
            Scenario("bad").set_value("x", np.float64("nan"))

    def test_infinite_amounts_allowed(self):
        # Tropical outages scale or set a cost to infinity.
        scenario = Scenario("outage").scale(["x"], float("inf")).set_value("y", float("inf"))
        assert [op.amount for op in scenario.operations] == [float("inf")] * 2


class TestApply:
    def test_march_discount(self):
        """Example 1: decrease the ppm of all plans by 20% in March."""
        scenario = Scenario("march").scale(["m3"], 0.8)
        valuation = scenario.apply(Valuation.uniform(VARIABLES, 1.0))
        assert valuation["m3"] == pytest.approx(0.8)
        assert valuation["m1"] == pytest.approx(1.0)

    def test_business_increase_with_predicate_selector(self):
        """Example 1: increase the ppm of the business plans by 10%."""
        business = {"b1", "b2", "e"}
        scenario = Scenario("business").scale(lambda name: name in business, 1.1)
        valuation = scenario.apply(Valuation.uniform(VARIABLES, 1.0))
        assert valuation["b1"] == pytest.approx(1.1)
        assert valuation["e"] == pytest.approx(1.1)
        assert valuation["p1"] == pytest.approx(1.0)

    def test_set_value(self):
        scenario = Scenario("freeze").set_value(["p1"], 0.0)
        valuation = scenario.apply(Valuation.uniform(VARIABLES, 1.0))
        assert valuation["p1"] == pytest.approx(0.0)

    def test_operations_compose_in_order(self):
        scenario = Scenario("combo").set_value(["m3"], 2.0).scale(["m3"], 0.5)
        valuation = scenario.apply(Valuation.uniform(VARIABLES, 1.0))
        assert valuation["m3"] == pytest.approx(1.0)

    def test_string_selector(self):
        scenario = Scenario("single").scale("m1", 1.2)
        valuation = scenario.apply(Valuation.uniform(VARIABLES, 1.0))
        assert valuation["m1"] == pytest.approx(1.2)

    def test_apply_accepts_plain_mappings(self):
        scenario = Scenario("s").scale(["m1"], 2.0)
        valuation = scenario.apply({"m1": 1.0, "m3": 1.0})
        assert valuation["m1"] == pytest.approx(2.0)


class TestResolvedOperations:
    def test_selectors_resolved_once_per_application(self):
        scenario = (
            Scenario("multi")
            .scale(["m1"], 2.0)
            .set_value("m3", 0.5)
            .scale(lambda name: name.startswith("b"), 1.1)
        )
        resolved = scenario.resolved_operations(VARIABLES)
        assert resolved == (
            ("scale", ("m1",), 2.0),
            ("set", ("m3",), 0.5),
            ("scale", ("b1", "b2"), 1.1),
        )

    def test_resolution_consumes_an_iterator_only_once(self):
        scenario = Scenario("two-ops").scale(["m1"], 2.0).scale(["m3"], 3.0)
        resolved = scenario.resolved_operations(iter(VARIABLES))
        assert resolved[0][1] == ("m1",)
        assert resolved[1][1] == ("m3",)

    def test_unknown_names_resolve_empty(self):
        scenario = Scenario("ghost").scale(["nope"], 2.0).scale("also-nope", 3.0)
        resolved = scenario.resolved_operations(VARIABLES)
        assert all(selected == () for _kind, selected, _amount in resolved)

    def test_explicit_variable_universe(self):
        scenario = Scenario("s").scale(lambda name: name.startswith("m"), 0.5)
        valuation = scenario.apply(Valuation({}), variables=["m1", "m9"])
        assert valuation["m9"] == pytest.approx(0.5)

    def test_affected_variables(self):
        scenario = (
            Scenario("s").scale(["m1"], 2.0).scale(lambda name: name.startswith("b"), 1.1)
        )
        assert set(scenario.affected_variables(VARIABLES)) == {"m1", "b1", "b2"}

    def test_selector_misses_are_silently_ignored(self):
        scenario = Scenario("s").scale(["not_present"], 2.0)
        valuation = scenario.apply(Valuation.uniform(VARIABLES, 1.0))
        assert "not_present" not in valuation
