"""Unit tests for the semiring evaluation backends."""

import numpy as np
import pytest

from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.exceptions import MissingValuationError, SemiringError
from repro.provenance.backends import (
    SEMIRING_BACKEND_NAMES,
    BooleanBackend,
    GenericBackend,
    LineageBackend,
    RealBackend,
    TropicalBackend,
    WhyBackend,
    resolve_backend,
)
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.semiring import (
    CountingSemiring,
    TropicalSemiring,
    WhySemiring,
    evaluate_in_semiring,
)
from repro.provenance.valuation import Valuation
from repro.workloads.abstraction_trees import plans_tree
from repro.workloads.telephony import example2_provenance


@pytest.fixture
def provenance():
    prov = ProvenanceSet()
    prov[("a",)] = Polynomial.from_terms([(2.5, ["x", "y"]), (3, ["y"]), (1.5, [])])
    prov[("b",)] = Polynomial.from_terms([(4, ["x", "x", "z"])])
    prov[("c",)] = Polynomial.zero()
    return prov


def identity_valuation(backend, names=("x", "y", "z")):
    return {name: backend.default_value(name) for name in names}


class TestRegistry:
    def test_all_five_backends_registered(self):
        assert SEMIRING_BACKEND_NAMES == ("real", "tropical", "bool", "why", "lineage")

    def test_resolve_by_name_instance_and_backend(self):
        backend = resolve_backend("tropical")
        assert isinstance(backend, TropicalBackend)
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend(TropicalSemiring()), TropicalBackend)
        assert isinstance(resolve_backend(None), RealBackend)
        assert isinstance(resolve_backend(CountingSemiring()), RealBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(SemiringError, match="unknown semiring backend"):
            resolve_backend("viterbi")

    def test_unregistered_semiring_raises(self):
        from repro.provenance.semiring import PolynomialSemiring

        with pytest.raises(SemiringError, match="no registered backend"):
            resolve_backend(PolynomialSemiring())


class TestCompiledParity:
    """Every backend's compiled evaluation equals the reference homomorphism."""

    @pytest.mark.parametrize("name", SEMIRING_BACKEND_NAMES)
    def test_identity_valuation_parity(self, provenance, name):
        backend = resolve_backend(name)
        valuation = identity_valuation(backend)
        got = backend.compile(provenance).evaluate(valuation)
        for key, polynomial in provenance.items():
            want = evaluate_in_semiring(
                polynomial,
                backend.semiring,
                valuation,
                coefficient_embedding=backend.embed_coefficient,
            )
            if isinstance(want, float):
                assert got[key] == pytest.approx(want)
            else:
                assert got[key] == want

    def test_tropical_is_min_cost(self):
        prov = ProvenanceSet()
        prov[("g",)] = Polynomial.from_terms([(1.0, ["x", "y"]), (10.0, ["z"])])
        backend = resolve_backend("tropical")
        result = backend.compile(prov).evaluate({"x": 2.0, "y": 3.0, "z": 1.0})
        # route 1: 1 + 2 + 3 = 6; route 2: 10 + 1 = 11.
        assert result[("g",)] == pytest.approx(6.0)

    def test_tropical_empty_polynomial_is_unreachable(self, provenance):
        backend = resolve_backend("tropical")
        result = backend.compile(provenance).evaluate(identity_valuation(backend))
        assert result[("c",)] == float("inf")

    def test_bool_deletion(self):
        prov = ProvenanceSet()
        prov[("g",)] = Polynomial.from_terms([(1.0, ["x", "y"]), (2.0, ["z"])])
        backend = resolve_backend("bool")
        compiled = backend.compile(prov)
        assert compiled.evaluate({"x": True, "y": False, "z": True})[("g",)] is True
        assert compiled.evaluate({"x": True, "y": False, "z": False})[("g",)] is False

    def test_bool_exponents_are_idempotent(self):
        prov = ProvenanceSet()
        prov[("g",)] = Polynomial.from_terms([(1.0, ["x", "x", "x"])])
        backend = resolve_backend("bool")
        assert backend.compile(prov).evaluate({"x": True})[("g",)] is True

    @pytest.mark.parametrize("name", ["tropical", "bool"])
    def test_matrix_path_matches_per_valuation(self, provenance, name):
        backend = resolve_backend(name)
        compiled = backend.compile(provenance)
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0.0, 2.0, size=(5, len(compiled.variables)))
        if name == "bool":
            matrix = (matrix > 1.0).astype(np.float64)
        batch = compiled.evaluate_matrix(matrix)
        for row in range(matrix.shape[0]):
            valuation = dict(zip(compiled.variables, matrix[row]))
            single = compiled.evaluate(valuation)
            for j, key in enumerate(compiled.keys):
                assert float(batch[row, j]) == pytest.approx(
                    float(single[key]), abs=1e-9
                )

    @pytest.mark.parametrize("name", SEMIRING_BACKEND_NAMES)
    def test_missing_variable_raises(self, provenance, name):
        backend = resolve_backend(name)
        with pytest.raises(MissingValuationError):
            backend.compile(provenance).evaluate({"x": backend.default_value("x")})

    @pytest.mark.parametrize("name", ["real", "tropical", "bool"])
    def test_evaluate_vector_checks_coverage(self, provenance, name):
        backend = resolve_backend(name)
        compiled = backend.compile(provenance)
        with pytest.raises(MissingValuationError):
            compiled.evaluate_vector({"x": backend.default_value("x")})
        valuation = identity_valuation(backend)
        np.testing.assert_array_equal(
            compiled.evaluate_vector(valuation),
            np.array([float(v) for v in compiled.evaluate(valuation).values()]),
        )

    @pytest.mark.parametrize("name", SEMIRING_BACKEND_NAMES)
    def test_compiled_surface(self, provenance, name):
        compiled = resolve_backend(name).compile(provenance)
        assert compiled.keys == provenance.keys()
        assert tuple(compiled.variables) == tuple(sorted(provenance.variables()))
        assert compiled.size() == provenance.size()


class TestValueSemantics:
    def test_real_scale_and_set(self):
        backend = resolve_backend("real")
        assert backend.scale_value(2.0, 0.5) == 1.0
        assert backend.set_value(3.0, "x") == 3.0

    def test_tropical_scale_multiplies_costs(self):
        backend = resolve_backend("tropical")
        assert backend.scale_value(4.0, 1.5) == pytest.approx(6.0)
        assert backend.default_value("t1") == 0.0

    def test_bool_scale_zero_deletes(self):
        backend = resolve_backend("bool")
        assert backend.scale_value(True, 0.0) is False
        assert backend.scale_value(True, 0.8) is True
        assert backend.set_value(0.0, "x") is False
        assert backend.set_value(2.0, "x") is True

    def test_why_defaults_and_set(self):
        backend = resolve_backend("why")
        assert backend.default_value("x") == WhySemiring.of("x")
        assert backend.set_value(0, "x") == frozenset()
        assert backend.set_value(1, "x") == WhySemiring.of("x")
        assert backend.scale_value(WhySemiring.of("x"), 0.5) == WhySemiring.of("x")
        assert backend.scale_value(WhySemiring.of("x"), 0.0) == frozenset()

    def test_lineage_defaults_and_set(self):
        backend = resolve_backend("lineage")
        assert backend.default_value("x") == frozenset({"x"})
        assert backend.set_value(0, "x") is None


class TestErrorMeasures:
    def test_numeric_errors(self):
        assert resolve_backend("real").error(3.0, 1.0) == pytest.approx(2.0)
        assert resolve_backend("real").delta(1.0, 3.0) == pytest.approx(2.0)

    def test_tropical_inf_equal_is_zero_error(self):
        backend = resolve_backend("tropical")
        assert backend.error(float("inf"), float("inf")) == 0.0
        assert backend.error(float("inf"), 1.0) == float("inf")

    def test_bool_error_is_flip_indicator(self):
        backend = resolve_backend("bool")
        assert backend.error(True, True) == 0.0
        assert backend.error(True, False) == 1.0

    def test_why_error_is_symmetric_difference(self):
        backend = resolve_backend("why")
        a = frozenset({frozenset({"x"}), frozenset({"y"})})
        b = frozenset({frozenset({"x"}), frozenset({"z"})})
        assert backend.error(a, a) == 0.0
        assert backend.error(a, b) == 2.0

    def test_lineage_error_handles_bottom(self):
        backend = resolve_backend("lineage")
        assert backend.error(None, None) == 0.0
        assert backend.error(None, frozenset()) == 1.0
        assert backend.error(frozenset({"x", "y"}), None) == 2.0
        assert backend.error(frozenset({"x"}), frozenset({"y"})) == 2.0


class TestSemiringValuation:
    def test_identity_for_why(self, provenance):
        valuation = Valuation.identity_for(provenance, semiring="why")
        assert valuation["x"] == WhySemiring.of("x")
        assert valuation.semiring_name == "why"

    def test_scaled_preserves_backend(self):
        valuation = Valuation({"t1": 2.0}, semiring="tropical")
        scaled = valuation.scaled(["t1", "t2"], 1.5)
        assert scaled.semiring_name == "tropical"
        assert scaled["t1"] == pytest.approx(3.0)
        # missing variables start from the tropical identity (0.0 cost).
        assert scaled["t2"] == pytest.approx(0.0)

    def test_set_to_routes_through_backend(self):
        valuation = Valuation({}, semiring="lineage")
        assert valuation.set_to(["x"], 0)["x"] is None
        assert valuation.set_to(["x"], 1)["x"] == frozenset({"x"})

    def test_real_valuation_unchanged(self):
        valuation = Valuation({"x": "2"})
        assert valuation["x"] == 2.0
        assert valuation.semiring_name == "real"

    def test_scenario_apply_in_bool(self):
        scenario = Scenario("revoke").set_value(["x"], 0).scale(["y"], 0.0)
        valuation = Valuation({"x": True, "y": True, "z": True}, semiring="bool")
        result = scenario.apply(valuation)
        assert result["x"] is False
        assert result["y"] is False
        assert result["z"] is True


class TestSessionEndToEnd:
    @pytest.mark.parametrize("name", SEMIRING_BACKEND_NAMES)
    def test_running_example_any_semiring(self, name):
        provenance = example2_provenance()
        session = CobraSession(provenance, semiring=name)
        session.set_abstraction_trees(plans_tree())
        session.set_bound(provenance.size())
        session.compress(allow_infeasible=True)
        scenario = Scenario("delete March").set_value(["m3"], 0)
        report = session.assign_scenario(scenario, measure_assignment_speedup=False)
        assert report.semiring == name
        assert len(report.groups) == len(provenance)
        text = report.render_text()
        assert "provenance size" in text

    def test_bool_group_uniform_deletion_is_exact(self):
        """Deleting every member of an abstracted group is answered exactly."""
        provenance = example2_provenance()
        session = CobraSession(provenance, semiring="bool")
        session.set_abstraction_trees(plans_tree())
        session.set_bound(provenance.size())
        session.compress(allow_infeasible=True)
        grouped = session.abstraction.grouped_variables()
        meta, members = sorted(grouped.items())[0]
        scenario = Scenario("revoke group").set_value(list(members), 0)
        report = session.assign_scenario(scenario, measure_assignment_speedup=False)
        assert report.max_absolute_error == 0.0

    def test_tropical_congestion_changes_min_cost(self):
        prov = ProvenanceSet()
        prov[("g",)] = Polynomial.from_terms([(1.0, ["x"]), (5.0, ["y"])])
        session = CobraSession(prov, base_valuation={"x": 2.0, "y": 1.0}, semiring="tropical")
        assert session.initial_results()[("g",)] == pytest.approx(3.0)
        scenario = Scenario("congest x").scale(["x"], 10.0)
        session.set_abstraction_trees(plans_tree())  # unused by full path
        session.set_bound(prov.size())
        session.compress(allow_infeasible=True)
        report = session.assign_scenario(scenario, measure_assignment_speedup=False)
        # route x costs 1 + 20 = 21, route y costs 5 + 1 = 6 -> min is 6.
        assert report.groups[0].full_result == pytest.approx(6.0)


class TestGenericBackend:
    def test_wraps_any_semiring(self, provenance):
        backend = GenericBackend(TropicalSemiring(), name="tropical-generic")
        compiled = backend.compile(provenance)
        numpy_backend = resolve_backend("tropical")
        valuation = {"x": 1.0, "y": 2.0, "z": 3.0}
        generic = compiled.evaluate(valuation)
        # The generic fallback embeds coefficients as presence (0 cost),
        # so compare against the reference with the same embedding.
        for key, polynomial in provenance.items():
            want = evaluate_in_semiring(
                polynomial,
                backend.semiring,
                valuation,
                coefficient_embedding=backend.embed_coefficient,
            )
            assert generic[key] == pytest.approx(want)
        del numpy_backend

    def test_why_and_lineage_are_generic(self):
        assert isinstance(resolve_backend("why"), WhyBackend)
        assert isinstance(resolve_backend("lineage"), LineageBackend)
        assert not resolve_backend("why").is_numeric
        assert resolve_backend("tropical").is_numeric
