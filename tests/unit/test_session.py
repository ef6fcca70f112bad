"""Unit tests for the COBRA session workflow."""

import pytest

from repro.exceptions import SessionStateError
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.workloads.abstraction_trees import plans_tree


@pytest.fixture
def session(example2):
    return CobraSession(example2)


class TestSessionSetup:
    def test_requires_provenance_set(self):
        with pytest.raises(SessionStateError):
            CobraSession([1, 2, 3])

    def test_initial_results_use_base_valuation(self, example2):
        session = CobraSession(example2)
        results = session.initial_results()
        # Under the all-ones valuation the symbolic result equals the
        # original (non-parameterised) query result.
        assert results[("10001",)] == pytest.approx(905.25)
        assert results[("10002",)] == pytest.approx(437.45)

    def test_partial_base_valuation_is_completed_with_ones(self, example2):
        session = CobraSession(example2, base_valuation={"m3": 0.5})
        assert session.base_valuation["m3"] == pytest.approx(0.5)
        assert session.base_valuation["p1"] == pytest.approx(1.0)

    def test_compress_requires_tree_and_bound(self, session):
        with pytest.raises(SessionStateError):
            session.compress()
        session.set_abstraction_trees(plans_tree())
        with pytest.raises(SessionStateError):
            session.compress()

    def test_list_of_trees_becomes_a_forest(self, session):
        from repro.core.abstraction_tree import AbstractionForest
        from repro.workloads.abstraction_trees import months_tree

        plans, months = plans_tree(), months_tree()
        for trees in ([plans, months], (plans, months)):
            session.set_abstraction_trees(trees)
            session.set_bound(6)
            result = session.compress(method="greedy", allow_infeasible=True)
            assert isinstance(session._trees, AbstractionForest)
            assert session._trees.trees() == (plans, months)
            assert [cut.tree for cut in result.cuts] == [plans, months]

    @pytest.mark.parametrize(
        "trees", [[], ["Plans"], [plans_tree(), "m1"], "Plans", None, {"a": 1}]
    )
    def test_anything_else_is_rejected_at_the_setter(self, session, trees):
        with pytest.raises(SessionStateError, match="set_abstraction_trees"):
            session.set_abstraction_trees(trees)

    def test_negative_bound_rejected(self, session):
        with pytest.raises(SessionStateError):
            session.set_bound(-1)

    def test_accessing_results_before_compress_raises(self, session):
        with pytest.raises(SessionStateError):
            _ = session.optimization
        with pytest.raises(SessionStateError):
            _ = session.abstraction


class TestCompressAndPanel:
    def test_compress_reduces_size_below_bound(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(8)
        result = session.compress()
        assert result.feasible
        assert result.achieved_size <= 8
        assert session.compressed_provenance.size() == result.achieved_size

    def test_meta_variable_panel_rows(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        session.compress()
        panel = session.meta_variable_panel()
        names = {row.name for row in panel}
        # The chosen abstraction groups at least some plan variables.
        assert names
        for row in panel:
            assert len(row.members) == len(row.member_values)
            assert row.default_value == pytest.approx(
                sum(row.member_values) / len(row.member_values)
            )

    def test_default_valuation_covers_compressed_variables(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        session.compress()
        defaults = session.default_valuation()
        assert defaults.covers(session.compressed_provenance.variables())

    def test_changing_bound_invalidates_previous_result(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        session.compress()
        session.set_bound(4)
        with pytest.raises(SessionStateError):
            _ = session.optimization
        result = session.compress()
        assert result.achieved_size <= 4

    def test_trace_available_when_requested(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        session.compress(keep_trace=True)
        assert session.trace() is not None


class TestAssign:
    def test_default_assignment_reproduces_initial_results(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        session.compress()
        report = session.assign(measure_assignment_speedup=False)
        # The base valuation is all-ones and identical within every group, so
        # the compressed results match the full results exactly.
        for group in report.groups:
            assert group.compressed_result == pytest.approx(group.full_result)
            assert group.full_result == pytest.approx(group.baseline)

    def test_scenario_uniform_within_groups_is_exact(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        session.compress()
        scenario = Scenario("march").scale(["m3"], 0.8)
        report = session.assign_scenario(scenario, measure_assignment_speedup=False)
        assert report.max_absolute_error == pytest.approx(0.0, abs=1e-9)
        # The hypothetical changed the March revenue, so results moved.
        assert any(abs(g.change_from_baseline) > 1.0 for g in report.groups)

    def test_meta_changes_override_defaults(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(4)
        session.compress()  # the root cut: a single "Plans" meta-variable
        report = session.assign(
            meta_changes={"Plans": 0.0}, measure_assignment_speedup=False
        )
        for group in report.groups:
            assert group.compressed_result == pytest.approx(0.0)

    def test_speedup_measured_when_requested(self, session):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(4)
        session.compress()
        report = session.assign(speedup_repeats=1)
        assert report.speedup is not None
        assert report.speedup.baseline_seconds >= 0.0

    def test_report_sizes_match_session_state(self, session, example2):
        session.set_abstraction_trees(plans_tree())
        session.set_bound(6)
        session.compress()
        report = session.assign(measure_assignment_speedup=False)
        assert report.full_size == example2.size()
        assert report.compressed_size == session.compressed_provenance.size()
