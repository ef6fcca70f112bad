"""Unit tests for shared-delta factoring (``ScenarioBatch.delta_plan`` with
a ``prefix``) and the evaluator's factored mode / plan entry points."""

import numpy as np
import pytest

from oracles.scenario_batch import common_prefix_length
from repro.batch import BatchEvaluator, ScenarioBatch
from repro.batch import evaluator as evaluator_module
from repro.batch.evaluator import (
    FACTORED_MIN_SCENARIOS,
    PLAN_CHUNK_SCENARIOS,
)
from repro.engine.plan import axis, compose, grid
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer, trace
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.valuation import Valuation


def _random_provenance(seed=0, num_groups=4, monomials=40, num_variables=16):
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(num_variables)]
    result = ProvenanceSet()
    for g in range(num_groups):
        terms = {}
        for _ in range(monomials):
            width = int(rng.integers(1, 4))
            chosen = rng.choice(num_variables, size=width, replace=False)
            monomial = Monomial({names[v]: 1 for v in chosen})
            terms[monomial] = terms.get(monomial, 0.0) + float(
                rng.uniform(0.2, 3.0)
            )
        result[(f"g{g}",)] = Polynomial(terms)
    return result


def _structured_sweep(count=12, prefix_vars=6, names=None):
    names = names or [f"v{i}" for i in range(16)]
    base = (
        Scenario("base")
        .scale(tuple(names[:prefix_vars]), 0.8)
        .set_value(names[prefix_vars], 2.5)
    )
    variants = [
        Scenario(f"s{i}").scale((names[prefix_vars + 1 + i % 4],), 1.0 + 0.05 * i)
        for i in range(count)
    ]
    return compose(base, variants)


class TestCommonPrefix:
    def test_empty_and_trivial(self):
        assert common_prefix_length([]) == 0
        assert common_prefix_length([Scenario("a")]) == 0
        one = Scenario("a").scale("x", 2.0)
        assert common_prefix_length([one]) == 1

    def test_shared_prefix_detected(self):
        plan = _structured_sweep(count=5)
        assert common_prefix_length(plan.scenarios()) == 2

    def test_value_equality_for_tuple_selectors(self):
        # Structurally equal operations factor even if built separately.
        a = Scenario("a").scale(("x", "y"), 0.5).scale("z", 2.0)
        b = Scenario("b").scale(("x", "y"), 0.5).set_value("z", 1.0)
        assert common_prefix_length([a, b]) == 1

    def test_callable_selectors_shared_by_identity(self):
        pred = lambda name: name.startswith("v")  # noqa: E731
        base = Scenario("base").scale(pred, 0.5)
        shared = [
            Scenario("a", operations=base.operations),
            Scenario("b", operations=base.operations),
        ]
        assert common_prefix_length(shared) == 1
        # ...but two different lambda objects do not compare equal.
        other = Scenario("c").scale(lambda name: name.startswith("v"), 0.5)
        assert common_prefix_length([base, other]) == 0

    def test_diverging_amounts_break_the_prefix(self):
        a = Scenario("a").scale("x", 0.5)
        b = Scenario("b").scale("x", 0.6)
        assert common_prefix_length([a, b]) == 0


class TestBatchPrefix:
    """The batch's own prefix compares interned operation ids."""

    def test_matches_the_public_prefix_on_composed_sweeps(self):
        plan = _structured_sweep(count=5)
        batch = ScenarioBatch(plan.scenarios(), [f"v{i}" for i in range(16)])
        assert batch.prefix_length == common_prefix_length(plan.scenarios()) == 2
        assert ScenarioBatch([], ["a"]).prefix_length == 0
        assert ScenarioBatch([Scenario("a")], ["a"]).prefix_length == 0

    def test_list_and_tuple_spellings_share_an_id(self):
        a = Scenario("a").scale(["x", "y"], 0.5).scale("z", 2.0)
        b = Scenario("b").scale(("x", "y"), 0.5).set_value("z", 1.0)
        # Dataclass equality tells a list from a tuple; interning does not.
        assert common_prefix_length([a, b]) == 0
        assert ScenarioBatch([a, b], ["x", "y", "z"]).prefix_length == 1

    def test_signed_zero_amounts_stay_apart(self):
        a = Scenario("a").set_value("x", 0.0)
        b = Scenario("b").set_value("x", -0.0)
        batch = ScenarioBatch([a, b], ["x"])
        assert batch.prefix_length == 0
        signs = np.signbit(batch.valuation_matrix()[:, 0])
        assert signs.tolist() == [False, True]

    def test_each_distinct_selector_resolves_once(self):
        calls = []

        def pred(name):
            calls.append(name)
            return name == "x"

        base = Scenario("base").scale(pred, 0.5)
        scenarios = [
            Scenario(f"s{i}", operations=base.operations).scale(pred, 1.0 + i)
            for i in range(4)
        ]
        batch = ScenarioBatch(scenarios, ["x", "y"])
        assert sorted(calls) == ["x", "y"]
        assert batch.prefix_length == 1
        kinds, columns, amounts = zip(*batch.steps(0))
        assert kinds == ("scale", "scale")
        assert [c.tolist() for c in columns] == [[0], [0]]
        assert amounts == (0.5, 1.0)
        with pytest.raises(ValueError):
            columns[0][0] = 1


def _traced_lowering(batch, *args, **kwargs):
    """``batch.delta_plan(*args, **kwargs)`` and the one span it records."""
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.reset()
    tracer.enabled = True
    try:
        with trace("test.root"):
            plan = batch.delta_plan(*args, **kwargs)
        (root,) = tracer.drain()
    finally:
        tracer.reset()
        tracer.enabled = was_enabled
    (span,) = root.children
    return plan, span


class TestFactoredDeltaPlan:
    def test_factored_rows_match_delta_plan_rows(self):
        plan = _structured_sweep(count=9)
        scenarios = plan.scenarios()
        names = [f"v{i}" for i in range(16)]
        batch = ScenarioBatch(scenarios, names)
        flat = batch.delta_plan()
        factored = batch.delta_plan(prefix=batch.prefix_length)

        assert batch.prefix_length == 2
        assert batch.prefix_cells == 7
        # Rows reconstructed from the factored plan are bit-identical to the
        # rows of the unfactored plan (same sequential float operations).
        for row in range(len(flat)):
            cols_a, vals_a = flat.cells(row)
            cols_b, vals_b = factored.cells(row)
            row_a = flat.base_row.copy()
            row_a[cols_a] = vals_a
            row_b = factored.base_row.copy()
            row_b[cols_b] = vals_b
            np.testing.assert_array_equal(row_a, row_b)
        # Residual plans are tiny compared to the flat plan.
        assert factored.changed_cells() < flat.changed_cells()

    def test_spans_carry_the_prefix_statistics(self):
        batch = ScenarioBatch(
            _structured_sweep(count=9).scenarios(), [f"v{i}" for i in range(16)]
        )
        factored, span = _traced_lowering(batch, prefix=2)
        assert span.name == "batch.factor"
        assert span.attributes["prefix_length"] == 2
        assert span.attributes["prefix_cells"] == 7
        assert span.attributes["residual_cells"] == factored.changed_cells()
        assert span.attributes["shared_fraction"] > 0.5
        # A shorter prefix reports its own cells: the first operation
        # scales six variables.
        _plan, span = _traced_lowering(batch, prefix=1)
        assert span.attributes["prefix_cells"] == 6
        _plan, span = _traced_lowering(batch)
        assert span.name == "batch.lower"
        assert span.attributes["kind"] == "sparse"

    def test_prefix_zero_is_the_unfactored_plan(self):
        scenarios = [
            Scenario("a").scale("v1", 0.5),
            Scenario("b").scale("v2", 0.5),
        ]
        batch = ScenarioBatch(scenarios, [f"v{i}" for i in range(4)])
        assert batch.prefix_length == 0
        assert batch.prefix_cells == 0
        np.testing.assert_array_equal(
            batch.delta_plan(prefix=0).base_row, batch.base_row()
        )

    def test_prefix_beyond_the_shared_prefix_is_rejected(self):
        batch = ScenarioBatch(
            _structured_sweep(count=3).scenarios(), [f"v{i}" for i in range(16)]
        )
        with pytest.raises(ValueError, match="prefix"):
            batch.delta_plan(prefix=3)
        with pytest.raises(ValueError, match="prefix"):
            batch.delta_plan(prefix=-1)
        with pytest.raises(ValueError, match="prefix"):
            ScenarioBatch([], ["a"]).delta_plan(prefix=1)

    def test_respects_base_valuation_and_fill(self):
        base = Scenario("shared").scale(("x",), 0.5)
        sweep = compose(base, [Scenario("p").scale("y", 3.0),
                               Scenario("q").scale("y", 4.0)])
        batch = ScenarioBatch(sweep.scenarios(), ("x", "y", "z"))
        valuation = Valuation({"x": 10.0, "y": 4.0})
        factored = batch.delta_plan(valuation, fill=2.0, prefix=1)
        # x scaled once by the prefix: 10 * 0.5; z missing -> fill 2.0.
        index = batch.variables.index("x")
        assert factored.base_row[index] == 5.0
        assert factored.base_row[batch.variables.index("z")] == 2.0

    def test_prefix_cells_is_cached(self):
        plan = _structured_sweep(count=10)
        batch = ScenarioBatch(plan.scenarios(), [f"v{i}" for i in range(16)])
        assert batch.prefix_length == 2
        assert batch.prefix_cells == 7
        assert batch.prefix_cells == 7
        assert ScenarioBatch([], ["a"]).prefix_cells == 0


class TestOverlappingSelectors:
    """Satellite: last-write-wins order through lowering and factoring."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            # set-then-scale: x := 4 then *0.5 -> 2.0
            (lambda s: s.set_value(("x", "y"), 4.0).scale(("x",), 0.5),
             {"x": 2.0, "y": 4.0}),
            # scale-then-set: x *0.5 then := 4 -> 4.0
            (lambda s: s.scale(("x", "y"), 0.5).set_value(("x",), 4.0),
             {"x": 4.0, "y": 1.5}),
        ],
    )
    def test_order_preserved_through_plan_lowering_and_factoring(
        self, build, expected
    ):
        base = Valuation({"x": 8.0, "y": 3.0})
        scenarios = [build(Scenario(f"s{i}")) for i in range(3)]
        batch = ScenarioBatch(scenarios, ("x", "y"))

        # Reference: Scenario.apply (the interactive path).
        applied = scenarios[0].apply(base, ("x", "y"))
        for name, value in expected.items():
            assert applied[name] == pytest.approx(value)

        matrix = batch.valuation_matrix(base)
        plan = batch.delta_plan(base)
        factored = batch.delta_plan(base, prefix=batch.prefix_length)
        for row in range(len(scenarios)):
            dense_row = matrix[row]
            sparse_row = plan.base_row.copy()
            cols, vals = plan.cells(row)
            sparse_row[cols] = vals
            fact_row = factored.base_row.copy()
            cols, vals = factored.cells(row)
            fact_row[cols] = vals
            np.testing.assert_array_equal(dense_row, sparse_row)
            np.testing.assert_array_equal(dense_row, fact_row)
            assert dense_row[batch.variables.index("x")] == expected["x"]

    def test_overlap_inside_the_prefix_factors_exactly(self):
        base = (
            Scenario("base")
            .set_value(("x", "y"), 4.0)
            .scale(("x",), 0.5)
        )
        sweep = compose(
            base,
            [Scenario(f"v{i}").scale("z", 1.0 + i) for i in range(4)],
        )
        batch = ScenarioBatch(sweep.scenarios(), ("x", "y", "z"))
        assert batch.prefix_length == 2
        factored = batch.delta_plan(prefix=2)
        assert factored.base_row[batch.variables.index("x")] == 2.0
        assert factored.base_row[batch.variables.index("y")] == 4.0


class TestEvaluatorFactoredMode:
    def test_factored_matches_sparse_and_dense(self):
        provenance = _random_provenance()
        plan = _structured_sweep(count=FACTORED_MIN_SCENARIOS + 2)
        scenarios = plan.scenarios()
        evaluator = BatchEvaluator()
        dense = evaluator.evaluate(provenance, scenarios, mode="dense")
        sparse = evaluator.evaluate(provenance, scenarios, mode="sparse")
        factored = evaluator.evaluate(provenance, scenarios, mode="factored")
        assert factored.mode == "factored"
        np.testing.assert_allclose(
            factored.full_results, dense.full_results, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            factored.full_results, sparse.full_results, rtol=1e-9, atol=1e-12
        )
        # The report baseline is the *unfactored* baseline.
        np.testing.assert_array_equal(factored.baseline, sparse.baseline)

    def test_auto_picks_factored_for_structured_sweeps(self):
        provenance = _random_provenance()
        plan = _structured_sweep(count=FACTORED_MIN_SCENARIOS + 4)
        evaluator = BatchEvaluator()
        registry = get_registry()
        before = registry.snapshot()
        report = evaluator.evaluate(provenance, plan.scenarios(), mode="auto")
        delta = registry.diff(before, registry.snapshot())
        assert report.mode == "factored"
        counters = delta["counters"]
        assert counters.get("batch.factored.auto_hits") == 1
        assert counters.get("batch.mode.factored") == 1
        assert counters.get("batch.factored.prefix_cells", 0) > 0
        assert counters.get("batch.factored.residual_cells", 0) > 0

    def test_auto_skips_factoring_small_or_unshared_batches(self):
        provenance = _random_provenance()
        evaluator = BatchEvaluator()
        # Too few scenarios: the prefix still inflates the touched fraction,
        # so the heuristic falls back to dense.
        small = _structured_sweep(count=FACTORED_MIN_SCENARIOS - 2)
        assert (
            evaluator.evaluate(provenance, small.scenarios(), mode="auto").mode
            == "dense"
        )
        # No shared prefix but tiny touched fraction: sparse.
        flat = [
            Scenario(f"f{i}").scale((f"v{i % 16}",), 0.5)
            for i in range(FACTORED_MIN_SCENARIOS + 4)
        ]
        assert evaluator.evaluate(provenance, flat, mode="auto").mode == "sparse"

    def test_factored_mode_rejected_without_delta_support(self, monkeypatch):
        provenance = _random_provenance()
        evaluator = BatchEvaluator()

        class _NoDeltas:
            supports_deltas = False

        monkeypatch.setattr(
            BatchEvaluator, "compile", lambda self, prov, backend=None: _NoDeltas()
        )
        with pytest.raises(ValueError, match="does not"):
            evaluator.evaluate(
                provenance,
                [Scenario("s").scale("v1", 0.5)],
                mode="factored",
            )

    def test_factored_with_compression(self):
        from repro.core.compression import Abstraction, apply_abstraction

        provenance = ProvenanceSet()
        provenance[("g1",)] = Polynomial(
            {Monomial.of("a"): 1.0, Monomial.of("b"): 2.0,
             Monomial.of("c"): 1.5}
        )
        provenance[("g2",)] = Polynomial(
            {Monomial.of("a", "b"): 3.0, Monomial.of("c"): 1.0}
        )
        abstraction = Abstraction.from_groups({"ab": ["a", "b"]})
        compressed = apply_abstraction(provenance, abstraction).compressed
        base = Scenario("base").scale(("a", "b"), 0.5)
        sweep = compose(
            base,
            [Scenario(f"s{i}").scale("c", 1.0 + 0.1 * i) for i in range(10)],
        )
        evaluator = BatchEvaluator()
        factored = evaluator.evaluate(
            provenance, sweep.scenarios(), compressed=compressed,
            abstraction=abstraction, mode="factored",
        )
        sparse = evaluator.evaluate(
            provenance, sweep.scenarios(), compressed=compressed,
            abstraction=abstraction, mode="sparse",
        )
        np.testing.assert_allclose(
            factored.compressed_results, sparse.compressed_results,
            rtol=1e-9, atol=1e-12,
        )


class TestEvaluatePlan:
    def test_plan_report_matches_flat_evaluation(self):
        provenance = _random_provenance()
        plan = _structured_sweep(count=10)
        evaluator = BatchEvaluator()
        via_plan = evaluator.evaluate_plan(provenance, plan)
        flat = evaluator.evaluate(provenance, plan.scenarios())
        assert via_plan.scenario_names == flat.scenario_names
        np.testing.assert_array_equal(via_plan.full_results, flat.full_results)

    def test_chunked_plan_is_stitched(self, monkeypatch):
        provenance = _random_provenance()
        plan = _structured_sweep(count=10)
        evaluator = BatchEvaluator()
        whole = evaluator.evaluate_plan(provenance, plan)
        monkeypatch.setattr(evaluator_module, "PLAN_CHUNK_SCENARIOS", 3)
        chunked = evaluator.evaluate_plan(provenance, plan)
        assert chunked.scenario_names == whole.scenario_names
        np.testing.assert_allclose(
            chunked.full_results, whole.full_results, rtol=1e-9, atol=1e-12
        )
        assert len(chunked.scenario_names) == 10

    def test_empty_plan_rejected(self):
        provenance = _random_provenance()
        evaluator = BatchEvaluator()
        empty = compose(Scenario("base").scale("v1", 0.5), [])
        with pytest.raises(ValueError, match="zero scenarios"):
            evaluator.evaluate_plan(provenance, empty)

    def test_default_chunk_bound(self):
        assert PLAN_CHUNK_SCENARIOS >= 1024

    def test_session_evaluate_plan(self):
        provenance = _random_provenance()
        session = CobraSession(provenance)
        plan = _structured_sweep(count=10)
        report = session.evaluate_plan(plan)
        flat = session.evaluate_many(plan.scenarios())
        np.testing.assert_allclose(
            report.full_results, flat.full_results, rtol=1e-9, atol=1e-12
        )

    def test_grid_plan_through_session(self):
        # 24 variables keep the two residual axis cells under the sparse
        # touched-fraction threshold, so auto picks the factored path.
        provenance = _random_provenance(num_variables=24)
        session = CobraSession(provenance)
        base = Scenario("base").scale(tuple(f"v{i}" for i in range(8)), 0.9)
        plan = grid(
            axis("scale", "v9", [0.8, 1.0, 1.2]),
            axis("scale", "v10", [0.9, 1.1, 1.3]),
            name="grid",
            base=base,
        )
        report = session.evaluate_plan(plan)
        assert len(report.scenario_names) == 9
        assert report.mode == "factored"
