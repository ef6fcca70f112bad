"""Unit tests for sparse delta evaluation (planner delta plans, the compiled
sets' ``evaluate_deltas`` kernels, and the evaluator's mode selection,
sharding and chunking)."""

import gc
import stat
import tempfile

import numpy as np
import pytest

from repro.batch import BatchEvaluator, DeltaPlan, ScenarioBatch
from repro.batch import evaluator as evaluator_module
from repro.batch.evaluator import SPARSE_TOUCHED_FRACTION, MetaLowering
from repro.core.compression import Abstraction
from repro.engine.scenario import Scenario
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.valuation import Valuation
from repro.resilience import FaultPlan, FaultSpec, InjectedWorkerError, fault_plan


def _random_provenance(seed=0, num_groups=4, monomials=30, num_variables=12):
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(num_variables)]
    result = ProvenanceSet()
    for g in range(num_groups):
        terms = {}
        for _ in range(monomials):
            width = int(rng.integers(1, 4))
            chosen = rng.choice(num_variables, size=width, replace=False)
            monomial = Monomial(
                {names[v]: int(rng.integers(1, 3)) for v in chosen}
            )
            terms[monomial] = terms.get(monomial, 0.0) + float(rng.uniform(-5, 5))
        if g == 0:
            terms[Monomial.unit()] = 2.0
        result[(f"g{g}",)] = Polynomial(terms)
    return result


def _random_plans(num_variables, count, rng, zero_new_every=7):
    plans = []
    for s in range(count):
        k = int(rng.integers(0, 5))
        columns = rng.choice(num_variables, size=k, replace=False).astype(np.intp)
        values = rng.uniform(0.0, 2.0, k)
        if k and s % zero_new_every == 0:
            values[0] = 0.0
        plans.append((columns, values))
    return plans


def _dense_rows(base, plans):
    matrix = np.tile(base, (len(plans), 1))
    for s, (columns, values) in enumerate(plans):
        matrix[s, columns] = values
    return matrix


NUMERIC_BACKENDS = ("real", "tropical", "bool")


def _assert_sparse_parity(name, got, expected, rtol):
    if name == "real":
        # Ratio updates reassociate the sums, so real results are close.
        np.testing.assert_allclose(got, expected, rtol=rtol, atol=rtol)
    else:
        # Idempotent reductions recompute the same contributions, so the
        # sparse path is bit-identical, not merely close.
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("name", NUMERIC_BACKENDS)
class TestEvaluateDeltasKernels:
    @pytest.mark.parametrize("zero_base", [False, True])
    def test_matches_dense_matrix(self, name, zero_base):
        provenance = _random_provenance(seed=1)
        compiled = resolve_backend(name).compile(provenance)
        rng = np.random.default_rng(2)
        num_variables = len(compiled.variables)
        base = rng.uniform(0.5, 2.0, num_variables)
        if zero_base:
            base[::3] = 0.0  # zero crossings exercise the exact fallbacks
        plans = _random_plans(num_variables, 40, rng)
        expected = compiled.evaluate_matrix(_dense_rows(base, plans))
        got = compiled.evaluate_deltas(DeltaPlan.from_pairs(base, plans))
        _assert_sparse_parity(name, got, expected, rtol=1e-9)

    def test_baseline_totals_equal_dense_baseline(self, name):
        compiled = resolve_backend(name).compile(_random_provenance(seed=5))
        base = np.linspace(0.1, 1.7, len(compiled.variables))
        expected = compiled.evaluate_matrix(base[np.newaxis, :])[0]
        np.testing.assert_allclose(compiled.baseline_totals(base), expected)

    def test_empty_plan_returns_baseline(self, name):
        compiled = resolve_backend(name).compile(_random_provenance(seed=6))
        base = np.ones(len(compiled.variables))
        empty = (np.zeros(0, dtype=np.intp), np.zeros(0))
        got = compiled.evaluate_deltas(DeltaPlan.from_pairs(base, [empty, empty]))
        np.testing.assert_allclose(got[0], compiled.baseline_totals(base))
        np.testing.assert_allclose(got[1], got[0])

    def test_base_vector_shape_is_validated(self, name):
        compiled = resolve_backend(name).compile(_random_provenance(seed=7))
        with pytest.raises(ValueError):
            compiled.evaluate_deltas(
                DeltaPlan.from_pairs(np.ones(len(compiled.variables) + 1), [])
            )

    def test_overflowing_updates_fall_back_to_exact_rows(self, name):
        # Huge base contributions make the real kernel's linear ratio update
        # overflow to inf; it must re-evaluate those scenarios' rows exactly
        # instead of leaving inf/nan pollution behind.
        provenance = ProvenanceSet(
            {
                ("g",): Polynomial(
                    {Monomial.of("a", "b"): 1e308, Monomial.of("c"): 2.0}
                )
            }
        )
        compiled = resolve_backend(name).compile(provenance)
        base = np.array([1.0, 1.0, 1.0])  # variables sorted: a, b, c
        plans = [
            (np.array([0, 1], dtype=np.intp), np.array([8.0, 2.0])),  # overflows
            (np.array([2], dtype=np.intp), np.array([0.5])),  # stays finite
        ]
        with np.errstate(over="ignore"):
            expected = compiled.evaluate_matrix(_dense_rows(base, plans))
        got = compiled.evaluate_deltas(DeltaPlan.from_pairs(base, plans))
        _assert_sparse_parity(name, got, expected, rtol=1e-7)

    def test_repeated_column_takes_the_last_value(self, name):
        # ``row[columns] = values`` keeps the last value of a repeated
        # column; the real kernel once applied both ratios (2·a at a=3
        # gave 18, not 6).
        compiled = resolve_backend(name).compile(
            ProvenanceSet({("g",): Polynomial({Monomial.of("a"): 2.0})})
        )
        base = np.array([1.0])
        plans = [
            (np.array([0, 0], dtype=np.intp), np.array([3.0, 3.0])),
            (np.array([0, 0], dtype=np.intp), np.array([0.0, 3.0])),
            (np.array([0, 0], dtype=np.intp), np.array([3.0, 0.0])),
        ]
        expected = compiled.evaluate_matrix(_dense_rows(base, plans))
        got = compiled.evaluate_deltas(DeltaPlan.from_pairs(base, plans))
        _assert_sparse_parity(name, got, expected, rtol=1e-12)
        if name == "real":
            assert got[:, 0].tolist() == [6.0, 6.0, 0.0]


class TestDeltaPlan:
    def test_changes_match_dense_matrix(self):
        variables = ("a", "b", "c", "d")
        scenarios = [
            Scenario("noop"),
            Scenario("scale").scale(["b"], 0.5),
            Scenario("set-then-scale").set_value(["a"], 4.0).scale(["a"], 0.5),
            Scenario("back-to-base").scale(["c"], 1.0),
            Scenario("ghost").scale(["zz"], 9.0),
        ]
        batch = ScenarioBatch(scenarios, variables)
        base = Valuation({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        plan = batch.delta_plan(base)
        dense = batch.valuation_matrix(base)
        assert isinstance(plan, DeltaPlan)
        assert len(plan) == len(scenarios)
        for row in range(len(plan)):
            columns, values = plan.cells(row)
            rebuilt = plan.base_row.copy()
            rebuilt[columns] = values
            np.testing.assert_allclose(rebuilt, dense[row])
        # Cells that end up back at base are filtered out entirely.
        assert plan.cells(0)[0].size == 0
        assert plan.cells(3)[0].size == 0
        assert plan.cells(4)[0].size == 0
        assert plan.changed_cells() == 2

    def test_project_drops_foreign_columns(self):
        batch = ScenarioBatch(
            [Scenario("s").scale(["a", "c"], 2.0)], ("a", "b", "c")
        )
        plan = batch.delta_plan()
        projected = plan.project(batch.columns_for(["a", "b"]))
        np.testing.assert_allclose(projected.base_row, [1.0, 1.0])
        columns, values = projected.cells(0)
        assert list(columns) == [0]
        np.testing.assert_allclose(values, [2.0])


class TestNoopScenarios:
    """Scenarios that move no value get the baseline's bits in every mode.

    No mode special-cases them: each dense row is evaluated on its own and
    a delta row without cells is the baseline, so a ghost name, an empty
    selector, a predicate matching nothing or no operation at all leaves
    the row ``array_equal`` to ``report.baseline``.
    """

    @pytest.mark.parametrize("mode", ["dense", "sparse", "factored"])
    @pytest.mark.parametrize("name", NUMERIC_BACKENDS)
    def test_noop_rows_equal_the_baseline(self, name, mode):
        provenance = _random_provenance(seed=8)
        # The shared (no-op) first operation gives factoring a prefix.
        shared = Scenario("shared").scale(["not-there"], 2.0).operations
        variants = [
            Scenario("ghost").scale(["zz"], 9.0),
            Scenario("empty-list").set_value([], 5.0),
            Scenario("none-match").scale(lambda variable: False, 2.0),
            Scenario("live").scale(["v0"], 0.5),
            Scenario("no-ops-at-all"),
        ]
        scenarios = [
            Scenario(variant.name, operations=shared + variant.operations)
            for variant in variants
        ]
        report = BatchEvaluator().evaluate(
            provenance, scenarios, semiring=name, mode=mode
        )
        assert report.mode == mode
        for row in (0, 1, 2, 4):
            assert np.array_equal(report.full_results[row], report.baseline)

    def test_mixed_batch_dense_matches_sparse(self):
        provenance = _random_provenance(seed=9)
        scenarios = [
            Scenario("ghost").scale(["zz"], 3.0),
            Scenario("live").scale(["v0"], 0.5),
        ]
        dense = BatchEvaluator().evaluate(provenance, scenarios, mode="dense")
        sparse = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        np.testing.assert_allclose(dense.full_results, sparse.full_results)
        np.testing.assert_allclose(dense.full_results[0], dense.baseline)


class TestChunkBudget:
    class _Recorder:
        """Wraps a compiled set, recording every dense chunk's row count."""

        def __init__(self, compiled):
            self._compiled = compiled
            self.chunk_rows = []
            self.keys = compiled.keys
            self.variables = compiled.variables

        def size(self):
            return self._compiled.size()

        def dense_row_footprint(self):
            return self._compiled.dense_row_footprint()

        def evaluate_matrix(self, matrix):
            self.chunk_rows.append(matrix.shape[0])
            return self._compiled.evaluate_matrix(matrix)

    @pytest.mark.parametrize("name", NUMERIC_BACKENDS)
    def test_default_cap_bounds_every_chunk(self, name, monkeypatch):
        provenance = _random_provenance(seed=10)
        recorder = self._Recorder(resolve_backend(name).compile(provenance))
        per_row_cells = recorder.dense_row_footprint()
        cap = per_row_cells * 3  # three rows per chunk
        monkeypatch.setattr(evaluator_module, "_TARGET_CELLS_PER_CHUNK", cap)
        matrix = np.ones((50, len(recorder.variables)))
        result = BatchEvaluator().evaluate_matrix(recorder, matrix)
        assert result.shape == (50, len(recorder.keys))
        assert len(recorder.chunk_rows) > 1  # chunking actually happened
        assert max(recorder.chunk_rows) * per_row_cells <= cap
        assert sum(recorder.chunk_rows) == 50

    @pytest.mark.parametrize("name", NUMERIC_BACKENDS)
    def test_tiny_cap_still_evaluates_row_by_row(self, name, monkeypatch):
        provenance = _random_provenance(seed=11)
        recorder = self._Recorder(resolve_backend(name).compile(provenance))
        monkeypatch.setattr(evaluator_module, "_TARGET_CELLS_PER_CHUNK", 1)
        result = BatchEvaluator().evaluate_matrix(
            recorder, np.ones((4, len(recorder.variables)))
        )
        assert result.shape[0] == 4
        assert recorder.chunk_rows == [1, 1, 1, 1]

    @pytest.mark.parametrize("name", NUMERIC_BACKENDS)
    def test_explicit_chunk_size_wins(self, name, monkeypatch):
        provenance = _random_provenance(seed=13)
        compiled = resolve_backend(name).compile(provenance)
        monkeypatch.setattr(evaluator_module, "_TARGET_CELLS_PER_CHUNK", 1)
        evaluator = BatchEvaluator(chunk_size=7)
        assert evaluator._resolve_chunk_size(compiled, rows=100) == 7


class TestModeSelection:
    def _sparse_scenarios(self, count=8):
        return [
            Scenario(f"s{i}").scale([f"v{i % 3}"], 1.0 + 0.1 * (i + 1))
            for i in range(count)
        ]

    def test_auto_picks_sparse_for_sparse_sweeps(self):
        provenance = _random_provenance(seed=14, num_variables=40)
        batch = ScenarioBatch(self._sparse_scenarios(), provenance.variables())
        assert batch.touched_fraction() <= SPARSE_TOUCHED_FRACTION
        report = BatchEvaluator().evaluate(provenance, self._sparse_scenarios())
        assert report.mode == "sparse"

    def test_auto_picks_dense_for_matrix_filling_sweeps(self):
        provenance = _random_provenance(seed=15, num_variables=6)
        scenarios = [
            Scenario(f"s{i}").scale(lambda name: True, 1.1) for i in range(4)
        ]
        report = BatchEvaluator().evaluate(provenance, scenarios)
        assert report.mode == "dense"

    def test_modes_agree_including_compressed_path(self):
        provenance = _random_provenance(seed=16, num_variables=8)
        mapping = {f"v{i}": "M0" if i < 4 else "M1" for i in range(8)}
        abstraction = Abstraction.from_groups(
            {
                "M0": [f"v{i}" for i in range(4)],
                "M1": [f"v{i}" for i in range(4, 8)],
            }
        )
        compressed = ProvenanceSet()
        for key, polynomial in provenance.items():
            compressed[key] = polynomial.rename(mapping)
        base = {f"v{i}": 1.0 + 0.1 * i for i in range(8)}
        scenarios = self._sparse_scenarios(10)
        dense = BatchEvaluator().evaluate(
            provenance, scenarios, base_valuation=base,
            compressed=compressed, abstraction=abstraction, mode="dense",
        )
        sparse = BatchEvaluator().evaluate(
            provenance, scenarios, base_valuation=base,
            compressed=compressed, abstraction=abstraction, mode="sparse",
        )
        assert dense.mode == "dense" and sparse.mode == "sparse"
        np.testing.assert_allclose(sparse.baseline, dense.baseline)
        np.testing.assert_allclose(sparse.full_results, dense.full_results)
        np.testing.assert_allclose(
            sparse.compressed_results, dense.compressed_results
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            BatchEvaluator().evaluate(
                _random_provenance(), [Scenario("s")], mode="turbo"
            )

    def test_generic_backends_ignore_mode(self):
        provenance = ProvenanceSet(
            {("g",): Polynomial({Monomial.of("a"): 1.0, Monomial.of("b"): 1.0})}
        )
        scenarios = [Scenario("del-a").set_value(["a"], 0)]
        for mode in ("auto", "dense", "sparse"):
            report = BatchEvaluator().evaluate(
                provenance, scenarios, semiring="why", mode=mode
            )
            assert report.mode == "generic"
            assert report.full_results[0, 0] == frozenset({frozenset({"b"})})


class TestLowerMetaDeltas:
    def test_matches_dense_meta_lowering(self):
        abstraction = Abstraction.from_groups(
            {"M": ["x", "y"], "N": ["ghost1", "ghost2"]}
        )
        scenarios = [
            Scenario("noop"),
            Scenario("one-member").scale(["x"], 0.5),
            Scenario("both").scale(["x", "y"], 2.0).set_value(["z"], 9.0),
        ]
        batch = ScenarioBatch(scenarios, ["x", "y", "z"])
        base = Valuation({"x": 2.0, "y": 4.0, "z": 7.0})
        meta_variables = ("M", "N", "z")
        lowering = MetaLowering(abstraction, batch.variables, meta_variables)
        dense = lowering.lower_matrix(batch.valuation_matrix(base), 1.0)
        plan = batch.delta_plan(base)
        meta_plan = lowering.lower_deltas(plan, 1.0)
        np.testing.assert_allclose(meta_plan.base_row, dense[0])
        for row in range(len(meta_plan)):
            columns, values = meta_plan.cells(row)
            rebuilt = meta_plan.base_row.copy()
            rebuilt[columns] = values
            np.testing.assert_allclose(rebuilt, dense[row])
        assert meta_plan.cells(0)[0].size == 0  # noop scenario stays a noop


class TestProcessSharding:
    def test_sparse_sharded_matches_serial(self):
        provenance = _random_provenance(seed=17, num_variables=30)
        scenarios = [
            Scenario(f"s{i}").scale([f"v{i % 30}"], 0.5 + 0.01 * i)
            for i in range(24)
        ]
        serial = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        sharded = BatchEvaluator().evaluate(
            provenance, scenarios, mode="sparse", processes=2
        )
        assert sharded.mode == "sparse"
        np.testing.assert_allclose(sharded.full_results, serial.full_results)

    def test_dense_sharded_matches_serial(self, monkeypatch):
        # Tiny shards run in-process unless the crossover is pinned to 0.
        monkeypatch.setattr(evaluator_module, "DENSE_SHARD_CROSSOVER_CELLS", 0)
        provenance = _random_provenance(seed=18)
        scenarios = [
            Scenario(f"s{i}").scale(lambda name: True, 1.0 + 0.02 * i)
            for i in range(12)
        ]
        serial = BatchEvaluator().evaluate(provenance, scenarios, mode="dense")
        sharded = BatchEvaluator(chunk_size=3).evaluate(
            provenance, scenarios, mode="dense", processes=2
        )
        np.testing.assert_allclose(sharded.full_results, serial.full_results)

    def _dense_shard_decision(self, monkeypatch):
        """A 12-row dense request in 3-row chunks with ``processes=2``:
        its results, pool bringups and ``batch.kernel.dense`` span."""
        bringups = []
        bringup = evaluator_module._bringup_pool

        def counting_bringup(*args, **kwargs):
            bringups.append(args)
            return bringup(*args, **kwargs)

        monkeypatch.setattr(evaluator_module, "_bringup_pool", counting_bringup)
        provenance = _random_provenance(seed=18)
        scenarios = [
            Scenario(f"s{i}").scale(lambda name: True, 1.0 + 0.02 * i)
            for i in range(12)
        ]
        serial = BatchEvaluator().evaluate(provenance, scenarios, mode="dense")
        tracer = get_tracer()
        was_enabled = tracer.enabled
        tracer.reset()
        tracer.enabled = True
        try:
            with BatchEvaluator(chunk_size=3) as evaluator:
                report = evaluator.evaluate(
                    provenance, scenarios, mode="dense", processes=2
                )
            spans = [span for root in tracer.drain() for span in root.walk()]
        finally:
            tracer.reset()
            tracer.enabled = was_enabled
        (span,) = [s for s in spans if s.name == "batch.kernel.dense" and s.attributes["rows"] == 12]
        return serial, report, bringups, span.attributes

    def test_dense_below_the_crossover_stays_in_process(self, monkeypatch):
        kept = get_registry().counter("batch.dense.in_process")
        before = kept.value
        serial, report, bringups, span = self._dense_shard_decision(monkeypatch)
        assert bringups == []
        assert kept.value == before + 1
        np.testing.assert_array_equal(report.full_results, serial.full_results)
        compiled = BatchEvaluator().compile(_random_provenance(seed=18), "real")
        assert span["processes"] == 2
        assert span["shard_cells"] == 3 * compiled.size()
        assert span["shard_crossover"] == evaluator_module.DENSE_SHARD_CROSSOVER_CELLS
        assert span["shard_cells"] < span["shard_crossover"]
        assert span["shards"] == 0

    def test_dense_above_the_crossover_shards(self, monkeypatch):
        monkeypatch.setattr(evaluator_module, "DENSE_SHARD_CROSSOVER_CELLS", 1)
        kept = get_registry().counter("batch.dense.in_process")
        before = kept.value
        serial, report, bringups, span = self._dense_shard_decision(monkeypatch)
        assert len(bringups) == 1
        assert kept.value == before
        np.testing.assert_allclose(report.full_results, serial.full_results)
        assert span["shard_crossover"] == 1
        assert span["shards"] == 4

    def test_evaluator_level_processes_default(self):
        provenance = _random_provenance(seed=19)
        scenarios = [Scenario("s").scale(["v0"], 2.0)]
        report = BatchEvaluator(processes=2).evaluate(provenance, scenarios)
        expected = BatchEvaluator().evaluate(provenance, scenarios)
        np.testing.assert_allclose(report.full_results, expected.full_results)

    def test_invalid_processes(self):
        with pytest.raises(ValueError):
            BatchEvaluator(processes=0)
        with pytest.raises(ValueError):
            BatchEvaluator().evaluate(
                _random_provenance(), [Scenario("s")], processes=0
            )

    def test_worker_exception_propagates(self):
        """Regression: a bare ``except RuntimeError`` around the pool map used
        to swallow genuine worker exceptions and silently recompute serially
        — which re-raised only by luck (the serial path runs the same code).
        The pool-bringup probe now owns the fallback, so a shard kernel's own
        exception must reach the caller unchanged."""
        provenance = _random_provenance(seed=21)
        scenarios = [
            Scenario(f"s{i}").scale([f"v{i}"], 1.5) for i in range(8)
        ]
        plan = FaultPlan(
            [FaultSpec(site="batch.shard", kind="worker", times=(0,))]
        )
        with fault_plan(plan), BatchEvaluator() as evaluator:
            with pytest.raises(InjectedWorkerError):
                evaluator.evaluate(
                    provenance, scenarios, mode="sparse", processes=2
                )

    @pytest.mark.parametrize("mode", ["dense", "sparse"])
    @pytest.mark.parametrize("semiring", ["real", "tropical", "bool"])
    def test_in_memory_set_spills_once_onto_one_pool(
        self, semiring, mode, tmp_path, monkeypatch
    ):
        from repro.batch import evaluator as evaluator_module

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        # Tiny dense shards run in-process unless the crossover is pinned.
        monkeypatch.setattr(evaluator_module, "DENSE_SHARD_CROSSOVER_CELLS", 0)
        bringups = []
        bringup = evaluator_module._bringup_pool

        def counting_bringup(*args, **kwargs):
            bringups.append(args)
            return bringup(*args, **kwargs)

        monkeypatch.setattr(evaluator_module, "_bringup_pool", counting_bringup)
        provenance = _random_provenance(seed=24, num_variables=16)
        scenarios = [
            Scenario(f"s{i}").scale([f"v{i % 16}"], 0.5 + 0.1 * i)
            for i in range(8)
        ]
        serial = BatchEvaluator().evaluate(
            provenance, scenarios, semiring=semiring, mode=mode
        )
        builds = get_registry().counter("store.builds")
        before = builds.value
        evaluator = BatchEvaluator(chunk_size=2)
        reports = [
            evaluator.evaluate(
                provenance, scenarios, semiring=semiring, mode=mode, processes=2
            )
            for _ in range(2)
        ]
        assert builds.value == before + 1
        assert len(bringups) == 1
        for report in reports:
            assert not report.degraded
            if semiring == "real":
                np.testing.assert_allclose(
                    report.full_results, serial.full_results, rtol=1e-9
                )
            else:
                np.testing.assert_array_equal(
                    report.full_results, serial.full_results
                )
        (spill_dir,) = tmp_path.glob("cobra-shards-*")
        assert stat.S_IMODE(spill_dir.stat().st_mode) == 0o700
        evaluator.close()
        assert not spill_dir.exists()

    def test_unwritable_spill_falls_back_to_serial(self, monkeypatch):
        def no_space(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(tempfile, "mkdtemp", no_space)
        provenance = _random_provenance(seed=28)
        scenarios = [
            Scenario(f"s{i}").scale([f"v{i}"], 1.5) for i in range(8)
        ]
        with BatchEvaluator() as evaluator:
            sharded = evaluator.evaluate(
                provenance, scenarios, mode="sparse", processes=2
            )
        serial = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        np.testing.assert_array_equal(sharded.full_results, serial.full_results)
        assert any("could not spill" in event for event in sharded.degradations)

    def test_spills_are_bounded_by_the_cache_size(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        scenarios = [
            Scenario(f"s{i}").scale([f"v{i}"], 1.5) for i in range(8)
        ]
        with BatchEvaluator(cache_size=1) as evaluator:
            for seed in (26, 27):
                evaluator.evaluate(
                    _random_provenance(seed=seed), scenarios, mode="sparse",
                    processes=2,
                )
            (spill_dir,) = tmp_path.glob("cobra-shards-*")
            assert len(list(spill_dir.iterdir())) == 1

    def test_unclosed_evaluator_removes_its_spill_when_collected(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        provenance = _random_provenance(seed=25)
        scenarios = [
            Scenario(f"s{i}").scale([f"v{i}"], 1.5) for i in range(8)
        ]
        BatchEvaluator().evaluate(
            provenance, scenarios, mode="sparse", processes=2
        )
        gc.collect()
        assert not list(tmp_path.glob("cobra-shards-*"))

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import concurrent.futures as futures

        class Broken:
            def __init__(self, *args, **kwargs):
                raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Broken)
        provenance = _random_provenance(seed=20)
        scenarios = [
            Scenario(f"s{i}").scale(["v0"], 1.0 + 0.1 * i) for i in range(8)
        ]
        sharded = BatchEvaluator().evaluate(
            provenance, scenarios, mode="sparse", processes=2
        )
        serial = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        np.testing.assert_allclose(sharded.full_results, serial.full_results)
