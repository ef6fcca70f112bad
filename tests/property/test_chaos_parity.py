"""Chaos properties: evaluation under injected faults is bit-identical.

The resilience contract: a sweep that encounters transient faults —
flaky compiles, failing shards, corrupt stores, stalled workers, broken
pools — must *recover* to exactly the results of a clean run, never
silently degrade them.  Fault injection is seeded and deterministic
(:mod:`repro.resilience.faults`), so each property pins a plan and
asserts element-for-element equality against an undisturbed evaluator,
across every numeric semiring × pipeline mode combination.
"""

import numpy as np
import pytest

from repro.batch import BatchEvaluator
from repro.batch import evaluator as evaluator_module
from repro.engine.scenario import Scenario
from repro.obs.metrics import get_registry
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    clear_plan,
    fault_plan,
)

SEMIRINGS = ("real", "tropical", "bool")
MODES = ("dense", "sparse", "factored")

#: A fast retry posture for tests: immediate retries, no jittered waits.
FAST_RETRY = RetryPolicy(attempts=3, backoff=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _disarmed():
    clear_plan()
    yield
    clear_plan()


def _provenance(seed=0):
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(6)]
    result = ProvenanceSet()
    for g in range(2):
        terms = {}
        for _ in range(8):
            width = int(rng.integers(1, 3))
            chosen = rng.choice(6, size=width, replace=False)
            monomial = Monomial({names[v]: int(rng.integers(1, 3)) for v in chosen})
            terms[monomial] = terms.get(monomial, 0.0) + float(rng.uniform(0.5, 3))
        terms[Monomial.unit()] = 1.0
        result[(f"g{g}",)] = Polynomial(terms)
    return result


def _scenarios():
    # A shared two-operation prefix (so the factored pipeline has something
    # to factor) plus one residual operation per scenario.
    return [
        Scenario(f"s{i}")
        .scale(["v0"], 1.5)
        .set_value(["v1"], 0.5)
        .scale([f"v{i % 6}"], 0.75 + 0.05 * i)
        for i in range(8)
    ]


def _counter(name):
    return get_registry().counter(name).value


class TestChaosParity:
    """Faults at every site; results must match a clean run exactly."""

    @pytest.mark.parametrize("semiring", SEMIRINGS)
    @pytest.mark.parametrize("mode", MODES)
    def test_shard_and_compile_faults_recover_bit_identically(
        self, semiring, mode, monkeypatch
    ):
        # Tiny dense shards run in-process unless the crossover is pinned.
        monkeypatch.setattr(evaluator_module, "DENSE_SHARD_CROSSOVER_CELLS", 0)
        provenance = _provenance()
        scenarios = _scenarios()
        clean = BatchEvaluator().evaluate(
            provenance, scenarios, semiring=semiring, mode=mode
        )
        plan = FaultPlan(
            [
                FaultSpec(site="batch.compile", kind="io", times=(0,)),
                FaultSpec(site="batch.shard", kind="io", times=(0,)),
            ],
            seed=1,
        )
        salvaged_before = _counter("resilience.salvaged_shards")
        with fault_plan(plan):
            chaotic = BatchEvaluator(
                chunk_size=2, retry_policy=FAST_RETRY
            ).evaluate(
                provenance, scenarios, semiring=semiring, mode=mode, processes=2
            )
        assert plan.fire_counts().get("batch.compile") == 1
        np.testing.assert_array_equal(chaotic.baseline, clean.baseline)
        np.testing.assert_array_equal(chaotic.full_results, clean.full_results)
        assert chaotic.degraded
        # Shards that completed before the injected failures must have been
        # salvaged, not recomputed (2 workers fail their first task each;
        # everything else lands in round one).
        assert _counter("resilience.salvaged_shards") > salvaged_before

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_rate_faults_over_a_seed_matrix(self, seed):
        provenance = _provenance(seed)
        scenarios = _scenarios()
        clean = BatchEvaluator().evaluate(provenance, scenarios)
        plan = FaultPlan(
            [
                FaultSpec(
                    site="batch.compile", kind="io", rate=0.5, max_fires=2
                )
            ],
            seed=seed,
        )
        # max_fires=2 < attempts=4: convergence is guaranteed, not lucky.
        policy = RetryPolicy(attempts=4, backoff=0.0, jitter=0.0)
        with fault_plan(plan):
            chaotic = BatchEvaluator(retry_policy=policy).evaluate(
                provenance, scenarios
            )
        np.testing.assert_array_equal(chaotic.full_results, clean.full_results)

    def test_corruption_faults_escalate_to_serial_and_recover(self):
        provenance = _provenance()
        scenarios = _scenarios()
        clean = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        plan = FaultPlan(
            [
                FaultSpec(
                    site="batch.shard", kind="corruption", times=(0, 1), max_fires=2
                )
            ]
        )
        with fault_plan(plan):
            chaotic = BatchEvaluator(retry_policy=FAST_RETRY).evaluate(
                provenance, scenarios, mode="sparse", processes=2
            )
        np.testing.assert_array_equal(chaotic.full_results, clean.full_results)
        assert any("batch.shard" in event for event in chaotic.degradations)


class TestStoreChaos:
    def test_corrupt_open_quarantines_and_recompiles(self, tmp_path):
        provenance = _provenance()
        scenarios = _scenarios()
        clean = BatchEvaluator().evaluate(provenance, scenarios)
        from repro.provenance.store import clear_store_cache, write_store
        from repro.provenance.backends import resolve_backend

        path = tmp_path / "chaos.cps"
        write_store(resolve_backend("real").compile(provenance), path)
        clear_store_cache()
        quarantines_before = _counter("resilience.quarantines")
        plan = FaultPlan(
            [FaultSpec(site="store.read_block", kind="corruption", times=(0,))]
        )
        with fault_plan(plan):
            evaluator = BatchEvaluator(retry_policy=FAST_RETRY)
            evaluator.adopt_store(path, provenance)
            report = evaluator.evaluate(provenance, scenarios)
        assert _counter("resilience.quarantines") == quarantines_before + 1
        assert not path.exists()  # quarantined out of the way
        np.testing.assert_array_equal(report.full_results, clean.full_results)

    def test_transient_open_faults_are_retried(self, tmp_path):
        provenance = _provenance()
        from repro.provenance.store import clear_store_cache, write_store
        from repro.provenance.backends import resolve_backend

        path = tmp_path / "flaky.cps"
        write_store(resolve_backend("real").compile(provenance), path)
        clear_store_cache()
        retries_before = _counter("resilience.retries.store.open")
        plan = FaultPlan([FaultSpec(site="store.open", kind="io", times=(0,))])
        with fault_plan(plan):
            compiled = BatchEvaluator(retry_policy=FAST_RETRY).adopt_store(path)
        assert compiled.store_path == str(path)  # mapped, not recompiled
        assert _counter("resilience.retries.store.open") == retries_before + 1

    def test_store_sharded_chaos_parity(self, tmp_path):
        provenance = _provenance()
        scenarios = _scenarios()
        clean = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        from repro.provenance.store import clear_store_cache, write_store
        from repro.provenance.backends import resolve_backend

        path = tmp_path / "sharded.cps"
        write_store(resolve_backend("real").compile(provenance), path)
        clear_store_cache()
        plan = FaultPlan(
            [FaultSpec(site="batch.shard", kind="io", times=(0,))]
        )
        with BatchEvaluator(retry_policy=FAST_RETRY) as evaluator:
            evaluator.adopt_store(path)
            with fault_plan(plan):
                report = evaluator.evaluate(
                    provenance, scenarios, mode="sparse", processes=2
                )
        np.testing.assert_array_equal(report.full_results, clean.full_results)
        assert report.degraded


class TestStallChaos:
    def test_stalled_shards_trip_the_deadline_and_recover(self):
        provenance = _provenance()
        scenarios = _scenarios()
        clean = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        plan = FaultPlan(
            [
                FaultSpec(
                    site="batch.shard", kind="stall", times=(0,), seconds=1.0
                )
            ]
        )
        policy = RetryPolicy(
            attempts=2, backoff=0.0, jitter=0.0, shard_timeout=0.2
        )
        timeouts_before = _counter("resilience.timeouts")
        with fault_plan(plan):
            report = BatchEvaluator(retry_policy=policy).evaluate(
                provenance, scenarios, mode="sparse", processes=2
            )
        np.testing.assert_array_equal(report.full_results, clean.full_results)
        assert _counter("resilience.timeouts") > timeouts_before
        assert any("deadline" in event for event in report.degradations)
