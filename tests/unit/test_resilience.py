"""Unit tests for the resilience layer (repro.resilience).

Covers deterministic fault injection (FaultPlan/FaultSpec, env arming,
spec round trips), the RetryPolicy (backoff schedules, retry/give-up
semantics, env overrides), degradation events, pool-bringup failure
logging, the mid-map pool-break salvage regression, and the CLI
``--fault-plan`` surface.
"""

import json
import multiprocessing
import os
import tempfile

import numpy as np
import pytest

from repro.batch import BatchEvaluator
from repro.batch import evaluator as evaluator_module
from repro.batch.evaluator import _bringup_pool
from repro.cli.main import main
from repro.engine.scenario import Scenario
from repro.obs.metrics import get_registry
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedCorruption,
    InjectedIOError,
    InjectedWorkerError,
    RetryError,
    RetryPolicy,
    active_plan,
    active_plan_spec,
    clear_plan,
    collect_degradations,
    fault_plan,
    fault_point,
    install_plan,
    plan_from_env,
    plan_from_spec,
    policy_from_env,
    policy_from_spec,
    record_degradation,
)
from repro.exceptions import SerializationError


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no plan installed."""
    clear_plan()
    yield
    clear_plan()


def _counter(name):
    return get_registry().counter(name).value


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="store.opne", times=(0,))

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(site="store.open", kind="meteor", times=(0,))

    def test_must_arm_a_trigger(self):
        with pytest.raises(FaultPlanError, match="neither"):
            FaultSpec(site="store.open")

    def test_max_fires_floor(self):
        with pytest.raises(FaultPlanError, match="max_fires"):
            FaultSpec(site="store.open", times=(0,), max_fires=0)

    def test_injected_exceptions_are_the_real_failure_types(self):
        assert issubclass(InjectedIOError, OSError)
        assert issubclass(InjectedCorruption, SerializationError)
        assert issubclass(InjectedWorkerError, RuntimeError)
        exc = FaultSpec(site="store.open", kind="io", times=(0,)).build_exception()
        assert isinstance(exc, OSError)
        assert "injected io fault at store.open" in str(exc)


class TestFaultPlan:
    def test_times_fire_on_exact_ordinals(self):
        plan = FaultPlan([FaultSpec(site="batch.shard", times=(1, 3), max_fires=5)])
        fired = [plan.check("batch.shard") is not None for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert plan.fire_counts() == {"batch.shard": 2}

    def test_max_fires_bounds_total_firings(self):
        plan = FaultPlan(
            [FaultSpec(site="batch.shard", times=(0, 1, 2, 3), max_fires=2)]
        )
        fired = sum(plan.check("batch.shard") is not None for _ in range(6))
        assert fired == 2

    def test_rate_stream_is_seed_deterministic(self):
        def schedule(seed):
            plan = FaultPlan(
                [FaultSpec(site="store.open", rate=0.5, max_fires=100)], seed=seed
            )
            return [plan.check("store.open") is not None for _ in range(40)]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        assert any(schedule(7))

    def test_unarmed_site_never_fires(self):
        plan = FaultPlan([FaultSpec(site="store.open", times=(0,))])
        assert plan.check("batch.shard") is None

    def test_spec_round_trip(self):
        plan = FaultPlan(
            [
                FaultSpec(site="store.open", kind="corruption", times=(0, 2)),
                FaultSpec(site="batch.shard", rate=0.25, max_fires=3),
            ],
            seed=42,
        )
        rebuilt = plan_from_spec(plan.to_spec())
        assert rebuilt.seed == 42
        assert rebuilt.to_spec() == plan.to_spec()
        # JSON-safe: to_spec output must survive a dump/load cycle.
        assert plan_from_spec(json.loads(json.dumps(plan.to_spec()))).to_spec() == (
            plan.to_spec()
        )

    def test_spec_rejects_unknown_keys(self):
        with pytest.raises(FaultPlanError, match="unknown fault entry keys"):
            plan_from_spec(
                {"faults": [{"site": "store.open", "times": [0], "sight": 1}]}
            )
        with pytest.raises(FaultPlanError, match="missing `site`"):
            plan_from_spec({"faults": [{"times": [0]}]})
        with pytest.raises(FaultPlanError, match="`faults` array"):
            plan_from_spec({"seed": 3})


class TestFaultPoint:
    def test_noop_without_plan(self):
        assert active_plan() is None
        fault_point("store.open", path="/nowhere")  # must not raise

    def test_fires_with_context_and_metrics(self):
        before = _counter("resilience.injected_faults.store.open")
        with fault_plan(FaultPlan([FaultSpec(site="store.open", times=(0,))])):
            with pytest.raises(InjectedIOError) as info:
                fault_point("store.open", path="/tmp/x.cps")
            fault_point("store.open", path="/tmp/x.cps")  # ordinal 1: clean
        assert info.value.fault_context == {"path": "/tmp/x.cps"}
        assert _counter("resilience.injected_faults.store.open") == before + 1

    def test_stall_sleeps_instead_of_raising(self):
        spec = FaultSpec(site="batch.shard", kind="stall", times=(0,), seconds=0.01)
        with fault_plan(FaultPlan([spec])):
            fault_point("batch.shard")  # sleeps, returns

    def test_context_manager_restores_previous_plan(self):
        outer = FaultPlan([FaultSpec(site="store.open", times=(5,))])
        install_plan(outer)
        with fault_plan(FaultPlan([FaultSpec(site="batch.shard", times=(0,))])):
            assert active_plan() is not outer
        assert active_plan() is outer

    def test_active_plan_spec_ships_plain_dicts(self):
        assert active_plan_spec() is None
        with fault_plan(FaultPlan([FaultSpec(site="store.open", times=(0,))], seed=9)):
            spec = active_plan_spec()
        assert spec["seed"] == 9
        assert spec["faults"][0]["site"] == "store.open"


class TestPlanFromEnv:
    def test_unset_is_none(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"COBRA_FAULTS": "  "}) is None

    def test_inline_json(self):
        raw = json.dumps(
            {"seed": 3, "faults": [{"site": "store.open", "times": [0]}]}
        )
        plan = plan_from_env({"COBRA_FAULTS": raw})
        assert plan.seed == 3
        assert plan.specs[0].site == "store.open"

    def test_file_path(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps({"faults": [{"site": "batch.shard", "rate": 0.5}]})
        )
        plan = plan_from_env({"COBRA_FAULTS": str(path)})
        assert plan.specs[0].rate == 0.5

    def test_bad_json_and_missing_file(self, tmp_path):
        with pytest.raises(FaultPlanError, match="invalid JSON"):
            plan_from_env({"COBRA_FAULTS": "{not json"})
        with pytest.raises(FaultPlanError, match="unreadable file"):
            plan_from_env({"COBRA_FAULTS": str(tmp_path / "absent.json")})


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(RetryError):
            RetryPolicy(attempts=0)
        with pytest.raises(RetryError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(RetryError):
            RetryPolicy(factor=0.5)
        with pytest.raises(RetryError):
            RetryPolicy(shard_timeout=0.0)

    def test_delays_are_seeded_and_capped(self):
        policy = RetryPolicy(
            attempts=5, backoff=0.1, factor=2.0, max_backoff=0.25, jitter=0.01, seed=4
        )
        delays = policy.delays()
        assert delays == policy.delays()  # deterministic
        assert len(delays) == 4
        bases = [0.1, 0.2, 0.25, 0.25]  # exponential, capped
        for delay, base in zip(delays, bases):
            assert base <= delay <= base + 0.01
        assert RetryPolicy(seed=4).delays() != RetryPolicy(seed=5).delays()

    def test_run_retries_then_succeeds(self):
        calls = []
        slept = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        before = _counter("resilience.retries")
        policy = RetryPolicy(attempts=3, backoff=0.5, jitter=0.0)
        with collect_degradations() as events:
            result = policy.run(
                flaky, retryable=(OSError,), site="unit", sleep=slept.append
            )
        assert result == "ok"
        assert len(calls) == 3
        assert slept == list(policy.delays())
        assert _counter("resilience.retries") == before + 2
        assert len(events) == 2 and "unit attempt 1/3" in events[0]

    def test_run_exhaustion_reraises_last(self):
        policy = RetryPolicy(attempts=2, backoff=0.0, jitter=0.0)
        with pytest.raises(OSError, match="always"):
            policy.run(
                lambda: (_ for _ in ()).throw(OSError("always")),
                retryable=(OSError,),
                sleep=lambda _: None,
            )

    def test_give_up_and_non_retryable_propagate_immediately(self):
        policy = RetryPolicy(attempts=5, backoff=0.0, jitter=0.0)
        calls = []

        def fnf():
            calls.append(1)
            raise FileNotFoundError("gone")

        with pytest.raises(FileNotFoundError):
            policy.run(
                fnf,
                retryable=(OSError,),
                give_up=(FileNotFoundError,),
                sleep=lambda _: None,
            )
        assert len(calls) == 1

        def bug():
            calls.append(1)
            raise ValueError("bug")

        calls.clear()
        with pytest.raises(ValueError):
            policy.run(bug, retryable=(OSError,), sleep=lambda _: None)
        assert len(calls) == 1

    def test_spec_and_env_parsing(self):
        policy = policy_from_spec({"attempts": 4, "shard_timeout": 1.5})
        assert policy.attempts == 4 and policy.shard_timeout == 1.5
        assert policy_from_spec(policy.to_dict()) == policy
        with pytest.raises(RetryError, match="unknown retry-policy keys"):
            policy_from_spec({"attemps": 4})

        assert policy_from_env({}) is DEFAULT_RETRY_POLICY
        parsed = policy_from_env({"COBRA_RETRY": '{"attempts": 7}'})
        assert parsed.attempts == 7
        with pytest.raises(RetryError, match="invalid JSON"):
            policy_from_env({"COBRA_RETRY": "{oops"})
        with pytest.raises(RetryError, match="JSON object"):
            policy_from_env({"COBRA_RETRY": "[1, 2]"})


# ---------------------------------------------------------------------------
# Degradation events
# ---------------------------------------------------------------------------


class TestDegradationEvents:
    def test_without_collector_only_the_counter_moves(self):
        before = _counter("resilience.degradations")
        record_degradation("quiet recovery")
        assert _counter("resilience.degradations") == before + 1

    def test_nested_collectors_both_receive(self):
        with collect_degradations() as outer:
            record_degradation("first")
            with collect_degradations() as inner:
                record_degradation("second")
            record_degradation("third")
        assert outer == ["first", "second", "third"]
        assert inner == ["second"]


# ---------------------------------------------------------------------------
# Pool bringup failure logging (satellite: narrow except + visible cause)
# ---------------------------------------------------------------------------


class TestPoolBringup:
    def test_bringup_retries_injected_io_faults(self):
        before = _counter("resilience.retries.pool.bringup")
        plan = FaultPlan([FaultSpec(site="pool.bringup", kind="io", times=(0,))])
        policy = RetryPolicy(attempts=3, backoff=0.0, jitter=0.0)
        with fault_plan(plan):
            pool = _bringup_pool(2, policy=policy)
        assert pool is not None
        pool.shutdown(wait=False, cancel_futures=True)
        assert _counter("resilience.retries.pool.bringup") == before + 1

    def test_bringup_failure_logs_swallowed_cause(self):
        before = _counter("resilience.pool_bringup_failures")
        policy = RetryPolicy(attempts=2, backoff=0.0, jitter=0.0)
        plan = FaultPlan(
            [FaultSpec(site="pool.bringup", kind="io", times=(0, 1), max_fires=2)]
        )
        with fault_plan(plan), collect_degradations() as events:
            pool = _bringup_pool(2, policy=policy)
        assert pool is None
        assert _counter("resilience.pool_bringup_failures") == before + 1
        snapshot = get_registry().snapshot()["counters"]
        assert any(
            name.startswith("resilience.pool_bringup_failures.")
            for name in snapshot
        )
        assert any("bringup failed" in event for event in events)


# ---------------------------------------------------------------------------
# Mid-map pool break: salvage regression (satellite a)
# ---------------------------------------------------------------------------

_EXIT_SENTINEL_ENV = "COBRA_TEST_EXIT_SENTINEL"


def _exit_once_shard(run_shard):
    """Wrap the shard kernel to hard-kill its process on one shard, once.

    The shard whose scenario scales ``x`` by 13 crashes its worker the
    first time it runs; the sentinel file keeps the re-run from crashing
    again, so the map converges — a deterministic mid-map pool break.
    """

    def shard(compiled, kind, base_vector, piece):
        sentinel = os.environ[_EXIT_SENTINEL_ENV]
        crashing = any(13.0 in values for _, values in piece)
        if crashing and not os.path.exists(sentinel):
            with open(sentinel, "w", encoding="utf-8") as handle:
                handle.write("crashed")
            os._exit(1)
        return run_shard(compiled, kind, base_vector, piece)

    return shard


class TestPoolBreakSalvage:
    def test_completed_shards_survive_a_mid_map_pool_break(
        self, tmp_path, monkeypatch
    ):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the wrapped kernel reaches pool workers only by fork")
        monkeypatch.setenv(_EXIT_SENTINEL_ENV, str(tmp_path / "crash.sentinel"))
        provenance = _small_provenance()
        scenarios = [
            Scenario(f"s{i}").scale(["x"], float(factor))
            for i, factor in enumerate([1, 2, 13, 4, 5, 6])
        ]
        clean = BatchEvaluator().evaluate(provenance, scenarios, mode="sparse")
        monkeypatch.setattr(
            evaluator_module,
            "_run_shard",
            _exit_once_shard(evaluator_module._run_shard),
        )
        before = _counter("resilience.salvaged_shards")
        policy = RetryPolicy(attempts=3, backoff=0.0, jitter=0.0)
        with BatchEvaluator(retry_policy=policy) as evaluator:
            report = evaluator.evaluate(
                provenance, scenarios, mode="sparse", processes=2
            )
        assert os.path.exists(os.environ[_EXIT_SENTINEL_ENV])
        np.testing.assert_array_equal(report.full_results, clean.full_results)
        # The pool broke mid-map; every shard finished before the break must
        # have been salvaged rather than recomputed.
        assert _counter("resilience.salvaged_shards") > before
        assert any("salvaged" in event for event in report.degradations)


# ---------------------------------------------------------------------------
# End-to-end: evaluator + CLI surfaces
# ---------------------------------------------------------------------------


def _small_provenance():
    result = ProvenanceSet()
    result[("g1",)] = Polynomial.from_terms(
        [(2.0, ["x", "y"]), (3.0, ["z"]), (1.0, [])]
    )
    result[("g2",)] = Polynomial(
        {Monomial({"x": 2}): 1.5, Monomial({"y": 1, "z": 1}): -4.0}
    )
    return result


class TestEvaluatorResilience:
    def test_compile_retries_injected_io_fault(self):
        provenance = _small_provenance()
        scenarios = [Scenario("s").scale(["x"], 2.0)]
        clean = BatchEvaluator().evaluate(provenance, scenarios)
        plan = FaultPlan([FaultSpec(site="batch.compile", kind="io", times=(0,))])
        with fault_plan(plan):
            recovered = BatchEvaluator(
                retry_policy=RetryPolicy(attempts=3, backoff=0.0, jitter=0.0)
            ).evaluate(provenance, scenarios)
        assert plan.fire_counts() == {"batch.compile": 1}
        np.testing.assert_array_equal(
            recovered.full_results, clean.full_results
        )
        assert recovered.degraded
        assert any("batch.compile" in event for event in recovered.degradations)

    def test_report_degradations_default_empty(self):
        report = BatchEvaluator().evaluate(
            _small_provenance(), [Scenario("s").scale(["x"], 2.0)]
        )
        assert report.degradations == ()
        assert not report.degraded


class TestCliFaultPlan:
    WORKLOAD = ["--customers", "200", "--zips", "4", "--months", "2"]

    def test_batch_arms_inline_plan_and_reports_resilience(self, capsys):
        raw = json.dumps(
            {"seed": 1, "faults": [{"site": "batch.compile", "times": [0]}]}
        )
        assert (
            main(["batch", *self.WORKLOAD, "--scenarios", "4", "--fault-plan", raw])
            == 0
        )
        clear_plan()
        out = capsys.readouterr().out
        assert "fault injection armed (seed 1)" in out
        assert "batch.compile:io" in out
        assert "resilience" in out

    @pytest.mark.parametrize("command", ["batch", "sweep"])
    def test_raising_sweep_leaves_no_spill_behind(
        self, command, tmp_path, monkeypatch
    ):
        """A sweep that raises still closes its evaluator: no worker pool
        and no spilled compiled set outlive the command."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        raw = json.dumps(
            {"faults": [{"site": "batch.shard", "kind": "worker", "times": [0]}]}
        )
        with pytest.raises(InjectedWorkerError):
            main(
                [command, *self.WORKLOAD, "--processes", "2",
                 "--mode", "sparse", "--fault-plan", raw]
            )
        assert not list(tmp_path.glob("cobra-shards-*"))

    def test_bad_fault_plan_is_a_clean_cli_error(self, capsys):
        assert (
            main(
                ["batch", *self.WORKLOAD, "--scenarios", "2", "--fault-plan", "{nope"]
            )
            == 1
        )
        assert "invalid --fault-plan" in capsys.readouterr().out
