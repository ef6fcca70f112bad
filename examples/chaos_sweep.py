"""Resilience walk-through: a what-if sweep that survives injected chaos.

Long sweeps meet real failures — flaky filesystems, OOM-killed workers,
corrupt store artifacts, stalled shards.  ``repro.resilience`` turns those
into *recoverable degradations*: seeded deterministic fault injection
(:class:`FaultPlan`), bounded seeded-backoff retries (:class:`RetryPolicy`),
shard salvage with a pool → fresh-pool → serial escalation ladder, and
CRC32-verified stores that are quarantined and transparently recompiled when
corrupt.  This example injects faults at every armed site and shows the
sweep completing anyway — with results **bit-identical** to a clean run and
the whole recovery visible in degradation events and ``resilience.*``
counters.

Run with ``PYTHONPATH=src python examples/chaos_sweep.py``.  The same plans
can be armed from the command line via ``cobra batch --fault-plan`` or the
``COBRA_FAULTS`` environment variable.
"""

import os
import tempfile

import numpy as np

from repro.batch import BatchEvaluator
from repro.obs import get_registry
from repro.provenance.store import write_store
from repro.provenance import CompiledProvenanceSet
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    collect_degradations,
    fault_plan,
)
from repro.workloads.telephony import (
    TelephonyConfig,
    generate_revenue_provenance,
    telephony_scenario_sweep,
)


def resilience_counters():
    snapshot = get_registry().snapshot_prefix("resilience.")
    return {
        name: value
        for name, value in sorted(snapshot.get("counters", {}).items())
        if value
    }


def main() -> None:
    config = TelephonyConfig(
        num_customers=2_000, num_zips=40, months=tuple(range(1, 7))
    )
    provenance = generate_revenue_provenance(config)
    scenarios = telephony_scenario_sweep(64, months=config.months)
    print(
        f"telephony provenance: {provenance.size()} monomials; "
        f"sweep: {len(scenarios)} scenarios\n"
    )

    # The reference run: no faults, no pool — just the answer.
    clean = BatchEvaluator().evaluate(provenance, scenarios)

    # ------------------------------------------------------------------
    # 1. Transient faults at compile + shard sites, sharded across a pool.
    #
    # The plan is seeded and deterministic: same plan, same seed, same
    # fires — chaos runs are reproducible.  ``times=(0,)`` fires on the
    # first pass through each site; the sweep retries the compile and
    # salvages every shard that completed before a failure, re-running
    # only the failed ones (fresh pool, then per-shard serial).
    # ------------------------------------------------------------------
    plan = FaultPlan(
        [
            FaultSpec(site="batch.compile", kind="io", times=(0,)),
            FaultSpec(site="batch.shard", kind="io", times=(0,)),
        ],
        seed=7,
    )
    policy = RetryPolicy(attempts=3, backoff=0.05, jitter=0.1, seed=7)
    with fault_plan(plan):
        chaotic = BatchEvaluator(retry_policy=policy).evaluate(
            provenance, scenarios, processes=2
        )
    print("-- chaos run #1: compile + shard faults under a 2-process pool --")
    print(f"injected fires: {plan.fire_counts()}")
    for event in chaotic.degradations:
        print(f"  degraded: {event}")
    np.testing.assert_array_equal(chaotic.full_results, clean.full_results)
    print("results are bit-identical to the clean run\n")

    # ------------------------------------------------------------------
    # 2. A corrupt compiled store: quarantined, then recompiled.
    #
    # Store blocks carry CRC32 checksums (format v2), verified on open.
    # A corruption fault at ``store.read_block`` makes the open fail the
    # way a real bit flip would; the evaluator renames the artifact to
    # ``<path>.quarantined`` and transparently recompiles from the
    # provenance it was handed.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "telephony.cps")
        write_store(CompiledProvenanceSet(provenance), path)
        corrupt = FaultPlan(
            [FaultSpec(site="store.read_block", kind="corruption", times=(0,))]
        )
        with fault_plan(corrupt), collect_degradations() as events:
            evaluator = BatchEvaluator(retry_policy=policy)
            evaluator.adopt_store(path, provenance)
            recovered = evaluator.evaluate(provenance, scenarios)
        print("-- chaos run #2: corrupt store --")
        print(f"store exists: {os.path.exists(path)}")
        print(f"quarantined:  {os.path.exists(path + '.quarantined')}")
        for event in events:
            print(f"  degraded: {event}")
        np.testing.assert_array_equal(
            recovered.full_results, clean.full_results
        )
        print("results are bit-identical to the clean run\n")

    # ------------------------------------------------------------------
    # 3. The scoreboard: every recovery leaves a metrics trail.
    # ------------------------------------------------------------------
    print("-- resilience counters --")
    for name, value in resilience_counters().items():
        print(f"  {name} = {value}")


if __name__ == "__main__":
    main()
