"""Scenario plans + shared-delta factoring: declarative what-if sweeps.

Structured sweeps share work: "cut every plan price 5%, then try each month
at five different levels" applies the same base operations in *every*
scenario.  The scenario-plan compiler (:mod:`repro.engine.plan`) keeps that
structure declarative — a grid or Monte Carlo sample over a shared base —
and the factored batch pipeline (``ScenarioBatch.delta_plan(prefix=k)`` in
:mod:`repro.batch.planner`) exploits it: the shared operation prefix is
applied once to a factored baseline, and each scenario only evaluates its
tiny residual delta.

This example builds both plan kinds over the telephony workload:

* a **grid** — the Cartesian product of two month-price axes after a
  shared "all plans -5%" base;
* a **sample** — 500 Monte Carlo draws over three month prices (the seed
  is part of the plan: reruns are reproducible by construction);

then evaluates them through ``CobraSession.evaluate_plan`` and prints the
factoring statistics next to an unfactored sparse run of the same sweep.
Run with ``PYTHONPATH=src python examples/factored_sweep.py``.
"""

import time

from repro.batch import BatchEvaluator, ScenarioBatch
from repro.engine.plan import axis, grid, sample, sample_axis, uniform
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.workloads.abstraction_trees import PLAN_VARIABLES
from repro.workloads.telephony import TelephonyConfig, generate_revenue_provenance


def main() -> None:
    config = TelephonyConfig(
        num_customers=20_000, num_zips=200, months=tuple(range(1, 13))
    )
    provenance = generate_revenue_provenance(config)
    print(
        f"telephony provenance: {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables, {len(provenance)} zip groups\n"
    )

    session = CobraSession(provenance)
    evaluator = BatchEvaluator()  # shared: compiles the provenance once

    # The shared base: every scenario starts from "all plan prices -5%".
    plan_prices = sorted(PLAN_VARIABLES.values())
    base = Scenario("plans -5%").scale(plan_prices, 0.95)

    # 1. A grid: March at 5 levels x April at 3 levels, after the base.
    price_grid = grid(
        axis("scale", "m3", [0.8, 0.9, 1.0, 1.1, 1.2]),
        axis("scale", "m4", [0.9, 1.0, 1.1]),
        base=base,
        name="march-april",
    )
    print(f"grid plan '{price_grid.name}': {len(price_grid)} scenarios")
    print(f"  spec: {price_grid.describe()}")

    # 2. A Monte Carlo sample: 500 draws over the winter months.  The seed
    #    lives in the plan, so lowering it twice gives identical scenarios.
    monte_carlo = sample(
        sample_axis("scale", "m12", uniform(0.7, 1.3)),
        sample_axis("scale", "m1", uniform(0.8, 1.2)),
        count=500,
        seed=7,
        base=base,
        name="winter-mc",
    )
    print(f"sample plan '{monte_carlo.name}': {len(monte_carlo)} scenarios\n")

    # Warm up the compile cache so the timings below measure evaluation only.
    session.evaluate_many(price_grid.scenarios()[:1], evaluator=evaluator)

    for plan in (price_grid, monte_carlo):
        # What the factored pipeline sees: one shared prefix cell per plan
        # price, a couple of residual cells per scenario.
        scenarios = plan.scenarios()
        batch = ScenarioBatch(scenarios, sorted(provenance.variables()))
        residual = batch.delta_plan(prefix=batch.prefix_length).changed_cells()
        shared = batch.prefix_cells / (batch.prefix_cells + residual / len(batch))
        print(f"== {plan.name}: {len(scenarios)} scenarios ==")
        print(
            f"  factoring: prefix of {batch.prefix_length} operation(s) "
            f"touching {batch.prefix_cells} cells, "
            f"{residual} residual cells total "
            f"({shared:.0%} of touched cells shared)"
        )

        start = time.perf_counter()
        sparse = session.evaluate_many(
            scenarios, evaluator=evaluator, mode="sparse"
        )
        sparse_seconds = time.perf_counter() - start

        start = time.perf_counter()
        report = session.evaluate_plan(plan, evaluator=evaluator)
        plan_seconds = time.perf_counter() - start

        print(
            f"  unfactored sparse : {sparse_seconds * 1e3:7.1f} ms  "
            f"(mode={sparse.mode})"
        )
        print(
            f"  evaluate_plan     : {plan_seconds * 1e3:7.1f} ms  "
            f"(mode={report.mode}, auto-picked)"
        )
        print(
            f"  speedup           : "
            f"{sparse_seconds / max(plan_seconds, 1e-12):.1f}x — "
            "same numbers, shared prefix evaluated once"
        )

        print("  top scenarios by total revenue impact:")
        for index in report.ranked_by_total_delta()[:3]:
            outcome = report.outcome(index)
            print(
                f"    {outcome.name:<32} total delta {outcome.total_delta:+12.2f}"
            )
        print()

    print("the same sweeps from the terminal:")
    print("  cobra sweep                                  # built-in demo grid")
    print("  cobra sweep --plan plan.json --json out.json # your own spec")


if __name__ == "__main__":
    main()
