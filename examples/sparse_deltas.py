"""Sparse delta evaluation: a 500-scenario telephony sweep, baseline once.

Real what-if sweeps perturb a *few* variables per scenario — "March prices
-20%", "business plans +10%" — yet the dense batch pipeline re-evaluates
every monomial for every scenario.  This example runs the same 500-scenario
telephony sweep through both pipelines of ``CobraSession.evaluate_many``:

* ``mode="dense"``  — one ``scenarios × variables`` matrix, full kernels;
* ``mode="auto"``   — the default: the evaluator notices the sweep touches a
  tiny fraction of the variable universe and switches to sparse
  baseline-once delta evaluation (the base valuation is evaluated exactly
  once; each scenario only recomputes the monomials its changed variables
  touch, through the inverted variable→monomial index).

Both produce the same report up to rounding (the real kernels sum in
different orders; the parity tests hold them to ``rtol=1e-9``); the sparse
path is just faster.  Run with ``PYTHONPATH=src python examples/sparse_deltas.py``.
"""

import time

from repro.batch import BatchEvaluator
from repro.engine.session import CobraSession
from repro.workloads.telephony import (
    TelephonyConfig,
    generate_revenue_provenance,
    telephony_scenario_sweep,
)


def main() -> None:
    config = TelephonyConfig(
        num_customers=20_000, num_zips=200, months=tuple(range(1, 13))
    )
    provenance = generate_revenue_provenance(config)
    scenarios = telephony_scenario_sweep(500, months=config.months)
    print(
        f"telephony provenance: {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables, {len(provenance)} zip groups"
    )
    print(f"sweep: {len(scenarios)} scenarios (1-2 variables touched each)\n")

    session = CobraSession(provenance)
    evaluator = BatchEvaluator()  # shared: compiles the provenance once

    # Warm up the compile cache so both timings measure evaluation only.
    session.evaluate_many(scenarios[:1], evaluator=evaluator)

    start = time.perf_counter()
    dense = session.evaluate_many(scenarios, evaluator=evaluator, mode="dense")
    dense_seconds = time.perf_counter() - start

    start = time.perf_counter()
    auto = session.evaluate_many(scenarios, evaluator=evaluator, mode="auto")
    auto_seconds = time.perf_counter() - start

    print(f"dense pipeline : {dense_seconds * 1e3:7.1f} ms  (mode={dense.mode})")
    print(f"auto pipeline  : {auto_seconds * 1e3:7.1f} ms  (mode={auto.mode})")
    print(
        f"speedup        : {dense_seconds / max(auto_seconds, 1e-12):.1f}x — "
        "same numbers, fewer monomials recomputed\n"
    )

    # The reports are interchangeable: rank the sweep from either one.
    print("top scenarios by total revenue impact:")
    for index in auto.ranked_by_total_delta()[:5]:
        outcome = auto.outcome(index)
        print(f"  {outcome.name:<28} total delta {outcome.total_delta:+12.2f}")

    print()
    print("knobs for heavy traffic:")
    print("  evaluate_many(..., processes=4)      # shard rows across workers")
    print("  BatchEvaluator(chunk_size=64)        # rows per dense chunk")


if __name__ == "__main__":
    main()
