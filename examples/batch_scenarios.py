"""Batch what-if evaluation: a whole scenario sweep in one vectorised pass.

Where ``telephony_whatif.py`` walks through a handful of hypotheticals the
way the demo's analyst does, this example drives the batch subsystem
(:mod:`repro.batch`): it lowers a sweep of hundreds of scenarios into one
``scenarios × variables`` matrix, evaluates them against both the full and
the compressed provenance in a few vectorised operations, and ranks the
hypotheticals by revenue impact — the workflow a what-if *service* answering
many analysts at once runs per request batch.

Run with::

    python examples/batch_scenarios.py
    python examples/batch_scenarios.py --scenarios 500
"""

import argparse
import time

from repro import BatchEvaluator, CobraSession
from repro.workloads.abstraction_trees import plans_tree
from repro.workloads.telephony import (
    TelephonyConfig,
    generate_revenue_provenance,
    telephony_scenario_sweep,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenarios", type=int, default=200)
    parser.add_argument("--zips", type=int, default=200)
    args = parser.parse_args()

    config = TelephonyConfig(num_customers=20_000, num_zips=args.zips)
    provenance = generate_revenue_provenance(config)
    print(
        f"Provenance: {provenance.size():,} monomials over "
        f"{provenance.num_variables()} variables ({len(provenance)} zip codes)"
    )

    session = CobraSession(provenance)
    session.set_abstraction_trees(plans_tree())
    session.set_bound(provenance.size() // 4)
    session.compress()
    print(f"Compressed: {session.compressed_provenance.size():,} monomials\n")

    scenarios = telephony_scenario_sweep(args.scenarios, months=config.months)
    evaluator = BatchEvaluator()

    start = time.perf_counter()
    report = session.evaluate_many(scenarios, evaluator=evaluator)
    elapsed = time.perf_counter() - start
    print(report.render_text(max_rows=8))
    print(
        f"\n{len(scenarios)} scenarios in {elapsed * 1e3:.1f} ms "
        f"({elapsed / len(scenarios) * 1e6:.0f} us/scenario)"
    )

    # The compiled provenance is cached by content fingerprint: a second
    # sweep against the same provenance skips compilation entirely.
    start = time.perf_counter()
    session.evaluate_many(scenarios, evaluator=evaluator)
    print(
        f"second sweep (warm cache): {(time.perf_counter() - start) * 1e3:.1f} ms; "
        f"cache: {evaluator.cache_info()}"
    )

    best = report.ranked_by_total_delta()[0]
    outcome = report.outcome(best)
    print(
        f"\nhighest-impact hypothetical: {outcome.name} "
        f"(total revenue delta {outcome.total_delta:+,.0f}, "
        f"abstraction error <= {outcome.max_absolute_error:.2f})"
    )


if __name__ == "__main__":
    main()
