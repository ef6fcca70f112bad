"""Benchmark: the batch what-if engine vs the sequential per-scenario path.

Evaluates a sweep of telephony what-if scenarios three ways:

1. **sequential** — the reference path the interactive engine takes per
   scenario: ``Scenario.apply`` on the base valuation followed by
   ``Polynomial.evaluate`` on every provenance polynomial;
2. **sequential-compiled** — ``Scenario.apply`` +
   ``CompiledProvenanceSet.evaluate_vector`` per scenario (the session's
   single-scenario fast path);
3. **batch** — ``BatchEvaluator``: one ``scenarios × variables`` matrix,
   vectorised matrix kernels, compiled provenance reused from the cache.

The acceptance bar for this module is a ≥10x speedup of the batch path over
the sequential reference at 100+ scenarios on the telephony workload.  Run::

    PYTHONPATH=src python benchmarks/bench_batch_scenarios.py
    PYTHONPATH=src python benchmarks/bench_batch_scenarios.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Optional, Sequence

from repro.batch import BatchEvaluator
from repro.engine.scenario import Scenario
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance import CompiledProvenanceSet, Valuation
from repro.workloads.telephony import (
    TelephonyConfig,
    generate_revenue_provenance,
    telephony_scenario_sweep,
)


def _best_of(func: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(
    num_scenarios: int,
    config: TelephonyConfig,
    repeats: int,
    min_speedup: float,
    json_path: Optional[str] = None,
) -> int:
    provenance = generate_revenue_provenance(config)
    scenarios = telephony_scenario_sweep(num_scenarios, months=config.months)
    base = Valuation.identity_for(provenance)
    variables = provenance.variables()
    print(
        f"telephony provenance: {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables, {len(provenance)} groups; "
        f"sweep: {len(scenarios)} scenarios"
    )

    def sequential() -> None:
        for scenario in scenarios:
            valuation = scenario.apply(base, variables)
            for _key, polynomial in provenance.items():
                polynomial.evaluate(valuation)

    compiled = CompiledProvenanceSet(provenance)

    def sequential_compiled() -> None:
        for scenario in scenarios:
            valuation = scenario.apply(base, variables)
            compiled.evaluate_vector(valuation)

    evaluator = BatchEvaluator()
    evaluator.compile(provenance)  # steady-state: the service compiles once

    def batch() -> None:
        evaluator.evaluate(provenance, scenarios, base_valuation=base)

    sequential_seconds = _best_of(sequential, repeats)
    compiled_seconds = _best_of(sequential_compiled, repeats)
    batch_seconds = _best_of(batch, repeats)

    speedup = sequential_seconds / max(batch_seconds, 1e-12)
    compiled_speedup = compiled_seconds / max(batch_seconds, 1e-12)
    per_scenario = batch_seconds / max(1, len(scenarios))
    print()
    print(f"{'path':<38} {'total':>12} {'per scenario':>14}")
    print("-" * 66)
    for label, seconds in (
        ("sequential Scenario.apply + evaluate", sequential_seconds),
        ("sequential compiled evaluate", compiled_seconds),
        ("batch (vectorised matrix kernels)", batch_seconds),
    ):
        print(
            f"{label:<38} {seconds * 1e3:>10.1f}ms "
            f"{seconds / max(1, len(scenarios)) * 1e6:>12.0f}us"
        )
    print()
    print(
        f"batch speedup: {speedup:.1f}x vs sequential, "
        f"{compiled_speedup:.1f}x vs compiled-sequential "
        f"({per_scenario * 1e6:.0f} us/scenario)"
    )

    if json_path:
        with open(json_path, "w") as handle:
            json.dump(
                {
                    "monomials": provenance.size(),
                    "scenarios": len(scenarios),
                    "sequential_seconds": sequential_seconds,
                    "sequential_compiled_seconds": compiled_seconds,
                    "batch_seconds": batch_seconds,
                    "speedup": speedup,
                    "compiled_speedup": compiled_speedup,
                },
                handle,
                indent=2,
            )
        print(f"results written to {json_path}")

    if speedup < min_speedup:
        print(
            f"FAIL: batch speedup {speedup:.1f}x is below the "
            f"{min_speedup:.1f}x bar",
            file=sys.stderr,
        )
        return 1
    print(f"OK: batch speedup {speedup:.1f}x >= {min_speedup:.1f}x")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small instance for CI smoke runs (lower speedup bar)",
    )
    parser.add_argument("--scenarios", type=int, default=None)
    parser.add_argument("--zips", type=int, default=None)
    parser.add_argument("--customers", type=int, default=None)
    parser.add_argument("--months", type=int, default=12)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero below this batch-vs-sequential speedup",
    )
    parser.add_argument("--json", help="where to write a JSON result record")
    args = parser.parse_args(argv)

    if args.quick:
        num_scenarios = args.scenarios or 25
        zips = args.zips or 40
        customers = args.customers or 2_000
        repeats = args.repeats or 1
        min_speedup = args.min_speedup if args.min_speedup is not None else 3.0
    else:
        num_scenarios = args.scenarios or 120
        zips = args.zips or 200
        customers = args.customers or 20_000
        repeats = args.repeats or 3
        min_speedup = args.min_speedup if args.min_speedup is not None else 10.0

    config = TelephonyConfig(
        num_customers=customers,
        num_zips=zips,
        months=tuple(range(1, args.months + 1)),
    )
    return run_benchmark(
        num_scenarios=num_scenarios,
        config=config,
        repeats=repeats,
        min_speedup=min_speedup,
        json_path=args.json,
    )


if __name__ == "__main__":
    raise SystemExit(main())
