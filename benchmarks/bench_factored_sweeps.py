"""Benchmark: shared-delta factoring vs unfactored sparse delta evaluation.

The workload is the structured sweep shape the scenario-plan compiler emits:
every scenario applies the same base prefix ("cut all plan prices by 5%")
before a small per-scenario perturbation, so ~90% of each scenario's touched
cells are shared with every other scenario.  The unfactored sparse path pays
for the shared cells per scenario; the factored path
(:meth:`repro.batch.planner.ScenarioBatch.delta_plan` with ``prefix``)
applies the prefix once to a factored baseline and evaluates only the
residual deltas.

Measured end-to-end through ``BatchEvaluator.evaluate``:

1. **sparse**   — ``mode="sparse"``: per-scenario deltas including the
   shared prefix cells (the PR 2 path);
2. **factored** — ``mode="factored"``: prefix once + residual deltas;
3. **plan**     — ``BatchEvaluator.evaluate_plan`` over the declarative
   :func:`repro.engine.plan.compose` plan (lazy lowering + chunking),
   with ``mode="auto"`` left to pick the factored path itself.

Parity is asserted in the same run across the real, tropical and bool
backends (exact for the idempotent kernels, 1e-9 for real), and
``mode="auto"`` is checked to choose factoring without caller hints.  The
acceptance bar at the full size (1,000 scenarios, 90% shared cells):
factored ≥5x over unfactored sparse.  Run::

    PYTHONPATH=src python benchmarks/bench_factored_sweeps.py
    PYTHONPATH=src python benchmarks/bench_factored_sweeps.py --quick  # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.batch import BatchEvaluator, ScenarioBatch
from repro.engine.plan import compose
from repro.engine.scenario import Scenario

from bench_sparse_deltas import sparse_workload


def factored_sweep(
    num_scenarios: int,
    num_variables: int,
    shared_touched: int,
    residual_touched: int,
    seed: int = 17,
):
    """A composed sweep: one shared base prefix + tiny per-scenario residuals.

    The base scales ``shared_touched`` random variables; each scenario then
    scales ``residual_touched`` variables drawn from the rest, so the shared
    fraction of each scenario's touched cells is
    ``shared_touched / (shared_touched + residual_touched)``.
    """
    rng = np.random.default_rng(seed)
    chosen = rng.choice(num_variables, size=shared_touched, replace=False)
    base = Scenario("base").scale(
        [f"x{int(v)}" for v in chosen], float(rng.uniform(0.8, 0.95))
    )
    rest = np.setdiff1d(
        np.arange(num_variables, dtype=np.intp), chosen.astype(np.intp)
    )
    variants = []
    for i in range(num_scenarios):
        picked = rng.choice(rest, size=residual_touched, replace=False)
        factor = float(rng.uniform(0.5, 1.5))
        variants.append(
            Scenario(f"#{i} x{factor:.2f}").scale(
                [f"x{int(v)}" for v in picked], factor
            )
        )
    return compose(base, variants)


def _best_of(func: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def measure(
    num_variables: int,
    num_monomials: int,
    num_groups: int,
    num_scenarios: int,
    shared_touched: int,
    residual_touched: int,
    repeats: int,
) -> Dict[str, object]:
    """Time sparse vs factored, assert cross-backend parity; return a record."""
    provenance = sparse_workload(num_variables, num_monomials, num_groups)
    plan = factored_sweep(
        num_scenarios, num_variables, shared_touched, residual_touched
    )
    scenarios = plan.scenarios()
    evaluator = BatchEvaluator()
    evaluator.compile(provenance)  # steady-state: the service compiles once

    # Parity is asserted in the run that is timed, for every numeric
    # backend: the factored numbers only count if they are the sparse
    # numbers (which bench_sparse_deltas already holds to the dense ones).
    parity: Dict[str, bool] = {}
    for semiring, exact in (("real", False), ("tropical", True), ("bool", True)):
        sparse_report = evaluator.evaluate(
            provenance, scenarios, semiring=semiring, mode="sparse"
        )
        factored_report = evaluator.evaluate(
            provenance, scenarios, semiring=semiring, mode="factored"
        )
        if exact:
            np.testing.assert_array_equal(
                factored_report.full_results, sparse_report.full_results
            )
            np.testing.assert_array_equal(
                factored_report.baseline, sparse_report.baseline
            )
        else:
            np.testing.assert_allclose(
                factored_report.full_results,
                sparse_report.full_results,
                rtol=1e-9,
                atol=1e-9,
            )
            np.testing.assert_allclose(
                factored_report.baseline,
                sparse_report.baseline,
                rtol=1e-9,
                atol=1e-9,
            )
        parity[semiring] = True

    auto_report = evaluator.evaluate(provenance, scenarios, mode="auto")
    auto_picked_factored = auto_report.mode == "factored"

    # The factoring statistics are deterministic (seeded sweep), so they are
    # exact-compared by the baseline gate.
    batch = ScenarioBatch(scenarios, [f"x{i}" for i in range(num_variables)])
    residual_cells = batch.delta_plan(prefix=batch.prefix_length).changed_cells()
    # The part of a scenario's unfactored cells (prefix cells plus its mean
    # residual cells) that the factored plan no longer pays for.
    shared_fraction = batch.prefix_cells / (
        batch.prefix_cells + residual_cells / len(batch)
    )

    sparse_seconds = _best_of(
        lambda: evaluator.evaluate(provenance, scenarios, mode="sparse"),
        repeats,
    )
    factored_seconds = _best_of(
        lambda: evaluator.evaluate(provenance, scenarios, mode="factored"),
        repeats,
    )

    # The declarative-plan entry point (lazy lowering + chunking + auto
    # mode) over the same sweep, for the end-to-end number the CLI reports.
    plan_report = evaluator.evaluate_plan(provenance, plan)
    np.testing.assert_allclose(
        plan_report.full_results, auto_report.full_results, rtol=1e-9, atol=1e-9
    )
    plan_seconds = _best_of(
        lambda: evaluator.evaluate_plan(provenance, plan), repeats
    )

    return {
        "monomials": provenance.size(),
        "variables": provenance.num_variables(),
        "groups": len(provenance),
        "scenarios": len(scenarios),
        "shared_touched": shared_touched,
        "residual_touched": residual_touched,
        "prefix_length": batch.prefix_length,
        "prefix_cells": batch.prefix_cells,
        "residual_cells": residual_cells,
        "shared_fraction": shared_fraction,
        "parity": parity,
        "auto_picked_factored": auto_picked_factored,
        "plan_mode": plan_report.mode,
        "sparse_seconds": sparse_seconds,
        "factored_seconds": factored_seconds,
        "plan_seconds": plan_seconds,
        "factored_speedup": sparse_seconds / max(factored_seconds, 1e-12),
    }


def run_benchmark(
    num_variables: int,
    num_monomials: int,
    num_groups: int,
    num_scenarios: int,
    shared_touched: int,
    residual_touched: int,
    repeats: int,
    min_speedup: float,
    json_path: Optional[str] = None,
) -> int:
    record = measure(
        num_variables=num_variables,
        num_monomials=num_monomials,
        num_groups=num_groups,
        num_scenarios=num_scenarios,
        shared_touched=shared_touched,
        residual_touched=residual_touched,
        repeats=repeats,
    )
    shared = record["shared_fraction"]
    print(
        f"workload: {record['monomials']} monomials over "
        f"{record['variables']} variables, {record['groups']} groups; "
        f"{record['scenarios']} scenarios sharing "
        f"{record['shared_touched']} prefix cells + "
        f"{record['residual_touched']} residual cells each "
        f"({shared:.0%} shared)"
    )
    print()
    print(f"{'path':<42} {'total':>12} {'per scenario':>14}")
    print("-" * 70)
    for label, key in (
        ("sparse (per-scenario full deltas)", "sparse_seconds"),
        ("factored (prefix once + residuals)", "factored_seconds"),
        ("evaluate_plan (lazy, mode='auto')", "plan_seconds"),
    ):
        seconds = record[key]
        print(
            f"{label:<42} {seconds * 1e3:>10.1f}ms "
            f"{seconds / max(1, record['scenarios']) * 1e6:>12.0f}us"
        )
    print()
    print(
        f"factored speedup: {record['factored_speedup']:.1f}x vs unfactored "
        f"sparse; parity asserted for {', '.join(record['parity'])}"
    )
    print(
        "mode='auto' picked factored"
        if record["auto_picked_factored"]
        else "WARNING: mode='auto' did NOT pick factored"
    )

    if json_path:
        with open(json_path, "w") as handle:
            json.dump(record, handle, indent=2)
        print(f"results written to {json_path}")

    if not record["auto_picked_factored"]:
        print(
            "FAIL: mode='auto' must select the factored path for this "
            "workload",
            file=sys.stderr,
        )
        return 1
    if record["factored_speedup"] < min_speedup:
        print(
            f"FAIL: factored speedup {record['factored_speedup']:.1f}x is "
            f"below the {min_speedup:.1f}x bar",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: factored speedup {record['factored_speedup']:.1f}x >= "
        f"{min_speedup:.1f}x"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small instance for CI smoke runs (lower speedup bar)",
    )
    parser.add_argument("--variables", type=int, default=None)
    parser.add_argument("--monomials", type=int, default=None)
    parser.add_argument("--groups", type=int, default=None)
    parser.add_argument("--scenarios", type=int, default=None)
    parser.add_argument(
        "--shared", type=int, default=None,
        help="variables the shared base prefix touches",
    )
    parser.add_argument(
        "--residual", type=int, default=None,
        help="variables each scenario touches beyond the prefix",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero below this factored-vs-sparse speedup",
    )
    parser.add_argument("--json", help="where to write a JSON result record")
    args = parser.parse_args(argv)

    if args.quick:
        num_variables = args.variables or 500
        num_monomials = args.monomials or 8_000
        num_groups = args.groups or 16
        num_scenarios = args.scenarios or 200
        shared_touched = args.shared or 36
        residual_touched = args.residual or 4
        repeats = args.repeats or 2
        min_speedup = args.min_speedup if args.min_speedup is not None else 2.0
    else:
        # The ISSUE's acceptance shape: 1,000 scenarios with 90% of each
        # scenario's touched cells shared through the base prefix.
        num_variables = args.variables or 2_000
        num_monomials = args.monomials or 40_000
        num_groups = args.groups or 25
        num_scenarios = args.scenarios or 1_000
        shared_touched = args.shared or 90
        residual_touched = args.residual or 10
        repeats = args.repeats or 3
        min_speedup = args.min_speedup if args.min_speedup is not None else 5.0

    return run_benchmark(
        num_variables=num_variables,
        num_monomials=num_monomials,
        num_groups=num_groups,
        num_scenarios=num_scenarios,
        shared_touched=shared_touched,
        residual_touched=residual_touched,
        repeats=repeats,
        min_speedup=min_speedup,
        json_path=args.json,
    )


if __name__ == "__main__":
    raise SystemExit(main())
