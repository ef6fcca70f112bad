"""Benchmark: numpy semiring backends vs the generic pure-Python fallback.

The tropical and Boolean backends lower evaluation to segmented numpy
kernels (``np.minimum.reduceat`` / ``np.logical_or.reduceat``); the generic
backend evaluates the same provenance monomial-by-monomial through
:func:`~repro.provenance.semiring.evaluate_in_semiring`.  This benchmark
measures both on the min-cost routing workload and asserts the numpy
backends are at least 5x faster (they are typically orders of magnitude
faster), after verifying they return identical results.

Per backend it also times 64 one-trunk outage scenarios two ways, on the
sparse delta kernel (``evaluate_deltas``) and the dense matrix kernel
(``evaluate_matrix``) over the same rows, after checking they agree
exactly.  ``sparse_seconds`` and ``dense_seconds`` are informational: they
are the data for the sparse/dense crossover, not a gated speedup.

Run::

    PYTHONPATH=src python benchmarks/bench_semiring_backends.py
    PYTHONPATH=src python benchmarks/bench_semiring_backends.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Optional

import numpy as np

from repro.batch.planner import DeltaPlan
from repro.provenance.backends import GenericBackend, resolve_backend
from repro.provenance.semiring import BooleanSemiring, TropicalSemiring
from repro.workloads.routing import (
    RoutingConfig,
    generate_routing_provenance,
    routing_base_costs,
)


def _best_of(func: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


#: One-trunk outage scenarios per sparse/dense timing.
DELTA_SCENARIOS = 64


def _bench_deltas(compiled, valuation, outage, repeats):
    """Best-of times of 64 one-trunk outages, sparse and dense, checked equal."""
    base = compiled.values_vector(valuation)
    columns = np.arange(DELTA_SCENARIOS) % base.size
    plan = DeltaPlan.from_pairs(base, [([column], [outage]) for column in columns])
    matrix = np.tile(base, (DELTA_SCENARIOS, 1))
    matrix[np.arange(DELTA_SCENARIOS), columns] = outage
    assert np.array_equal(
        compiled.evaluate_deltas(plan), compiled.evaluate_matrix(matrix)
    ), "sparse and dense outage rows differ"
    sparse_seconds = _best_of(lambda: compiled.evaluate_deltas(plan), repeats)
    dense_seconds = _best_of(lambda: compiled.evaluate_matrix(matrix), repeats)
    return sparse_seconds, dense_seconds


def _bench_backend(
    name, numpy_backend, generic_backend, provenance, valuation, outage, repeats
):
    compiled_numpy = numpy_backend.compile(provenance)
    compiled_generic = generic_backend.compile(provenance)

    numpy_results = compiled_numpy.evaluate(valuation)
    generic_results = compiled_generic.evaluate(valuation)
    for key, value in generic_results.items():
        got = numpy_results[key]
        if isinstance(value, float):
            assert abs(got - value) < 1e-9 or got == value, (key, got, value)
        else:
            assert bool(got) == bool(value), (key, got, value)

    numpy_seconds = _best_of(lambda: compiled_numpy.evaluate(valuation), repeats)
    generic_seconds = _best_of(lambda: compiled_generic.evaluate(valuation), repeats)
    speedup = generic_seconds / max(numpy_seconds, 1e-12)
    sparse_seconds, dense_seconds = _bench_deltas(
        compiled_numpy, valuation, outage, repeats
    )
    print(
        f"{name:<10} numpy {numpy_seconds * 1e3:8.3f} ms   "
        f"generic {generic_seconds * 1e3:8.3f} ms   speedup {speedup:7.1f}x   "
        f"{DELTA_SCENARIOS} outages: sparse {sparse_seconds * 1e3:7.3f} ms, "
        f"dense {dense_seconds * 1e3:7.3f} ms"
    )
    return {
        "backend": name,
        "numpy_seconds": numpy_seconds,
        "generic_seconds": generic_seconds,
        "speedup": speedup,
        "sparse_seconds": sparse_seconds,
        "dense_seconds": dense_seconds,
    }


def run_benchmark(
    config: RoutingConfig,
    repeats: int,
    min_speedup: float,
    json_path: Optional[str] = None,
) -> int:
    provenance = generate_routing_provenance(config)
    print(
        f"routing provenance: {provenance.size()} monomials, "
        f"{provenance.num_variables()} trunk variables, "
        f"{len(provenance)} zips"
    )

    class _TropicalGeneric(GenericBackend):
        """The fallback with the numpy backend's cost embedding."""

        def embed_coefficient(self, coefficient):
            return float(coefficient)

    costs = routing_base_costs(config).as_dict()
    tropical = _bench_backend(
        "tropical",
        resolve_backend("tropical"),
        _TropicalGeneric(TropicalSemiring(), name="tropical-generic"),
        provenance,
        costs,
        float("inf"),
        repeats,
    )

    # The Boolean run asks the access-control question on the same
    # provenance: every trunk up (True) except one.
    up = {name: True for name in provenance.variables()}
    up[next(iter(up))] = False

    class _BoolGeneric(GenericBackend):
        def embed_coefficient(self, coefficient):
            return coefficient != 0

    boolean = _bench_backend(
        "bool",
        resolve_backend("bool"),
        _BoolGeneric(BooleanSemiring(), name="bool-generic"),
        provenance,
        up,
        0.0,
        repeats,
    )

    results = {"config": {"monomials": provenance.size()}, "runs": [tropical, boolean]}
    if json_path:
        with open(json_path, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"results written to {json_path}")

    worst = min(tropical["speedup"], boolean["speedup"])
    if worst < min_speedup:
        print(
            f"FAIL: numpy backend speedup {worst:.1f}x is below the "
            f"{min_speedup:.0f}x bar"
        )
        return 1
    print(f"OK: numpy backends are >= {min_speedup:.0f}x over the generic fallback")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zips", type=int, default=600)
    parser.add_argument("--routes", type=int, default=8)
    parser.add_argument("--trunks", type=int, default=24)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument("--json", help="where to write a JSON summary")
    parser.add_argument(
        "--quick", action="store_true",
        help="small instance for CI smoke runs",
    )
    args = parser.parse_args()
    if args.quick:
        config = RoutingConfig(num_zips=120, num_trunks=12, routes_per_zip=5)
        repeats = 3
    else:
        config = RoutingConfig(
            num_zips=args.zips, num_trunks=args.trunks, routes_per_zip=args.routes
        )
        repeats = args.repeats
    return run_benchmark(config, repeats, args.min_speedup, args.json)


if __name__ == "__main__":
    sys.exit(main())
