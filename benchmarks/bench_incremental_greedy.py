"""Benchmark: the incremental compression kernel vs the full-rescan greedy.

Runs the same bound-constrained greedy coarsening two ways on random
multi-tree forests:

1. **legacy** — ``legacy_greedy`` from the test oracle
   ``tests/oracles/greedy_scan.py``: every candidate's gain recomputed by
   scanning every monomial at every step (O(steps × candidates ×
   |provenance|));
2. **incremental** — ``optimize_greedy``: the :mod:`repro.core.kernel`
   pipeline — array rows over the id-encoded incidence, delta-updated
   signature-code gain counters, lazy max-heap.  Every run gets a fresh
   copy of the provenance set, so each pays for building its incidence.

Each engine's time is the median of ``REPEATS`` runs.  Both engines must
select **byte-identical cuts** on every instance (the benchmark asserts
it), so the speedup is pure.  A third timing shows the ``Compressor``
trajectory cache answering a whole bound sweep for roughly the cost of one
compression.

A second instance guards long trajectories of small steps: one tree of
200 two-leaf bundles, every leaf in every one of 50 groups (20,000 rows),
coarsened to exhaustion (201 steps, each touching 100 rows).  It runs the
array kernel against the dict-row kernel it replaced
(``tests/oracles/dict_greedy_kernel.py``), asserts identical step records
and cuts, and reports ``long_trajectory_speedup``; the array kernel must not
be slower (speedup ≥ 1).

The acceptance bar for this module is a ≥10x speedup of the incremental
kernel over the legacy greedy at ≥5k monomials on a 500-leaf forest.  Run::

    PYTHONPATH=src python benchmarks/bench_incremental_greedy.py
    PYTHONPATH=src python benchmarks/bench_incremental_greedy.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
from repro.core.compression import Compressor
from repro.core.cut import Cut
from repro.core.greedy import optimize_greedy
from repro.core.kernel.greedy import IncrementalGreedyKernel
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.workloads.random_polynomials import random_provenance, random_tree

# The full-rescan greedy and the dict-row kernel live with the tests, as
# their parity oracles.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.dict_greedy_kernel import IncrementalGreedyKernel as DictGreedyKernel
from oracles.greedy_scan import legacy_greedy

#: Runs per engine; the reported time is their median.
REPEATS = 5

T = TypeVar("T")


def median_seconds(
    run: Callable[[ProvenanceSet], T], provenance: ProvenanceSet
) -> Tuple[float, T]:
    """The median wall time of ``REPEATS`` calls of ``run``, and its result.

    Every call gets a fresh copy of ``provenance``, made outside the timed
    region, so each pays for building the set's incidence rows (a set keeps
    them once built).
    """
    times: List[float] = []
    for _ in range(REPEATS):
        fresh = ProvenanceSet(dict(provenance.items()))
        start = time.perf_counter()
        result = run(fresh)
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def build_instance(
    num_trees: int,
    leaves_per_tree: int,
    num_groups: int,
    monomials_per_group: int,
    seed: int = 0,
) -> Tuple[ProvenanceSet, AbstractionForest]:
    """A forest of ``num_trees`` random trees plus provenance over their leaves.

    Monomials combine one leaf of the first tree with leaves of the other
    trees (and free variables), so the general multi-variable-per-monomial
    greedy path is exercised.
    """
    trees = [
        random_tree(
            leaves_per_tree,
            seed=seed + index,
            leaf_prefix=f"t{index}x",
            inner_prefix=f"t{index}g",
            root=f"T{index}",
        )
        for index in range(num_trees)
    ]
    forest = AbstractionForest(trees)
    other_leaves: List[str] = []
    for tree in trees[1:]:
        other_leaves.extend(tree.leaves())
    provenance = random_provenance(
        trees[0].leaves(),
        num_groups=num_groups,
        monomials_per_group=monomials_per_group,
        extra_variables=other_leaves + ["e1", "e2", "e3"],
        max_degree=3,
        seed=seed + 1000,
    )
    return provenance, forest


def build_long_trajectory_instance(
    num_bundles: int = 200, num_groups: int = 50
) -> Tuple[ProvenanceSet, AbstractionTree]:
    """Two-leaf bundles under one root, every leaf in every group.

    Each bundle merges its two rows per group (saving ``num_groups`` for one
    variable), which ties the root's ratio but loses fewer variables, so the
    greedy coarsens the bundles one by one before the root.
    """
    edges = {"L": [f"b{i}" for i in range(num_bundles)]}
    for i in range(num_bundles):
        edges[f"b{i}"] = [f"l{i}a", f"l{i}b"]
    tree = AbstractionTree("L", edges)
    provenance = ProvenanceSet()
    for group in range(num_groups):
        provenance[(f"g{group}",)] = Polynomial(
            {
                Monomial.of(leaf): float(1 + (group + index) % 7)
                for index, leaf in enumerate(tree.leaves())
            }
        )
    return provenance, tree


def run_to_exhaustion(
    kernel_class: Callable[[ProvenanceSet, AbstractionTree], Any],
    provenance: ProvenanceSet,
    tree: AbstractionTree,
) -> Tuple[List[Dict[str, object]], Tuple[Cut, ...]]:
    """Step a kernel until no candidate is left; its step records and cuts."""
    kernel = kernel_class(provenance, tree)
    steps: List[Dict[str, object]] = []
    while True:
        name = kernel.best()
        if name is None:
            return steps, kernel.cuts()
        steps.append(kernel.apply(name))


def run_long_trajectory() -> Tuple[float, float, int]:
    """``(dict seconds, array seconds, steps)`` on the long-trajectory instance."""
    provenance, tree = build_long_trajectory_instance()
    dict_seconds, reference = median_seconds(
        lambda fresh: run_to_exhaustion(DictGreedyKernel, fresh, tree), provenance
    )
    array_seconds, result = median_seconds(
        lambda fresh: run_to_exhaustion(IncrementalGreedyKernel, fresh, tree),
        provenance,
    )
    assert result[0] == reference[0], "step-record mismatch between kernels"
    assert result[1] == reference[1], "cut mismatch between kernels"
    print(
        f"long trajectory: {provenance.size()} monomials, "
        f"{len(result[0])} steps to exhaustion"
    )
    return dict_seconds, array_seconds, len(result[0])


def run_benchmark(
    num_trees: int,
    leaves_per_tree: int,
    num_groups: int,
    monomials_per_group: int,
    bound_fraction: float,
    min_speedup: float,
    json_path: Optional[str] = None,
) -> int:
    provenance, forest = build_instance(
        num_trees, leaves_per_tree, num_groups, monomials_per_group
    )
    size = provenance.size()
    bound = max(1, int(size * bound_fraction))
    total_leaves = num_trees * leaves_per_tree
    print(
        f"instance: {size} monomials, {provenance.num_variables()} variables, "
        f"{num_trees} trees x {leaves_per_tree} leaves ({total_leaves} total); "
        f"bound {bound}"
    )

    legacy_seconds, legacy = median_seconds(
        lambda fresh: legacy_greedy(
            fresh, forest, bound, allow_infeasible=True, keep_trace=True
        ),
        provenance,
    )
    incremental_seconds, incremental = median_seconds(
        lambda fresh: optimize_greedy(
            fresh, forest, bound, allow_infeasible=True, keep_trace=True
        ),
        provenance,
    )

    # Byte-identical selection is the contract, not a sampling artefact.
    assert incremental.cuts == legacy.cuts, "cut mismatch between engines"
    assert incremental.trace == legacy.trace, "step-trace mismatch between engines"
    assert incremental.predicted_size == legacy.predicted_size
    steps = len(legacy.trace["steps"])

    # The sweep path: several bounds answered from one cached trajectory.
    sweep_bounds = sorted(
        {max(1, int(size * fraction)) for fraction in (0.9, 0.75, 0.5, bound_fraction)},
        reverse=True,
    )
    compressor = Compressor()
    start = time.perf_counter()
    swept = compressor.sweep(
        provenance, forest, sweep_bounds, allow_infeasible=True
    )
    sweep_seconds = time.perf_counter() - start
    for sweep_bound, result in swept.items():
        reference = optimize_greedy(
            provenance, forest, sweep_bound, allow_infeasible=True
        )
        assert result.cuts == reference.cuts, "sweep cut mismatch"

    dict_seconds, array_seconds, long_steps = run_long_trajectory()
    long_speedup = dict_seconds / max(array_seconds, 1e-12)

    speedup = legacy_seconds / max(incremental_seconds, 1e-12)
    print()
    print(f"{'engine':<44} {'total':>12}")
    print("-" * 58)
    print(f"{'legacy greedy (full rescans)':<44} {legacy_seconds * 1e3:>10.1f}ms")
    print(f"{'incremental kernel (delta gains)':<44} {incremental_seconds * 1e3:>10.1f}ms")
    print(
        f"{'trajectory sweep (' + str(len(sweep_bounds)) + ' bounds)':<44} "
        f"{sweep_seconds * 1e3:>10.1f}ms"
    )
    print(
        f"{'long trajectory: dict-row kernel':<44} {dict_seconds * 1e3:>10.1f}ms"
    )
    print(
        f"{'long trajectory: array kernel':<44} {array_seconds * 1e3:>10.1f}ms"
    )
    print()
    print(
        f"incremental speedup: {speedup:.1f}x over {steps} coarsening steps "
        f"(identical cuts verified)"
    )
    print(
        f"long-trajectory speedup: {long_speedup:.1f}x over {long_steps} steps "
        f"(identical steps and cuts verified)"
    )

    if json_path:
        with open(json_path, "w") as handle:
            json.dump(
                {
                    "monomials": size,
                    "total_leaves": total_leaves,
                    "bound": bound,
                    "steps": steps,
                    "legacy_seconds": legacy_seconds,
                    "incremental_seconds": incremental_seconds,
                    "sweep_seconds": sweep_seconds,
                    "sweep_bounds": sweep_bounds,
                    "speedup": speedup,
                    "long_trajectory_steps": long_steps,
                    "long_trajectory_dict_seconds": dict_seconds,
                    "long_trajectory_array_seconds": array_seconds,
                    "long_trajectory_speedup": long_speedup,
                },
                handle,
                indent=2,
            )
        print(f"results written to {json_path}")

    if speedup < min_speedup:
        print(
            f"FAIL: incremental speedup {speedup:.1f}x is below the "
            f"{min_speedup:.1f}x bar",
            file=sys.stderr,
        )
        return 1
    if long_speedup < 1.0:
        print(
            f"FAIL: the array kernel is slower than the dict-row kernel on "
            f"the long trajectory ({long_speedup:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(f"OK: incremental speedup {speedup:.1f}x >= {min_speedup:.1f}x")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small instance + relaxed bar (CI smoke test)",
    )
    parser.add_argument("--trees", type=int, default=5)
    parser.add_argument("--leaves", type=int, default=100, help="leaves per tree")
    parser.add_argument("--groups", type=int, default=25)
    parser.add_argument("--monomials", type=int, default=250, help="per group")
    parser.add_argument(
        "--bound-fraction", type=float, default=0.55,
        help="bound as a fraction of the full provenance size",
    )
    parser.add_argument("--min-speedup", type=float, default=10.0)
    parser.add_argument("--json", help="where to write a JSON summary")
    args = parser.parse_args(argv)

    if args.quick:
        return run_benchmark(
            num_trees=2,
            leaves_per_tree=40,
            num_groups=12,
            monomials_per_group=80,
            bound_fraction=0.35,
            min_speedup=2.0,
            json_path=args.json,
        )
    return run_benchmark(
        num_trees=args.trees,
        leaves_per_tree=args.leaves,
        num_groups=args.groups,
        monomials_per_group=args.monomials,
        bound_fraction=args.bound_fraction,
        min_speedup=args.min_speedup,
        json_path=args.json,
    )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
