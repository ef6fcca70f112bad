"""The incremental compression kernel: compress once, then sweep.

This example drives the greedy on a telephony-scale instance:

1. time one :func:`~repro.core.greedy.optimize_greedy` call at a single
   bound;
2. sweep several size bounds through a :class:`repro.Compressor` —
   because the greedy coarsening order does not depend on the bound, the
   whole sweep shares one cached trajectory ("compress once, then sweep")
   and costs about as much as the one compression at its tightest bound;
3. step the kernel by hand, watching the delta-maintained gain table that
   replaces a full rescan of every monomial per step.

Run with::

    python examples/incremental_compression.py
    python examples/incremental_compression.py --zips 400 --months 12
"""

import argparse
import time

from repro import Compressor
from repro.core.greedy import optimize_greedy
from repro.core.kernel import IncrementalGreedyKernel
from repro.workloads.abstraction_trees import plans_tree
from repro.workloads.telephony import TelephonyConfig, generate_revenue_provenance


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zips", type=int, default=150)
    parser.add_argument("--months", type=int, default=12)
    args = parser.parse_args()

    config = TelephonyConfig(
        num_customers=10_000,
        num_zips=args.zips,
        months=tuple(range(1, args.months + 1)),
    )
    provenance = generate_revenue_provenance(config)
    tree = plans_tree()
    size = provenance.size()
    bound = size // 3
    print(
        f"Provenance: {size:,} monomials over "
        f"{provenance.num_variables()} variables; bound {bound:,}"
    )

    # -- 1. one compression -------------------------------------------------
    start = time.perf_counter()
    single = optimize_greedy(provenance, tree, bound)
    single_seconds = time.perf_counter() - start
    print(
        f"\none optimize_greedy: {single_seconds * 1e3:8.1f} ms  "
        f"cut {sorted(single.cut.nodes)}"
    )

    # -- 2. compress once, sweep bounds ------------------------------------
    compressor = Compressor()
    bounds = [size, int(size * 0.6), bound, int(size * 0.1)]
    start = time.perf_counter()
    swept = compressor.sweep(provenance, tree, bounds, allow_infeasible=True)
    sweep_seconds = time.perf_counter() - start
    assert swept[bound].cuts == single.cuts
    print(
        f"\nsweep of {len(bounds)} bounds through one cached trajectory "
        f"({sweep_seconds * 1e3:.1f} ms):"
    )
    for sweep_bound in bounds:
        result = swept[sweep_bound]
        print(
            f"  bound {sweep_bound:>8,} -> size {result.achieved_size:>8,}  "
            f"variables {result.num_variables:>4}  feasible={result.feasible}"
        )
    print(f"plan cache: {compressor.cache_info()}")

    # -- 3. the kernel, stepped by hand -------------------------------------
    kernel = IncrementalGreedyKernel(provenance, tree)
    print(f"\nstepping the kernel from size {kernel.current_size:,}:")
    for _ in range(3):
        best = kernel.best()
        if best is None:
            break
        gains = kernel.gain_table()[best]
        step = kernel.apply(best)
        print(
            f"  coarsen at {best:<10} saves {gains['saved']:>7,} monomials "
            f"for {gains['lost']} variables (ratio {gains['ratio']:,.1f}) "
            f"-> size {step['size_after']:,}"
        )


if __name__ == "__main__":
    main()
