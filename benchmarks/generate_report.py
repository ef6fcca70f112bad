"""Regenerate the quantitative tables of EXPERIMENTS.md.

This is a plain script (not a pytest module): it recomputes every measured
number reported in ``EXPERIMENTS.md`` — the Example 4 cut table, the
Section 4 sizes and speedups, the bound-sweep series, the quarter-tree and
TPC-H results and the optimiser ablation — and prints them as markdown-ish
tables, so the document can be refreshed after any change with::

    python benchmarks/generate_report.py            # ~1-2 minutes
    python benchmarks/generate_report.py --full     # 1M-customer Section 4 instance

It also persists the batch-engine perf baseline (dense vs sparse vs sharded
timings and speedups) as ``BENCH_batch.json`` so CI can archive the perf
trajectory::

    python benchmarks/generate_report.py --batch-only --batch-json BENCH_batch.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.abstraction_tree import AbstractionForest
from repro.core.brute_force import optimize_brute_force
from repro.core.compression import apply_abstraction
from repro.core.cut import Cut
from repro.core.greedy import optimize_greedy
from repro.core.multi_tree import optimize_forest
from repro.core.optimizer import optimize_single_tree
from repro.engine.session import CobraSession
from repro.workloads.abstraction_trees import months_tree, plans_tree
from repro.workloads.telephony import (
    TelephonyConfig,
    example2_provenance,
    generate_revenue_provenance,
)
from repro.workloads.tpch import TpchConfig, generate_tpch_catalog
from repro.workloads.tpch_queries import all_tpch_queries


def header(title: str) -> None:
    print(f"\n## {title}\n")


def report_example4() -> None:
    header("E2 — Example 4 cuts on {P1, P2}")
    provenance = example2_provenance()
    tree = plans_tree()
    cuts = {
        "S1": ("Business", "Special", "Standard"),
        "S2": ("SB", "e", "f1", "f2", "Y", "v", "Standard"),
        "S3": ("b1", "b2", "e", "Special", "Standard"),
        "S4": ("SB", "e", "F", "Y", "v", "p1", "p2"),
        "S5": ("Plans",),
    }
    print("| cut | size on {P1,P2} | cut variables |")
    print("|---|---|---|")
    for name, nodes in cuts.items():
        result = apply_abstraction(provenance, Cut(tree, nodes))
        print(f"| {name} | {result.compressed_size} | {len(nodes)} |")


def report_section4(full_scale: bool) -> None:
    header("E3 — Section 4 (1,055 zips x 11 plans x 12 months)")
    config = TelephonyConfig(num_customers=1_000_000 if full_scale else 100_000)
    start = time.time()
    provenance = generate_revenue_provenance(config)
    print(f"generation: {time.time() - start:.1f}s for {config.num_customers:,} customers")
    print(f"full provenance size: {provenance.size():,} (paper: 139,260)\n")

    session = CobraSession(provenance)
    session.set_abstraction_trees(plans_tree())
    print("| bound | compressed size (paper) | speedup (paper) | optimise time |")
    print("|---|---|---|---|")
    paper = {94_600: (88_620, "47%"), 38_600: (37_980, "79%")}
    for bound, (paper_size, paper_speedup) in paper.items():
        session.set_bound(bound)
        start = time.time()
        result = session.compress()
        optimise_seconds = time.time() - start
        report = session.assign(speedup_repeats=3)
        print(
            f"| {bound:,} | {result.achieved_size:,} ({paper_size:,}) "
            f"| {report.speedup_fraction:.0%} ({paper_speedup}) "
            f"| {optimise_seconds:.1f}s |"
        )


def report_bound_sweep() -> None:
    header("E4 — bound sweep (200 zips)")
    provenance = generate_revenue_provenance(
        TelephonyConfig(num_customers=20_000, num_zips=200)
    )
    session = CobraSession(provenance)
    session.set_abstraction_trees(plans_tree())
    print("| bound | size | variables | speedup |")
    print("|---|---|---|---|")
    for groups in (11, 9, 7, 5, 3, 1):
        bound = 200 * 12 * groups
        session.set_bound(bound)
        result = session.compress()
        report = session.assign(speedup_repeats=2)
        print(
            f"| {bound:,} | {result.achieved_size:,} "
            f"| {result.cut.num_variables()} | {report.speedup_fraction:.0%} |"
        )


def report_quarter_tree() -> None:
    header("E5 — quarter tree and the plans+months forest (200 zips)")
    provenance = generate_revenue_provenance(
        TelephonyConfig(num_customers=20_000, num_zips=200)
    )
    quarters = optimize_single_tree(provenance, months_tree(12), 200 * 11 * 4)
    print(
        f"months→quarters: {provenance.size():,} -> {quarters.achieved_size:,} "
        f"(cut {sorted(quarters.cut.nodes)})"
    )
    forest = AbstractionForest([plans_tree(), months_tree(12)])
    combined = optimize_forest(provenance, forest, 200 * 3 * 4, method="greedy")
    kept = sum(cut.num_variables() for cut in combined.cuts)
    print(
        f"forest, bound {200 * 3 * 4:,}: -> {combined.achieved_size:,} "
        f"({kept} variables kept)"
    )


def report_tpch() -> None:
    header("E6 — TPC-H queries (scale 0.001, bound = half size)")
    catalog = generate_tpch_catalog(TpchConfig(scale=0.001))
    print("| query | groups | size | compressed | variables |")
    print("|---|---|---|---|---|")
    for item in all_tpch_queries(catalog):
        full = item.provenance.size()
        bound = max(1, full // 2)
        result = optimize_forest(
            item.provenance, item.trees, bound, allow_infeasible=True
        )
        print(
            f"| {item.name} | {len(item.provenance)} | {full} "
            f"| {result.achieved_size} | {item.provenance.num_variables()} -> "
            f"{result.num_variables} |"
        )


def report_ablation() -> None:
    header("E8 — optimiser ablation (50 zips, bound = 5 plan groups)")
    provenance = generate_revenue_provenance(
        TelephonyConfig(num_customers=2_000, num_zips=50)
    )
    bound = 50 * 12 * 5
    print("| algorithm | runtime | size | variables |")
    print("|---|---|---|---|")
    for name, optimiser in (
        ("dynamic programming", optimize_single_tree),
        ("brute force", optimize_brute_force),
        ("greedy", optimize_greedy),
    ):
        start = time.time()
        result = optimiser(provenance, plans_tree(), bound)
        seconds = time.time() - start
        print(
            f"| {name} | {seconds * 1000:.0f} ms | {result.achieved_size:,} "
            f"| {result.cut.num_variables()} |"
        )


def report_batch(json_path: str, quick: bool = False) -> None:
    """E9 — the batch-engine perf baseline, persisted as ``BENCH_batch.json``.

    Times the dense matrix pipeline against sparse baseline-once delta
    evaluation (and its process-sharded variant) on the sparse-sweep
    workload of ``bench_sparse_deltas`` and writes the record to
    ``json_path`` so CI uploads it as an artifact — the perf trajectory of
    the batch engine is finally on the record, run over run.
    """
    sys.path.insert(0, str(Path(__file__).parent))
    from bench_sparse_deltas import measure

    header("E9 — batch engine baseline (dense vs sparse vs sharded)")
    if quick:
        record = measure(
            num_variables=300, num_monomials=12_000, num_groups=24,
            num_scenarios=80, touched=4, repeats=2, processes=2,
        )
    else:
        record = measure(
            num_variables=1_000, num_monomials=100_000, num_groups=50,
            num_scenarios=250, touched=10, repeats=3,
        )
    print("| path | total | per scenario | speedup |")
    print("|---|---|---|---|")
    for label, key, speedup_key in (
        ("dense matrix", "dense_seconds", None),
        ("sparse deltas", "sparse_seconds", "sparse_speedup"),
        (f"sharded sparse ({record['processes']}p)", "sharded_seconds", "sharded_speedup"),
    ):
        seconds = record[key]
        speedup = f"{record[speedup_key]:.1f}x" if speedup_key else "1.0x"
        print(
            f"| {label} | {seconds * 1e3:.1f} ms "
            f"| {seconds / max(1, record['scenarios']) * 1e6:.0f} us "
            f"| {speedup} |"
        )
    print(
        f"\nauto mode picked sparse: {record['auto_picked_sparse']} "
        f"({record['scenarios']} scenarios x {record['monomials']} monomials, "
        f"{record['touched_fraction']:.1%} of variables touched)"
    )
    print(
        f"\ncompiled store: {record['store_bytes'] / 1e6:.2f} MB; cold open "
        f"{record['store_open_seconds'] * 1e3:.2f} ms vs recompile "
        f"{record['recompile_seconds'] * 1e3:.1f} ms "
        f"({record['store_cold_start_speedup']:.1f}x)"
    )
    stages = record.get("stages", {})
    if stages:
        print("\nper-stage breakdown (one traced auto-mode pass):")
        print("| stage | count | total | self |")
        print("|---|---|---|---|")
        for name in sorted(stages, key=lambda n: -stages[n]["self_seconds"]):
            entry = stages[name]
            print(
                f"| {name} | {entry['count']} "
                f"| {entry['total_seconds'] * 1e3:.1f} ms "
                f"| {entry['self_seconds'] * 1e3:.1f} ms |"
            )
    Path(json_path).write_text(json.dumps(record, indent=2))
    print(f"baseline written to {json_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="run Section 4 with 1,000,000 customers"
    )
    parser.add_argument(
        "--batch-json", default="BENCH_batch.json",
        help="where to write the batch-engine perf baseline",
    )
    parser.add_argument(
        "--batch-only", action="store_true",
        help="only run the batch-engine baseline (CI artifact mode)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small batch-baseline instance for CI",
    )
    args = parser.parse_args()
    print("# COBRA reproduction — measured results")
    if args.batch_only:
        report_batch(args.batch_json, quick=args.quick)
        return
    report_example4()
    report_section4(args.full)
    report_bound_sweep()
    report_quarter_tree()
    report_tpch()
    report_ablation()
    report_batch(args.batch_json, quick=args.quick)


if __name__ == "__main__":
    main()
