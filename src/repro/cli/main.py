"""``cobra`` — a text front-end mirroring the demo's interaction flow.

The published system drives an Angular GUI; this CLI exposes the same
back-end workflow (Figure 4) from the terminal:

* ``cobra demo`` — walk through the Figure 1 running example: show the
  provenance polynomials P1/P2, the Figure 2 tree, compress under a bound
  and compare results (optionally under the "-20% in March" scenario);
* ``cobra telephony`` — the Section 4 scale experiment: generate the large
  telephony provenance, compress under one or more bounds and report sizes
  and assignment speedups;
* ``cobra batch`` — the batch what-if service: evaluate a whole sweep of
  scenarios against the telephony provenance in one vectorised pass,
  optionally comparing against the compressed provenance and the sequential
  per-scenario path;
* ``cobra sweep`` — evaluate a declarative scenario plan (a parameter grid
  or Monte Carlo sample, specified as JSON) with shared-delta factoring:
  the sweep's common operation prefix is evaluated once and only small
  per-scenario residual deltas hit the kernels;
* ``cobra tpch`` — run the reproduced TPC-H queries and compress each one;
* ``cobra compress`` — the generic entry point: read provenance (JSON) and a
  tree (JSON) from disk, compress under a bound and write the result;
* ``cobra compile`` — compile provenance once and persist the compiled form
  as a zero-copy mmap-able store file that ``cobra batch --store`` (and any
  other process) opens in O(header) time.

Every subcommand prints the numbers the demo shows its audience: provenance
size before/after, the chosen cut, number of variables, assignment speedup
and the drift of the analysis results.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.core.abstraction_tree import AbstractionTree
from repro.engine.scenario import Scenario
from repro.engine.session import CobraSession
from repro.provenance.backends import SEMIRING_BACKEND_NAMES, resolve_backend
from repro.provenance.serialization import (
    load_provenance_set,
    provenance_set_to_dict,
)
from repro.workloads.abstraction_trees import plans_tree
from repro.workloads.telephony import (
    TelephonyConfig,
    example2_provenance,
    generate_revenue_provenance,
    telephony_scenario_sweep,
)
from repro.workloads.tpch import TpchConfig, generate_tpch_catalog
from repro.workloads.tpch_queries import all_tpch_queries


def _print(text: str = "") -> None:
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def run_demo(args: argparse.Namespace) -> int:
    """The Figure 1 / Example 2 walk-through."""
    provenance = example2_provenance()
    tree = plans_tree()
    backend = resolve_backend(getattr(args, "semiring", None))

    _print("== COBRA demo: the telephony running example ==")
    if backend.name != "real":
        _print(f"   (evaluating in the {backend.name} semiring)")
    _print()
    _print("Provenance polynomials (Example 2):")
    for key, polynomial in provenance.items():
        _print(f"  zip {key[0]}: {polynomial.to_text()}")
    _print()
    _print("Abstraction tree (Figure 2):")
    _print(tree.to_ascii())
    _print()

    session = CobraSession(provenance, semiring=backend)
    session.set_abstraction_trees(tree)
    session.set_bound(args.bound)
    result = session.compress(keep_trace=True)

    _print(f"Bound: {args.bound}")
    _print(f"Chosen cut: {sorted(result.cut.nodes)}")
    _print(
        f"Provenance size: {result.compression.original_size} -> "
        f"{result.achieved_size} monomials"
    )
    _print(
        f"Variables: {result.compression.original_variables} -> "
        f"{result.num_variables}"
    )
    _print()

    _print("Meta-variable panel (defaults are member averages):")
    for row in session.meta_variable_panel():
        default = (
            f"{row.default_value:g}"
            if backend.name == "real"
            else backend.format_value(row.default_value)
        )
        _print(f"  {row.name:<10} members={list(row.members)} default={default}")
    _print()

    if backend.name in ("real", "tropical"):
        scenario = Scenario(
            "March discount", "decrease all prices by 20% in March"
        ).scale(lambda name: name == "m3", 0.8)
        _print("Scenario: decrease the ppm of all plans by 20% in March (m3 x 0.8)")
    else:
        # Multiplicative discounts are meaningless for set-like semirings;
        # the classic what-if there is deletion: drop the March tuples.
        scenario = Scenario(
            "March deleted", "what if the March price rows were not there?"
        ).set_value(lambda name: name == "m3", 0)
        _print("Scenario: delete the March price tuples (m3 := 0)")
    report = session.assign_scenario(scenario)
    _print(report.render_text())
    return 0


def run_telephony(args: argparse.Namespace) -> int:
    """The Section 4 scale experiment."""
    config = TelephonyConfig(
        num_customers=args.customers,
        num_zips=args.zips,
        months=tuple(range(1, args.months + 1)),
    )
    _print(
        f"Generating telephony provenance: {config.num_zips} zips x "
        f"{len(config.plans)} plans x {len(config.months)} months "
        f"({config.num_customers} customers)..."
    )
    provenance = generate_revenue_provenance(config)
    _print(f"Full provenance size: {provenance.size()} monomials")
    _print()

    session = CobraSession(provenance)
    session.set_abstraction_trees(plans_tree())
    # With --strategy incremental the whole bound sweep shares one cached
    # coarsening trajectory (compress once, then sweep).
    for bound in args.bounds:
        session.set_bound(bound)
        result = session.compress(method=args.strategy)
        report = session.assign()
        _print(
            f"bound {bound:>8}: size {result.achieved_size:>8}  "
            f"cut {sorted(result.cut.nodes)}  "
            f"speedup {report.speedup_fraction:.0%}"
        )
    return 0


def run_tpch(args: argparse.Namespace) -> int:
    """Compress the provenance of the reproduced TPC-H queries."""
    config = TpchConfig(scale=args.scale)
    _print(f"Generating TPC-H-style data at scale {args.scale}...")
    catalog = generate_tpch_catalog(config)
    _print(
        "  "
        + ", ".join(f"{table.name}: {len(table)} rows" for table in catalog)
    )
    _print()
    for item in all_tpch_queries(catalog):
        session = CobraSession(item.provenance)
        session.set_abstraction_trees(item.trees)
        full_size = item.provenance.size()
        bound = max(1, int(full_size * args.ratio))
        session.set_bound(bound)
        result = session.compress(allow_infeasible=True)
        _print(
            f"{item.name:<4} size {full_size:>6} -> {result.achieved_size:>6} "
            f"(bound {bound}, feasible={result.feasible})  "
            f"vars {result.compression.original_variables} -> "
            f"{result.num_variables}"
        )
    return 0


def _install_fault_plan(raw) -> int:
    """Arm a ``--fault-plan`` (inline JSON or a path to JSON); 0 on success.

    The same spec shape as the ``COBRA_FAULTS`` environment variable; the
    plan stays armed for the rest of the process, which for a CLI run is
    exactly the command being executed.
    """
    if not raw:
        return 0
    from repro.resilience import FaultPlanError, install_plan, plan_from_spec

    try:
        text = raw if raw.strip().startswith("{") else Path(raw).read_text()
        plan = plan_from_spec(json.loads(text))
    except (OSError, json.JSONDecodeError, FaultPlanError) as exc:
        _print(f"cobra: invalid --fault-plan: {exc}")
        return 1
    install_plan(plan)
    specs = ", ".join(
        f"{spec.site}:{spec.kind}" for spec in plan.specs
    )
    _print(f"fault injection armed (seed {plan.seed}): {specs}")
    return 0


def _print_resilience_summary() -> None:
    """One line of resilience counters, only when something degraded."""
    from repro.obs.metrics import get_registry

    counters = get_registry().snapshot_prefix("resilience.").get("counters", {})
    interesting = {
        name: value
        for name, value in counters.items()
        if value and not name.startswith("resilience.injected_faults")
    }
    if interesting:
        _print(
            "resilience: "
            + ", ".join(
                f"{name[len('resilience.'):]}={value}"
                for name, value in sorted(interesting.items())
            )
        )


def run_batch(args: argparse.Namespace) -> int:
    """Vectorised multi-scenario what-if evaluation over the telephony workload."""
    from repro.batch import BatchEvaluator
    from repro.utils.timing import Timer

    if _install_fault_plan(getattr(args, "fault_plan", None)):
        return 1
    config = TelephonyConfig(
        num_customers=args.customers,
        num_zips=args.zips,
        months=tuple(range(1, args.months + 1)),
    )
    _print(
        f"Generating telephony provenance: {config.num_zips} zips x "
        f"{len(config.plans)} plans x {len(config.months)} months..."
    )
    provenance = generate_revenue_provenance(config)
    scenarios = telephony_scenario_sweep(args.scenarios, months=config.months)
    _print(
        f"Provenance: {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables; sweep: {len(scenarios)} scenarios"
    )

    session = CobraSession(provenance)
    if args.bound is not None:
        session.set_abstraction_trees(plans_tree())
        session.set_bound(args.bound)
        session.compress(method=args.strategy)
        _print(
            f"Compressed under bound {args.bound}: "
            f"{session.compressed_provenance.size()} monomials"
        )

    with BatchEvaluator(max_workers=args.workers) as evaluator:
        if getattr(args, "store", None):
            from repro.exceptions import SerializationError, SessionStateError

            try:
                # The session validates backend + fingerprint; the explicit
                # evaluator then adopts the same mapped arrays so sharding
                # ships this store's path instead of spilling a copy.
                mapped = session.open_from_store(args.store)
                evaluator.adopt_store(args.store)
            except (SerializationError, SessionStateError) as exc:
                _print(f"cobra batch: cannot use compiled store: {exc}")
                return 1
            _print(
                f"Using compiled store {args.store} "
                f"({mapped.size()} monomials, mmap-backed)"
            )
        _print()

        with Timer() as timer:
            report = session.evaluate_many(
                scenarios,
                evaluator=evaluator,
                mode=args.mode,
                processes=args.processes,
            )
    per_scenario = timer.elapsed / max(1, len(scenarios))
    _print(report.render_text(max_rows=args.top))
    _print()
    _print(
        f"batch evaluation ({report.mode}): {timer.elapsed * 1e3:.1f} ms total "
        f"({per_scenario * 1e6:.0f} us/scenario)"
    )
    _print_resilience_summary()

    if args.compare_sequential:
        base = session.base_valuation
        variables = provenance.variables()
        with Timer() as sequential_timer:
            for scenario in scenarios:
                valuation = scenario.apply(base, variables)
                provenance.evaluate(valuation)
        ratio = sequential_timer.elapsed / max(timer.elapsed, 1e-12)
        _print(
            f"sequential Scenario.apply + evaluate: "
            f"{sequential_timer.elapsed * 1e3:.1f} ms total — "
            f"batch is {ratio:.1f}x faster"
        )

    if args.json:
        summary = report.summary()
        summary["batch_seconds"] = timer.elapsed
        Path(args.json).write_text(json.dumps(summary, indent=2))
        _print(f"summary written to {args.json}")
    return 0


def _default_sweep_spec(config: TelephonyConfig) -> dict:
    """The built-in `cobra sweep` plan: a plan-wide price cut crossed with
    per-month factors — the structured-sweep shape shared-delta factoring is
    built for (every point shares the plan-variable prefix)."""
    from repro.workloads.abstraction_trees import PLAN_VARIABLES

    months = [f"m{month}" for month in config.months[-2:]]
    axes = [
        {"op": "scale", "variables": [months[0]],
         "values": [0.8, 0.9, 1.0, 1.1, 1.2]},
    ]
    if len(months) > 1:
        axes.append(
            {"op": "scale", "variables": [months[1]],
             "values": [0.9, 1.0, 1.1]}
        )
    return {
        "type": "grid",
        "name": "telephony-sweep",
        "base": [
            {
                "op": "scale",
                "variables": sorted(PLAN_VARIABLES.values()),
                "amount": 0.95,
            }
        ],
        "axes": axes,
    }


def run_sweep(args: argparse.Namespace) -> int:
    """Evaluate a declarative scenario plan (grid / Monte Carlo sample)."""
    from repro.batch import BatchEvaluator
    from repro.engine.plan import plan_from_spec
    from repro.exceptions import ScenarioError
    from repro.obs.metrics import get_registry
    from repro.utils.timing import Timer

    if _install_fault_plan(getattr(args, "fault_plan", None)):
        return 1
    if args.plan and args.plan_json:
        _print("cobra sweep: pass --plan or --plan-json, not both")
        return 1
    if args.input:
        provenance = load_provenance_set(args.input)
        config = None
        source = args.input
    else:
        config = TelephonyConfig(
            num_customers=args.customers,
            num_zips=args.zips,
            months=tuple(range(1, args.months + 1)),
        )
        provenance = generate_revenue_provenance(config)
        source = (
            f"telephony ({args.customers} customers, {args.zips} zips, "
            f"{args.months} months)"
        )

    try:
        if args.plan:
            spec = json.loads(Path(args.plan).read_text())
        elif args.plan_json:
            spec = json.loads(args.plan_json)
        else:
            if config is None:
                _print(
                    "cobra sweep: --input needs an explicit plan "
                    "(--plan/--plan-json); the default plan targets the "
                    "telephony workload"
                )
                return 1
            spec = _default_sweep_spec(config)
        plan = plan_from_spec(spec)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            ScenarioError) as exc:
        _print(f"cobra sweep: invalid plan spec: {exc}")
        return 1

    _print(
        f"Provenance: {source} — {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables"
    )
    _print(f"Plan: {json.dumps(plan.describe())}")

    session = CobraSession(provenance)
    if args.bound is not None:
        session.set_abstraction_trees(plans_tree())
        session.set_bound(args.bound)
        session.compress(method=args.strategy)
        _print(
            f"Compressed under bound {args.bound}: "
            f"{session.compressed_provenance.size()} monomials"
        )
    _print()

    registry = get_registry()
    before = registry.snapshot()
    with BatchEvaluator() as evaluator, Timer() as timer:
        report = session.evaluate_plan(
            plan,
            evaluator=evaluator,
            mode=args.mode,
            processes=args.processes,
        )
    delta = registry.diff(before, registry.snapshot())
    counters = delta.get("counters", {})

    _print(report.render_text(max_rows=args.top))
    _print()
    per_scenario = timer.elapsed / max(1, len(plan))
    _print(
        f"plan evaluation ({report.mode}): {timer.elapsed * 1e3:.1f} ms total "
        f"({per_scenario * 1e6:.0f} us/scenario)"
    )
    prefix_cells = counters.get("batch.factored.prefix_cells", 0)
    residual_cells = counters.get("batch.factored.residual_cells", 0)
    hits = counters.get("batch.factored.auto_hits", 0)
    misses = counters.get("batch.factored.auto_misses", 0)
    if hits or misses:
        _print(
            f"factoring: {hits}/{hits + misses} chunks factored, "
            f"prefix cells {prefix_cells}, residual cells {residual_cells}"
        )
    _print_resilience_summary()

    if args.json:
        summary = report.summary()
        summary["plan"] = plan.describe()
        summary["plan_seconds"] = timer.elapsed
        summary["factored_chunks"] = hits
        summary["prefix_cells"] = prefix_cells
        summary["residual_cells"] = residual_cells
        Path(args.json).write_text(json.dumps(summary, indent=2))
        _print(f"summary written to {args.json}")
    return 0


def run_whatif(args: argparse.Namespace) -> int:
    """End-to-end what-if reasoning in any semiring backend.

    Picks the workload the chosen semiring is made for: min-cost call
    routing for ``tropical`` (and ``real``, where the same provenance sums
    costs), tuple-deletion/access-control on TPC-H for ``bool``, and
    witness/lineage analysis of the running example for ``why``/``lineage``.
    """
    from repro.workloads.routing import (
        RoutingConfig,
        generate_routing_provenance,
        routing_base_costs,
        routing_scenario_sweep,
        trunk_group_tree,
    )
    from repro.workloads.tpch_queries import (
        tpch_deletion_provenance,
        tpch_deletion_scenarios,
    )

    backend = resolve_backend(args.semiring)
    base_valuation = None
    if backend.name in ("real", "tropical"):
        config = RoutingConfig()
        provenance = generate_routing_provenance(config)
        trees = trunk_group_tree(config)
        scenarios = routing_scenario_sweep(args.scenarios, config)
        base_valuation = routing_base_costs(config).as_dict()
        workload = "min-cost call routing (trunk costs per route)"
    elif backend.name == "bool":
        catalog = generate_tpch_catalog(TpchConfig(scale=args.scale))
        item = tpch_deletion_provenance(catalog)
        provenance, trees = item.provenance, item.trees
        scenarios = tpch_deletion_scenarios(catalog, args.scenarios)
        workload = "TPC-H segment revenue under customer deletions"
    else:
        provenance = example2_provenance()
        trees = plans_tree()
        deletable = sorted(provenance.variables())
        scenarios = [
            Scenario(f"#{i} delete {name}").set_value([name], 0)
            for i, name in enumerate(deletable[: args.scenarios])
        ]
        workload = "witness analysis of the running example (tuple deletions)"

    _print(f"== what-if analysis in the {backend.name} semiring ==")
    _print(f"workload: {workload}")
    _print(
        f"provenance: {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables, {len(provenance)} groups"
    )
    _print()

    session = CobraSession(provenance, base_valuation, semiring=backend)
    initial = session.initial_results()
    _print("initial results (identity valuation):")
    for key, value in list(initial.items())[: args.top]:
        _print(f"  {', '.join(map(str, key)):<20} {backend.format_value(value, 40)}")
    if len(initial) > args.top:
        _print(f"  ... ({len(initial) - args.top} more groups)")
    _print()

    session.set_abstraction_trees(trees)
    bound = args.bound if args.bound is not None else max(1, provenance.size() // 2)
    session.set_bound(bound)
    result = session.compress(allow_infeasible=True)
    _print(
        f"compressed under bound {bound}: {result.achieved_size} monomials, "
        f"{result.num_variables} variables (feasible={result.feasible})"
    )
    _print()

    report = session.evaluate_many(
        scenarios, mode=args.mode, processes=args.processes
    )
    _print(report.render_text(max_rows=args.top))
    _print()
    first = session.assign_scenario(scenarios[0], measure_assignment_speedup=False)
    _print(f"scenario detail: {scenarios[0].name}")
    _print(first.render_text(max_groups=args.top))
    return 0


def run_stats(args: argparse.Namespace) -> int:
    """Describe a provenance JSON file and/or a dumped runtime trace."""
    if not args.input and not args.runtime:
        _print("cobra stats: provide --input and/or --runtime")
        return 1

    if args.input:
        from repro.core.optimizer import compute_size_profile
        from repro.provenance.statistics import describe_provenance

        provenance = load_provenance_set(args.input)
        statistics = describe_provenance(provenance)
        _print("== provenance statistics ==")
        _print(statistics.render_text())

        if args.tree:
            tree = AbstractionTree.from_dict(
                json.loads(Path(args.tree).read_text())
            )
            profile = compute_size_profile(provenance, tree)
            _print("")
            _print(f"== size profile for tree rooted at {tree.root!r} ==")
            _print(f"{'variables':>10} {'min size':>10}")
            for cardinality in sorted(profile):
                _print(f"{cardinality:>10} {profile[cardinality]:>10}")

    if args.runtime:
        from repro.obs import aggregate_stages, load_trace, render_stage_table

        document = load_trace(args.runtime)
        if args.input:
            _print("")
        _print(f"== runtime stage profile ({args.runtime}) ==")
        _print(render_stage_table(aggregate_stages(document["spans"])))
        counters = document.get("metrics", {}).get("counters", {})
        if counters:
            _print("")
            _print("counters:")
            for name in sorted(counters):
                _print(f"  {name:<40} {counters[name]}")
    return 0


def run_compress(args: argparse.Namespace) -> int:
    """Generic compression of provenance + tree read from JSON files."""
    provenance = load_provenance_set(args.input)
    tree = AbstractionTree.from_dict(json.loads(Path(args.tree).read_text()))

    session = CobraSession(provenance)
    session.set_abstraction_trees(tree)
    session.set_bound(args.bound)
    result = session.compress(
        method=args.strategy, allow_infeasible=args.allow_infeasible
    )

    resolved = result.strategy or result.algorithm
    _print(f"strategy: {args.strategy} -> {resolved} (algorithm: {result.algorithm})")
    _print(f"cut: {sorted(result.cut.nodes) if result.cut else None}")
    _print(
        f"size: {result.compression.original_size} -> {result.achieved_size} "
        f"(bound {args.bound}, feasible={result.feasible})"
    )
    _print(
        f"variables: {result.compression.original_variables} -> "
        f"{result.num_variables}"
    )
    if args.output:
        Path(args.output).write_text(
            json.dumps(provenance_set_to_dict(result.compressed))
        )
        _print(f"compressed provenance written to {args.output}")
    if args.summary:
        summary = dict(result.summary())
        summary["abstraction"] = result.abstraction.to_dict()
        Path(args.summary).write_text(json.dumps(summary, indent=2))
        _print(f"compression summary written to {args.summary}")
    return 0


def run_compile(args: argparse.Namespace) -> int:
    """Compile provenance once and persist it as a mmap-able store file."""
    from repro.provenance.store import read_store_header
    from repro.utils.timing import Timer

    if args.input:
        provenance = load_provenance_set(args.input)
        source = args.input
    else:
        config = TelephonyConfig(
            num_customers=args.customers,
            num_zips=args.zips,
            months=tuple(range(1, args.months + 1)),
        )
        provenance = generate_revenue_provenance(config)
        source = (
            f"telephony ({args.customers} customers, {args.zips} zips, "
            f"{args.months} months)"
        )

    session = CobraSession(provenance, semiring=args.semiring)
    _print(
        f"Compiling {source}: {provenance.size()} monomials, "
        f"{provenance.num_variables()} variables, {len(provenance)} groups"
    )
    with Timer() as timer:
        compiled = session.compile_to_store(args.output)
    header = read_store_header(args.output)
    size_bytes = Path(args.output).stat().st_size
    _print(
        f"Compiled in {timer.elapsed * 1000:.1f} ms "
        f"(backend={compiled.backend_name})"
    )
    _print(
        f"Store written to {args.output} "
        f"({size_bytes / 1e6:.2f} MB, fingerprint {header['fingerprint'][:16]})"
    )
    _print(
        "Open it from any process with `cobra batch --store "
        f"{args.output}` or `open_store({args.output!r})`."
    )
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: Compression strategies the CLI exposes (``session.compress(method=...)``):
#: ``incremental`` is the kernel-backed greedy with trajectory reuse across
#: bound sweeps, ``legacy`` the full-rescan greedy baseline; ``greedy`` /
#: ``dp`` / ``exact`` force the respective algorithms (``greedy`` picks its
#: engine automatically); ``auto`` picks per instance.
_STRATEGY_CHOICES = ("auto", "incremental", "legacy", "greedy", "dp", "exact")


def _add_semiring_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--semiring",
        choices=SEMIRING_BACKEND_NAMES,
        default="real",
        help="evaluation backend / semiring (default: real, the float pipeline)",
    )


def _add_batch_mode_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON|PATH",
        help="arm deterministic fault injection for this run: inline JSON or "
        "a path to a JSON fault plan (same shape as COBRA_FAULTS); the "
        "report's degradation summary shows what was recovered",
    )
    parser.add_argument(
        "--mode",
        choices=("auto", "dense", "sparse", "factored"),
        default="auto",
        help="evaluation pipeline: dense matrix, sparse baseline-once deltas, "
        "factored shared-prefix deltas, or auto-select by touched-variable "
        "fraction and prefix sharing (default: auto)",
    )
    parser.add_argument(
        "--processes",
        type=_positive_int,
        default=None,
        help="shard scenario rows across this many worker processes "
        "(default: evaluate in-process)",
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", action="store_true",
        help="record a span trace of the run and print it as a tree",
    )
    parser.add_argument(
        "--trace-json", metavar="PATH",
        help="record a span trace and write it (with the metric counters) "
        "as JSON; inspect it later with `cobra stats --runtime PATH`",
    )


def _add_strategy_argument(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--strategy",
        choices=_STRATEGY_CHOICES,
        default=default,
        help=f"abstraction-selection strategy (default: {default})",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``cobra`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="cobra",
        description="COBRA: compression via abstraction of provenance "
        "for hypothetical reasoning (ICDE 2019 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command")

    demo = subparsers.add_parser("demo", help="run the Figure 1 running example")
    demo.add_argument("--bound", type=int, default=4, help="monomial bound")
    _add_semiring_argument(demo)
    _add_trace_arguments(demo)
    demo.set_defaults(func=run_demo)

    whatif = subparsers.add_parser(
        "whatif",
        help="end-to-end what-if reasoning in any semiring backend "
        "(tropical routing costs, Boolean deletions, Why witnesses, ...)",
    )
    _add_semiring_argument(whatif)
    whatif.add_argument("--scenarios", type=_positive_int, default=12, help="sweep size")
    whatif.add_argument(
        "--bound", type=int, default=None,
        help="monomial bound (default: half the provenance size)",
    )
    whatif.add_argument(
        "--scale", type=float, default=0.001,
        help="TPC-H scale factor (bool backend's workload)",
    )
    whatif.add_argument("--top", type=int, default=8, help="rows to print")
    _add_batch_mode_arguments(whatif)
    _add_trace_arguments(whatif)
    whatif.set_defaults(func=run_whatif)

    telephony = subparsers.add_parser(
        "telephony", help="run the Section 4 scale experiment"
    )
    telephony.add_argument("--customers", type=int, default=50_000)
    telephony.add_argument("--zips", type=int, default=1_055)
    telephony.add_argument("--months", type=int, default=12)
    telephony.add_argument(
        "--bounds",
        type=int,
        nargs="+",
        default=[94_600, 38_600],
        help="monomial bounds to try (paper: 94600 and 38600)",
    )
    _add_strategy_argument(telephony, default="auto")
    _add_trace_arguments(telephony)
    telephony.set_defaults(func=run_telephony)

    batch = subparsers.add_parser(
        "batch",
        help="evaluate a whole what-if scenario sweep in one vectorised batch",
    )
    batch.add_argument("--scenarios", type=int, default=100, help="sweep size")
    batch.add_argument("--customers", type=_positive_int, default=5_000)
    batch.add_argument("--zips", type=_positive_int, default=100)
    batch.add_argument("--months", type=_positive_int, default=12)
    batch.add_argument(
        "--bound", type=int, default=None,
        help="also compress under this bound and report abstraction error",
    )
    batch.add_argument(
        "--workers", type=_positive_int, default=None,
        help="thread-pool size for chunked mega-batches (default: serial)",
    )
    _add_batch_mode_arguments(batch)
    batch.add_argument("--top", type=int, default=10, help="rows to print")
    batch.add_argument(
        "--compare-sequential", action="store_true",
        help="also time the sequential per-scenario path and print the speedup",
    )
    batch.add_argument("--json", help="where to write a JSON summary")
    batch.add_argument(
        "--store", metavar="PATH",
        help="open a compiled store written by `cobra compile` instead of "
        "recompiling; worker processes map it instead of a spilled copy",
    )
    _add_strategy_argument(batch, default="auto")
    _add_trace_arguments(batch)
    batch.set_defaults(func=run_batch)

    sweep = subparsers.add_parser(
        "sweep",
        help="evaluate a declarative scenario plan (grid / Monte Carlo "
        "sample as JSON) with shared-delta factoring",
    )
    sweep.add_argument(
        "--plan", metavar="PATH",
        help="plan spec JSON file (see repro.engine.plan.plan_from_spec)",
    )
    sweep.add_argument(
        "--plan-json", metavar="JSON",
        help="plan spec as an inline JSON string",
    )
    sweep.add_argument(
        "--input", metavar="PATH",
        help="provenance JSON file (default: generate the telephony workload)",
    )
    sweep.add_argument("--customers", type=_positive_int, default=5_000)
    sweep.add_argument("--zips", type=_positive_int, default=100)
    sweep.add_argument("--months", type=_positive_int, default=12)
    sweep.add_argument(
        "--bound", type=int, default=None,
        help="also compress under this bound and report abstraction error",
    )
    _add_batch_mode_arguments(sweep)
    sweep.add_argument("--top", type=int, default=10, help="rows to print")
    sweep.add_argument("--json", help="where to write a JSON summary")
    _add_strategy_argument(sweep, default="auto")
    _add_trace_arguments(sweep)
    sweep.set_defaults(func=run_sweep)

    tpch = subparsers.add_parser("tpch", help="run the TPC-H workload")
    tpch.add_argument("--scale", type=float, default=0.001)
    tpch.add_argument(
        "--ratio", type=float, default=0.5,
        help="bound as a fraction of the full provenance size",
    )
    tpch.set_defaults(func=run_tpch)

    stats = subparsers.add_parser(
        "stats", help="describe a provenance JSON file (and its size profile)"
    )
    stats.add_argument("--input", help="provenance JSON file")
    stats.add_argument("--tree", help="optional tree JSON file for the size profile")
    stats.add_argument(
        "--runtime", metavar="PATH",
        help="trace JSON written by --trace-json; print its per-stage "
        "runtime profile and metric counters",
    )
    stats.set_defaults(func=run_stats)

    compress = subparsers.add_parser(
        "compress", help="compress provenance JSON under a tree and bound"
    )
    compress.add_argument("--input", required=True, help="provenance JSON file")
    compress.add_argument("--tree", required=True, help="tree JSON file")
    compress.add_argument("--bound", type=int, required=True)
    compress.add_argument("--output", help="where to write the compressed provenance")
    compress.add_argument(
        "--summary",
        help="where to write a JSON summary (sizes, chosen cut, abstraction groups)",
    )
    compress.add_argument("--allow-infeasible", action="store_true")
    _add_strategy_argument(compress, default="auto")
    _add_trace_arguments(compress)
    compress.set_defaults(func=run_compress)

    compile_cmd = subparsers.add_parser(
        "compile",
        help="compile provenance once and persist it as a mmap-able store",
    )
    compile_cmd.add_argument(
        "--input",
        help="provenance JSON file (default: generate the telephony workload)",
    )
    compile_cmd.add_argument("--customers", type=_positive_int, default=5_000)
    compile_cmd.add_argument("--zips", type=_positive_int, default=100)
    compile_cmd.add_argument("--months", type=_positive_int, default=12)
    compile_cmd.add_argument(
        "--semiring",
        choices=("real", "tropical", "bool"),
        default="real",
        help="compiled backend to persist (default: real)",
    )
    compile_cmd.add_argument(
        "--output", required=True, help="where to write the store file"
    )
    _add_trace_arguments(compile_cmd)
    compile_cmd.set_defaults(func=run_compile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``cobra`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    if not (getattr(args, "trace", False) or getattr(args, "trace_json", None)):
        return args.func(args)

    from repro.obs import (
        disable_tracing,
        enable_tracing,
        get_registry,
        get_tracer,
        render_span_tree,
        write_trace,
    )

    enable_tracing()
    try:
        status = args.func(args)
    finally:
        spans = get_tracer().drain()
        metrics = get_registry().snapshot()
        disable_tracing()
    if getattr(args, "trace", False):
        _print()
        _print("== trace ==")
        _print(render_span_tree(spans))
    if getattr(args, "trace_json", None):
        write_trace(args.trace_json, spans, metrics)
        _print(f"trace written to {args.trace_json}")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
