"""Observability walk-through: trace a compress-then-sweep session.

The whole evaluation pipeline is instrumented with ``repro.obs`` — spans for
every stage (compression trajectory, kernel coarsening, batch compile /
lower / kernel / reduce) and a process-wide metrics registry unifying the
cache and kernel counters.  This example runs a telephony bound-sweep plus
a 200-scenario batch evaluation with tracing on and then shows every way to
look at the record:

* the rendered span tree (who called what, for how long);
* the aggregated per-stage table (where the time actually went);
* the metric counters (cache hits, kernel work, evaluation modes);
* the JSON dump ``cobra stats --runtime`` consumes.

Run with ``PYTHONPATH=src python examples/tracing_sweep.py``.  The same
record is available from the CLI via ``cobra batch --trace`` /
``--trace-json``.
"""

import json
import tempfile
from pathlib import Path

from repro.engine.session import CobraSession
from repro.obs import (
    aggregate_stages,
    enable_tracing,
    get_registry,
    get_tracer,
    render_span_tree,
    render_stage_table,
    write_trace,
)
from repro.workloads.abstraction_trees import plans_tree
from repro.workloads.telephony import (
    TelephonyConfig,
    generate_revenue_provenance,
    telephony_scenario_sweep,
)


def main() -> None:
    config = TelephonyConfig(
        num_customers=5_000, num_zips=50, months=tuple(range(1, 13))
    )
    provenance = generate_revenue_provenance(config)
    scenarios = telephony_scenario_sweep(200, months=config.months)
    print(
        f"telephony provenance: {provenance.size()} monomials; "
        f"sweep: {len(scenarios)} scenarios\n"
    )

    # Everything below is recorded; nothing above was (tracing was off, at
    # its one-attribute-check no-op cost).
    enable_tracing()

    session = CobraSession(provenance)
    session.set_abstraction_trees(plans_tree())
    for bound in (50 * 12 * 7, 50 * 12 * 3):
        session.set_bound(bound)
        result = session.compress(method="greedy")
        print(f"bound {bound}: compressed to {result.achieved_size} monomials")
    report = session.evaluate_many(scenarios)
    print(f"batch evaluated {len(scenarios)} scenarios via mode={report.mode!r}\n")

    spans = get_tracer().drain()
    metrics = get_registry().snapshot()

    print("== span tree (one node per pipeline stage) ==")
    print(render_span_tree(spans, max_depth=4))
    print()

    print("== per-stage totals (self time = excluding children) ==")
    print(render_stage_table(aggregate_stages(spans)))
    print()

    print("== metric counters ==")
    for name in sorted(metrics["counters"]):
        print(f"  {name:<36} {metrics['counters'][name]}")
    print()

    # The JSON dump is what `cobra batch --trace-json PATH` writes and what
    # `cobra stats --runtime PATH` reads back.
    path = Path(tempfile.gettempdir()) / "cobra_trace.json"
    write_trace(path, spans, metrics)
    document = json.loads(path.read_text())
    print(
        f"trace dumped to {path} (version {document['version']}, "
        f"{len(document['spans'])} root spans) — inspect with:\n"
        f"  PYTHONPATH=src python -m repro.cli stats --runtime {path}"
    )


if __name__ == "__main__":
    main()
