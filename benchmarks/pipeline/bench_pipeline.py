"""Pipeline benchmark: from provenance capture to what-if sweeps, end to end.

Each workload (``pipeline_workloads.py``) is generated from ``--seed`` and
driven through the public API exactly as an analyst's service would run it:

    capture (repro.db) -> compress -> compile_to_store -> open_from_store
    -> first request            (set-up, reported as ``setup_s``)
    -> closed loop of requests  (one client, no think time)

Only the public call sits inside a request's timer; every request's inputs
exist before timing starts, and each answer is checked against
``evaluate_in_semiring`` on the group polynomials after its timer stops.
Latency and throughput are taken over the quiet eighth of the run (see
:meth:`LoopResult.quiet`), set-up time as the median of fresh processes.

End-to-end metrics come from an untraced run (``--trace 0``).  A separate
traced run (``--trace 1``) reports the per-layer metrics: self-time shares of
the request wall time per module, counters from the metrics registry, the
set-up steps' own spans, and the latency tail (``sweep_p90_ms``).  Metric
names, units and bounds are declared in ``BENCHMARK.json`` at the repository
root.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/pipeline/bench_pipeline.py --workload telephony-sql \\
        --seed 1 --seconds 10 --trace 0

Run every workload, untraced and traced, and keep the records::

    python3 benchmarks/pipeline/bench_pipeline.py --seed 1 --json run.json
    python3 benchmarks/pipeline/bench_pipeline.py --smoke      # < 30 s

Compare two sets of records against the bounds::

    python3 benchmarks/pipeline/bench_pipeline.py compare \\
        --base a1.json a2.json a3.json --head b1.json b2.json b3.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import multiprocessing
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Compiled stores go here: inside the checkout, removed after each run.
WORK_DIR = ROOT / ".bench_work"

#: Fresh processes whose set-up times give the median ``setup_s``: a
#: one-second set-up lands in a slowed stretch of a shared host often enough
#: that single samples differ by up to 1.75x.
SETUP_SAMPLES = 5
#: Only the fastest eighth of the requests are timing samples; this leaves
#: at least 25 of them.
MIN_REQUESTS = 200
#: Each of the traced run's two passes (untraced, then traced); the
#: untraced pass's p90 then has at least ten samples beyond it.
TRACED_MIN_REQUESTS = 100
SMOKE_SECONDS = 0.5
#: Consecutive requests per block when a run is cut up to find its quiet
#: stretches.  A multiple of every workload's request cycle (tpch-deletion
#: repeats five bounds), so every block holds the same mix of requests.
BLOCK_REQUESTS = 5
#: The fastest ``1 / QUIET_PART`` of the blocks supply the timing samples.
QUIET_PART = 8
#: Set-up is timed in at most this many seconds per fresh process.
SETUP_TIMEOUT = 150

#: Traced span name -> the per-layer share its self time counts towards.
#: Spans not listed land in ``obs.other_share``.
SHARE_OF_SPAN = {
    "bench.request": "obs.untraced_share",
    "bench.core.compress": "core.compress_share",
    "session.compress": "core.compress_share",
    "compress.run": "core.compress_share",
    "compress.trajectory": "core.compress_share",
    "kernel.run": "core.compress_share",
    "kernel.coarsen": "core.compress_share",
    "incidence.build": "core.compress_share",
    "incidence.index": "core.compress_share",
    "session.evaluate_many": "engine.session_share",
    "session.evaluate_plan": "engine.session_share",
    "session.compile": "engine.session_share",
    "batch.evaluate": "batch.evaluate_share",
    "batch.plan": "batch.plan_share",
    "batch.lower": "batch.lower_share",
    "batch.factor": "batch.factor_share",
    "batch.compile": "batch.compile_share",
    "batch.kernel.dense": "batch.kernel_share",
    "batch.kernel.sparse": "batch.kernel_share",
    "batch.kernel.generic": "batch.kernel_share",
    "batch.reduce": "batch.reduce_share",
    "backend.compile": "provenance.compile_share",
    "incidence.delta_index": "provenance.delta_index_share",
}
SHARE_METRICS = tuple(sorted(set(SHARE_OF_SPAN.values()) | {"obs.other_share"}))


# ---------------------------------------------------------------------------
# Declared metrics
# ---------------------------------------------------------------------------


def load_declaration() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workloads, metrics, units and bounds."""
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def emit(values: Dict[str, float], declared: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """The ``metrics`` object: every declared metric, with its unit."""
    missing = [entry["name"] for entry in declared if entry["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not computed: {', '.join(missing)}")
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` (nothing is installed)."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(
            f"bench_pipeline: cannot import repro from {SRC} ({exc}); "
            "run from the root of a full checkout"
        ) from exc
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(
            f"bench_pipeline: imported repro from {repro.__file__}, "
            f"not from {SRC}"
        )


class SetUp:
    """A session brought from generated input to its first answered request."""

    def __init__(self, workload, store_path: Path, evaluator) -> None:
        from repro.obs import trace

        start = time.perf_counter()
        with trace("bench.db.capture"):
            provenance = workload.capture()
        session = workload.open_session(provenance)
        with trace("bench.core.compress"):
            workload.compress(session)
        with trace("bench.provenance.store_write"):
            session.compile_to_store(store_path)
        with trace("bench.provenance.store_open"):
            session.open_from_store(store_path, recover=False)
            evaluator.adopt_store(store_path)
        with trace("bench.request"):
            self.first_report = workload.answer(
                session, workload.requests[0], evaluator
            )
        self.seconds = time.perf_counter() - start
        self.session = session
        self.provenance = provenance
        self.store_bytes = store_path.stat().st_size


def check(session, request, report, rng) -> bool:
    """One seeded scenario x up to 8 seeded groups against the reference.

    The reference is ``evaluate_in_semiring`` on the group polynomial under
    the scenario's valuation: within 1e-9 relative for the real semiring,
    exact for the tropical and Boolean ones.
    """
    from repro.provenance.semiring import evaluate_in_semiring

    scenarios = request.scenarios
    keys = report.keys
    if report.full_results.shape != (len(scenarios), len(keys)):
        return False
    row = int(rng.integers(len(scenarios)))
    columns = rng.choice(len(keys), size=min(8, len(keys)), replace=False)
    backend = session.backend
    provenance = session.provenance
    valuation = scenarios[row].apply(session.base_valuation, provenance.variables())
    for column in columns:
        key = keys[int(column)]
        want = float(
            evaluate_in_semiring(
                provenance[key],
                backend.semiring,
                valuation,
                coefficient_embedding=backend.embed_coefficient,
            )
        )
        got = float(report.full_results[row, int(column)])
        if backend.name == "real":
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0):
                return False
        elif got != want:
            return False
    return True


def schedule(requests: Sequence[Any], seconds: float, minimum: int) -> Iterator[Any]:
    """Requests in order, cycling, until ``seconds`` pass and ``minimum`` ran.

    The first request answered during set-up, so the loop starts at the
    second.
    """
    deadline = time.perf_counter() + seconds
    issued = 0
    for request in itertools.islice(itertools.cycle(requests), 1, None):
        if issued >= minimum and time.perf_counter() >= deadline:
            return
        issued += 1
        yield request


class LoopResult:
    """What one closed-loop pass measured, request by request."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: Scenarios each request answered correctly (0 when it failed).
        self.answered: List[int] = []
        self.failed = 0
        self.compression_ratios: List[float] = []
        self.compressed_sizes: List[int] = []
        self.max_relative_error = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def quiet(self) -> List[int]:
        """Indices of the requests in the quietest eighth of the run.

        Other load on a shared host slows requests by up to 1.75x, in
        stretches from a few requests to over a minute long.  The run is cut
        into blocks of ``BLOCK_REQUESTS`` consecutive requests, and the
        fastest ``1 / QUIET_PART`` of the blocks by median latency supply
        the timing samples, so a stretch covering up to seven eighths of a
        run moves none of the timings.
        """
        full = len(self.latencies) - len(self.latencies) % BLOCK_REQUESTS
        blocks = [range(i, i + BLOCK_REQUESTS) for i in range(0, full, BLOCK_REQUESTS)]
        ranked = sorted(
            blocks,
            key=lambda block: statistics.median(self.latencies[i] for i in block),
        )
        return [i for block in ranked[: max(1, len(ranked) // QUIET_PART)] for i in block]

    def timings(self) -> Dict[str, float]:
        """Median latency and throughput over the quiet eighth."""
        quiet = self.quiet()
        latencies = [self.latencies[i] for i in quiet]
        return {
            "sweep_p50_ms": statistics.median(latencies) * 1e3,
            "scenarios_per_s": sum(self.answered[i] for i in quiet) / sum(latencies),
            "samples": len(latencies),
        }


def closed_loop(
    workload, setup: SetUp, evaluator, seconds: float, minimum: int, rng,
    on_request=None,
) -> LoopResult:
    """One client, no think time: each request starts when the last ends."""
    from repro.exceptions import CobraError
    from repro.obs import trace

    result = LoopResult()
    session = setup.session
    for request in schedule(workload.requests, seconds, minimum):
        begin = time.perf_counter()
        try:
            with trace("bench.request"):
                report = workload.answer(session, request, evaluator)
        except (CobraError, ValueError, ArithmeticError, OSError) as exc:
            report = None
            print(f"request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        result.latencies.append(time.perf_counter() - begin)
        if on_request is not None:
            on_request()
        if report is None or not check(session, request, report, rng):
            result.failed += 1
            result.answered.append(0)
            continue
        result.answered.append(len(report))
        result.compression_ratios.append(report.full_size / report.compressed_size)
        result.compressed_sizes.append(report.compressed_size)
        result.max_relative_error = max(
            result.max_relative_error, report.max_relative_error
        )
    return result


def stop_children() -> None:
    """Wait for every worker process this run started to end."""
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def setup_sample(name: str, seed: int, smoke: bool) -> float:
    """``setup_s`` of one fresh process (this script with ``--setup-only``)."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--setup-only",
    ] + (["--smoke"] if smoke else [])
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up sample of {name} failed:\n{completed.stderr.strip()}"
        )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Generate, set up, measure and check one workload in this process."""
    from pipeline_workloads import WORKLOADS
    from repro import BatchEvaluator
    from repro.obs import disable_tracing, enable_tracing, get_registry, get_tracer

    import numpy as np

    workload = WORKLOADS[name](seed, smoke)
    check_rng = np.random.default_rng((seed, 1))
    WORK_DIR.mkdir(exist_ok=True)
    registry = get_registry()
    before = registry.snapshot()
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp, BatchEvaluator(
            chunk_size=workload.chunk_size
        ) as evaluator:
            store = Path(tmp) / f"{name}.cps"
            if traced:
                enable_tracing()
            setup = SetUp(workload, store, evaluator)
            first_ok = check(
                setup.session, workload.requests[0], setup.first_report, check_rng
            )
            if setup_only:
                if not first_ok:
                    raise RuntimeError(f"{name}: first request answered wrongly")
                return {"setup_s": setup.seconds}
            if traced:
                return traced_run(
                    workload, setup, evaluator, seconds, check_rng,
                    registry, before, first_ok,
                )
            loop = closed_loop(
                workload, setup, evaluator, seconds,
                MIN_REQUESTS, check_rng,
            )
            # Let the pools go before the set-up samples start.
            evaluator.close()
            stop_children()
            setups = [setup.seconds] + [
                setup_sample(name, seed, smoke)
                for _ in range(1 if smoke else SETUP_SAMPLES - 1)
            ]
    finally:
        disable_tracing()
        get_tracer().drain()
        stop_children()

    timings = loop.timings()
    values = {
        "setup_s": statistics.median(setups),
        "sweep_p50_ms": timings["sweep_p50_ms"],
        "scenarios_per_s": timings["scenarios_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "store_bytes_per_monomial": setup.store_bytes / setup.provenance.size(),
        "compression_ratio": statistics.fmean(loop.compression_ratios or [0.0]),
    }
    failed = loop.failed + (0 if first_ok else 1)
    return {
        "correct": failed == 0,
        "attempted": loop.attempted + 1,
        "failed": failed,
        "metrics": emit(values, load_declaration()["end_to_end"]),
        "setup_samples_s": setups,
        "timing_samples": timings["samples"],
    }


class TraceSink:
    """Folds each request's drained span tree into per-layer totals.

    Worker ``batch.shard`` subtrees run in other processes and overlap in
    time, so they are cut out of the tree (kept as shard latencies) before
    self times are taken; the in-process serial fallback's shard spans stay.
    """

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = {metric: 0.0 for metric in SHARE_METRICS}
        self.request_seconds = 0.0
        self.shard_seconds: List[float] = []
        self.compress_seconds: List[float] = []
        self.requests = 0

    def __call__(self) -> None:
        from repro.obs import aggregate_stages, get_tracer

        roots = get_tracer().drain()
        for root in roots:
            self._cut_worker_shards(root)
        for stage, entry in aggregate_stages(roots).items():
            metric = SHARE_OF_SPAN.get(stage, "obs.other_share")
            self.self_seconds[metric] += entry["self_seconds"]
        for root in roots:
            if root.name == "bench.request":
                self.requests += 1
                self.request_seconds += root.duration
            self.compress_seconds.extend(
                span.duration for span in root.walk()
                if span.name == "bench.core.compress"
            )

    def _cut_worker_shards(self, span) -> None:
        kept = []
        for child in span.children:
            if child.name == "batch.shard" and "fallback" not in child.attributes:
                self.shard_seconds.append(child.duration)
            else:
                self._cut_worker_shards(child)
                kept.append(child)
        span.children = kept

    def shares(self) -> Dict[str, float]:
        wall = self.request_seconds or 1.0
        return {metric: seconds / wall for metric, seconds in self.self_seconds.items()}


def traced_run(
    workload, setup: SetUp, evaluator, seconds: float, rng,
    registry, before, first_ok: bool,
) -> Dict[str, Any]:
    """Per-layer metrics: the set-up's spans, then an untraced and a traced pass."""
    from repro.obs import aggregate_stages, disable_tracing, enable_tracing, get_tracer, trace

    setup_stages = aggregate_stages(get_tracer().drain())
    after_setup = registry.snapshot()

    plan_lower = []
    for request in workload.requests[:5]:
        if request.plan is not None:
            begin = time.perf_counter()
            with trace("bench.engine.plan_lower"):
                list(request.plan.lower())
            plan_lower.append(time.perf_counter() - begin)
    get_tracer().drain()

    disable_tracing()
    untraced = closed_loop(
        workload, setup, evaluator, seconds / 2, TRACED_MIN_REQUESTS, rng
    )
    enable_tracing()
    before_traced = registry.snapshot()
    sink = TraceSink()
    traced = closed_loop(
        workload, setup, evaluator, seconds / 2, TRACED_MIN_REQUESTS, rng,
        on_request=sink,
    )
    disable_tracing()
    counters = registry.diff(before_traced, registry.snapshot())["counters"]
    setup_counters = registry.diff(before, after_setup)["counters"]
    run_counters = registry.diff(before, registry.snapshot())["counters"]

    def stage_seconds(name: str) -> float:
        return setup_stages.get(name, {}).get("total_seconds", 0.0)

    capture_s = stage_seconds("bench.db.capture")
    rows = workload.input_rows()
    hits = counters.get("batch.compile_cache.hits", 0)
    misses = counters.get("batch.compile_cache.misses", 0)
    evaluations = max(1, counters.get("batch.evaluations", 0))
    values: Dict[str, float] = {
        # The tail over every request of the untraced pass: without a bound,
        # because on a shared host it measures the other tenants (README).
        "sweep_p90_ms": percentile(untraced.latencies, 90) * 1e3,
        "sweep_p90_samples": float(untraced.attempted),
        "db.capture_s": capture_s if workload.uses_db else 0.0,
        "db.input_rows": float(rows),
        "db.rows_per_s": rows / capture_s if workload.uses_db else 0.0,
        "core.compress_s": stage_seconds("bench.core.compress"),
        "core.compress_ms_p50": (
            statistics.median(sink.compress_seconds) * 1e3
            if sink.compress_seconds else 0.0
        ),
        "core.kernel_steps": float(setup_counters.get("kernel.steps", 0)),
        "core.kernel_heap_pops": float(setup_counters.get("kernel.heap_pops", 0)),
        "core.kernel_gain_updates": float(setup_counters.get("kernel.gain_updates", 0)),
        "core.compressed_monomials": statistics.fmean(traced.compressed_sizes or [0]),
        "core.abstraction_max_rel_error": max(
            untraced.max_relative_error, traced.max_relative_error
        ),
        "provenance.store_write_s": stage_seconds("bench.provenance.store_write"),
        "provenance.store_open_ms": stage_seconds("bench.provenance.store_open") * 1e3,
        "provenance.store_bytes": float(setup.store_bytes),
        "engine.plan_lower_ms": (
            statistics.median(plan_lower) * 1e3 if plan_lower else 0.0
        ),
        "batch.compile_cache_hit_ratio": hits / max(1, hits + misses),
        "batch.shards_per_request": len(sink.shard_seconds) / max(1, sink.requests),
        "batch.shard_ms_p50": (
            statistics.median(sink.shard_seconds) * 1e3 if sink.shard_seconds else 0.0
        ),
        "batch.shard_ms_p90": percentile(sink.shard_seconds, 90) * 1e3,
        "resilience.retries": float(run_counters.get("resilience.retries", 0)),
        "resilience.salvaged_shards": float(
            run_counters.get("resilience.salvaged_shards", 0)
        ),
        "resilience.degradations": float(
            run_counters.get("resilience.degradations", 0)
        ),
        "resilience.pool_bringup_failures": float(
            run_counters.get("resilience.pool_bringup_failures", 0)
        ),
        "obs.trace_overhead": (
            traced.timings()["sweep_p50_ms"] / untraced.timings()["sweep_p50_ms"]
        ),
    }
    for mode in ("dense", "sparse", "factored"):
        values[f"batch.mode_{mode}"] = counters.get(f"batch.mode.{mode}", 0) / evaluations
    values.update(sink.shares())
    failed = untraced.failed + traced.failed + (0 if first_ok else 1)
    return {
        "correct": failed == 0,
        "attempted": untraced.attempted + traced.attempted + 1,
        "failed": failed,
        "metrics": emit(values, load_declaration()["per_layer"]),
    }


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def render(name: str, result: Dict[str, Any]) -> str:
    """A human-readable table of one run's metrics."""
    lines = [
        f"{name}: {result['attempted']} requests, {result['failed']} failed"
        f"{'' if result['correct'] else '  (INCORRECT)'}"
    ]
    if "timing_samples" in result:
        lines.append(
            f"  timings over the quiet eighth: {result['timing_samples']} requests; "
            f"set-up samples {', '.join(f'{s:.3f}' for s in result['setup_samples_s'])} s"
        )
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        rendered = f"{value:.4g}" if isinstance(value, float) else str(value)
        lines.append(f"  {metric:<36} {rendered:>12} {entry['unit']}")
    shares = [
        entry["value"] for metric, entry in result["metrics"].items()
        if metric in SHARE_METRICS
    ]
    if shares:
        lines.append(
            f"  shares + untraced remainder = {sum(shares):.3f} of traced "
            "request wall time (worker shards excluded)"
        )
    return "\n".join(lines)


def run_all(args: argparse.Namespace, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    record: Dict[str, Any] = {
        "seed": args.seed, "seconds": seconds, "smoke": args.smoke, "workloads": {},
    }
    status = 0
    started = time.perf_counter()
    for workload in load_declaration()["workloads"]:
        name = workload["name"]
        runs = {}
        for trace_flag in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(seconds), "--trace", str(trace_flag),
            ] + (["--smoke"] if args.smoke else [])
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, check=False
            )
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                print(f"FAIL: {name} --trace {trace_flag} exited "
                      f"{completed.returncode}", file=sys.stderr)
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            runs["untraced" if trace_flag == 0 else "traced"] = result
            print(render(f"{name} ({'traced' if trace_flag else 'untraced'})", result))
            if not result["correct"]:
                status = 1
        record["workloads"][name] = runs
    print(f"total {time.perf_counter() - started:.1f} s")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=2)
        print(f"records written to {args.json}")
    return status


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median, third quartile (``statistics.quantiles``)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    base: Sequence[float], head: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """Head against base: within bound, worse than the bound, or unresolved.

    Returns the verdict and how much worse the head's median is, as a share
    of the base median (negative when it is better).
    """
    _, base_median, _ = quartiles(base)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (quartiles(head)[1] - base_median) / abs(base_median or 1.0)
    spread = max(
        (q3 - q1) / abs(median or 1.0)
        for q1, median, q3 in (quartiles(base), quartiles(head))
    )
    every_head_better = all(
        sign * (h - b) < 0 for h in head for b in base
    )
    if spread > bound and not every_head_better:
        return "unresolved", worse
    if worse > bound:
        return "worse than bound", worse
    return "within bound", worse


def compare(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_pipeline.py compare",
        description="Compare two sets of --json records against BENCHMARK.json bounds.",
    )
    parser.add_argument("--base", nargs="+", required=True, help="records of the parent")
    parser.add_argument("--head", nargs="+", required=True, help="records of the change")
    args = parser.parse_args(argv)

    def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
        records = []
        for path in paths:
            with open(path) as handle:
                records.append(json.load(handle))
        return records

    base, head = load(args.base), load(args.head)
    declaration = load_declaration()
    print(
        f"{'workload':<16} {'metric':<26} {'base q1/med/q3':>30} "
        f"{'head q1/med/q3':>30} {'change':>8}  verdict"
    )
    status = 0
    for workload in declaration["workloads"]:
        name = workload["name"]
        for metric in declaration["end_to_end"]:
            key = metric["name"]

            def values(records: Sequence[Dict[str, Any]]) -> List[float]:
                return [
                    record["workloads"][name]["untraced"]["metrics"][key]["value"]
                    for record in records
                ]

            base_values, head_values = values(base), values(head)
            result, worse = verdict(
                base_values, head_values, metric["better"], metric["bound"]
            )
            if result == "worse than bound":
                status = 1
            print(
                f"{name:<16} {key:<26} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(base_values)):>30} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(head_values)):>30} "
                f"{worse:>+8.1%}  {result} (bound {metric['bound']:.0%})"
            )
    return status


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all, untraced and traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny inputs, still >= {MIN_REQUESTS} requests per workload")
    parser.add_argument("--json", help="write every workload's records here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_repro()
    from pipeline_workloads import WORKLOADS

    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else load_declaration()["run_seconds"]
    )
    if args.workload is None:
        return run_all(args, seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke,
        setup_only=args.setup_only,
    )
    if not args.setup_only:
        print(render(args.workload, result))
        result = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
