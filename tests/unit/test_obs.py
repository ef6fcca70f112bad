"""Unit tests for the observability layer (``repro.obs``).

Covers the span tracer (nesting, attributes, the disabled no-op fast path),
the metrics registry (counters/gauges/histograms, snapshot arithmetic, the
reset/scope lifecycle), cache-stat unification on the registry, trace
rendering/serialisation, and worker→parent aggregation under the process
pool.
"""

import json
import time

import pytest

from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    Span,
    aggregate_stages,
    disable_tracing,
    enable_tracing,
    get_registry,
    get_tracer,
    load_trace,
    render_span_tree,
    render_stage_table,
    trace,
    tracing_enabled,
    current_span,
    write_trace,
)
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.valuation import FingerprintCache


@pytest.fixture
def traced():
    """Clean tracer + registry, tracing on; restores the prior state after."""
    tracer = get_tracer()
    registry = get_registry()
    was_enabled, was_cpu = tracer.enabled, tracer.cpu
    tracer.reset()
    registry.reset()
    enable_tracing()
    yield tracer
    tracer.reset()
    tracer.enabled, tracer.cpu = was_enabled, was_cpu
    registry.reset()


class TestSpans:
    def test_nesting_and_attributes(self, traced):
        with trace("outer", scenarios=3) as outer:
            with trace("inner") as inner:
                inner.set("rows", 7)
            outer.set("mode", "sparse")
        roots = traced.drain()
        assert [span.name for span in roots] == ["outer"]
        (outer,) = roots
        assert outer.attributes == {"scenarios": 3, "mode": "sparse"}
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.children[0].attributes == {"rows": 7}
        assert outer.duration >= outer.children[0].duration >= 0.0

    def test_sibling_roots_collect_in_order(self, traced):
        with trace("first"):
            pass
        with trace("second"):
            pass
        assert [span.name for span in traced.drain()] == ["first", "second"]

    def test_exception_is_recorded_and_propagates(self, traced):
        with pytest.raises(ValueError):
            with trace("boom"):
                raise ValueError("no")
        (span,) = traced.drain()
        assert span.attributes["error"] == "ValueError"

    def test_current_span_annotates_the_open_span(self, traced):
        with trace("outer"):
            current_span().set("note", "hi")
        (span,) = traced.drain()
        assert span.attributes["note"] == "hi"

    def test_cpu_time_sampling(self, traced):
        enable_tracing(cpu=True)
        with trace("busy"):
            sum(range(1000))
        (span,) = traced.drain()
        assert span.cpu_time is not None and span.cpu_time >= 0.0

    def test_roundtrip_through_dicts(self, traced):
        with trace("outer", n=1):
            with trace("inner"):
                pass
        (span,) = traced.drain()
        rebuilt = Span.from_dict(span.to_dict())
        assert rebuilt.name == "outer"
        assert rebuilt.attributes == {"n": 1}
        assert [child.name for child in rebuilt.children] == ["inner"]
        assert rebuilt.duration == span.duration

    def test_attach_grafts_under_the_current_span(self, traced):
        subtree = {"name": "batch.shard", "duration": 0.5, "children": []}
        with trace("parent"):
            traced.attach([subtree], shard=3)
        (parent,) = traced.drain()
        (grafted,) = parent.children
        assert grafted.name == "batch.shard"
        assert grafted.attributes["shard"] == 3

    def test_reset_clears_roots_and_open_stack(self, traced):
        span = trace("dangling")
        span.__enter__()
        traced.reset()
        assert traced.drain() == []
        assert traced.current() is None


class TestDisabledFastPath:
    def test_returns_the_noop_singleton(self, traced):
        disable_tracing()
        assert trace("anything", heavy=1) is NOOP_SPAN
        assert current_span() is NOOP_SPAN
        assert not tracing_enabled()
        with trace("ignored") as span:
            span.set("k", "v").update({"x": 1})
        assert traced.drain() == []

    def test_disabled_overhead_is_bounded(self, traced):
        """A disabled trace() costs about one call + one attribute check."""
        disable_tracing()

        def noop():
            return None

        rounds = 20_000
        start = time.perf_counter()
        for _ in range(rounds):
            noop()
        baseline = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(rounds):
            trace("hot.path")
        traced_cost = time.perf_counter() - start
        # Generous bound: the point is "no allocation, no locking, no I/O",
        # not a micro-benchmark — CI boxes are noisy.
        assert traced_cost < max(baseline, 1e-4) * 50


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        registry.set_gauge("depth", 4.5)
        registry.observe("latency", 2.0)
        registry.observe("latency", 6.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 3}
        assert snapshot["gauges"] == {"depth": 4.5}
        assert snapshot["histograms"]["latency"] == {
            "count": 2, "sum": 8.0, "min": 2.0, "max": 6.0, "mean": 4.0,
        }

    def test_reset_zeroes_but_keeps_names(self):
        """The counter-lifecycle regression: stats must be scopeable per run."""
        registry = MetricsRegistry()
        registry.inc("hits", 5)
        registry.observe("latency", 1.0)
        registry.set_gauge("depth", 2.0)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 0}
        assert snapshot["gauges"] == {"depth": 0.0}
        assert snapshot["histograms"]["latency"]["count"] == 0
        registry.inc("hits")  # still usable after reset
        assert registry.snapshot()["counters"]["hits"] == 1

    def test_diff_and_merge_are_inverse_ish(self):
        registry = MetricsRegistry()
        registry.inc("hits", 2)
        before = registry.snapshot()
        registry.inc("hits", 3)
        registry.inc("misses")
        registry.observe("latency", 4.0)
        delta = MetricsRegistry.diff(before, registry.snapshot())
        assert delta["counters"] == {"hits": 3, "misses": 1}
        assert delta["histograms"]["latency"]["count"] == 1

        other = MetricsRegistry()
        other.inc("hits", 10)
        other.merge(delta)
        snapshot = other.snapshot()
        assert snapshot["counters"] == {"hits": 13, "misses": 1}
        assert snapshot["histograms"]["latency"]["sum"] == 4.0

    def test_scope_reports_the_delta_of_the_block(self):
        registry = MetricsRegistry()
        registry.inc("hits", 7)
        with registry.scope() as run:
            registry.inc("hits", 2)
        assert run.metrics["counters"] == {"hits": 2}
        with registry.scope() as quiet:
            pass
        assert quiet.metrics["counters"] == {}


class TestCacheStatUnification:
    def test_fingerprint_cache_reports_into_the_registry(self):
        registry = get_registry()
        cache = FingerprintCache(capacity=2, metrics="test.obs_cache")
        base = registry.snapshot()["counters"]
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        counters = registry.snapshot()["counters"]
        assert counters["test.obs_cache.misses"] - base.get("test.obs_cache.misses", 0) == 1
        assert counters["test.obs_cache.hits"] - base.get("test.obs_cache.hits", 0) == 1
        # The per-instance stats stay intact (existing callers rely on them).
        assert cache.info()["hits"] == 1 and cache.info()["misses"] == 1

    def test_reset_stats_zeroes_the_instance_only(self):
        registry = get_registry()
        cache = FingerprintCache(capacity=2, metrics="test.obs_cache2")
        cache.get("missing")
        cache.reset_stats()
        assert cache.info()["hits"] == 0 and cache.info()["misses"] == 0
        # The registry keeps the process-wide total.
        assert registry.snapshot()["counters"]["test.obs_cache2.misses"] >= 1


class TestRendering:
    def _spans(self):
        with trace("outer", scenarios=2):
            with trace("inner"):
                pass
        return get_tracer().drain()

    def test_render_span_tree(self, traced):
        text = render_span_tree(self._spans())
        assert "outer" in text and "inner" in text
        assert "scenarios=2" in text

    def test_stage_table_and_aggregation(self, traced):
        stages = aggregate_stages(self._spans())
        assert set(stages) == {"outer", "inner"}
        assert stages["outer"]["count"] == 1
        assert stages["outer"]["self_seconds"] <= stages["outer"]["total_seconds"]
        table = render_stage_table(stages)
        assert "outer" in table and "self" in table

    def test_write_and_load_trace(self, traced, tmp_path):
        path = tmp_path / "trace.json"
        write_trace(path, self._spans(), get_registry().snapshot())
        document = load_trace(path)
        assert document["version"] == 1
        assert document["spans"][0]["name"] == "outer"
        json.dumps(document)  # plain-JSON all the way down

    def test_load_trace_rejects_unknown_versions(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99, "spans": []}))
        with pytest.raises(ValueError):
            load_trace(path)


def _tiny_provenance(num_groups=4, num_variables=12):
    provenance = ProvenanceSet()
    names = [f"x{i}" for i in range(num_variables)]
    for group in range(num_groups):
        terms = {}
        for k in range(6):
            a = names[(group + k) % num_variables]
            b = names[(group + 2 * k + 1) % num_variables]
            if a == b:
                monomial = Monomial({a: 2})
            else:
                monomial = Monomial({a: 1, b: 1})
            terms[monomial] = terms.get(monomial, 0.0) + 1.0 + k
        provenance[(f"g{group}",)] = Polynomial(terms)
    return provenance


class TestBatchIntegration:
    def test_evaluate_records_stage_spans_and_counters(self, traced):
        from repro.batch import BatchEvaluator
        from repro.engine.scenario import Scenario

        provenance = _tiny_provenance()
        scenarios = [
            Scenario(f"#{i}").scale([f"x{i}"], 0.5) for i in range(4)
        ]
        report = BatchEvaluator().evaluate(provenance, scenarios)
        names = {
            span.name
            for root in traced.drain()
            for span in root.walk()
        }
        assert "batch.evaluate" in names
        assert "batch.compile" in names
        assert "batch.lower" in names
        assert any(name.startswith("batch.kernel.") for name in names)
        assert "batch.reduce" in names
        counters = get_registry().snapshot()["counters"]
        assert counters["batch.evaluations"] == 1
        assert counters["batch.scenarios"] == len(scenarios)
        assert counters[f"batch.mode.{report.mode}"] == 1

    def test_worker_spans_ship_back_from_the_pool(self, traced):
        from repro.batch import BatchEvaluator
        from repro.engine.scenario import Scenario

        provenance = _tiny_provenance(num_groups=6, num_variables=16)
        scenarios = [
            Scenario(f"#{i}").scale([f"x{i % 16}"], 0.25) for i in range(16)
        ]
        BatchEvaluator().evaluate(
            provenance, scenarios, mode="sparse", processes=2
        )
        shard_spans = [
            span
            for root in traced.drain()
            for span in root.walk()
            if span.name == "batch.shard"
        ]
        # Pool or serial fallback, the shard spans must cover every row.
        assert shard_spans
        assert sum(s.attributes.get("rows", 0) for s in shard_spans) == len(
            scenarios
        )


class TestCompressSpan:
    def test_run_span_records_algorithm_and_cache(self, traced):
        from repro.core.compression import Compressor
        from repro.workloads.random_polynomials import random_single_tree_instance

        provenance, tree = random_single_tree_instance(seed=2)
        compressor = Compressor()
        for method, bound in (("auto", 40), ("auto", 30), ("greedy", 40), ("exact", 40)):
            compressor.compress(
                provenance, tree, bound, method=method, allow_infeasible=True
            )
        runs = [
            span.attributes
            for root in traced.drain()
            for span in root.walk()
            if span.name == "compress.run"
        ]
        assert [(run["method"], run["algorithm"], run["cache"]) for run in runs] == [
            ("auto", "dynamic-programming", "miss"),
            ("auto", "dynamic-programming", "hit"),
            ("greedy", "greedy", "miss"),
            ("exact", "exhaustive-forest", "miss"),
        ]
