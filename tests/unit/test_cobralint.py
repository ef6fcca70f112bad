"""Tests for the cobralint static-analysis suite (tools/cobralint).

Per rule: a fixture snippet that must fire (positive), one that must not
(negative), and one where an inline suppression silences the finding.  Plus
the meta-gates: the checked-in tree lints clean, every suppression in the
tree carries a justification, and the strict-typing ratchet holds.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.cobralint import lint_paths  # noqa: E402
from tools.cobralint.engine import Suppressions  # noqa: E402
from tools.cobralint.ratchet import (  # noqa: E402
    annotation_gaps,
    check_lock_superset,
    load_lock,
    load_strict_modules,
    modules_for_patterns,
)


def run_rule(tmp_path, files, select=None):
    """Write ``{relative_path: source}`` fixtures and lint their roots."""
    roots = set()
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        roots.add(rel.split("/")[0])
    return lint_paths(sorted(roots), root=str(tmp_path), select=select)


def active(findings, rule=None):
    return [
        f
        for f in findings
        if not f.suppressed and (rule is None or f.rule == rule)
    ]


def suppressed(findings, rule=None):
    return [
        f for f in findings if f.suppressed and (rule is None or f.rule == rule)
    ]


# ---------------------------------------------------------------------------
# CL001 — memmap mutation
# ---------------------------------------------------------------------------


class TestMemmapMutation:
    def test_write_into_store_backed_array_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/mod.py": """
                from repro.provenance.store import open_store

                def bad(path):
                    compiled = open_store(path)
                    compiled._constant[0] = 1.0
                """
            },
            select=["CL001"],
        )
        assert len(active(findings, "CL001")) == 1

    def test_augmented_write_through_taint_chain_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                def bad(store_path):
                    compiled = open_store(store_path)
                    arr = compiled.coefficients
                    arr[3] += 2.0
                """
            },
            select=["CL001"],
        )
        assert len(active(findings, "CL001")) == 1

    def test_mutating_method_and_scatter_fire(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/mod.py": """
                import numpy as np

                def bad(path):
                    compiled = open_store(path)
                    compiled.indices.sort()
                    np.add.at(compiled.exponents, [0], 1.0)
                """
            },
            select=["CL001"],
        )
        assert len(active(findings, "CL001")) == 2

    def test_laundered_copy_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/mod.py": """
                def good(path):
                    compiled = open_store(path)
                    scratch = compiled._constant.copy()
                    scratch[0] = 1.0
                    scratch.sort()
                """
            },
            select=["CL001"],
        )
        assert active(findings, "CL001") == []

    def test_builder_filling_own_array_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/mod.py": """
                import numpy as np

                class Compiled:
                    def __init__(self, rows):
                        self._constant = np.zeros(rows)
                        self._constant[0] += 1.0
                """
            },
            select=["CL001"],
        )
        assert active(findings, "CL001") == []

    def test_suppression_silences(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/mod.py": """
                def bad(path):
                    compiled = open_store(path)
                    compiled._constant[0] = 1.0  # cobralint: disable=CL001 -- fixture
                """
            },
            select=["CL001"],
        )
        assert active(findings, "CL001") == []
        (finding,) = suppressed(findings, "CL001")
        assert finding.justification == "fixture"


# ---------------------------------------------------------------------------
# CL002 — unpicklable worker payloads
# ---------------------------------------------------------------------------


class TestWorkerPayload:
    def test_lambda_payload_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                def run(items):
                    pool = _bringup_pool(2)
                    return pool.submit(lambda x: x + 1, items)
                """
            },
            select=["CL002"],
        )
        assert len(active(findings, "CL002")) == 1

    def test_nested_function_payload_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                def run(items):
                    def task(x):
                        return x + 1
                    pool = _bringup_pool(2)
                    return pool.submit(task, items)
                """
            },
            select=["CL002"],
        )
        assert len(active(findings, "CL002")) == 1

    def test_singleton_in_initargs_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                from repro.obs.tracer import get_tracer

                def run():
                    return ProcessPoolExecutor(
                        2, initializer=_init, initargs=(get_tracer(),)
                    )
                """
            },
            select=["CL002"],
        )
        assert len(active(findings, "CL002")) == 1

    def test_pool_method_with_singleton_name_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                def run(task):
                    tracer = get_tracer()
                    pool = _bringup_pool(2)
                    pool.map(task, tracer)
                """
            },
            select=["CL002"],
        )
        assert len(active(findings, "CL002")) == 1

    def test_module_level_function_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                def worker(x):
                    return x + 1

                def run(items):
                    pool = _bringup_pool(2)
                    return pool.submit(worker, items)
                """
            },
            select=["CL002"],
        )
        assert active(findings, "CL002") == []

    def test_suppression_silences(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                def run(items):
                    pool = _bringup_pool(2)
                    return pool.submit(lambda x: x, items)  # cobralint: disable=CL002 -- fixture
                """
            },
            select=["CL002"],
        )
        assert active(findings, "CL002") == []
        assert len(suppressed(findings, "CL002")) == 1


# ---------------------------------------------------------------------------
# CL003 — hot-path allocation
# ---------------------------------------------------------------------------


class TestHotPathAllocation:
    def test_copy_under_loop_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/backends/numeric.py": """
                import numpy as np

                def evaluate_matrix(matrix):
                    totals = np.zeros(4)
                    for s in range(3):
                        row = totals.copy()
                    return totals
                """
            },
            select=["CL003"],
        )
        assert len(active(findings, "CL003")) == 1

    @pytest.mark.parametrize(
        "call", ["row[touched].copy()", "row[touched].astype(np.float64)"]
    )
    def test_copy_of_a_subscript_under_loop_fires(self, tmp_path, call):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/planner.py": f"""
                import numpy as np

                def delta_plan(row, batch):
                    for touched in batch:
                        values = {call}
                    return row
                """
            },
            select=["CL003"],
        )
        assert len(active(findings, "CL003")) == 1

    def test_per_scenario_loop_in_plan_projection_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/planner.py": """
                import numpy as np

                class DeltaPlan:
                    def project(self, columns):
                        inverse = np.full(8, -1)
                        inverse[columns] = np.arange(columns.size)
                        counts = np.diff(self.offsets)
                        projected, start = [], 0
                        for count in counts:
                            local = inverse[self.columns[start : start + count]]
                            projected.append(local[local >= 0])
                            start += count
                        return projected
                """
            },
            select=["CL003"],
        )
        assert len(active(findings, "CL003")) == 1

    def test_dtype_constructor_under_loop_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/backends/numeric.py": """
                import numpy as np

                def evaluate_deltas(base, plans):
                    for columns, values in plans:
                        columns = np.asarray(columns, dtype=int)
                    return base
                """
            },
            select=["CL003"],
        )
        assert len(active(findings, "CL003")) == 1

    def test_python_loop_over_ndarray_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/kernel/greedy.py": """
                import numpy as np

                def apply(state):
                    weights = np.arange(10)
                    for w in weights:
                        state += w
                    return state
                """
            },
            select=["CL003"],
        )
        assert len(active(findings, "CL003")) == 1

    @pytest.mark.parametrize(
        "function",
        ["_pairs", "_renamed", "_signature_keys", "_drop_counters",
         "_merge_rows", "_append", "_update_counters"],
    )
    def test_greedy_per_step_functions_are_guarded(self, tmp_path, function):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/kernel/greedy.py": f"""
                import numpy as np

                def {function}(keys, removed):
                    for key in removed.tolist():
                        keys = keys.copy()
                    return keys

                def _remove_row(keys, removed):
                    for key in removed.tolist():
                        keys = keys.copy()
                    return keys
                """
            },
            select=["CL003"],
        )
        # Only the designated function is checked: one .copy() under a loop.
        assert len(active(findings, "CL003")) == 1

    def test_entry_normalisation_outside_loop_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/backends/numeric.py": """
                import numpy as np

                def evaluate_matrix(matrix):
                    matrix = np.asarray(matrix, dtype=np.float64)
                    scratch = matrix.copy()
                    for s in range(3):
                        scratch[s] = 0.0
                    return scratch
                """
            },
            select=["CL003"],
        )
        assert active(findings, "CL003") == []

    def test_factored_delta_plan_copy_under_loop_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/planner.py": """
                import numpy as np

                class ScenarioBatch:
                    def delta_plan(self, base, fill, prefix):
                        factored_row = np.ones(8)
                        for operations in self.steps(0)[:prefix]:
                            values = factored_row.copy()
                        return factored_row
                """
            },
            select=["CL003"],
        )
        assert len(active(findings, "CL003")) == 1

    def test_factored_delta_plan_fancy_indexing_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/planner.py": """
                import numpy as np

                class ScenarioBatch:
                    def delta_plan(self, base, fill, prefix):
                        factored_row = np.ones(8)
                        for kind, columns, amount in self.steps(0)[:prefix]:
                            factored_row[columns] *= amount
                        return factored_row
                """
            },
            select=["CL003"],
        )
        assert active(findings, "CL003") == []

    @pytest.mark.parametrize("function", ["prefix_cells", "_prefix_columns"])
    def test_prefix_statistics_are_guarded(self, tmp_path, function):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/planner.py": f"""
                import numpy as np

                class ScenarioBatch:
                    def {function}(self, length):
                        ids = np.asarray(self.ids[:length])
                        selected = []
                        for op_id in ids:
                            selected.append(op_id)
                        return selected

                    def steps(self, length):
                        ids = np.asarray(self.ids[:length])
                        selected = []
                        for op_id in ids:
                            selected.append(op_id)
                        return selected
                """
            },
            select=["CL003"],
        )
        # Only the designated function is checked: one loop over an array.
        assert len(active(findings, "CL003")) == 1

    def test_operation_table_loops_fire(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/planner.py": """
                import numpy as np

                def _operation_cells(table):
                    ids = np.asarray(table.ids)
                    steps = []
                    for op_id in ids:
                        steps.append(op_id)
                    return steps

                def _shared_prefix(offsets, ids):
                    first = np.diff(offsets)
                    for position in range(3):
                        row = ids.copy()
                    return first, row
                """
            },
            select=["CL003"],
        )
        # One element-wise loop over the ids, one copy under a loop.
        assert len(active(findings, "CL003")) == 2

    def test_operation_cells_array_expansion_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/planner.py": """
                import numpy as np

                def _operation_cells(table):
                    ids = table.ids
                    sizes = (table.stops - table.starts)[ids]
                    picked, _starts = ragged_ranges(table.starts[ids], table.stops[ids])
                    return np.repeat(ids, sizes), table.columns[picked]
                """
            },
            select=["CL003"],
        )
        assert active(findings, "CL003") == []

    def test_non_kernel_function_is_exempt(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/backends/numeric.py": """
                import numpy as np

                def helper(matrix):
                    for s in range(3):
                        row = matrix.copy()
                    return row
                """
            },
            select=["CL003"],
        )
        assert active(findings, "CL003") == []

    def test_suppression_silences(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/backends/numeric.py": """
                import numpy as np

                def evaluate_deltas(base, plans):
                    for s in range(3):
                        row = base.copy()  # cobralint: disable=CL003 -- fixture
                    return base
                """
            },
            select=["CL003"],
        )
        assert active(findings, "CL003") == []
        assert len(suppressed(findings, "CL003")) == 1


# ---------------------------------------------------------------------------
# CL004 — tracer discipline
# ---------------------------------------------------------------------------


class TestTracerDiscipline:
    def test_trace_outside_with_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                from repro.obs.tracer import trace

                def bad():
                    span = trace("step")
                    return span
                """
            },
            select=["CL004"],
        )
        assert len(active(findings, "CL004")) == 1

    def test_unsafe_attribute_on_span_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                from repro.obs.tracer import trace

                def bad():
                    with trace("step") as span:
                        return span.duration
                """
            },
            select=["CL004"],
        )
        assert len(active(findings, "CL004")) == 1

    def test_with_and_safe_writers_are_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                from repro.obs.tracer import current_span, trace

                def good(n):
                    with trace("step", size=n) as span:
                        span.set("mode", "fast")
                        span.update({"rows": n})
                    current_span().set("note", 1)
                """
            },
            select=["CL004"],
        )
        assert active(findings, "CL004") == []

    def test_span_name_does_not_leak_across_functions(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                from repro.obs.tracer import trace

                def traced():
                    with trace("step") as span:
                        span.set("k", 1)

                def drainer(tracer):
                    return [span.to_dict() for span in tracer.drain()]
                """
            },
            select=["CL004"],
        )
        assert active(findings, "CL004") == []

    def test_obs_package_is_exempt(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/obs/mod.py": """
                from repro.obs.tracer import trace

                def internals():
                    span = trace("step")
                    return span.children
                """
            },
            select=["CL004"],
        )
        assert active(findings, "CL004") == []

    def test_suppression_silences(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                from repro.obs.tracer import trace

                def bad():
                    span = trace("step")  # cobralint: disable=CL004 -- fixture
                    return span
                """
            },
            select=["CL004"],
        )
        assert active(findings, "CL004") == []
        assert len(suppressed(findings, "CL004")) == 1


# ---------------------------------------------------------------------------
# CL005 — broad exceptions
# ---------------------------------------------------------------------------


class TestBroadException:
    def test_bare_except_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                def f(g):
                    try:
                        g()
                    except:
                        pass
                """
            },
            select=["CL005"],
        )
        assert len(active(findings, "CL005")) == 1

    def test_swallowed_broad_except_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                def f(g):
                    try:
                        g()
                    except Exception:
                        return None
                """
            },
            select=["CL005"],
        )
        assert len(active(findings, "CL005")) == 1

    def test_narrow_or_reraising_handlers_are_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                def f(g):
                    try:
                        g()
                    except ValueError:
                        return None
                    except Exception as exc:
                        raise RuntimeError("wrapped") from exc
                """
            },
            select=["CL005"],
        )
        assert active(findings, "CL005") == []

    def test_tests_are_exempt(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "tests/unit/test_mod.py": """
                def test_probe(g):
                    try:
                        g()
                    except:
                        pass
                """
            },
            select=["CL005"],
        )
        assert active(findings, "CL005") == []

    def test_suppression_silences(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                def f(g):
                    try:
                        g()
                    except Exception:  # cobralint: disable=CL005 -- fixture
                        pass
                """
            },
            select=["CL005"],
        )
        assert active(findings, "CL005") == []
        assert len(suppressed(findings, "CL005")) == 1


# ---------------------------------------------------------------------------
# CL006 — layering
# ---------------------------------------------------------------------------


class TestLayering:
    def test_lower_layer_importing_higher_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/bad.py": """
                from repro.batch.evaluator import BatchEvaluator
                """,
                "src/repro/batch/evaluator.py": """
                class BatchEvaluator:
                    pass
                """,
            },
            select=["CL006"],
        )
        assert len(active(findings, "CL006")) == 1
        assert "provenance" in active(findings, "CL006")[0].message

    def test_module_level_cycle_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/a.py": """
                from repro.core.b import beta
                alpha = 1
                """,
                "src/repro/core/b.py": """
                from repro.core.a import alpha
                beta = 2
                """,
            },
            select=["CL006"],
        )
        cycle = active(findings, "CL006")
        assert len(cycle) == 1
        assert "cycle" in cycle[0].message

    def test_obs_must_stay_pure_even_lazily(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/obs/bad.py": """
                def render():
                    from repro.core.compression import compress
                    return compress
                """
            },
            select=["CL006"],
        )
        assert len(active(findings, "CL006")) == 1

    def test_workloads_must_never_import_cli(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/workloads/gen.py": """
                def main():
                    from repro.cli.main import main as cli_main
                    return cli_main
                """
            },
            select=["CL006"],
        )
        assert len(active(findings, "CL006")) == 1

    def test_lazy_and_type_checking_imports_are_sanctioned(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/session.py": """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.batch.evaluator import BatchEvaluator

                def sweep():
                    from repro.batch.evaluator import BatchEvaluator
                    return BatchEvaluator
                """,
                "src/repro/batch/evaluator.py": """
                from repro.engine.scenario import Scenario
                """,
                "src/repro/engine/scenario.py": """
                class Scenario:
                    pass
                """,
            },
            select=["CL006"],
        )
        assert active(findings, "CL006") == []

    def test_suppression_silences(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/provenance/bad.py": """
                from repro.batch.evaluator import BatchEvaluator  # cobralint: disable=CL006 -- fixture
                """,
                "src/repro/batch/evaluator.py": """
                class BatchEvaluator:
                    pass
                """,
            },
            select=["CL006"],
        )
        assert active(findings, "CL006") == []
        assert len(suppressed(findings, "CL006")) == 1


# ---------------------------------------------------------------------------
# CL007 — retry discipline
# ---------------------------------------------------------------------------


class TestRetryDiscipline:
    def test_sleep_in_loop_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                import time

                def f(g):
                    for item in g:
                        time.sleep(0.1)
                """
            },
            select=["CL007"],
        )
        assert len(active(findings, "CL007")) == 1
        assert "time.sleep" in active(findings, "CL007")[0].message

    def test_ad_hoc_retry_loop_fires(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                def f(g):
                    for attempt in range(5):
                        try:
                            return g()
                        except OSError:
                            continue
                """
            },
            select=["CL007"],
        )
        assert len(active(findings, "CL007")) == 1
        assert "RetryPolicy" in active(findings, "CL007")[0].message

    def test_while_retry_with_sleep_fires_both(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                import time

                def f(g):
                    while True:
                        try:
                            return g()
                        except OSError:
                            time.sleep(1.0)
                """
            },
            select=["CL007"],
        )
        assert len(active(findings, "CL007")) == 2

    def test_per_item_error_isolation_is_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/batch/mod.py": """
                def harvest(futures, results):
                    for index, future in futures:
                        try:
                            results[index] = future.result()
                        except OSError:
                            results[index] = None
                """
            },
            select=["CL007"],
        )
        assert active(findings, "CL007") == []

    def test_bounded_escape_handlers_are_clean(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                def f(g):
                    for attempt in range(5):
                        try:
                            return g()
                        except OSError:
                            if attempt == 4:
                                raise
                    while True:
                        try:
                            return g()
                        except ValueError:
                            break
                """
            },
            select=["CL007"],
        )
        assert active(findings, "CL007") == []

    def test_retry_policy_module_is_exempt(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/resilience/retry.py": """
                import time

                def run(func, delays):
                    for attempt, delay in enumerate(delays):
                        try:
                            return func()
                        except OSError:
                            time.sleep(delay)
                """
            },
            select=["CL007"],
        )
        assert active(findings, "CL007") == []

    def test_suppression_silences(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/engine/mod.py": """
                def f(g):
                    while True:
                        try:  # cobralint: disable=CL007 -- fixture
                            return g()
                        except OSError:
                            continue
                """
            },
            select=["CL007"],
        )
        assert active(findings, "CL007") == []
        assert len(suppressed(findings, "CL007")) == 1


# ---------------------------------------------------------------------------
# The engine itself
# ---------------------------------------------------------------------------


class TestEngine:
    def test_unparseable_file_produces_cl000(self, tmp_path):
        findings = run_rule(
            tmp_path, {"src/repro/core/broken.py": "def f(:\n"}
        )
        assert [f.rule for f in findings] == ["CL000"]

    def test_standalone_suppression_covers_next_code_line(self):
        source = (
            "x = 1\n"
            "# cobralint: disable=CL001 -- reason here\n"
            "y = 2\n"
            "z = 3\n"
        )
        sup = Suppressions.parse(source)
        assert sup.lookup("CL001", 3) == (True, "reason here")
        assert sup.lookup("CL001", 4) == (False, None)

    def test_disable_all(self):
        sup = Suppressions.parse("x = 1  # cobralint: disable=all\n")
        assert sup.lookup("CL003", 1)[0] is True

    def test_select_limits_rules(self, tmp_path):
        findings = run_rule(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                def f(g):
                    try:
                        g()
                    except:
                        pass
                """
            },
            select=["CL001"],
        )
        assert findings == []

    def test_cli_exit_codes_and_json(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(g):\n    try:\n        g()\n    except:\n        pass\n")
        report = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "tools.cobralint", "src", "--json", str(report)],
            cwd=str(tmp_path),
            env={"PYTHONPATH": str(REPO_ROOT), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "CL005" in proc.stdout
        payload = report.read_text()
        assert '"tool": "cobralint"' in payload
        assert '"CL005"' in payload


# ---------------------------------------------------------------------------
# The checked-in tree
# ---------------------------------------------------------------------------


class TestTreeIsClean:
    def test_checked_in_tree_has_no_active_findings(self):
        findings = lint_paths(
            ["src", "tests", "benchmarks"], root=str(REPO_ROOT)
        )
        offenders = [f.render() for f in findings if not f.suppressed]
        assert offenders == [], "\n".join(offenders)

    def test_every_suppression_carries_a_justification(self):
        findings = lint_paths(
            ["src", "tests", "benchmarks"], root=str(REPO_ROOT)
        )
        unjustified = [
            f.render() for f in findings if f.suppressed and not f.justification
        ]
        assert unjustified == [], "\n".join(unjustified)


# ---------------------------------------------------------------------------
# The strict-typing ratchet
# ---------------------------------------------------------------------------


class TestRatchet:
    def test_lock_is_covered_by_pyproject(self):
        assert check_lock_superset(load_strict_modules(), load_lock()) == []

    def test_shrinking_the_strict_list_is_detected(self):
        missing = check_lock_superset(["repro.obs.*"], load_lock())
        assert "repro.provenance.store" in missing

    def test_patterns_expand_to_real_modules(self):
        modules = modules_for_patterns(load_lock())
        assert "repro.provenance.store" in modules
        assert "repro.obs.tracer" in modules
        assert "repro.provenance.backends.numeric" in modules
        assert "repro.batch.evaluator" not in modules

    def test_ratcheted_modules_are_fully_annotated(self):
        gaps = {
            module: annotation_gaps(path)
            for module, path in modules_for_patterns(load_lock()).items()
        }
        assert {m: g for m, g in gaps.items() if g} == {}

    def test_annotation_gaps_detects_missing_annotations(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(x):\n    return x\n\ndef g(y: int) -> int:\n    return y\n"
        )
        gaps = annotation_gaps(str(path))
        assert len(gaps) == 2  # parameter x + missing return on f
        assert all("f()" in message for _line, message in gaps)

    def test_ratchet_cli_passes_on_the_tree(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.cobralint.ratchet", "--skip-mypy"],
            cwd=str(REPO_ROOT),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
