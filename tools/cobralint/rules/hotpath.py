"""CL003 — allocation / Python-level iteration inside designated kernels.

The engine's speed rests on a handful of vectorised kernels; a stray
``.copy()`` or per-element Python loop inside one silently turns an
O(touched) pass into an O(everything) one.  The designated kernels are the
matrix/delta evaluators in ``provenance/backends/numeric.py`` (one
compiled-set implementation for every numeric semiring), with the dense
kernel's block pass and its factor-column gather, the batched pass of the
tropical/bool segment delta kernel, the one left-to-right factor fold
every kernel shares and the per-group algebra hooks they call (factor
terms, coefficient folds, contributions over gathered factor values,
segmented reductions and row folds), the position-major segment fold in
``provenance/incidence.py`` (``position_major`` and ``fold_positions``,
shared by the dense min/or kernel and the renamed coefficient sums), the
incremental-greedy coarsening step in ``core/kernel/greedy.py`` (``apply``
and the per-step array functions it calls: pair expansion, renaming,
signature keys, row merging/appending and the counter updates) and the
loop driving it in ``core/kernel/trajectory.py``, the sparse lowering
(``delta_plan``, which also factors a shared prefix), the touched-cells
pass, the operation cells, the shared-prefix comparison and prefix columns
built from the batch's operation table and the delta-plan projection in
``batch/planner.py``, and the meta lowerings in ``batch/evaluator.py``
(the :class:`MetaLowering` methods).

Inside a designated kernel this rule flags, **when executed under a loop**
(a one-off allocation at kernel entry is fine; one per scenario/segment is
not):

* ``.copy()`` / ``np.copy`` — a fresh array per iteration;
* dtype-converting constructors — ``np.asarray(..., dtype=...)``,
  ``np.array(...)``, ``np.ascontiguousarray(...)``, ``.astype(...)``;
* Python ``for`` loops iterating element-wise over ndarrays (directly, via
  ``enumerate``/``zip``, or via ``.flat``/``.tolist()``/``np.nditer``) —
  the definition of "the vectorisation stopped here".

Array-ness is tracked per function: names bound from ``np.*`` calls,
``.copy()``/``.astype()`` results, or subscripts thereof count as arrays.
Deliberate per-scenario copies (e.g. preserving the shared baseline row)
stay — with a ``# cobralint: disable=CL003 -- why`` justification.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from tools.cobralint.engine import (
    FileContext,
    Finding,
    Rule,
    call_name,
    enclosing_loops,
    iter_functions,
    register,
)

#: ``(path substring, function name)`` pairs naming the guarded kernels.
KERNELS: Tuple[Tuple[str, str], ...] = (
    ("provenance/backends/numeric.py", "evaluate_matrix"),
    ("provenance/backends/numeric.py", "evaluate_deltas"),
    ("provenance/backends/numeric.py", "_evaluate_values"),
    ("provenance/backends/numeric.py", "_contributions"),
    ("provenance/backends/numeric.py", "_gathered_contributions"),
    ("provenance/backends/numeric.py", "_segment_pass"),
    ("provenance/backends/numeric.py", "_reduce"),
    ("provenance/backends/numeric.py", "_fold_rows"),
    ("provenance/backends/numeric.py", "_dense_pass"),
    ("provenance/backends/numeric.py", "_taken_terms"),
    ("provenance/backends/numeric.py", "_fold_columns"),
    ("provenance/backends/numeric.py", "_factor_term"),
    ("provenance/backends/numeric.py", "_finish"),
    ("provenance/incidence.py", "position_major"),
    ("provenance/incidence.py", "fold_positions"),
    ("core/kernel/greedy.py", "apply"),
    ("core/kernel/greedy.py", "_pairs"),
    ("core/kernel/greedy.py", "_renamed"),
    ("core/kernel/greedy.py", "_signature_keys"),
    ("core/kernel/greedy.py", "_drop_counters"),
    ("core/kernel/greedy.py", "_merge_rows"),
    ("core/kernel/greedy.py", "_append"),
    ("core/kernel/greedy.py", "_update_counters"),
    ("core/kernel/trajectory.py", "extend_to"),
    ("batch/planner.py", "touched_counts"),
    ("batch/planner.py", "_operation_cells"),
    ("batch/planner.py", "_shared_prefix"),
    ("batch/planner.py", "delta_plan"),
    ("batch/planner.py", "_lowered_cells"),
    ("batch/planner.py", "prefix_cells"),
    ("batch/planner.py", "_prefix_columns"),
    ("batch/planner.py", "project"),
    ("batch/evaluator.py", "lower_deltas"),
    ("batch/evaluator.py", "lower_matrix"),
)

DTYPE_CONSTRUCTORS = {
    "np.asarray",
    "np.array",
    "np.ascontiguousarray",
    "numpy.asarray",
    "numpy.array",
    "numpy.ascontiguousarray",
}

#: np helpers whose result is an ndarray (for loop-iteration taint).
_NP_PREFIXES = ("np.", "numpy.")


@register
class HotPathAllocationRule(Rule):
    id = "CL003"
    name = "hot-path-allocation"
    description = "per-iteration allocation or Python loop in a kernel"
    include = (
        "src/repro/provenance/backends/numeric.py",
        "src/repro/provenance/incidence.py",
        "src/repro/core/kernel/greedy.py",
        "src/repro/core/kernel/trajectory.py",
        "src/repro/batch/planner.py",
        "src/repro/batch/evaluator.py",
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for _parent, func in iter_functions(context.tree):
            if not self._is_kernel(context.path, func.name):
                continue
            findings.extend(self._check_kernel(context, func))
        return findings

    def _is_kernel(self, path: str, func_name: str) -> bool:
        return any(
            fragment in path and func_name == name for fragment, name in KERNELS
        )

    # -- array taint ---------------------------------------------------------

    def _array_names(self, func: ast.AST) -> Set[str]:
        arrays: Set[str] = set()
        assignments: List[Tuple[str, ast.AST]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, node.value))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assignments.append((node.target.id, node.value))
        changed = True
        while changed:
            changed = False
            for name, value in assignments:
                if name not in arrays and self._is_array_expr(value, arrays):
                    arrays.add(name)
                    changed = True
        return arrays

    def _is_array_expr(self, node: ast.AST, arrays: Set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in arrays
        if isinstance(node, ast.Subscript):
            return self._is_array_expr(node.value, arrays)
        if isinstance(node, ast.BinOp):
            return self._is_array_expr(node.left, arrays) or self._is_array_expr(
                node.right, arrays
            )
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name and name.startswith(_NP_PREFIXES) and not name.endswith(".at"):
                return True
            return _method_name(node) in ("copy", "astype", "ravel", "reshape", "view")
        return False

    # -- the checks ----------------------------------------------------------

    def _check_kernel(self, context: FileContext, func: ast.AST) -> Iterable[Finding]:
        in_loop = enclosing_loops(func)
        arrays = self._array_names(func)

        for node in ast.walk(func):
            if isinstance(node, ast.Call) and in_loop.get(node, False):
                name = call_name(node)
                tail = _method_name(node)
                if tail == "copy":
                    yield context.finding(
                        self,
                        node,
                        ".copy() under a loop in a kernel — allocates per "
                        "iteration; hoist or reuse a scratch buffer",
                    )
                elif name in DTYPE_CONSTRUCTORS:
                    has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
                    if has_dtype or name.split(".")[-1] != "asarray":
                        yield context.finding(
                            self,
                            node,
                            f"{name}(...) under a loop in a kernel — "
                            "dtype-converting construction per iteration; "
                            "normalise once at the kernel boundary",
                        )
                elif tail == "astype":
                    yield context.finding(
                        self,
                        node,
                        ".astype() under a loop in a kernel — converts (and "
                        "copies) per iteration; convert once up front",
                    )
            elif isinstance(node, ast.For):
                target = self._loop_iterates_array(node.iter, arrays)
                if target:
                    yield context.finding(
                        self,
                        node,
                        f"Python-level loop over ndarray {target} in a kernel "
                        "— vectorise or move off the hot path",
                    )

    def _loop_iterates_array(self, iter_expr: ast.AST, arrays: Set[str]) -> str:
        """A short description of the ndarray iterated over, or ''."""
        if isinstance(iter_expr, ast.Name) and iter_expr.id in arrays:
            return repr(iter_expr.id)
        if isinstance(iter_expr, ast.Attribute) and iter_expr.attr == "flat":
            return "'.flat'"
        if isinstance(iter_expr, ast.Call):
            name = call_name(iter_expr)
            method = iter_expr.func
            if name in ("np.nditer", "numpy.nditer"):
                return "'np.nditer(...)'"
            if (
                isinstance(method, ast.Attribute)
                and method.attr in ("tolist", "ravel", "flatten")
                and self._is_array_expr(method.value, arrays)
            ):
                return f"'.{method.attr}()'"
            if name in ("enumerate", "zip"):
                for arg in iter_expr.args:
                    inner = self._loop_iterates_array(arg, arrays)
                    if inner:
                        return inner
        return ""


def _method_name(node: ast.Call) -> Optional[str]:
    """The attribute a call invokes (``copy`` in ``row[touched].copy()``).

    Read off the call itself, so it resolves whatever the receiver is — a
    name, a subscript or another call — where :func:`call_name` resolves
    dotted names only.
    """
    return node.func.attr if isinstance(node.func, ast.Attribute) else None
