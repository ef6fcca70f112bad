"""CL002 — unpicklable payloads headed for process-pool workers.

Everything that crosses the process boundary — pool ``initargs``, the task
function handed to ``pool.map``/``pool.submit``, the pieces mapped over —
must be module-level and picklable.  Lambdas, nested functions (closures)
and the process-wide tracer/metrics singletons are not: shipping them dies
at submit time on a good day and silently on a forked platform.

Flagged, at every call to ``_bringup_pool`` / ``ProcessPoolExecutor`` and
every ``.submit``/``.map`` on a name bound from one of those:

* a ``lambda`` argument (positional, keyword, or inside an ``initargs``
  tuple);
* a name that resolves to a function *nested* in the enclosing function
  (a closure — its cell contents never pickle);
* ``get_tracer()`` / ``get_registry()`` results (the singletons are
  process-local by design; workers must rebuild their own — see
  ``_shard_task``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from tools.cobralint.engine import (
    FileContext,
    Finding,
    Rule,
    call_name,
    iter_functions,
    register,
)

#: Callables whose arguments are shipped to worker processes.
POOL_ENTRYPOINTS = {"_bringup_pool", "ProcessPoolExecutor"}

#: Calls producing process-local singletons that must never be shipped.
SINGLETON_SOURCES = {"get_tracer", "get_registry"}

#: Method names that submit work to a pool object.
POOL_METHODS = {"submit", "map"}


@register
class WorkerPayloadRule(Rule):
    id = "CL002"
    name = "unpicklable-worker-payload"
    description = "lambda/closure/singleton shipped to a process pool"
    include = ("src/", "benchmarks/", "tests/")

    def check(self, context: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        # Module-level function names are picklable by reference.
        module_funcs = {
            node.name
            for node in context.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for _parent, func in iter_functions(context.tree):
            findings.extend(self._check_function(context, func, module_funcs))
        return findings

    def _check_function(
        self, context: FileContext, func: ast.AST, module_funcs: Set[str]
    ) -> Iterable[Finding]:
        nested_funcs: Set[str] = set()
        singleton_names: Set[str] = set()
        pool_names: Set[str] = set()
        body = getattr(func, "body", [])
        for node in ast.walk(func):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not func
            ):
                nested_funcs.add(node.name)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                called = call_name(node.value)
                base = called.split(".")[-1] if called else None
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if base in SINGLETON_SOURCES:
                        singleton_names.add(target.id)
                    elif base in ("_bringup_pool", "ProcessPoolExecutor"):
                        pool_names.add(target.id)
        del body

        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            base = name.split(".")[-1] if name else None
            is_entry = base in POOL_ENTRYPOINTS
            is_pool_method = (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in POOL_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pool_names
            )
            if not (is_entry or is_pool_method):
                continue
            for value, where in self._payload_exprs(node):
                yield from self._check_payload(
                    context, value, where, nested_funcs, singleton_names, module_funcs
                )

    def _payload_exprs(self, call: ast.Call):
        """Every expression the call would ship: args, kwargs, initargs items."""
        for arg in call.args:
            yield arg, "argument"
        for kw in call.keywords:
            if kw.arg == "initargs" and isinstance(kw.value, (ast.Tuple, ast.List)):
                for element in kw.value.elts:
                    yield element, "initargs element"
            elif kw.arg is not None:
                yield kw.value, f"{kw.arg}="

    def _check_payload(
        self,
        context: FileContext,
        value: ast.AST,
        where: str,
        nested_funcs: Set[str],
        singleton_names: Set[str],
        module_funcs: Set[str],
    ) -> Iterable[Finding]:
        if isinstance(value, ast.Lambda):
            yield context.finding(
                self,
                value,
                f"lambda as pool {where} — lambdas never pickle; "
                "use a module-level function",
            )
            return
        if isinstance(value, ast.Call):
            called = call_name(value)
            if called and called.split(".")[-1] in SINGLETON_SOURCES:
                yield context.finding(
                    self,
                    value,
                    f"{called}() as pool {where} — tracer/registry singletons "
                    "are process-local; workers must rebuild their own",
                )
            return
        if isinstance(value, ast.Name):
            if value.id in nested_funcs and value.id not in module_funcs:
                yield context.finding(
                    self,
                    value,
                    f"nested function {value.id!r} as pool {where} — closures "
                    "never pickle; hoist it to module level",
                )
            elif value.id in singleton_names:
                yield context.finding(
                    self,
                    value,
                    f"{value.id!r} holds a process-local tracer/registry "
                    f"singleton; do not ship it as a pool {where}",
                )
