"""CL004 — tracer discipline: ``trace()`` stays NOOP-safe.

:func:`repro.obs.tracer.trace` returns the shared ``NOOP_SPAN`` singleton
whenever tracing is disabled — that is exactly what makes instrumentation
free on the hot paths.  The flip side: the only operations guaranteed on the
returned object are the context-manager protocol and the chainable
``.set(...)`` / ``.update(...)`` / ``.add(...)`` writers.  Anything else (``span.duration``,
``span.children``, storing the span for later) works in a traced dev run and
``AttributeError``s in production with tracing off.

Flagged (in ``src/`` and ``benchmarks/``; the tracer's own unit tests
exercise NOOP internals on purpose and are exempt):

* a ``trace(...)`` call anywhere but directly as a ``with`` item — assigned,
  returned, passed along, or called for effect;
* attribute access other than ``set``/``update``/``add`` on a ``with trace(...) as
  span`` target or on ``current_span()`` results.

``Tracer.span(...)`` and explicit :class:`Span` construction are exempt —
those are always live spans, by construction.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from tools.cobralint.engine import (
    FileContext,
    Finding,
    Rule,
    call_name,
    register,
)

#: The attribute surface shared by live spans and the NOOP singleton.
NOOP_SAFE_ATTRS = {"set", "update", "add"}

#: Call names that yield a possibly-NOOP span.
SPAN_SOURCES = {"trace", "current_span"}


def _lexical_scopes(tree: ast.Module) -> List[List[ast.AST]]:
    """Split the module into per-scope node lists (module + each function).

    A function's body lands in its own bucket; nested functions get their
    own buckets in turn.  This keeps span-name tracking from leaking across
    unrelated functions that happen to reuse the name ``span``.
    """
    scopes: List[List[ast.AST]] = []

    def collect(node: ast.AST, bucket: List[ast.AST]) -> None:
        bucket.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner: List[ast.AST] = []
                collect(child, inner)
                scopes.append(inner)
            else:
                collect(child, bucket)

    top: List[ast.AST] = []
    collect(tree, top)
    scopes.append(top)
    return scopes


@register
class TracerDisciplineRule(Rule):
    id = "CL004"
    name = "tracer-discipline"
    description = "trace() misuse that breaks when tracing is disabled"
    include = ("src/", "benchmarks/")
    exclude = ("src/repro/obs/",)

    def check(self, context: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        # Span names are tracked per lexical scope: `with trace() as span`
        # in one function must not taint an unrelated `span` loop variable
        # in another (e.g. iterating Tracer.drain() results).
        for scope in _lexical_scopes(context.tree):
            findings.extend(self._check_scope(context, scope))
        return findings

    def _check_scope(
        self, context: FileContext, scope: List[ast.AST]
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        allowed_calls: Set[int] = set()
        span_names: Set[str] = set()

        # Pass 1: bless trace() calls used directly as with-items, and
        # collect the names their spans are bound to.
        for node in scope:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Call)
                        and self._span_source(expr) is not None
                    ):
                        allowed_calls.add(id(expr))
                        if isinstance(item.optional_vars, ast.Name):
                            span_names.add(item.optional_vars.id)

        # Pass 2: every other trace()/current_span() call is a violation of
        # the with-only contract, except current_span().set/.update/.add
        # chains.
        for node in scope:
            if isinstance(node, ast.Call):
                source = self._span_source(node)
                if source is None or id(node) in allowed_calls:
                    continue
                if source == "current_span" and self._chains_noop_safe(
                    context, node
                ):
                    continue
                findings.append(
                    context.finding(
                        self,
                        node,
                        f"{source}(...) used outside a with-statement — the "
                        "result may be the NOOP span; write "
                        f"`with {source}(...) as span:`"
                        if source == "trace"
                        else f"{source}() result used beyond .set/.update/.add — "
                        "the NOOP span has no other attributes",
                    )
                )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in span_names
                    and node.attr not in NOOP_SAFE_ATTRS
                ):
                    findings.append(
                        context.finding(
                            self,
                            node,
                            f"span.{node.attr} on a possibly-NOOP span — only "
                            ".set/.update/.add(...) are safe when tracing is "
                            "off; read timings from Tracer.drain() instead",
                        )
                    )
        return findings

    def _span_source(self, node: ast.Call) -> "str | None":
        name = call_name(node)
        if name is None:
            return None
        tail = name.split(".")[-1]
        return tail if tail in SPAN_SOURCES else None

    def _chains_noop_safe(self, context: FileContext, call: ast.Call) -> bool:
        """``current_span().set(...)`` — safe; anything deeper is not.

        Implemented by scanning the parent chain lazily: we accept the call
        when its source line consumes it through a NOOP-safe attribute.
        """
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute) and node.value is call:
                return node.attr in NOOP_SAFE_ATTRS
        return False
