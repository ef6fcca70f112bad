"""CL001 — in-place writes on store-backed / shared compiled arrays.

The compiled store (:mod:`repro.provenance.store`) hands out arrays that are
read-only views over one ``np.memmap``; the fingerprint caches hand the same
compiled sets to every consumer in the process.  An in-place write on either
is at best a crash (``ValueError: assignment destination is read-only``) and
at worst silent cross-request corruption.  This rule flags, inside
``provenance/`` and ``batch/`` code:

* subscript assignment and augmented assignment whose base is *store-tainted*
  — a name bound from ``open_store(...)`` / ``*.from_store(...)``, an
  attribute chain ending in one of the shared compiled-array attributes
  (``coefficients``, ``indices``, ``exponents``, ``segment_starts``,
  ``segment_rows``, ``_constant``, ``ptr``, ``positions``), or a name bound
  from such an expression;
* mutating ndarray method calls (``.sort()``, ``.fill()``, ``.resize()``,
  ``.partition()``, ``.put()``, ``.itemset()``, ``.byteswap()``) and
  ``setflags(write=True)`` on store-tainted expressions;
* ``np.<ufunc>.at(...)`` / ``np.copyto(...)`` whose output is store-tainted.

Laundering through ``.copy()`` / ``np.array`` / ``np.ascontiguousarray`` /
``.astype()`` clears the taint — mutating your own copy is the sanctioned
pattern (see ``evaluate_deltas``'s scratch buffers).  Writes through ``self``
to protected attributes are allowed: builders (``__init__``) legitimately
fill arrays they just allocated.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from tools.cobralint.engine import (
    FileContext,
    Finding,
    Rule,
    call_name,
    iter_functions,
    register,
)

#: Attributes that name arrays shared through caches / compiled stores.
PROTECTED_ATTRS = {
    "coefficients",
    "indices",
    "exponents",
    "segment_starts",
    "segment_rows",
    "_constant",
    "ptr",
    "positions",
}

#: Calls whose result is a store-backed (read-only) compiled set or array.
STORE_SOURCES = {"open_store", "from_store", "_open_store"}

#: Calls that launder taint by materialising a private mutable copy.
LAUNDERING_CALLS = {
    "copy",
    "astype",
    "np.copy",
    "np.array",
    "np.ascontiguousarray",
    "numpy.copy",
    "numpy.array",
    "numpy.ascontiguousarray",
}

MUTATING_METHODS = {
    "sort",
    "fill",
    "resize",
    "partition",
    "put",
    "itemset",
    "byteswap",
}


def _is_laundering(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name is None:
        return False
    return name in LAUNDERING_CALLS or name.split(".")[-1] in ("copy", "astype")


@register
class MemmapMutationRule(Rule):
    id = "CL001"
    name = "memmap-mutation"
    description = (
        "in-place write on a store-backed or cache-shared compiled array"
    )
    include = ("src/repro/provenance/", "src/repro/batch/")

    def check(self, context: FileContext) -> Iterable[Finding]:
        findings = []
        for _parent, func in iter_functions(context.tree):
            findings.extend(self._check_function(context, func))
        return findings

    # -- per-function taint analysis ----------------------------------------

    def _tainted_names(self, func: ast.AST) -> Set[str]:
        """Names bound (anywhere in the function) to store-backed values.

        One forward pass plus propagation to a fixpoint: flow-insensitive on
        purpose — rebinding a tainted name to anything safe mid-function is
        rare enough that a suppression documents it better than the linter
        guessing the order of execution.
        """
        tainted: Set[str] = set()
        assignments: Dict[str, ast.AST] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assignments[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assignments[node.target.id] = node.value
        changed = True
        while changed:
            changed = False
            for name, value in assignments.items():
                if name not in tainted and self._expr_tainted(value, tainted):
                    tainted.add(name)
                    changed = True
        return tainted

    def _expr_tainted(self, node: ast.AST, tainted: Set[str]) -> bool:
        if _is_laundering(node):
            return False
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name is not None and name.split(".")[-1] in STORE_SOURCES:
                return True
            return False
        if isinstance(node, ast.Name):
            return node.id in tainted
        if isinstance(node, ast.Attribute):
            if node.attr in PROTECTED_ATTRS:
                return True
            return self._expr_tainted(node.value, tainted)
        if isinstance(node, ast.Subscript):
            return self._expr_tainted(node.value, tainted)
        return False

    def _base_receiver(self, node: ast.AST) -> Optional[ast.AST]:
        """The expression whose storage a subscript write would mutate."""
        while isinstance(node, ast.Subscript):
            node = node.value
        return node

    def _is_self_protected_write(self, node: ast.AST) -> bool:
        """``self._constant[row] = ...`` — a builder filling its own array."""
        base = self._base_receiver(node)
        return (
            isinstance(base, ast.Attribute)
            and base.attr in PROTECTED_ATTRS
            and isinstance(base.value, ast.Name)
            and base.value.id in ("self", "cls")
        )

    def _check_function(
        self, context: FileContext, func: ast.AST
    ) -> Iterable[Finding]:
        tainted = self._tainted_names(func)

        def flag(node: ast.AST, what: str) -> Finding:
            return context.finding(
                self,
                node,
                f"{what} — store-backed/cache-shared arrays are read-only; "
                "work on a .copy() instead",
            )

        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if not isinstance(target, ast.Subscript):
                        continue
                    if self._is_self_protected_write(target):
                        continue
                    base = self._base_receiver(target)
                    if base is not None and self._expr_tainted(base, tainted):
                        kind = (
                            "augmented assignment"
                            if isinstance(node, ast.AugAssign)
                            else "subscript assignment"
                        )
                        yield flag(node, f"{kind} into a store-tainted array")
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if isinstance(func_expr, ast.Attribute):
                    receiver = func_expr.value
                    if func_expr.attr in MUTATING_METHODS and self._expr_tainted(
                        receiver, tainted
                    ):
                        yield flag(
                            node,
                            f"in-place .{func_expr.attr}() on a store-tainted array",
                        )
                    elif func_expr.attr == "setflags" and self._expr_tainted(
                        receiver, tainted
                    ):
                        for kw in node.keywords:
                            if kw.arg == "write" and not (
                                isinstance(kw.value, ast.Constant)
                                and kw.value.value in (False, 0)
                            ):
                                yield flag(
                                    node,
                                    "setflags(write=...) on a store-tainted array",
                                )
                name = call_name(node)
                if name is not None:
                    parts = name.split(".")
                    is_scatter = (
                        len(parts) == 3
                        and parts[0] in ("np", "numpy")
                        and parts[2] == "at"
                    )
                    is_copyto = name in ("np.copyto", "numpy.copyto")
                    if (is_scatter or is_copyto) and node.args:
                        out = node.args[0]
                        if not self._is_self_protected_write(
                            out
                        ) and self._expr_tainted(
                            self._base_receiver(out) or out, tainted
                        ):
                            yield flag(
                                node,
                                f"{name}(...) scatters into a store-tainted array",
                            )
