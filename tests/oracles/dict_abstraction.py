"""The per-monomial dict loops of abstraction: parity oracles for the array path.

Production code renames provenance and counts single-tree DP loads on the
id-encoded incidence rows (:class:`repro.provenance.incidence.ProvenanceIncidence`).
These are the original loops it replaced, kept only as references:

* :func:`dict_rename` — ``ProvenanceSet.rename`` through ``Polynomial.rename``
  and ``Monomial.rename``: every monomial rebuilt (and every name
  re-validated) through the dict constructors;
* :func:`dict_apply_abstraction` — ``apply_abstraction`` on top of it;
* :func:`dict_load_model` — ``build_load_model``'s residue-set loop;
* :func:`dict_optimize_single_tree` — the single-tree DP run in one call
  on :func:`dict_load_model`, applied with :func:`dict_apply_abstraction`.

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.dict_abstraction import dict_rename, dict_optimize_single_tree
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.exceptions import InfeasibleBoundError, UnsupportedPolynomialError
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.core.abstraction_tree import AbstractionTree
from repro.core.compression import (
    Abstraction,
    CompressionResult,
    ProvenanceLike,
    _as_provenance_set,
)
from repro.core.cut import Cut
from repro.core.optimizer import OptimizationResult, _TreeLoadModel


def dict_rename_monomial(monomial: Monomial, mapping: Mapping[str, str]) -> Monomial:
    """``Monomial.rename``: exponents of variables sent to one name add up."""
    merged: Dict[str, int] = {}
    for name, exp in monomial.factors:
        target = mapping.get(name, name)
        merged[target] = merged.get(target, 0) + exp
    return Monomial(merged)


def dict_rename_polynomial(
    polynomial: Polynomial, mapping: Mapping[str, str]
) -> Polynomial:
    """``Polynomial.rename``: coinciding monomials merge, coefficients summed."""
    merged: Dict[Monomial, float] = {}
    for monomial, coefficient in polynomial._terms.items():
        target = dict_rename_monomial(monomial, mapping)
        merged[target] = merged.get(target, 0.0) + coefficient
    return Polynomial(merged)


def dict_rename(provenance: ProvenanceSet, mapping: Mapping[str, str]) -> ProvenanceSet:
    """``ProvenanceSet.rename``: every polynomial renamed through ``mapping``."""
    return ProvenanceSet(
        {key: dict_rename_polynomial(polynomial, mapping)
         for key, polynomial in provenance.items()}
    )


def dict_apply_abstraction(provenance: ProvenanceLike, abstraction) -> CompressionResult:
    """``apply_abstraction`` on :func:`dict_rename`."""
    if isinstance(abstraction, Cut):
        abstraction = Abstraction.from_cut(abstraction)
    elif isinstance(abstraction, Mapping) and not isinstance(abstraction, Abstraction):
        abstraction = Abstraction(dict(abstraction))

    provenance_set = _as_provenance_set(provenance)
    compressed = dict_rename(provenance_set, dict(abstraction.mapping))
    return CompressionResult(
        compressed=compressed,
        abstraction=abstraction,
        original_size=provenance_set.size(),
        compressed_size=compressed.size(),
        original_variables=provenance_set.num_variables(),
        compressed_variables=compressed.num_variables(),
    )


def dict_load_model(
    provenance: ProvenanceLike, tree: AbstractionTree
) -> _TreeLoadModel:
    """Compute per-node loads for ``provenance`` with respect to ``tree``.

    Raises
    ------
    UnsupportedPolynomialError
        If some monomial contains two or more distinct leaves of the tree —
        the single-tree DP's precondition (use the greedy optimiser then).
    """
    provenance_set = _as_provenance_set(provenance)
    tree_leaves = set(tree.leaves())

    residues_per_leaf: Dict[str, Set[Tuple]] = {leaf: set() for leaf in tree_leaves}
    occurrences: Dict[str, int] = {leaf: 0 for leaf in tree_leaves}
    base_monomials = 0

    for group_key, polynomial in provenance_set.items():
        for monomial, _coefficient in polynomial.terms():
            in_tree = [name for name, _ in monomial if name in tree_leaves]
            if not in_tree:
                base_monomials += 1
                continue
            if len(in_tree) > 1:
                raise UnsupportedPolynomialError(
                    f"monomial {monomial.to_text()!r} contains {len(in_tree)} "
                    f"variables of tree {tree.root!r}; the single-tree "
                    "optimizer requires at most one (use optimize_greedy)"
                )
            leaf = in_tree[0]
            exponent = monomial.exponent(leaf)
            residue = monomial.without([leaf])
            residues_per_leaf[leaf].add((group_key, residue, exponent))
            occurrences[leaf] += 1

    # Bottom-up union of residue sets gives each node's load.
    loads: Dict[str, int] = {}
    residues_per_node: Dict[str, Set[Tuple]] = {}

    def visit(name: str) -> Set[Tuple]:
        node = tree.node(name)
        if node.is_leaf:
            residues = residues_per_leaf.get(name, set())
        else:
            residues = set()
            for child in node.children:
                residues |= visit(child)
        residues_per_node[name] = residues
        loads[name] = len(residues)
        return residues

    visit(tree.root)
    return _TreeLoadModel(
        tree=tree,
        loads=loads,
        base_monomials=base_monomials,
        leaf_occurrences=occurrences,
    )


def dict_optimize_single_tree(
    provenance: ProvenanceLike,
    tree: AbstractionTree,
    bound: int,
    allow_infeasible: bool = False,
    keep_trace: bool = False,
) -> OptimizationResult:
    """Find the bound-respecting cut of ``tree`` with the most variables.

    Parameters
    ----------
    provenance:
        A polynomial, a sequence of polynomials or a :class:`ProvenanceSet`.
    tree:
        The abstraction tree.  Variables of the provenance that are not
        leaves of the tree are left untouched (and keep their freedom).
    bound:
        The maximum allowed number of monomials after compression.
    allow_infeasible:
        If the bound cannot be met even by the coarsest cut, return the
        smallest achievable abstraction flagged ``feasible=False`` instead of
        raising :class:`InfeasibleBoundError`.
    keep_trace:
        Keep the per-node loads and DP tables in ``result.trace`` (the demo's
        "under the hood" view).

    Returns
    -------
    OptimizationResult
        With ``algorithm="dynamic-programming"``.  Among cuts meeting the
        bound the one with the most nodes is chosen; ties are broken towards
        the smaller compressed size.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    provenance_set = _as_provenance_set(provenance)
    model = dict_load_model(provenance_set, tree)

    # dp[node] maps cut-cardinality k -> minimal total load of a cut of the
    # subtree rooted at node using exactly k nodes; choice[] remembers how.
    dp: Dict[str, Dict[int, int]] = {}
    choice: Dict[str, Dict[int, Optional[Tuple[Tuple[str, int], ...]]]] = {}

    def visit(name: str) -> None:
        node = tree.node(name)
        if node.is_leaf:
            dp[name] = {1: model.loads[name]}
            choice[name] = {1: None}
            return
        for child in node.children:
            visit(child)
        # Knapsack-merge the children's tables.
        combined: Dict[int, int] = {0: 0}
        combined_choice: Dict[int, Tuple[Tuple[str, int], ...]] = {0: ()}
        for child in node.children:
            child_table = dp[child]
            new_combined: Dict[int, int] = {}
            new_choice: Dict[int, Tuple[Tuple[str, int], ...]] = {}
            for k_prefix, cost_prefix in combined.items():
                for k_child, cost_child in child_table.items():
                    k_total = k_prefix + k_child
                    cost_total = cost_prefix + cost_child
                    if k_total not in new_combined or cost_total < new_combined[k_total]:
                        new_combined[k_total] = cost_total
                        new_choice[k_total] = combined_choice[k_prefix] + (
                            (child, k_child),
                        )
            combined = new_combined
            combined_choice = new_choice

        table: Dict[int, int] = {}
        node_choice: Dict[int, Optional[Tuple[Tuple[str, int], ...]]] = {}
        for k, cost in combined.items():
            table[k] = cost
            node_choice[k] = combined_choice[k]
        # The alternative of cutting at this node itself (k = 1).
        own_load = model.loads[name]
        if 1 not in table or own_load < table[1]:
            table[1] = own_load
            node_choice[1] = None
        dp[name] = table
        choice[name] = node_choice

    visit(tree.root)

    root_table = dp[tree.root]
    feasible_ks = [
        k for k, cost in root_table.items()
        if cost + model.base_monomials <= bound
    ]

    feasible = bool(feasible_ks)
    if feasible:
        best_k = max(
            feasible_ks,
            key=lambda k: (k, -(root_table[k])),
        )
    else:
        best_achievable = min(root_table.values()) + model.base_monomials
        if not allow_infeasible:
            raise InfeasibleBoundError(bound, best_achievable)
        best_k = min(root_table, key=lambda k: (root_table[k], k))

    # Reconstruct the chosen cut.
    cut_nodes: List[str] = []

    def reconstruct(name: str, k: int) -> None:
        decision = choice[name][k]
        if decision is None:
            cut_nodes.append(name)
            return
        for child, k_child in decision:
            if k_child > 0:
                reconstruct(child, k_child)

    reconstruct(tree.root, best_k)
    cut = Cut(tree, cut_nodes)
    predicted_size = root_table[best_k] + model.base_monomials

    compression = dict_apply_abstraction(provenance_set, cut)
    trace = None
    if keep_trace:
        trace = {
            "loads": dict(model.loads),
            "base_monomials": model.base_monomials,
            "leaf_occurrences": dict(model.leaf_occurrences),
            "dp_table": {name: dict(table) for name, table in dp.items()},
        }
    return OptimizationResult(
        cut=cut,
        cuts=(cut,),
        compression=compression,
        bound=bound,
        feasible=feasible,
        predicted_size=predicted_size,
        algorithm="dynamic-programming",
        trace=trace,
    )
