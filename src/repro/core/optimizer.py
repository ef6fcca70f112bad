"""The exact single-tree optimiser (bottom-up dynamic programming).

This is the algorithm the demo runs "under the hood" (Sections 2 and 4 of
the paper): given provenance polynomials, one abstraction tree and a bound
on the number of monomials, find the cut that respects the bound while
maximising the number of distinct variables.  In the single-tree setting —
each monomial contains at most one variable of the tree — the problem is
solvable in polynomial time by a bottom-up dynamic program over the tree.

Formulation
-----------
Write every monomial of the provenance as ``c · x^e · r`` where ``x`` is a
tree leaf (if any) and ``r`` is the *residue*: the product of the remaining
(non-tree) variables together with the identity of the polynomial the
monomial belongs to (monomials of different result groups never merge).
Under a cut node ``v``, all monomials whose leaf lies below ``v`` and that
share ``(r, e)`` collapse into a single monomial; hence choosing ``v``
contributes ``load(v) = |{(r, e) below v}|`` monomials, and the total
compressed size is ``Σ_{v∈cut} load(v)`` plus the number of monomials with
no tree variable.  Maximising the cut's cardinality subject to the bound is
a tree-knapsack problem solved exactly by the DP below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import InfeasibleBoundError, UnsupportedPolynomialError
from repro.provenance.polynomial import ProvenanceSet
from repro.core.abstraction_tree import AbstractionTree
from repro.core.compression import (
    Abstraction,
    CompressionResult,
    ProvenanceLike,
    _as_provenance_set,
    apply_abstraction,
)
from repro.core.cut import Cut


@dataclass(frozen=True)
class OptimizationResult:
    """The outcome of a bound-constrained abstraction search.

    Attributes
    ----------
    cut:
        The chosen cut (``None`` only for forest optimisers, which report
        one cut per tree through ``cuts``).
    cuts:
        All chosen cuts (one per tree involved).
    compression:
        The :class:`~repro.core.compression.CompressionResult` of actually
        applying the chosen abstraction.
    bound:
        The requested bound on the number of monomials.
    feasible:
        Whether the bound was met.  When ``allow_infeasible`` was passed and
        no cut meets the bound, the coarsest/cheapest abstraction is returned
        with ``feasible=False``.
    predicted_size:
        The size the optimiser predicted before applying the abstraction
        (equal to the achieved size for the exact algorithms).
    algorithm:
        Name of the algorithm that produced the result.
    trace:
        Optional "under the hood" information (per-node loads and DP tables)
        kept when ``keep_trace=True``.
    """

    cut: Optional[Cut]
    cuts: Tuple[Cut, ...]
    compression: CompressionResult
    bound: int
    feasible: bool
    predicted_size: int
    algorithm: str
    trace: Optional[Dict] = None

    @property
    def abstraction(self) -> Abstraction:
        """The abstraction that was applied."""
        return self.compression.abstraction

    @property
    def compressed(self) -> ProvenanceSet:
        """The compressed provenance."""
        return self.compression.compressed

    @property
    def achieved_size(self) -> int:
        """The actual number of monomials after compression."""
        return self.compression.compressed_size

    @property
    def num_variables(self) -> int:
        """Number of distinct variables in the compressed provenance."""
        return self.compression.compressed_variables

    def summary(self) -> Dict[str, object]:
        """A flat dictionary of the headline numbers (for reports/benchmarks)."""
        data = dict(self.compression.summary())
        data.update(
            {
                "bound": self.bound,
                "feasible": self.feasible,
                "predicted_size": self.predicted_size,
                "algorithm": self.algorithm,
                "cut": sorted(self.cut.nodes) if self.cut is not None else None,
            }
        )
        return data


@dataclass
class _TreeLoadModel:
    """Per-node 'load' statistics of a provenance set w.r.t. one tree.

    ``load(v)`` is the number of monomials that remain if all leaves under
    ``v`` are merged into a single meta-variable; ``base_monomials`` counts
    the monomials containing no tree variable (they are unaffected by any
    cut of this tree).
    """

    tree: AbstractionTree
    loads: Dict[str, int]
    base_monomials: int
    leaf_occurrences: Dict[str, int]

    def cut_size(self, cut: Cut) -> int:
        """The predicted compressed size under ``cut``."""
        return self.base_monomials + sum(self.loads[node] for node in cut.nodes)


def build_load_model(
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


def compute_size_profile(
    provenance: ProvenanceLike, tree: AbstractionTree
) -> Dict[int, int]:
    """The Pareto frontier of the size/expressiveness trade-off.

    For every achievable cut cardinality ``k`` (number of meta-variables the
    abstraction would define), return the minimal compressed provenance size
    any ``k``-node cut of ``tree`` can reach.  This is the curve the demo's
    meta-analyst explores when choosing a bound: reading the table answers
    both "how small can I get with k variables?" and "how many variables can
    I keep under bound B?" without committing to either.

    Requires the single-tree precondition (at most one tree variable per
    monomial), like :func:`optimize_single_tree`.
    """
    provenance_set = _as_provenance_set(provenance)
    upper_bound = provenance_set.size()
    result = optimize_single_tree(
        provenance_set, tree, bound=upper_bound, keep_trace=True
    )
    assert result.trace is not None
    root_table = result.trace["dp_table"][tree.root]
    base = result.trace["base_monomials"]
    return {
        cardinality: cost + base
        for cardinality, cost in sorted(root_table.items())
    }


def optimize_single_tree(
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
    model = build_load_model(provenance_set, tree)

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

    compression = apply_abstraction(provenance_set, cut)
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
