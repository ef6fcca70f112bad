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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import InfeasibleBoundError, UnsupportedPolynomialError
from repro.provenance.incidence import (
    provenance_incidence,
    ragged_ranges,
    unique_rows,
)
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

    Runs on the provenance's id-encoded incidence rows
    (:func:`~repro.provenance.incidence.provenance_incidence`): each row
    with a tree leaf becomes a ``(leaf, group, residue, exponent)`` key, and
    a node's load is the number of distinct keys over the leaves below it,
    counted as distinct ``(ancestor, key)`` rows.

    Raises
    ------
    UnsupportedPolynomialError
        If some monomial contains two or more distinct leaves of the tree —
        the single-tree DP's precondition (use the greedy optimiser then).
    """
    incidence = provenance_incidence(_as_provenance_set(provenance))
    leaves = tree.leaves()
    leaf_index = {leaf: i for i, leaf in enumerate(leaves)}
    # Leaf position of every variable id; the extra last slot maps the -1
    # padding to "not a leaf".
    leaf_of = np.array(
        [leaf_index.get(name, -1) for name in incidence.names] + [-1],
        dtype=np.intp,
    )
    variables = incidence.monomial_variables
    exponents = incidence.monomial_exponents
    if variables.shape[1] == 0:  # only unit monomials: give them one pad
        variables = np.full((variables.shape[0], 1), -1, dtype=np.intp)
        exponents = np.zeros((variables.shape[0], 1), dtype=np.int64)
    factor_leaf = leaf_of[variables]
    in_tree = factor_leaf >= 0
    tree_factors = in_tree.sum(axis=1)

    row_tree_factors = tree_factors[incidence.monomial_ids]
    offending = np.flatnonzero(row_tree_factors > 1)
    if offending.size:
        row = int(offending[0])
        monomial = incidence.monomials[incidence.monomial_ids[row]]
        raise UnsupportedPolynomialError(
            f"monomial {monomial.to_text()!r} contains "
            f"{int(row_tree_factors[row])} variables of tree {tree.root!r}; "
            "the single-tree optimizer requires at most one (use optimize_greedy)"
        )

    # Per distinct monomial: its leaf (or -1) and its residue, the
    # remaining factors plus the leaf's exponent, as a residue id.
    monomials = np.arange(variables.shape[0])
    column = in_tree.argmax(axis=1)
    has_leaf = tree_factors == 1
    monomial_leaf = np.where(has_leaf, factor_leaf[monomials, column], -1)
    leaf_exponent = np.where(has_leaf, exponents[monomials, column], 0)
    residue_variables = np.where(
        in_tree | (variables < 0), len(incidence.names), variables
    )
    by_variable = np.argsort(residue_variables, axis=1, kind="stable")
    _distinct, residue = unique_rows(
        np.concatenate(
            [
                np.take_along_axis(residue_variables, by_variable, axis=1),
                np.take_along_axis(
                    np.where(in_tree, 0, exponents), by_variable, axis=1
                ),
                leaf_exponent[:, None],
            ],
            axis=1,
        )
    )

    row_leaf = monomial_leaf[incidence.monomial_ids]
    with_leaf = row_leaf >= 0
    row_leaf = row_leaf[with_leaf]
    leaf_keys, _ = unique_rows(
        np.stack(
            [
                row_leaf,
                incidence.group_ids[with_leaf],
                residue[incidence.monomial_ids[with_leaf]],
            ],
            axis=1,
        )
    )

    # Every distinct (leaf, group, residue) also counts once for each
    # ancestor of the leaf: expand along the ancestor chains, deduplicate.
    nodes = tree.nodes()
    node_index = {name: i for i, name in enumerate(nodes)}
    chains = [[node_index[name] for name in tree.ancestors(leaf)] for leaf in leaves]
    chain_ptr = np.concatenate(
        ([0], np.cumsum([len(chain) for chain in chains]))
    ).astype(np.intp)
    chain_nodes = np.array(
        [node for chain in chains for node in chain], dtype=np.intp
    )
    key_leaf = leaf_keys[:, 0]
    positions, _ = ragged_ranges(chain_ptr[key_leaf], chain_ptr[key_leaf + 1])
    inner_keys, _ = unique_rows(
        np.concatenate(
            [
                chain_nodes[positions][:, None],
                np.repeat(leaf_keys[:, 1:], np.diff(chain_ptr)[key_leaf], axis=0),
            ],
            axis=1,
        )
    )

    leaf_loads = np.bincount(key_leaf, minlength=len(leaves)).tolist()
    inner_loads = np.bincount(inner_keys[:, 0], minlength=len(nodes)).tolist()
    occurrences = np.bincount(row_leaf, minlength=len(leaves)).tolist()
    return _TreeLoadModel(
        tree=tree,
        loads={
            name: (
                leaf_loads[leaf_index[name]]
                if name in leaf_index
                else inner_loads[node_index[name]]
            )
            for name in nodes
        },
        base_monomials=incidence.num_rows() - int(with_leaf.sum()),
        leaf_occurrences=dict(zip(leaves, occurrences)),
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
    frontier = SingleTreeFrontier(_as_provenance_set(provenance), tree)
    return {
        cardinality: frontier.size_for(cardinality)
        for cardinality in sorted(frontier.root_table)
    }


class SingleTreeFrontier:
    """The bound-independent half of the single-tree DP.

    Holds the load model and, per node, the DP table (cut cardinality
    ``k`` → minimal total load of a ``k``-node cut of the node's subtree)
    with the choices that reach it.  None of it depends on the bound: a
    bound only picks the root table's best ``k`` (:meth:`resolve`) and
    reads that cut back (:meth:`cut_for`), so one frontier answers every
    bound of a sweep.
    """

    def __init__(self, provenance: ProvenanceSet, tree: AbstractionTree) -> None:
        self.tree = tree
        self.model = build_load_model(provenance, tree)
        loads = self.model.loads
        # dp[node] maps cut-cardinality k -> minimal total load of a cut of
        # the subtree rooted at node using exactly k nodes; choice[] remembers how.
        dp: Dict[str, Dict[int, int]] = {}
        choice: Dict[str, Dict[int, Optional[Tuple[Tuple[str, int], ...]]]] = {}

        def visit(name: str) -> None:
            node = tree.node(name)
            if node.is_leaf:
                dp[name] = {1: loads[name]}
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
            own_load = loads[name]
            if 1 not in table or own_load < table[1]:
                table[1] = own_load
                node_choice[1] = None
            dp[name] = table
            choice[name] = node_choice

        visit(tree.root)
        self.dp = dp
        self._choice = choice

    @property
    def root_table(self) -> Dict[int, int]:
        """The root's DP table: cut cardinality → minimal total load."""
        return self.dp[self.tree.root]

    def size_for(self, k: int) -> int:
        """The predicted compressed size of the best ``k``-node cut."""
        return self.root_table[k] + self.model.base_monomials

    def resolve(self, bound: int, allow_infeasible: bool) -> Tuple[int, bool]:
        """The ``(cut cardinality, feasible)`` answer for ``bound``.

        Among cardinalities meeting the bound the largest wins, ties broken
        towards the smaller size.  Raises :class:`InfeasibleBoundError` when
        none does and ``allow_infeasible`` is false; otherwise the smallest
        achievable size is chosen and flagged infeasible.
        """
        root_table = self.root_table
        base = self.model.base_monomials
        feasible_ks = [k for k, cost in root_table.items() if cost + base <= bound]
        if feasible_ks:
            return max(feasible_ks, key=lambda k: (k, -(root_table[k]))), True
        if not allow_infeasible:
            raise InfeasibleBoundError(bound, min(root_table.values()) + base)
        return min(root_table, key=lambda k: (root_table[k], k)), False

    def cut_for(self, k: int) -> Cut:
        """The best ``k``-node cut, read back from the choice tables."""
        cut_nodes: List[str] = []

        def reconstruct(name: str, k: int) -> None:
            decision = self._choice[name][k]
            if decision is None:
                cut_nodes.append(name)
                return
            for child, k_child in decision:
                if k_child > 0:
                    reconstruct(child, k_child)

        reconstruct(self.tree.root, k)
        # An antichain covering every leaf by construction of the tables.
        return Cut.trusted(self.tree, cut_nodes)

    def trace_tables(self) -> Dict[str, object]:
        """The "under the hood" view: loads, base size, leaf counts, DP tables."""
        return {
            "loads": dict(self.model.loads),
            "base_monomials": self.model.base_monomials,
            "leaf_occurrences": dict(self.model.leaf_occurrences),
            "dp_table": {name: dict(table) for name, table in self.dp.items()},
        }


def single_tree_result(
    frontier: SingleTreeFrontier,
    provenance: ProvenanceSet,
    bound: int,
    allow_infeasible: bool,
    keep_trace: bool,
) -> OptimizationResult:
    """The DP's answer for ``bound``, read off ``frontier`` and applied."""
    best_k, feasible = frontier.resolve(bound, allow_infeasible)
    cut = frontier.cut_for(best_k)
    return OptimizationResult(
        cut=cut,
        cuts=(cut,),
        compression=apply_abstraction(provenance, cut),
        bound=bound,
        feasible=feasible,
        predicted_size=frontier.size_for(best_k),
        algorithm="dynamic-programming",
        trace=frontier.trace_tables() if keep_trace else None,
    )


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
        the smaller compressed size.  Builds a :class:`SingleTreeFrontier`
        and resolves it, as :class:`~repro.core.compression.Compressor` does
        with its cached one.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    provenance_set = _as_provenance_set(provenance)
    return single_tree_result(
        SingleTreeFrontier(provenance_set, tree),
        provenance_set,
        bound,
        allow_infeasible,
        keep_trace,
    )
