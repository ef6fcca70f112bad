"""Optimisation over forests of abstraction trees.

The demo paper restricts its guarantee to a single tree; the companion
SIGMOD paper shows the general problem (several trees whose variables can
co-occur inside a monomial) is intractable in general.  This module follows
that structure:

* for small forests, :func:`optimize_forest` enumerates every combination of
  per-tree cuts and measures each candidate exactly (guaranteed optimal);
* for larger instances it falls back to the greedy coarsening heuristic of
  :mod:`repro.core.greedy`;
* when the forest has a single tree and the provenance satisfies the
  single-tree precondition, the exact polynomial-time DP is used instead.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Sequence, Tuple, Union

from repro.exceptions import InfeasibleBoundError, UnsupportedPolynomialError
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree, as_forest
from repro.core.compression import (
    METHODS,
    Abstraction,
    ProvenanceLike,
    _as_provenance_set,
    apply_abstraction,
    check_names_disjoint,
)
from repro.core.cut import Cut, count_cuts, enumerate_cuts
from repro.core.greedy import optimize_greedy
from repro.core.optimizer import OptimizationResult, optimize_single_tree

TreeOrForest = Union[AbstractionTree, AbstractionForest]


def optimize_forest(
    provenance: ProvenanceLike,
    trees: TreeOrForest,
    bound: int,
    method: str = "auto",
    allow_infeasible: bool = False,
    max_combinations: int = 20_000,
    keep_trace: bool = False,
) -> OptimizationResult:
    """Choose one cut per tree of ``trees`` so the provenance fits ``bound``.

    Parameters
    ----------
    method:
        ``"auto"`` (default) picks the exact DP for a single compatible tree,
        exhaustive enumeration when the number of cut combinations is at most
        ``max_combinations``, and the greedy heuristic otherwise.  ``"exact"``
        forces enumeration (raising ``ValueError`` if too large), ``"greedy"``
        forces the heuristic, and ``"dp"`` forces the single-tree DP.

    Every method raises :class:`~repro.exceptions.AbstractionError` when an
    inner-node name of ``trees`` is also a provenance variable (see
    :func:`~repro.core.compression.check_names_disjoint`).
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    forest = as_forest(trees)
    provenance_set = _as_provenance_set(provenance)

    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check_names_disjoint(provenance_set, forest)

    if method == "dp" or (method == "auto" and len(forest) == 1):
        try:
            return optimize_single_tree(
                provenance_set,
                forest.trees()[0],
                bound,
                allow_infeasible=allow_infeasible,
                keep_trace=keep_trace,
            )
        except UnsupportedPolynomialError:
            if method == "dp":
                raise
            # fall through to the forest strategies

    combinations = 1
    for tree in forest.trees():
        combinations *= count_cuts(tree)

    if method == "exact" or (method == "auto" and combinations <= max_combinations):
        if combinations > max_combinations and method == "exact":
            raise ValueError(
                f"forest has {combinations} cut combinations, more than "
                f"max_combinations={max_combinations}"
            )
        return _optimize_exhaustive(
            provenance_set, forest, bound, allow_infeasible
        )

    return optimize_greedy(
        provenance_set,
        forest,
        bound,
        allow_infeasible=allow_infeasible,
        keep_trace=keep_trace,
    )


def _optimize_exhaustive(
    provenance_set,
    forest: AbstractionForest,
    bound: int,
    allow_infeasible: bool,
) -> OptimizationResult:
    """Enumerate all per-tree cut combinations and keep the best feasible one."""
    per_tree_cuts: List[List[Cut]] = [
        list(enumerate_cuts(tree)) for tree in forest.trees()
    ]

    best_feasible: Optional[Tuple[int, int, Tuple[Cut, ...], object]] = None
    best_any: Optional[Tuple[int, int, Tuple[Cut, ...], object]] = None

    for combo in product(*per_tree_cuts):
        abstraction = Abstraction.from_cuts(list(combo))
        compression = apply_abstraction(provenance_set, abstraction)
        size = compression.compressed_size
        num_vars = sum(cut.num_variables() for cut in combo)

        if best_any is None or (-size, num_vars) > (-best_any[1], best_any[0]):
            best_any = (num_vars, size, combo, compression)
        if size <= bound:
            if best_feasible is None or (num_vars, -size) > (
                best_feasible[0],
                -best_feasible[1],
            ):
                best_feasible = (num_vars, size, combo, compression)

    if best_feasible is not None:
        num_vars, size, combo, compression = best_feasible
        feasible = True
    else:
        assert best_any is not None
        if not allow_infeasible:
            raise InfeasibleBoundError(bound, best_any[1])
        num_vars, size, combo, compression = best_any
        feasible = False

    return OptimizationResult(
        cut=combo[0] if len(combo) == 1 else None,
        cuts=tuple(combo),
        compression=compression,
        bound=bound,
        feasible=feasible,
        predicted_size=size,
        algorithm="exhaustive-forest",
        trace=None,
    )
