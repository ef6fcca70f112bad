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

:func:`select_abstraction` is the one place a request is routed.  The DP
and the greedy each split into a bound-independent *plan* — the
:class:`~repro.core.optimizer.SingleTreeFrontier` (loads plus DP and choice
tables) and the :class:`~repro.core.kernel.trajectory.GreedyTrajectory` —
and a cheap per-bound resolution.  :func:`optimize_forest` builds the plan
fresh for each call; :class:`~repro.core.compression.Compressor` caches one
plan per method, so a new bound only resolves it, rebuilds the cut and
renames.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, List, Optional, Tuple, Union

from repro.exceptions import InfeasibleBoundError, UnsupportedPolynomialError
from repro.obs.tracer import trace as obs_trace
from repro.provenance.polynomial import ProvenanceSet
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
from repro.core.greedy import greedy_result
from repro.core.kernel.trajectory import GreedyTrajectory
from repro.core.optimizer import (
    OptimizationResult,
    SingleTreeFrontier,
    single_tree_result,
)

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
    provenance_set = _as_provenance_set(provenance)
    forest = as_forest(trees)
    return select_abstraction(
        provenance_set,
        forest,
        bound,
        method,
        allow_infeasible,
        keep_trace,
        lambda kind: build_plan(kind, provenance_set, forest),
        max_combinations,
    )


def build_plan(kind: str, provenance: ProvenanceSet, forest: AbstractionForest):
    """The bound-independent plan of one algorithm for ``(provenance, forest)``.

    ``"dp"``: the :class:`~repro.core.optimizer.SingleTreeFrontier` of the
    forest's first tree (raises
    :class:`~repro.exceptions.UnsupportedPolynomialError` when a monomial
    has two of its leaves); ``"greedy"``: the
    :class:`~repro.core.kernel.trajectory.GreedyTrajectory`.
    """
    if kind == "dp":
        return SingleTreeFrontier(provenance, forest.trees()[0])
    with obs_trace("compress.trajectory", monomials=provenance.size()) as span:
        trajectory = GreedyTrajectory(provenance, forest)
        span.update(
            {"candidates": trajectory.candidates, "pairs": trajectory.initial_pairs}
        )
        return trajectory


def select_abstraction(
    provenance: ProvenanceSet,
    forest: AbstractionForest,
    bound: int,
    method: str,
    allow_infeasible: bool,
    keep_trace: bool,
    plan: Callable[[str], object],
    max_combinations: int = 20_000,
) -> OptimizationResult:
    """Route one request to ``method``'s algorithm and answer it.

    ``plan(kind)`` supplies the bound-independent plan (see
    :func:`build_plan`): :func:`optimize_forest` builds a fresh one,
    :class:`~repro.core.compression.Compressor` returns its cached one.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check_names_disjoint(provenance, forest)

    if method == "dp" or (method == "auto" and len(forest) == 1):
        try:
            frontier = plan("dp")
        except UnsupportedPolynomialError:
            if method == "dp":
                raise
            # fall through to the forest strategies
        else:
            return single_tree_result(
                frontier, provenance, bound, allow_infeasible, keep_trace
            )

    if method in ("auto", "exact"):
        combinations = 1
        for tree in forest.trees():
            combinations *= count_cuts(tree)
        if combinations > max_combinations and method == "exact":
            raise ValueError(
                f"forest has {combinations} cut combinations, more than "
                f"max_combinations={max_combinations}"
            )
        if combinations <= max_combinations:
            return _optimize_exhaustive(
                provenance, forest, bound, allow_infeasible
            )

    return greedy_result(
        plan("greedy"), provenance, bound, allow_infeasible, keep_trace
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
