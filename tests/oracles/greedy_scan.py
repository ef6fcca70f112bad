"""The full-rescan greedy: the cut-sequence parity oracle for the kernel.

This is the original greedy coarsening loop.  At every step it recomputes
every candidate's merge gain by renaming and re-counting every monomial —
O(steps × candidates × |provenance|).  Production code runs the incremental
kernel (:class:`repro.core.kernel.trajectory.GreedyTrajectory`) instead;
this scan is kept only so tests and ``benchmarks/bench_incremental_greedy.py``
can check that the kernel emits the identical cut sequence, step trace and
predicted sizes.

Import it with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.greedy_scan import legacy_greedy, renamed_size
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from repro.exceptions import InfeasibleBoundError
from repro.provenance.polynomial import Monomial, ProvenanceSet
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree, as_forest
from repro.core.compression import (
    Abstraction,
    ProvenanceLike,
    _as_provenance_set,
    apply_abstraction,
)
from repro.core.cut import Cut, leaf_cut
from repro.core.optimizer import OptimizationResult


def renamed_size(provenance: ProvenanceSet, rename: Dict[str, str]) -> int:
    """The number of monomials of ``provenance`` after applying ``rename``.

    Only monomials touching a renamed variable are re-keyed; untouched
    monomials keep their key, and the per-polynomial count is the number of
    distinct keys.  (Coefficient cancellation is ignored, so this is an upper
    bound that coincides with the true size in all non-degenerate cases.)
    """
    affected = set(rename)
    total = 0
    for _key, polynomial in provenance.items():
        keys: Set[Monomial] = set()
        for monomial, _coefficient in polynomial.terms():
            if any(name in affected for name, _ in monomial):
                keys.add(monomial.rename(rename))
            else:
                keys.add(monomial)
        total += len(keys)
    return total


def legacy_greedy(
    provenance: ProvenanceLike,
    trees: Union[AbstractionTree, AbstractionForest],
    bound: int,
    allow_infeasible: bool = False,
    keep_trace: bool = False,
) -> OptimizationResult:
    """Greedy coarsening by full candidate rescans at every step.

    The candidate with the highest ``monomials saved / variables lost``
    ratio is applied (ties prefer fewer variables lost, then deeper nodes,
    then the earliest candidate in tree order and preorder) until the
    predicted size is within ``bound``.
    """
    forest = as_forest(trees)
    provenance_set = _as_provenance_set(provenance)
    cuts: List[Cut] = [leaf_cut(tree) for tree in forest.trees()]
    current = provenance_set
    current_size = provenance_set.size()
    steps: List[Dict[str, object]] = []

    while current_size > bound:
        best: Optional[Tuple[float, int, int, int, str, Cut, Dict[str, str], int]] = None
        for index, tree in enumerate(forest.trees()):
            cut = cuts[index]
            for candidate in tree.inner_nodes():
                if candidate in cut.nodes:
                    continue
                replaced = {
                    name
                    for name in cut.nodes
                    if name == candidate or candidate in tree.ancestors(name)
                }
                if not replaced:
                    continue
                rename = {name: candidate for name in replaced}
                new_size = renamed_size(current, rename)
                saved = current_size - new_size
                lost = len(replaced) - 1
                ratio = saved / max(lost, 1)
                depth = tree.depth(candidate)
                key = (ratio, -lost, depth)
                if best is None or key > (best[0], best[1], best[2]):
                    new_cut = cut.coarsen(candidate)
                    best = (
                        ratio,
                        -lost,
                        depth,
                        index,
                        candidate,
                        new_cut,
                        rename,
                        new_size,
                    )
        if best is None:
            break  # every tree is already at its root cut
        _, _, _, index, candidate, new_cut, rename, new_size = best
        cuts[index] = new_cut
        current = current.rename(rename)
        steps.append(
            {
                "coarsened_at": candidate,
                "tree": forest.trees()[index].root,
                "size_before": current_size,
                "size_after": new_size,
            }
        )
        current_size = new_size

    feasible = current_size <= bound
    if not feasible and not allow_infeasible:
        raise InfeasibleBoundError(bound, current_size)

    abstraction = Abstraction.from_cuts(cuts)
    compression = apply_abstraction(provenance_set, abstraction)
    single_cut = cuts[0] if len(cuts) == 1 else None
    trace = {"steps": steps} if keep_trace else None
    return OptimizationResult(
        cut=single_cut,
        cuts=tuple(cuts),
        compression=compression,
        bound=bound,
        feasible=feasible,
        predicted_size=current_size,
        algorithm="greedy",
        trace=trace,
    )
