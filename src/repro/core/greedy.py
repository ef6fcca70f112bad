"""A greedy coarsening heuristic for abstraction selection.

The greedy optimiser starts from the finest abstraction (every leaf kept as
its own variable) and repeatedly *coarsens* the current cut at the inner
node offering the best trade-off — the most monomials saved per variable
given up — until the size bound is met or every tree has collapsed to its
root.

Unlike the exact dynamic program it makes no assumption about how many tree
variables a monomial contains, and it handles forests of several trees, so
it serves both as the general-case algorithm and as the ablation baseline
against the exact DP (benchmark E8).

The search runs on the :mod:`repro.core.kernel` pipeline: delta-updated
gain counters popped from a lazy max-heap, recorded as a bound-independent
:class:`~repro.core.kernel.trajectory.GreedyTrajectory`.  Every greedy
:class:`~repro.core.optimizer.OptimizationResult` is assembled by
:func:`greedy_result` from such a trajectory — a fresh one here, a cached
one in :class:`~repro.core.compression.Compressor`.  The original
full-rescan loop survives only as the parity oracle in
``tests/oracles/greedy_scan.py``.
"""

from __future__ import annotations

from typing import Union

from repro.provenance.polynomial import ProvenanceSet
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
from repro.core.compression import (
    Abstraction,
    ProvenanceLike,
    _as_provenance_set,
    apply_abstraction,
)
from repro.core.kernel.trajectory import GreedyTrajectory
from repro.core.optimizer import OptimizationResult

TreeOrForest = Union[AbstractionTree, AbstractionForest]


def optimize_greedy(
    provenance: ProvenanceLike,
    trees: TreeOrForest,
    bound: int,
    allow_infeasible: bool = False,
    keep_trace: bool = False,
) -> OptimizationResult:
    """Greedily coarsen cuts of ``trees`` until the provenance fits ``bound``.

    At every step the candidate coarsenings are all inner nodes that would
    actually change some tree's current cut; the candidate with the highest
    ``monomials saved / variables lost`` ratio is applied (ties prefer fewer
    variables lost, then deeper nodes).  The search stops as soon as the
    current size is within the bound.

    Raises :class:`~repro.exceptions.AbstractionError` when an inner-node
    name of ``trees`` is also a provenance variable.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    provenance_set = _as_provenance_set(provenance)
    trajectory = GreedyTrajectory(provenance_set, trees)
    return greedy_result(
        trajectory, provenance_set, bound, allow_infeasible, keep_trace
    )


def greedy_result(
    trajectory: GreedyTrajectory,
    provenance: ProvenanceSet,
    bound: int,
    allow_infeasible: bool,
    keep_trace: bool,
) -> OptimizationResult:
    """The greedy's answer for ``bound``, read off ``trajectory``'s prefix.

    ``provenance`` is the set the trajectory was computed for (or one with
    the same fingerprint); the chosen cuts are applied to it.
    """
    prefix, feasible = trajectory.resolve(bound, allow_infeasible)
    cuts = trajectory.cuts_after(prefix)
    compression = apply_abstraction(provenance, Abstraction.from_cuts(cuts))
    trace = {"steps": trajectory.trace_steps(prefix)} if keep_trace else None
    return OptimizationResult(
        cut=cuts[0] if len(cuts) == 1 else None,
        cuts=cuts,
        compression=compression,
        bound=bound,
        feasible=feasible,
        predicted_size=trajectory.size_after(prefix),
        algorithm="greedy",
        trace=trace,
    )
