"""Bound-independent coarsening trajectories ("compress once, then sweep").

The greedy coarsening order does not depend on the size bound — the bound
only decides *where the sequence stops*.  A :class:`GreedyTrajectory`
therefore runs the incremental kernel once, lazily extending the step
sequence as lower bounds are requested, and answers any bound query from the
recorded prefix: the cut for bound ``b`` is the state after the first step
whose size is within ``b`` — exactly where a full-rescan greedy would have
stopped.  A bound sweep (the ``cobra telephony`` experiment, the batch
service's compress-then-evaluate path) pays for the kernel once instead of
once per bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import InfeasibleBoundError
from repro.obs.metrics import get_registry
from repro.obs.tracer import trace
from repro.provenance.polynomial import ProvenanceSet
from repro.core.abstraction_tree import (
    AbstractionForest,
    AbstractionTree,
    as_forest,
)
from repro.core.cut import Cut
from repro.core.kernel.greedy import IncrementalGreedyKernel


class GreedyTrajectory:
    """The lazily-extended coarsening trajectory of one (provenance, forest)."""

    def __init__(
        self,
        provenance: ProvenanceSet,
        trees: Union[AbstractionTree, AbstractionForest],
    ) -> None:
        forest = as_forest(trees)
        self.forest = forest
        # Dropped once the trajectory is exhausted (see extend_to).
        self._kernel: Optional[IncrementalGreedyKernel] = IncrementalGreedyKernel(
            provenance, forest
        )
        self._steps: List[Dict[str, object]] = []
        self._sizes: List[int] = [self._kernel.current_size]  # after k steps
        self._exhausted = False

    @property
    def initial_size(self) -> int:
        """The provenance size before any coarsening."""
        return self._sizes[0]

    @property
    def num_steps(self) -> int:
        """How many coarsening steps have been materialised so far."""
        return len(self._steps)

    def extend_to(self, bound: int) -> None:
        """Materialise steps until the running size fits ``bound`` (or done).

        Each extension that actually coarsens is one traced
        ``kernel.coarsen`` span; the kernel's heap-pop/gain-update work is
        flushed to the ``kernel.*`` registry counters.
        """
        kernel = self._kernel
        if kernel is not None and self._sizes[-1] > bound and not self._exhausted:
            pops_before = kernel.heap_pops
            updates_before = kernel.gain_updates
            steps_before = len(self._steps)
            with trace(
                "kernel.coarsen", bound=bound, size_before=self._sizes[-1]
            ) as span:
                while self._sizes[-1] > bound and not self._exhausted:
                    name = kernel.best()
                    if name is None:
                        self._exhausted = True
                        break
                    step = kernel.apply(name)
                    self._steps.append(step)
                    self._sizes.append(kernel.current_size)
                span.update(
                    {
                        "steps": len(self._steps) - steps_before,
                        "size_after": self._sizes[-1],
                    }
                )
            registry = get_registry()
            registry.inc("kernel.steps", len(self._steps) - steps_before)
            registry.inc("kernel.heap_pops", kernel.heap_pops - pops_before)
            registry.inc(
                "kernel.gain_updates", kernel.gain_updates - updates_before
            )
        if self._exhausted and self._kernel is not None:
            # Fully coarsened: every further bound query is answered from
            # the recorded steps/sizes, so release the kernel's row store
            # (it grows with every step and is never consulted again).
            self._kernel = None

    def prefix_for(self, bound: int) -> Optional[int]:
        """The first step count whose size fits ``bound`` (``None`` if never).

        Sizes are non-increasing along the trajectory, so this is exactly
        the step at which a full-rescan greedy's ``while`` loop exits.
        """
        self.extend_to(bound)
        for count, size in enumerate(self._sizes):
            if size <= bound:
                return count
        return None

    def size_after(self, count: int) -> int:
        """The predicted provenance size after ``count`` steps."""
        return self._sizes[count]

    def cuts_after(self, count: int) -> Tuple[Cut, ...]:
        """The per-tree cuts after the first ``count`` steps (trusted)."""
        nodes = [set(tree.leaves()) for tree in self.forest.trees()]
        for step in self._steps[:count]:
            tree_index = step["tree_index"]
            nodes[tree_index] -= step["replaced"]
            nodes[tree_index].add(step["coarsened_at"])
        return tuple(
            Cut.trusted(tree, frozenset(members))
            for tree, members in zip(self.forest.trees(), nodes)
        )

    def trace_steps(self, count: int) -> List[Dict[str, object]]:
        """The first ``count`` steps in the greedy result's trace format."""
        return [
            {
                "coarsened_at": step["coarsened_at"],
                "tree": step["tree"],
                "size_before": step["size_before"],
                "size_after": step["size_after"],
            }
            for step in self._steps[:count]
        ]

    def resolve(self, bound: int, allow_infeasible: bool) -> Tuple[int, bool]:
        """The ``(step count, feasible)`` answer for ``bound``.

        Raises :class:`InfeasibleBoundError` when the bound is unreachable
        and ``allow_infeasible`` is false; otherwise an unreachable bound
        resolves to the fully-coarsened end of the trajectory.
        """
        prefix = self.prefix_for(bound)
        if prefix is not None:
            return prefix, True
        if not allow_infeasible:
            raise InfeasibleBoundError(bound, self._sizes[-1])
        return len(self._steps), False

    def __repr__(self) -> str:
        return (
            f"GreedyTrajectory(size={self._sizes[0]} -> {self._sizes[-1]}, "
            f"steps={len(self._steps)}, exhausted={self._exhausted})"
        )
