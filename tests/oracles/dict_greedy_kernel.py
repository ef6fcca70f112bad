"""The dict-row incremental greedy kernel: a parity oracle.

Production greedy coarsening runs
:class:`repro.core.kernel.greedy.IncrementalGreedyKernel`, which keeps its
rows and gain counters in arrays over the id-encoded incidence rows.  This
is the kernel it replaced, kept verbatim as a reference: Python tuple rows,
one ``dict`` signature counter per candidate, updated row by row through
:class:`MonomialIncidenceIndex` (a per-tree-node CSR of row ids built on a
name-keyed view of :class:`~repro.provenance.incidence.ProvenanceIncidence`).

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.dict_greedy_kernel import IncrementalGreedyKernel
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.provenance.incidence import ProvenanceIncidence
from repro.provenance.polynomial import _ZERO_EPSILON, ProvenanceSet
from repro.core.abstraction_tree import (
    AbstractionForest,
    AbstractionTree,
    as_forest,
)
from repro.core.compression import check_names_disjoint
from repro.core.cut import Cut

#: One flattened monomial: (group index, canonical (variable, exponent)
#: factors, coefficient).
MonomialRow = Tuple[int, Tuple[Tuple[str, int], ...], float]

_EMPTY_ROWS = np.zeros(0, dtype=np.int64)


def _incidence_rows(incidence: ProvenanceIncidence) -> Sequence[MonomialRow]:
    """``(group_index, factors, coefficient)`` per row of ``incidence``."""
    factors = [monomial.factors for monomial in incidence.monomials]
    return [
        (group, factors[monomial], coefficient)
        for group, monomial, coefficient in zip(
            incidence.group_ids.tolist(),
            incidence.monomial_ids.tolist(),
            incidence.coefficients.tolist(),
        )
    ]


class MonomialIncidenceIndex:
    """Static incidence structure of a provenance set w.r.t. a forest.

    Attributes
    ----------
    rows:
        The flattened monomials, ``(group_index, factors, coefficient)`` per
        row, in deterministic order.
    variable_rows:
        variable name → ascending ``int64`` row-id array (the shared
        leaf-level incidence of :mod:`repro.provenance.incidence`).
    """

    __slots__ = ("rows", "variable_rows", "_row_ids", "_node_ptr")

    def __init__(self, provenance: ProvenanceSet, forest: AbstractionForest) -> None:
        incidence = provenance.incidence()
        self.rows = _incidence_rows(incidence)
        self.variable_rows = incidence.variable_rows

        # Bottom-up union of leaf incidence lists, laid out as one flat CSR
        # array (node → contiguous slice of ascending row ids).
        chunks: List[np.ndarray] = []
        self._node_ptr: Dict[str, Tuple[int, int]] = {}
        offset = 0

        def visit(tree, name: str) -> np.ndarray:
            nonlocal offset
            node = tree.node(name)
            if node.is_leaf:
                merged = incidence.rows_for(name)
            else:
                child_arrays = [visit(tree, child) for child in node.children]
                merged = (
                    np.unique(np.concatenate(child_arrays))
                    if child_arrays
                    else _EMPTY_ROWS
                )
            chunks.append(merged)
            self._node_ptr[name] = (offset, offset + len(merged))
            offset += len(merged)
            return merged

        for tree in forest.trees():
            visit(tree, tree.root)
        self._row_ids: np.ndarray = (
            np.concatenate(chunks) if chunks else _EMPTY_ROWS
        )

    def rows_under(self, node: str) -> np.ndarray:
        """Ascending ids of the rows touching the subtree rooted at ``node``."""
        start, end = self._node_ptr[node]
        return self._row_ids[start:end]

    def occurrences(self, node: str) -> int:
        """How many monomial rows the subtree rooted at ``node`` touches."""
        start, end = self._node_ptr[node]
        return end - start

    def num_rows(self) -> int:
        """Total number of monomial rows (the provenance size)."""
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"MonomialIncidenceIndex(rows={len(self.rows)}, "
            f"nodes={len(self._node_ptr)})"
        )


Factors = Tuple[Tuple[str, int], ...]


class _Candidate:
    """Mutable per-candidate state: gain counters and selection metadata."""

    __slots__ = (
        "name",
        "tree_index",
        "tree_root",
        "order",
        "depth",
        "active",
        "r_size",
        "touched",
        "sig_counts",
        "stamp",
        "descendants",
        "inner_descendants",
    )

    def __init__(
        self,
        name: str,
        tree_index: int,
        tree_root: str,
        order: int,
        depth: int,
        r_size: int,
        descendants: FrozenSet[str],
        inner_descendants: Tuple[str, ...],
    ) -> None:
        self.name = name
        self.tree_index = tree_index
        self.tree_root = tree_root
        self.order = order
        self.depth = depth
        self.active = True
        self.r_size = r_size          # |replaced cut nodes| (all, occurring or not)
        self.touched = 0              # live rows containing a variable below name
        self.sig_counts: Dict[Tuple, int] = {}
        self.stamp = 0                # bumped on every change; stale heap entries skip
        self.descendants = descendants
        self.inner_descendants = inner_descendants

    def gain(self) -> int:
        """Monomials saved by coarsening here (ignoring size-prediction drift)."""
        return self.touched - len(self.sig_counts)


class IncrementalGreedyKernel:
    """Incremental state of a greedy coarsening run over one provenance set.

    The kernel is driven step by step — :meth:`best` peeks the top candidate,
    :meth:`apply` commits a coarsening;
    :class:`~repro.core.kernel.trajectory.GreedyTrajectory` runs that loop
    and records the steps.
    :meth:`gain_table` exposes the delta-maintained ``(saved, lost, ratio)``
    of every active candidate, which the property tests compare against a
    naive full recompute after every step.
    """

    def __init__(
        self,
        provenance: ProvenanceSet,
        trees: Union[AbstractionTree, AbstractionForest],
        index: Optional[MonomialIncidenceIndex] = None,
    ) -> None:
        forest = as_forest(trees)
        check_names_disjoint(provenance, forest)
        self._forest = forest
        self._trees = forest.trees()
        if index is None:
            index = MonomialIncidenceIndex(provenance, forest)
        self._index = index

        # Mutable row store, seeded from the index. Freed slots are never
        # reused; merged rows get fresh ids, preserving deterministic order.
        self._row_poly: List[int] = [row[0] for row in index.rows]
        self._row_factors: List[Factors] = [row[1] for row in index.rows]
        self._row_coeff: List[float] = [row[2] for row in index.rows]
        self._var_rows: Dict[str, Set[int]] = {
            name: set(ids) for name, ids in index.variable_rows.items()
        }

        # Node metadata shared by signature computation and row updates.
        self._ancestors: Dict[str, Tuple[str, ...]] = {}
        self._candidates: Dict[str, _Candidate] = {}
        order = 0
        for tree_index, tree in enumerate(self._trees):
            subtree_nodes: Dict[str, Set[str]] = {}
            for name in reversed(tree.nodes()):  # children before parents
                node = tree.node(name)
                members: Set[str] = set()
                for child in node.children:
                    members.add(child)
                    members |= subtree_nodes[child]
                subtree_nodes[name] = members
            for name in tree.nodes():
                self._ancestors[name] = tree.ancestors(name)
            for name in tree.inner_nodes():
                self._candidates[name] = _Candidate(
                    name=name,
                    tree_index=tree_index,
                    tree_root=tree.root,
                    order=order,
                    depth=tree.depth(name),
                    r_size=len(tree.leaves_under(name)),
                    descendants=frozenset(subtree_nodes[name]),
                    inner_descendants=tuple(
                        n for n in subtree_nodes[name] if not tree.is_leaf(n)
                    ),
                )
                order += 1

        # One cut-node set per tree (all members, occurring or not).
        self._cut_nodes: List[Set[str]] = [
            set(tree.leaves()) for tree in self._trees
        ]

        # Sizes: ``live_size`` mirrors the actual renamed provenance
        # (cancellation applied); ``current_size`` mirrors the rescan
        # greedy's predicted running size.
        self.live_size = len(index.rows)
        self.current_size = len(index.rows)
        self._prev_drift = 0
        # Plain-int instrumentation counters (flushed to the metrics
        # registry by GreedyTrajectory.extend_to; attribute adds keep the
        # inner loops hot).
        self.heap_pops = 0
        self.gain_updates = 0

        # Initial gain counters straight off the CSR incidence index.
        for candidate in self._candidates.values():
            row_ids = index.rows_under(candidate.name)
            candidate.touched = len(row_ids)
            counts = candidate.sig_counts
            for rid in row_ids:
                key = self._signature(candidate, int(rid))
                counts[key] = counts.get(key, 0) + 1

        self._heap: List[Tuple] = []
        self._refresh(self._candidates.keys())

    # -- signatures and heap ----------------------------------------------

    @staticmethod
    def _renamed_factors(
        factors: Factors, below: FrozenSet[str], target: str
    ) -> Factors:
        """``factors`` with every variable in ``below`` merged into ``target``.

        The single canonical-renaming primitive: signatures predict it,
        :meth:`apply` commits it — both must agree monomial-for-monomial.
        """
        merged_exponent = 0
        rest: List[Tuple[str, int]] = []
        for name, exponent in factors:
            if name in below:
                merged_exponent += exponent
            else:
                rest.append((name, exponent))
        if merged_exponent:
            rest.append((target, merged_exponent))
            rest.sort()
        return tuple(rest)

    def _signature(self, candidate: _Candidate, rid: int) -> Tuple:
        """The renamed key a row takes if ``candidate`` is coarsened now."""
        return (
            self._row_poly[rid],
            self._renamed_factors(
                self._row_factors[rid], candidate.descendants, candidate.name
            ),
        )

    def _refresh(self, names) -> None:
        """Re-push heap entries for candidates whose selection key changed."""
        drift = self.current_size - self.live_size
        for name in names:
            candidate = self._candidates[name]
            if not candidate.active:
                continue
            self.gain_updates += 1
            candidate.stamp += 1
            saved = candidate.gain() + drift
            lost = candidate.r_size - 1
            ratio = saved / max(lost, 1)  # the rescan's exact float key
            heapq.heappush(
                self._heap,
                (
                    -ratio,
                    lost,
                    -candidate.depth,
                    candidate.order,
                    name,
                    candidate.stamp,
                ),
            )

    def best(self) -> Optional[str]:
        """The candidate the rescan greedy would pick now (``None`` if done)."""
        heap = self._heap
        while heap:
            _, _, _, _, name, stamp = heap[0]
            candidate = self._candidates[name]
            if not candidate.active or stamp != candidate.stamp:
                heapq.heappop(heap)  # stale lazy-heap entry
                self.heap_pops += 1
                continue
            return name
        return None

    # -- row bookkeeping ----------------------------------------------------

    def _row_candidates(self, rid: int) -> Set[str]:
        names: Set[str] = set()
        for name, _exponent in self._row_factors[rid]:
            ancestors = self._ancestors.get(name)
            if ancestors:
                names.update(ancestors)
        return names

    def _remove_row(self, rid: int, dirty: Set[str]) -> None:
        for name, _exponent in self._row_factors[rid]:
            rows = self._var_rows.get(name)
            if rows is not None:
                rows.discard(rid)
                if not rows:
                    del self._var_rows[name]
        for cname in self._row_candidates(rid):
            candidate = self._candidates[cname]
            if not candidate.active:
                continue
            key = self._signature(candidate, rid)
            counts = candidate.sig_counts
            remaining = counts[key] - 1
            if remaining:
                counts[key] = remaining
            else:
                del counts[key]
            candidate.touched -= 1
            dirty.add(cname)
        self.live_size -= 1

    def _add_row(
        self, poly: int, factors: Factors, coefficient: float, dirty: Set[str]
    ) -> None:
        rid = len(self._row_factors)
        self._row_poly.append(poly)
        self._row_factors.append(factors)
        self._row_coeff.append(coefficient)
        candidates: Set[str] = set()
        for name, _exponent in factors:
            self._var_rows.setdefault(name, set()).add(rid)
            ancestors = self._ancestors.get(name)
            if ancestors:
                candidates.update(ancestors)
        for cname in candidates:
            candidate = self._candidates[cname]
            if not candidate.active:
                continue
            key = self._signature(candidate, rid)
            counts = candidate.sig_counts
            counts[key] = counts.get(key, 0) + 1
            candidate.touched += 1
            dirty.add(cname)
        self.live_size += 1

    # -- the coarsening step --------------------------------------------------

    def apply(self, name: str) -> Dict[str, object]:
        """Coarsen at inner node ``name``, delta-updating all gain counters.

        Returns the step's record, which
        :class:`~repro.core.kernel.trajectory.GreedyTrajectory` keeps.
        """
        candidate = self._candidates.get(name)
        if candidate is None or not candidate.active:
            raise ValueError(f"{name!r} is not an active coarsening candidate")
        below = candidate.descendants

        # Affected rows: those containing an occurring variable below name
        # (intersect iterating the smaller of the two sets).
        affected: Set[int] = set()
        for var in below & self._var_rows.keys():
            affected |= self._var_rows[var]

        size_before = self.current_size
        live_before = self.live_size
        dirty: Set[str] = set()

        # Remove affected rows and group them by their renamed key, summing
        # coefficients exactly as ``ProvenanceSet.rename`` would.
        merged: Dict[Tuple[int, Factors], float] = {}
        for rid in sorted(affected):
            poly = self._row_poly[rid]
            coefficient = self._row_coeff[rid]
            self._remove_row(rid, dirty)
            key = (
                poly,
                self._renamed_factors(self._row_factors[rid], below, name),
            )
            merged[key] = merged.get(key, 0.0) + coefficient

        # The rescan's predicted size ignores coefficient cancellation...
        new_size = live_before - (len(affected) - len(merged))
        # ...while the maintained rows mirror the real rename (cancelled
        # rows dropped at the Polynomial normalisation threshold).
        for (poly, factors), coefficient in merged.items():
            if abs(coefficient) <= _ZERO_EPSILON:
                continue
            self._add_row(poly, factors, coefficient, dirty)

        # Cut bookkeeping: replace everything below name by name.
        cut = self._cut_nodes[candidate.tree_index]
        replaced_all = {node for node in cut if node in below}
        cut -= replaced_all
        cut.add(name)

        # name joins the cut; inner nodes strictly below lose their replaced
        # set — neither is ever a candidate again.
        candidate.active = False
        candidate.sig_counts = {}
        for inner in candidate.inner_descendants:
            other = self._candidates[inner]
            if other.active:
                other.active = False
                other.sig_counts = {}
        # Ancestors now replace one node (name) where they used to replace
        # all of name's members.
        shrink = candidate.r_size - 1
        for ancestor in self._ancestors[name]:
            above = self._candidates[ancestor]
            above.r_size -= shrink
            dirty.add(ancestor)

        self.current_size = new_size
        drift = self.current_size - self.live_size
        if drift != self._prev_drift:
            # A cancellation happened (or resolved): the uniform ``saved``
            # offset changed, so every active candidate's ratio is stale.
            self._prev_drift = drift
            dirty.update(
                cname
                for cname, state in self._candidates.items()
                if state.active
            )
        self._refresh(dirty)

        return {
            "coarsened_at": name,
            "tree": candidate.tree_root,
            "tree_index": candidate.tree_index,
            "replaced": frozenset(replaced_all),
            "size_before": size_before,
            "size_after": new_size,
        }

    # -- inspection -----------------------------------------------------------

    def cuts(self) -> Tuple[Cut, ...]:
        """The current cut of every tree (trusted: valid by construction)."""
        return tuple(
            Cut.trusted(tree, frozenset(nodes))
            for tree, nodes in zip(self._trees, self._cut_nodes)
        )

    def gain_table(self) -> Dict[str, Dict[str, float]]:
        """``candidate → {saved, lost, ratio}`` for every active candidate.

        ``saved`` is exactly the rescan's ``current_size − renamed_size``
        (including prediction drift after coefficient cancellations).
        """
        drift = self.current_size - self.live_size
        table: Dict[str, Dict[str, float]] = {}
        for name, candidate in self._candidates.items():
            if not candidate.active:
                continue
            saved = candidate.gain() + drift
            lost = candidate.r_size - 1
            table[name] = {
                "saved": saved,
                "lost": lost,
                "ratio": saved / max(lost, 1),
            }
        return table

    def __repr__(self) -> str:
        active = sum(1 for c in self._candidates.values() if c.active)
        return (
            f"IncrementalGreedyKernel(size={self.current_size}, "
            f"active_candidates={active})"
        )
