"""The incremental greedy kernel: delta-updated merge-gain counters in arrays.

The greedy evaluates a candidate coarsening at inner node ``v`` by renaming,
for *every* monomial, all current cut nodes below ``v`` to ``v`` and
counting how many distinct keys remain — the full rescan the parity oracle
``tests/oracles/greedy_scan.py`` (``renamed_size``) still performs.  This
kernel maintains, per candidate, a counter over those renamed keys
("signatures") so the gain

    ``gain(v) = touched(v) − |distinct signatures under v|``

is always available, and is *delta-updated* when a coarsening is applied:
only the rows holding a renamed variable are removed, merged and
re-inserted, each touching only the counters of the active ancestors of its
variables.

Everything is arrays over one id space — the forest's nodes in preorder
(tree by tree), then the remaining provenance variables:

* **tree geometry** — a node's subtree is the id interval ``[v, end[v])``,
  so "``x`` lies under ``v``" is one interval test, and the strict
  ancestors of every id form a CSR;
* **rows** — the provenance's id-encoded incidence rows
  (:meth:`~repro.provenance.polynomial.ProvenanceSet.incidence`, built once
  per set and shared with rename and compile): group ids, a
  padded variable-id matrix (ids ascending), an exponent matrix,
  coefficients and an alive mask;
* **gain counters** — the signature of a (row, candidate) pair is the row
  with every id under the candidate renamed to it and repeated ids merged,
  encoded with the candidate and the group as one exact ``int64`` mixed-radix
  key (candidate most significant).  All candidates' counters live in one
  sorted key array with a count per key, so each candidate's counter is a
  contiguous run of sorted codes.  Renaming never widens a row nor changes
  its total degree, so the radices fixed at construction stay valid; when
  their product does not fit an ``int64``, signatures are interned by their
  bytes instead (exact, never hashed).

Candidate selection pops from a lazy max-heap ordered by the exact key the
rescan maximises — ``(ratio, -lost, depth)`` with ties broken towards the
earliest candidate in (tree order, preorder) — so the kernel emits the
**identical cut sequence** at every step, including the rescan's quirks it
deliberately mirrors:

* ``ratio`` is the same float division ``saved / max(lost, 1)``;
* ``saved`` is measured against the rescan's *predicted* running size, which
  ignores coefficient cancellation, while the maintained rows mirror the
  *actual* renamed provenance (cancelled rows dropped at the same
  ``_ZERO_EPSILON`` threshold ``Polynomial`` uses) — the two can drift apart
  for one step when coefficients cancel, and the kernel tracks both;
* ``lost`` counts *all* replaced cut nodes, including tree leaves that never
  occur in the provenance.

The dict-row kernel this replaced is kept as a parity oracle in
``tests/oracles/dict_greedy_kernel.py``.

Precondition: no inner-node name of the forest may already occur as a
provenance variable (a renamed monomial would silently merge with a
pre-existing one, so the abstraction has no meaningful answer).  The kernel
rejects such input with :class:`~repro.exceptions.AbstractionError`, via
:func:`~repro.core.compression.check_names_disjoint`.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.provenance.incidence import (
    _fold_segments,
    _merge_repeated,
    ragged_ranges,
    sorted_unique,
    unique_rows,
)
from repro.provenance.polynomial import _ZERO_EPSILON, ProvenanceSet
from repro.core.abstraction_tree import (
    AbstractionForest,
    AbstractionTree,
    as_forest,
)
from repro.core.compression import check_names_disjoint
from repro.core.cut import Cut

#: Key stride of the interned-signature fallback: a key is
#: ``candidate << 32 | interned id``.
_INTERNED_STRIDE = 1 << 32


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
    ) -> None:
        forest = as_forest(trees)
        check_names_disjoint(provenance, forest)
        self._trees = forest.trees()
        incidence = provenance.incidence()

        # -- the id space and the tree geometry --------------------------------
        names: List[str] = []
        tree_starts: List[int] = []
        parents: List[int] = []
        for tree in self._trees:
            start = len(names)
            tree_starts.append(start)
            nodes = tree.nodes()
            local = {name: start + offset for offset, name in enumerate(nodes)}
            parents.extend(
                -1 if tree.parent(name) is None else local[tree.parent(name)]
                for name in nodes
            )
            names.extend(nodes)
        nodes_total = len(names)
        forest_ids = {name: i for i, name in enumerate(names)}
        names.extend(name for name in incidence.names if name not in forest_ids)
        self._names: Tuple[str, ...] = tuple(names)
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(names)}
        self._pad = pad = len(names)  # larger than every id: the row padding

        # Subtree ends (children follow their parent in preorder) and strict
        # ancestors, as a CSR over all ids plus the padding.
        subtree = [1] * nodes_total
        for node in range(nodes_total - 1, -1, -1):
            if parents[node] >= 0:
                subtree[parents[node]] += subtree[node]
        ancestors: List[List[int]] = []
        for node in range(nodes_total):
            parent = parents[node]
            ancestors.append([] if parent < 0 else [parent] + ancestors[parent])
        counts = [len(chain) for chain in ancestors] + [0] * (pad + 1 - nodes_total)
        self._end = np.zeros(pad + 1, dtype=np.int64)
        self._end[:nodes_total] = np.arange(nodes_total) + np.asarray(
            subtree, dtype=np.int64
        )
        self._ancestor_ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self._ancestors = np.asarray(
            [a for chain in ancestors for a in chain], dtype=np.int64
        )
        self._depth = np.asarray(counts, dtype=np.int64)
        self._tree_starts = tree_starts + [nodes_total]

        # -- candidate state, indexed by id ------------------------------------
        is_leaf = np.zeros(nodes_total, dtype=np.bool_)
        for tree in self._trees:
            is_leaf[[self._ids[leaf] for leaf in tree.leaves()]] = True
        leaves_before = np.concatenate(([0], np.cumsum(is_leaf)))
        self._nodes = nodes_total
        self._active = ~is_leaf
        #: |replaced cut nodes| per candidate (all, occurring or not).
        self._r_size = leaves_before[self._end[:nodes_total]] - leaves_before[:-1]
        self._in_cut = is_leaf.copy()
        self._stamps: List[int] = [0] * nodes_total  # stale heap entries skip

        # -- the rows ------------------------------------------------------------
        remap = np.asarray(
            [self._ids[name] for name in incidence.names] + [pad], dtype=np.int64
        )
        variables, exponents = _merge_repeated(
            remap[incidence.monomial_variables], incidence.monomial_exponents, pad
        )
        self._width = width = variables.shape[1]
        self._vars = variables[incidence.monomial_ids]
        self._exps = exponents[incidence.monomial_ids]
        self._group = incidence.group_ids.astype(np.int64)
        self._coeff = incidence.coefficients.copy()
        rows = self._group.size
        self._alive = np.ones(rows, dtype=np.bool_)
        self._used = rows

        # Mixed-radix signature keys: candidate, group, then (id, exponent)
        # per slot.  Exponents never exceed the largest total degree.
        degree = int(self._exps.sum(axis=1).max()) if rows and width else 0
        self._radices = (max(1, len(incidence.keys)), pad + 1, degree + 1)
        stride = self._radices[0] * ((pad + 1) * (degree + 1)) ** width
        self._interned: Optional[Dict[bytes, int]] = None
        if nodes_total * stride >= 2**63:
            self._interned = {}
            stride = _INTERNED_STRIDE
        self._stride = stride

        # Sizes: ``live_size`` mirrors the actual renamed provenance
        # (cancellation applied); ``current_size`` mirrors the rescan
        # greedy's predicted running size.
        self.live_size = rows
        self.current_size = rows
        self._prev_drift = 0
        # Plain-int instrumentation counters (flushed to the metrics
        # registry by GreedyTrajectory.extend_to).
        self.heap_pops = 0
        self.gain_updates = 0
        self.affected_rows = 0

        # Initial gain counters: every (row, candidate) pair, one sort.
        pair_rows, pair_candidates = self._pairs(np.arange(rows))
        self.candidates = int(self._active.sum())
        self.initial_pairs = int(pair_rows.size)
        self._keys, self._counts = np.unique(
            self._signature_keys(pair_rows, pair_candidates), return_counts=True
        )
        self._touched = np.bincount(pair_candidates, minlength=nodes_total)
        self._distinct = np.bincount(
            self._keys // stride, minlength=nodes_total
        )

        self._heap: List[Tuple] = []
        self._refresh(np.flatnonzero(self._active))

    # -- signatures ------------------------------------------------------------

    def _pairs(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct ``(row, active candidate above one of its ids)`` pairs."""
        variables = self._vars[rows].ravel()
        starts = self._ancestor_ptr[variables]
        ends = self._ancestor_ptr[variables + 1]
        positions, _ = ragged_ranges(starts, ends)
        candidates = self._ancestors[positions]
        owners = np.repeat(np.repeat(rows, self._width), ends - starts)
        keep = self._active[candidates]
        pairs = sorted_unique(owners[keep] * self._nodes + candidates[keep])
        return pairs // self._nodes, pairs % self._nodes

    def _renamed(
        self, rows: np.ndarray, targets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows' ids and exponents with every id under its target renamed to it.

        The single canonical-renaming primitive: signatures predict it,
        :meth:`apply` commits it — both must agree row for row.
        """
        variables = self._vars[rows]
        targets = targets[:, None]
        below = (variables >= targets) & (variables < self._end[targets])
        return _merge_repeated(
            np.where(below, targets, variables), self._exps[rows], self._pad
        )

    def _signature_keys(
        self, rows: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """The exact counter key of each ``(row, candidate)`` pair."""
        variables, exponents = self._renamed(rows, candidates)
        groups = self._group[rows]
        if self._interned is None:
            groups_radix, id_radix, exponent_radix = self._radices
            keys = candidates * groups_radix + groups
            for column in range(self._width):
                keys = (keys * id_radix + variables[:, column]) * exponent_radix
                keys += exponents[:, column]
            return keys
        table = np.ascontiguousarray(
            np.column_stack([candidates, groups, variables, exponents]),
            dtype=np.int64,
        )
        blobs = table.view(np.dtype((np.void, 8 * table.shape[1]))).ravel()
        interned = self._interned
        ids = [interned.setdefault(blob, len(interned)) for blob in blobs.tolist()]
        return candidates * _INTERNED_STRIDE + np.asarray(ids, dtype=np.int64)

    # -- heap ----------------------------------------------------------------------

    def _refresh(self, candidates: np.ndarray) -> None:
        """Re-push heap entries for candidates whose selection key changed."""
        drift = self.current_size - self.live_size
        saved = self._touched[candidates] - self._distinct[candidates] + drift
        lost = self._r_size[candidates] - 1
        ratios = saved / np.maximum(lost, 1)  # the rescan's exact float key
        stamps = self._stamps
        heap = self._heap
        self.gain_updates += candidates.size
        for candidate, ratio, replaced, depth in zip(
            candidates.tolist(),
            ratios.tolist(),
            lost.tolist(),
            self._depth[candidates].tolist(),
        ):
            stamps[candidate] += 1
            heapq.heappush(
                heap, (-ratio, replaced, -depth, candidate, stamps[candidate])
            )

    def best(self) -> Optional[str]:
        """The candidate the rescan greedy would pick now (``None`` if done)."""
        heap = self._heap
        while heap:
            _, _, _, candidate, stamp = heap[0]
            if not self._active[candidate] or stamp != self._stamps[candidate]:
                heapq.heappop(heap)  # stale lazy-heap entry
                self.heap_pops += 1
                continue
            return self._names[candidate]
        return None

    # -- the coarsening step ---------------------------------------------------------

    def apply(self, name: str) -> Dict[str, object]:
        """Coarsen at inner node ``name``, delta-updating all gain counters.

        Returns the step's record, which
        :class:`~repro.core.kernel.trajectory.GreedyTrajectory` keeps.
        """
        node = self._ids.get(name, self._nodes)
        if node >= self._nodes or not self._active[node]:
            raise ValueError(f"{name!r} is not an active coarsening candidate")
        end = int(self._end[node])
        size_before = self.current_size

        # name and the inner nodes below it are never candidates again: drop
        # their counters before touching any row.
        self._active[node:end] = False
        self._drop_counters(node, end)

        block = self._vars[: self._used]
        affected = np.flatnonzero(
            self._alive[: self._used] & ((block >= node) & (block < end)).any(axis=1)
        )
        self.affected_rows += affected.size
        old_rows, old_candidates = self._pairs(affected)
        old_keys = self._signature_keys(old_rows, old_candidates)

        live_before = self.live_size
        merged, new_rows = self._merge_rows(affected, node)
        # The rescan's predicted size ignores coefficient cancellation; the
        # live rows drop cancelled sums (see _merge_rows).
        self.current_size = live_before - (affected.size - merged)
        new_pairs = self._pairs(new_rows)
        self._update_counters(
            old_keys, old_candidates, self._signature_keys(*new_pairs), new_pairs[1]
        )

        # Cut bookkeeping: everything below name is replaced by name.
        replaced = np.flatnonzero(self._in_cut[node:end]) + node
        self._in_cut[node:end] = False
        self._in_cut[node] = True
        above = self._ancestors[
            self._ancestor_ptr[node] : self._ancestor_ptr[node + 1]
        ]
        # Ancestors now replace one node (name) where they used to replace
        # all of name's members.
        self._r_size[above] -= self._r_size[node] - 1

        drift = self.current_size - self.live_size
        if drift != self._prev_drift:
            # A cancellation happened (or resolved): the uniform ``saved``
            # offset changed, so every active candidate's ratio is stale.
            self._prev_drift = drift
            dirty = np.flatnonzero(self._active)
        else:
            dirty = sorted_unique(np.concatenate((old_candidates, above)))
        self._refresh(dirty)

        tree_index = bisect.bisect_right(self._tree_starts, node) - 1
        return {
            "coarsened_at": name,
            "tree": self._trees[tree_index].root,
            "tree_index": tree_index,
            "replaced": frozenset(self._names[i] for i in replaced.tolist()),
            "size_before": size_before,
            "size_after": self.current_size,
        }

    def _drop_counters(self, first: int, end: int) -> None:
        """Discard the counters of candidates ``first .. end - 1``."""
        low, high = np.searchsorted(
            self._keys, [first * self._stride, end * self._stride]
        )
        if high > low:
            self._keys = np.concatenate((self._keys[:low], self._keys[high:]))
            self._counts = np.concatenate((self._counts[:low], self._counts[high:]))

    def _merge_rows(
        self, affected: np.ndarray, node: int
    ) -> Tuple[int, np.ndarray]:
        """Retire ``affected`` and append their renames, merged.

        Returns the number of merged rows (cancelled ones included) and the
        ids of the appended rows.

        Rows that coincide after renaming merge with their coefficients
        summed left to right in row order, exactly as ``ProvenanceSet.rename``
        would; a merged row sits where its first member sat, and sums with
        ``|c| <= _ZERO_EPSILON`` are dropped.
        """
        if affected.size == 0:
            return 0, affected
        variables, exponents = self._renamed(
            affected, np.full(affected.size, node, dtype=np.int64)
        )
        groups = self._group[affected]
        _, merged_of = unique_rows(
            np.column_stack([groups, variables, exponents])
        )
        order = np.argsort(merged_of, kind="stable")
        first = np.ones(order.size, dtype=np.bool_)
        first[1:] = merged_of[order][1:] != merged_of[order][:-1]
        starts = np.flatnonzero(first)
        sums = _fold_segments(self._coeff[affected][order], starts)
        leaders = order[starts]
        emit = np.argsort(leaders)
        leaders, sums = leaders[emit], sums[emit]
        kept = np.abs(sums) > _ZERO_EPSILON
        leaders = leaders[kept]

        self._alive[affected] = False
        self.live_size -= affected.size
        appended = self._append(
            groups[leaders], variables[leaders], exponents[leaders], sums[kept]
        )
        return int(starts.size), appended

    def _append(
        self,
        groups: np.ndarray,
        variables: np.ndarray,
        exponents: np.ndarray,
        coefficients: np.ndarray,
    ) -> np.ndarray:
        """Append live rows after the existing ones; return their row ids.

        Row order is the coefficient fold order of later merges, so retired
        rows are compacted away in order.
        """
        if self._used > 2 * self.live_size + 1024:
            # Retired rows still cost every step's affected-row scan.
            self._compact()
        used = self._used
        count = groups.size
        if used + count > self._group.size:
            capacity = max(2 * self._group.size, used + count)
            self._group = _resized(self._group, capacity)
            self._vars = _resized(self._vars, capacity, self._pad)
            self._exps = _resized(self._exps, capacity)
            self._coeff = _resized(self._coeff, capacity)
            self._alive = _resized(self._alive, capacity)
        self._group[used : used + count] = groups
        self._vars[used : used + count] = variables
        self._exps[used : used + count] = exponents
        self._coeff[used : used + count] = coefficients
        self._alive[used : used + count] = True
        self._used = used + count
        self.live_size += count
        return np.arange(used, used + count)

    def _compact(self) -> None:
        """Drop retired rows, keeping the live ones in order."""
        live = np.flatnonzero(self._alive[: self._used])
        self._group = self._group[live]
        self._vars = self._vars[live]
        self._exps = self._exps[live]
        self._coeff = self._coeff[live]
        self._alive = np.ones(live.size, dtype=np.bool_)
        self._used = live.size

    def _update_counters(
        self,
        removed: np.ndarray,
        removed_candidates: np.ndarray,
        added: np.ndarray,
        added_candidates: np.ndarray,
    ) -> None:
        """Remove one count per ``removed`` key and add one per ``added`` key."""
        nodes = self._nodes
        self._touched += np.bincount(added_candidates, minlength=nodes)
        self._touched -= np.bincount(removed_candidates, minlength=nodes)
        keys, inverse = np.unique(
            np.concatenate((removed, added)), return_inverse=True
        )
        inverse = inverse.reshape(-1)
        delta = np.bincount(
            inverse[removed.size :], minlength=keys.size
        ) - np.bincount(inverse[: removed.size], minlength=keys.size)
        changed = delta != 0
        keys, delta = keys[changed], delta[changed]

        stored = self._keys
        at = np.searchsorted(stored, keys)
        found = at < stored.size
        found[found] = stored[at[found]] == keys[found]
        hits = at[found]
        self._counts[hits] += delta[found]
        emptied = hits[self._counts[hits] == 0]
        fresh = ~found
        self._distinct += np.bincount(
            keys[fresh] // self._stride, minlength=nodes
        )
        self._distinct -= np.bincount(
            stored[emptied] // self._stride, minlength=nodes
        )
        if emptied.size:
            self._keys = stored = np.delete(stored, emptied)
            self._counts = np.delete(self._counts, emptied)
        if fresh.any():
            slots = np.searchsorted(stored, keys[fresh])
            self._keys = np.insert(stored, slots, keys[fresh])
            self._counts = np.insert(self._counts, slots, delta[fresh])

    # -- inspection -------------------------------------------------------------------

    def cuts(self) -> Tuple[Cut, ...]:
        """The current cut of every tree (trusted: valid by construction)."""
        return tuple(
            Cut.trusted(
                tree,
                frozenset(
                    self._names[i]
                    for i in (np.flatnonzero(self._in_cut[start:end]) + start).tolist()
                ),
            )
            for tree, start, end in zip(
                self._trees, self._tree_starts, self._tree_starts[1:]
            )
        )

    def gain_table(self) -> Dict[str, Dict[str, float]]:
        """``candidate → {saved, lost, ratio}`` for every active candidate.

        ``saved`` is exactly the rescan's ``current_size − renamed_size``
        (including prediction drift after coefficient cancellations).
        """
        drift = self.current_size - self.live_size
        active = np.flatnonzero(self._active)
        saved = (self._touched[active] - self._distinct[active] + drift).tolist()
        lost = (self._r_size[active] - 1).tolist()
        return {
            self._names[candidate]: {
                "saved": gain,
                "lost": replaced,
                "ratio": gain / max(replaced, 1),
            }
            for candidate, gain, replaced in zip(active.tolist(), saved, lost)
        }

    def __repr__(self) -> str:
        return (
            f"IncrementalGreedyKernel(size={self.current_size}, "
            f"active_candidates={int(self._active.sum())})"
        )


def _resized(array: np.ndarray, capacity: int, fill: int = 0) -> np.ndarray:
    """``array`` grown to ``capacity`` rows, the new rows set to ``fill``."""
    grown = np.full((capacity,) + array.shape[1:], fill, dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown
