"""The tropical/bool per-scenario segment delta kernel: a parity oracle.

Production sparse evaluation of the min-plus and or-and compiled sets runs
one batched pass over the whole :class:`~repro.batch.planner.DeltaPlan`
(:meth:`repro.provenance.backends.numeric._CompiledNumericSet.evaluate_deltas`).
This is the kernel it replaced, kept verbatim as a reference: per scenario
it looks up the monomials the changed columns touch (:func:`rows_for_any`),
re-reduces every segment holding one from a patched copy of the base
vector, and reuses the baseline reduction of every other segment of an
affected row.  It builds its own inverted index and baseline
(:func:`_delta_groups`, :func:`_delta_state`) from the compiled group
arrays, so it shares no cache with the kernel it checks.

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.segment_delta_kernel import segment_evaluate_deltas
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.batch.planner import DeltaPlan
from repro.provenance.backends.numeric import _CompiledNumericSet, _plan_scenarios
from repro.provenance.incidence import (
    VariableIncidence,
    ragged_ranges,
    sorted_unique,
)


def rows_for(incidence: VariableIncidence, column: int) -> np.ndarray:
    """Ascending monomial positions whose monomial contains ``column``."""
    return incidence.positions[incidence.ptr[column] : incidence.ptr[column + 1]]


def rows_for_any(incidence: VariableIncidence, columns: np.ndarray) -> np.ndarray:
    """Sorted unique monomial positions touched by any of ``columns``."""
    columns = np.asarray(columns, dtype=np.intp)
    if columns.size == 1:
        # A variable occurs at most once per monomial, so one column's
        # positions are already distinct and ascending.
        return rows_for(incidence, int(columns[0]))
    positions, _exponents, _counts = incidence.occurrences(columns)
    return sorted_unique(positions)


def _delta_groups(
    self: _CompiledNumericSet,
) -> Tuple[Tuple[VariableIncidence, np.ndarray], ...]:
    """Per-group inverted index and segment extents."""
    built = []
    for group in self._groups:
        num_monomials = len(group.coefficients)
        built.append(
            (
                VariableIncidence.from_factor_arrays(
                    len(self._variables), group.indices, group.exponents
                ),
                np.append(group.segment_starts[1:], num_monomials).astype(np.intp),
            )
        )
    return tuple(built)


def _delta_state(
    self: _CompiledNumericSet, base_vector: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], np.ndarray]:
    """``(base, per-group segment reductions, totals)`` under ``base_vector``."""
    base = np.asarray(base_vector, dtype=np.float64).copy()
    segment_values = []
    totals = self._constant.copy()
    for group in self._groups:
        segments = self._reduce(
            self._contributions(group, base), group.segment_starts
        )
        segment_values.append(segments)
        self._fold_rows(totals, group.segment_rows, segments)
    return base, tuple(segment_values), totals


def _restricted_contributions(
    self: _CompiledNumericSet, group, values: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Contributions of the monomials at ``positions`` under ``values``."""
    return self._gathered_contributions(
        group, values[group.indices[positions]], positions
    )


def segment_evaluate_deltas(self: _CompiledNumericSet, plan: DeltaPlan) -> np.ndarray:
    """Evaluate sparse scenarios against one shared base vector.

    ``plan`` is a normalised :class:`~repro.batch.planner.DeltaPlan`
    over this set's variable order: its ``base_row`` is the base vector
    and scenario *s* changes the cells of its CSR slice.  Idempotent
    reductions (min, or) cannot be corrected additively, so per scenario
    the kernel re-reduces exactly the *segments* whose output row
    contains an affected monomial: affected
    rows are reset to the constant fold, recomputed segments are reduced
    from scratch over the updated values, and every untouched segment of
    an affected row reuses its baseline reduction.  Work per scenario is
    O(monomials inside affected segments), not O(all monomials).
    """
    index = _delta_groups(self)
    base, segment_values, totals = _delta_state(self, plan.base_row)
    _plan_scenarios(plan, len(self._variables))
    num_keys = len(self._keys)
    out = np.empty((len(plan), num_keys), dtype=np.float64)
    scratch = base.copy()
    for s in range(len(plan)):
        columns, values = plan.cells(s)
        if columns.size == 0:
            out[s] = totals
            continue
        scratch[columns] = values
        # Pass 1: the segments (and thus output rows) each group affects.
        affected_segments = []
        row_parts = []
        for (incidence, _ends), group in zip(index, self._groups):
            positions = rows_for_any(incidence, columns)
            if positions.size:
                segments = np.unique(
                    np.searchsorted(
                        group.segment_starts, positions, side="right"
                    )
                    - 1
                )
                row_parts.append(group.segment_rows[segments])
            else:
                segments = positions
            affected_segments.append(segments)
        if not row_parts:
            out[s] = totals
            scratch[columns] = base[columns]
            continue
        affected_rows = np.unique(np.concatenate(row_parts))
        out[s] = totals
        row = out[s]
        row[affected_rows] = self._constant[affected_rows]
        # Pass 2: re-fold every segment owned by an affected row —
        # recomputing the affected ones, reusing baseline reductions for
        # the rest.
        for (incidence, ends), group, segments, base_segments in zip(
            index, self._groups, affected_segments, segment_values
        ):
            lookup = np.searchsorted(affected_rows, group.segment_rows)
            lookup = np.minimum(lookup, affected_rows.size - 1)
            in_rows = np.flatnonzero(
                affected_rows[lookup] == group.segment_rows
            )
            if in_rows.size == 0:
                continue
            folded = base_segments[in_rows]
            if segments.size:
                positions, local_starts = ragged_ranges(
                    group.segment_starts[segments], ends[segments]
                )
                recomputed = self._reduce(
                    _restricted_contributions(self, group, scratch, positions),
                    local_starts,
                )
                folded[np.searchsorted(in_rows, segments)] = recomputed
            self._fold_rows(row, group.segment_rows[in_rows], folded)
        scratch[columns] = base[columns]
    return out
