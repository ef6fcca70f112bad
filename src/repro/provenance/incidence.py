"""Inverted variable → monomial incidence indexes (CSR layout).

Sparse what-if evaluation and incremental compression both hinge on the same
question: *which monomials does this variable touch?*  This module is the one
place that question is answered:

* :class:`VariableIncidence` — a column-indexed CSR inverted index over the
  flat ``(monomial, variable, exponent)`` factor arrays a compiled provenance
  set stores per width-group.  The sparse delta kernels
  of the numeric backends' compiled sets
  (:mod:`repro.provenance.backends.numeric`) use it to find the monomial rows a scenario's
  changed variables affect in O(occurrences), not O(monomials);
* :class:`ProvenanceIncidence` / :func:`provenance_incidence` — the
  name-keyed incidence over the canonical enumeration order of a provenance
  set (:func:`~repro.provenance.statistics.enumerate_monomial_rows`), cached
  by provenance fingerprint.  The compression kernel's
  :class:`~repro.core.kernel.index.MonomialIncidenceIndex` builds its
  per-tree-node CSR on top of this, so there is exactly one incidence
  builder in the codebase;
* small ragged-array helpers (:func:`ragged_ranges`,
  :func:`expand_segment_rows`) shared by the delta kernels.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.statistics import MonomialRow, enumerate_monomial_rows

_EMPTY_INTP = np.zeros(0, dtype=np.intp)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


def ragged_ranges(
    starts: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``arange(starts[i], ends[i])`` for every i, vectorised.

    Returns ``(positions, local_starts)``: ``positions`` is the concatenation
    of all the ranges and ``local_starts[i]`` is the offset of range ``i``
    inside it (the ``reduceat`` boundaries for per-range reductions).
    """
    starts = np.asarray(starts, dtype=np.intp)
    ends = np.asarray(ends, dtype=np.intp)
    if starts.size == 0:
        return _EMPTY_INTP, _EMPTY_INTP
    lengths = ends - starts
    total = int(lengths.sum())
    local_starts = np.concatenate(
        ([0], np.cumsum(lengths)[:-1])
    ).astype(np.intp, copy=False)
    if total == 0:
        return _EMPTY_INTP, local_starts
    positions = np.arange(total, dtype=np.intp) + np.repeat(
        starts - local_starts, lengths
    )
    return positions, local_starts


def expand_segment_rows(
    segment_starts: np.ndarray, segment_rows: np.ndarray, total: int
) -> np.ndarray:
    """Per-monomial output-row array from a group's segment boundaries."""
    lengths = np.diff(np.append(segment_starts, total))
    return np.repeat(segment_rows, lengths)


class VariableIncidence:
    """CSR inverted index: variable column → monomial positions (+ exponents).

    Built from the ``(monomials × width)`` variable-index and exponent arrays
    of one compiled width-group; positions are ascending within each column.
    """

    __slots__ = ("ptr", "positions", "exponents")

    def __init__(
        self, ptr: np.ndarray, positions: np.ndarray, exponents: np.ndarray
    ) -> None:
        self.ptr = ptr
        self.positions = positions
        self.exponents = exponents

    @classmethod
    def from_factor_arrays(
        cls, num_variables: int, indices: np.ndarray, exponents: np.ndarray
    ) -> "VariableIncidence":
        """Invert a group's ``(monomials × width)`` factor arrays.

        Each row of ``indices`` must list *distinct* variable columns — the
        canonical-factor invariant of compiled monomials (a repeated
        variable is one factor with a higher exponent).  The delta kernels
        rely on it: one column's occurrence list is then a list of distinct
        monomials.
        """
        num_monomials, width = indices.shape
        columns = indices.ravel()
        rows = np.repeat(
            np.arange(num_monomials, dtype=np.intp), width
        )
        flat_exponents = np.asarray(exponents, dtype=np.float64).ravel()
        # A stable sort by column keeps positions ascending per column.
        order = np.argsort(columns, kind="stable")
        counts = np.bincount(columns, minlength=num_variables)
        ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        return cls(ptr, rows[order], flat_exponents[order])

    def rows_for(self, column: int) -> np.ndarray:
        """Ascending monomial positions whose monomial contains ``column``."""
        return self.positions[self.ptr[column] : self.ptr[column + 1]]

    def occurrences(
        self, columns: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All occurrences of ``columns``: positions, exponents, per-column counts.

        One vectorised gather for a whole changed-variable set — the shape the
        sparse kernels consume (``positions`` may repeat across columns).
        """
        columns = np.asarray(columns, dtype=np.intp)
        starts = self.ptr[columns]
        ends = self.ptr[columns + 1]
        flat, _ = ragged_ranges(starts, ends)
        return self.positions[flat], self.exponents[flat], ends - starts

    def rows_for_any(self, columns: np.ndarray) -> np.ndarray:
        """Sorted unique monomial positions touched by any of ``columns``."""
        columns = np.asarray(columns, dtype=np.intp)
        if columns.size == 1:
            # A variable occurs at most once per monomial, so one column's
            # positions are already distinct and ascending.
            return self.rows_for(int(columns[0]))
        positions, _exponents, _counts = self.occurrences(columns)
        if positions.size == 0:
            return _EMPTY_INTP
        positions = np.sort(positions)
        keep = np.empty(positions.size, dtype=np.bool_)
        keep[0] = True
        np.not_equal(positions[1:], positions[:-1], out=keep[1:])
        return positions[keep]


class ProvenanceIncidence:
    """Name-keyed incidence over a provenance set's canonical row order.

    Attributes
    ----------
    rows:
        The flattened monomials, ``(group_index, factors, coefficient)`` per
        row, in the deterministic order of
        :func:`~repro.provenance.statistics.enumerate_monomial_rows`.
    variable_rows:
        variable name → ascending ``int64`` row ids whose monomial contains
        the variable.
    """

    __slots__ = ("rows", "variable_rows")

    def __init__(self, provenance: ProvenanceSet) -> None:
        rows, variable_lists = enumerate_monomial_rows(provenance)
        self.rows: Sequence[MonomialRow] = rows
        self.variable_rows: Dict[str, np.ndarray] = {
            name: np.asarray(ids, dtype=np.int64)
            for name, ids in variable_lists.items()
        }

    def rows_for(self, name: str) -> np.ndarray:
        """Ascending row ids touching ``name`` (empty for unknown names)."""
        return self.variable_rows.get(name, np.zeros(0, dtype=np.int64))

    def num_rows(self) -> int:
        """Total number of monomial rows (the provenance size)."""
        return len(self.rows)

    def __repr__(self) -> str:
        return (
            f"ProvenanceIncidence(rows={len(self.rows)}, "
            f"variables={len(self.variable_rows)})"
        )


def _incidence_cache():
    # Imported lazily: valuation imports this module for the CSR helpers.
    from repro.provenance.valuation import FingerprintCache

    global _INCIDENCE_CACHE
    if _INCIDENCE_CACHE is None:
        _INCIDENCE_CACHE = FingerprintCache(
            capacity=8, metrics="incidence_cache"
        )
    return _INCIDENCE_CACHE


_INCIDENCE_CACHE = None


def provenance_incidence(provenance: ProvenanceSet) -> ProvenanceIncidence:
    """The (fingerprint-cached) name-keyed incidence of ``provenance``."""
    from repro.obs.tracer import trace

    def build() -> ProvenanceIncidence:
        with trace("incidence.build", monomials=provenance.size()):
            return ProvenanceIncidence(provenance)

    return _incidence_cache().get_or_build(provenance.fingerprint(), build)


def clear_provenance_incidence_cache() -> None:
    """Drop every cached incidence (they can hold large row arrays)."""
    if _INCIDENCE_CACHE is not None:
        _INCIDENCE_CACHE.clear()
