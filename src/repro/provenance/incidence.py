"""Incidence indexes and the id-encoded row view of provenance.

Sparse what-if evaluation, compression and renaming all hinge on the same
question: *which monomials does this variable touch, and how?*  This module
is the one place it is answered:

* :class:`VariableIncidence` — a column-indexed CSR inverted index over the
  flat ``(monomial, variable, exponent)`` factor arrays a compiled provenance
  set stores per width-group.  The sparse delta kernels
  of the numeric backends' compiled sets
  (:mod:`repro.provenance.backends.numeric`) use it to find the monomial rows a scenario's
  changed variables affect in O(occurrences), not O(monomials);
* :class:`ProvenanceIncidence` / :func:`provenance_incidence` — the rows of
  a provenance set (groups in key order, terms in canonical order) encoded
  as integer arrays over a sorted name table and a distinct-monomial table,
  cached by provenance fingerprint.  One flattening serves every whole-set
  rewrite: :meth:`ProvenanceIncidence.renamed` renames a set on it
  (``ProvenanceSet.rename``, hence ``apply_abstraction``), the single-tree
  DP counts its loads on it, :func:`~repro.provenance.statistics.describe_provenance`
  summarises it, and the compression kernel's
  :class:`~repro.core.kernel.index.MonomialIncidenceIndex` builds its
  per-tree-node CSR on its name-keyed view (:attr:`~ProvenanceIncidence.rows`,
  :attr:`~ProvenanceIncidence.variable_rows`);
* small array helpers (:func:`ragged_ranges`, :func:`sorted_unique`,
  :func:`unique_rows`, :func:`expand_segment_rows`) shared by the kernels.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import _ZERO_EPSILON, Polynomial, ProvenanceSet
from repro.provenance.variables import variable_name

#: One flattened monomial: (group index, canonical (variable, exponent)
#: factors, coefficient) — an entry of :attr:`ProvenanceIncidence.rows`.
MonomialRow = Tuple[int, Tuple[Tuple[str, int], ...], float]

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


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D array.

    ``np.unique`` without an inverse takes a hash-table path that is many
    times slower than one sort on wide-ranged integer keys.
    """
    values = np.sort(values)
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=np.bool_)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


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
        return sorted_unique(positions)


class ProvenanceIncidence:
    """An id-encoded view of a provenance set's monomial rows.

    Rows are the set's monomials flattened in canonical order: groups in key
    order, each group's terms in :meth:`Polynomial.terms` order.  A row is
    stored as integers over two tables, so whole-set rewrites (renaming,
    load counting) run as array operations:

    Attributes
    ----------
    names:
        The sorted variable-name table; variable ids index into it.
    monomials:
        The distinct monomials of the set, sorted; monomial ids index into
        it, so within a group ascending monomial ids are canonical order.
    monomial_variables / monomial_exponents:
        ``(len(monomials), width)`` factor matrices: each distinct
        monomial's variable ids (ascending) and exponents, padded with
        ``-1`` / ``0`` to the widest monomial.
    group_ids, monomial_ids, coefficients:
        Per row: the group's position in key order, the monomial id and the
        coefficient.
    insertion:
        Per row: the term's position in its polynomial's insertion order,
        the order in which :meth:`Polynomial.rename` folds coefficients.
    """

    __slots__ = (
        "keys",
        "names",
        "monomials",
        "monomial_variables",
        "monomial_exponents",
        "group_ids",
        "monomial_ids",
        "coefficients",
        "insertion",
        "_polynomials",
        "_rows",
        "_variable_rows",
    )

    def __init__(self, provenance: ProvenanceSet) -> None:
        self.keys: Tuple[Tuple, ...] = provenance.keys()
        self._polynomials: Tuple[Polynomial, ...] = provenance.polynomials()
        self._rows: Optional[List[MonomialRow]] = None
        self._variable_rows: Optional[Dict[str, np.ndarray]] = None

        # One pass over the terms in insertion order, numbering each
        # distinct monomial on first sight.
        first_seen: Dict[Monomial, int] = {}
        number = first_seen.setdefault
        seen_ids: List[int] = []
        coefficients: List[float] = []
        sizes: List[int] = []
        for polynomial in self._polynomials:
            terms = polynomial._terms
            seen_ids.extend([number(monomial, len(first_seen)) for monomial in terms])
            coefficients.extend(terms.values())
            sizes.append(len(terms))

        distinct = list(first_seen)
        factors = [monomial.factors for monomial in distinct]
        pairs = list(chain.from_iterable(factors))
        self.names: Tuple[str, ...] = tuple(sorted({name for name, _ in pairs}))
        name_ids = {name: i for i, name in enumerate(self.names)}
        variables, exponents = _padded(
            [name_ids[name] for name, _ in pairs],
            [exponent for _, exponent in pairs],
            [len(item) for item in factors],
        )
        # Monomials order by their (name, exponent) factor sequences, i.e.
        # lexicographically on the interleaved id/exponent columns, a
        # shorter monomial first (its -1 padding sorts below every id).
        interleaved = np.empty((len(distinct), 2 * variables.shape[1]), np.int64)
        interleaved[:, 0::2] = variables
        interleaved[:, 1::2] = exponents
        order = np.lexsort(interleaved.T[::-1]) if interleaved.size else (
            np.arange(len(distinct), dtype=np.intp)
        )
        rank = np.empty(len(distinct), dtype=np.intp)
        rank[order] = np.arange(len(distinct), dtype=np.intp)
        self.monomials: Tuple[Monomial, ...] = tuple(
            distinct[i] for i in order.tolist()
        )
        self.monomial_variables: np.ndarray = variables[order]
        self.monomial_exponents: np.ndarray = exponents[order]

        counts = np.asarray(sizes, dtype=np.intp)
        total = int(counts.sum())
        group_ids = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        starts = np.cumsum(counts) - counts
        monomial_ids = rank[np.asarray(seen_ids, dtype=np.intp)]
        # Canonical order: by group, then by (sorted) monomial id.
        canonical = np.lexsort((monomial_ids, group_ids))
        self.group_ids: np.ndarray = group_ids[canonical]
        self.monomial_ids: np.ndarray = monomial_ids[canonical]
        self.coefficients: np.ndarray = np.asarray(coefficients, dtype=np.float64)[
            canonical
        ]
        self.insertion: np.ndarray = (
            np.arange(total, dtype=np.intp) - np.repeat(starts, counts)
        )[canonical]

    # -- the name-keyed view (the greedy kernel's row store) -------------------

    @property
    def rows(self) -> Sequence[MonomialRow]:
        """``(group_index, factors, coefficient)`` per row (built on first use)."""
        if self._rows is None:
            factors = [monomial.factors for monomial in self.monomials]
            self._rows = [
                (group, factors[monomial], coefficient)
                for group, monomial, coefficient in zip(
                    self.group_ids.tolist(),
                    self.monomial_ids.tolist(),
                    self.coefficients.tolist(),
                )
            ]
        return self._rows

    @property
    def variable_rows(self) -> Dict[str, np.ndarray]:
        """variable name → ascending ``int64`` row ids whose monomial has it.

        Names appear in order of first occurrence along the rows.
        """
        if self._variable_rows is None:
            variables = self.monomial_variables[self.monomial_ids]
            present = variables >= 0
            ids = variables[present]
            row_of = np.nonzero(present)[0].astype(np.int64)
            # Row-major flattening keeps row ids ascending within each id.
            by_id = np.argsort(ids, kind="stable")
            counts = np.bincount(ids, minlength=len(self.names))
            bounds = np.concatenate(([0], np.cumsum(counts)))
            sorted_rows = row_of[by_id]
            first_rows = sorted_rows[bounds[:-1][counts > 0]]
            occurring = np.flatnonzero(counts)
            self._variable_rows = {
                self.names[i]: sorted_rows[bounds[i] : bounds[i + 1]]
                for i in occurring[np.argsort(first_rows, kind="stable")].tolist()
            }
        return self._variable_rows

    def rows_for(self, name: str) -> np.ndarray:
        """Ascending row ids touching ``name`` (empty for unknown names)."""
        return self.variable_rows.get(name, np.zeros(0, dtype=np.int64))

    def num_rows(self) -> int:
        """Total number of monomial rows (the provenance size)."""
        return int(self.group_ids.size)

    def describes(self, provenance: ProvenanceSet) -> bool:
        """Whether this view is exactly ``provenance``'s rows.

        Fingerprints round coefficients and ignore key and term order, so a
        cached view is checked before use: same keys in the same order, and
        per group the same polynomial object or the same terms, coefficient
        bit for bit, in the same insertion order.
        """
        if provenance.keys() != self.keys:
            return False
        return all(
            mine is theirs
            or list(mine._terms.items()) == list(theirs._terms.items())
            for mine, theirs in zip(self._polynomials, provenance.polynomials())
        )

    # -- renaming ----------------------------------------------------------------

    def renamed(self, mapping: Mapping[str, str]) -> ProvenanceSet:
        """The described set with its variables renamed through ``mapping``.

        Equal, term order included, to renaming every polynomial with
        :meth:`Polynomial.rename`: variables mapped to one name merge (their
        exponents add), monomials that coincide within a group merge with
        their coefficients summed left to right in insertion order, and sums
        with ``|c| <= _ZERO_EPSILON`` are dropped.  Every new name is
        validated once.
        """
        targets = self._target_names(mapping)
        if targets == list(self.names):
            return ProvenanceSet.trusted(
                dict(zip(self.keys, self._polynomials)), frozenset(self.names)
            )
        names = sorted(set(targets))
        new_id = {name: i for i, name in enumerate(names)}
        pad = len(names)
        # Old id -> new id; the extra last slot sends the -1 padding to pad.
        remap = np.array([new_id[t] for t in targets] + [pad], dtype=np.intp)
        variables, exponents = _merge_repeated(
            remap[self.monomial_variables], self.monomial_exponents, pad
        )
        distinct, renamed_of = unique_rows(
            np.concatenate([variables, exponents], axis=1)
        )

        # Segments of rows that coincide after renaming, each folded in
        # insertion order.
        row_monomials = renamed_of[self.monomial_ids]
        order = np.lexsort((self.insertion, row_monomials, self.group_ids))
        groups = self.group_ids[order]
        monomial_ids = row_monomials[order]
        first = np.ones(order.size, dtype=np.bool_)
        first[1:] = (groups[1:] != groups[:-1]) | (
            monomial_ids[1:] != monomial_ids[:-1]
        )
        starts = np.flatnonzero(first)
        sums = _fold_segments(self.coefficients[order], starts)
        keep = np.abs(sums) > _ZERO_EPSILON
        starts, sums = starts[keep], sums[keep]
        # Within a group, a merged term sits where its first member sat.
        emit = np.lexsort((self.insertion[order][starts], groups[starts]))
        group_of = groups[starts][emit]
        terms_monomials = monomial_ids[starts][emit]

        monomials = _materialise(distinct, terms_monomials, names, pad)

        coefficients_out = sums[emit].tolist()
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(group_of, minlength=len(self.keys))))
        ).tolist()
        polynomials = {
            key: Polynomial.trusted(
                dict(
                    zip(
                        monomials[bounds[g] : bounds[g + 1]],
                        coefficients_out[bounds[g] : bounds[g + 1]],
                    )
                )
            )
            for g, key in enumerate(self.keys)
        }
        used = sorted_unique(distinct[terms_monomials, : variables.shape[1]].ravel())
        return ProvenanceSet.trusted(
            polynomials, frozenset(names[i] for i in used.tolist() if i != pad)
        )

    def _target_names(self, mapping: Mapping[str, str]) -> List[str]:
        """Each variable's new name; names not already variables are validated."""
        known = set(self.names)
        resolved: Dict[object, str] = {}
        targets: List[str] = []
        for name in self.names:
            target = mapping.get(name, name)
            if target not in known:
                if target not in resolved:
                    resolved[target] = variable_name(target)
                target = resolved[target]
            targets.append(target)
        return targets

    def __repr__(self) -> str:
        return (
            f"ProvenanceIncidence(rows={self.num_rows()}, "
            f"variables={len(self.names)})"
        )


def _padded(
    flat_ids: List[int], flat_exponents: List[int], lengths: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(variable id, exponent)`` matrices of ragged factor rows.

    Row ``i`` holds the next ``lengths[i]`` entries of the flat lists,
    padded with ``-1`` / ``0`` to the widest row.
    """
    counts = np.asarray(lengths, dtype=np.intp)
    width = int(counts.max()) if counts.size else 0
    variables = np.full((counts.size, width), -1, dtype=np.intp)
    exponents = np.zeros((counts.size, width), dtype=np.int64)
    rows = np.repeat(np.arange(counts.size, dtype=np.intp), counts)
    columns = np.arange(rows.size, dtype=np.intp) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    variables[rows, columns] = flat_ids
    exponents[rows, columns] = flat_exponents
    return variables, exponents


def _merge_repeated(
    variables: np.ndarray, exponents: np.ndarray, pad: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Re-canonicalise factor rows: ids ascending, a repeated id merged once.

    ``variables`` hold ids with ``pad`` (larger than every id) as padding; a
    run of equal ids collapses into its first entry with the exponents
    added, and the padding moves to the end of the row.
    """
    exponents = np.take_along_axis(
        exponents, np.argsort(variables, axis=1, kind="stable"), axis=1
    )
    variables = np.sort(variables, axis=1, kind="stable")
    merged = False
    for column in range(variables.shape[1] - 1, 0, -1):
        repeat = (variables[:, column] == variables[:, column - 1]) & (
            variables[:, column] != pad
        )
        if repeat.any():
            merged = True
            exponents[repeat, column - 1] += exponents[repeat, column]
            variables[repeat, column] = pad
            exponents[repeat, column] = 0
    if merged:
        order = np.argsort(variables, axis=1, kind="stable")
        variables = np.take_along_axis(variables, order, axis=1)
        exponents = np.take_along_axis(exponents, order, axis=1)
    return variables, exponents


def unique_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(distinct rows, inverse)`` of an integer matrix, rows in lex order.

    A non-negative matrix whose column ranges fit a mixed-radix ``int64``
    code is deduplicated as one code per row, several times faster than
    ``np.unique(axis=0)``; anything else takes the general path.
    """
    rows, columns = matrix.shape
    if columns == 0:
        distinct = np.zeros((min(rows, 1), 0), dtype=matrix.dtype)
        return distinct, np.zeros(rows, dtype=np.intp)
    if rows and int(matrix.min()) >= 0:
        radices = (matrix.max(axis=0).astype(np.int64) + 1).tolist()
        if math.prod(radices) < 2**63:
            codes = np.zeros(rows, dtype=np.int64)
            for column, radix in zip(matrix.T, radices):
                codes = codes * radix + column
            distinct_codes, inverse = np.unique(codes, return_inverse=True)
            distinct = np.empty((distinct_codes.size, columns), dtype=matrix.dtype)
            for index in range(columns - 1, -1, -1):
                distinct_codes, distinct[:, index] = np.divmod(
                    distinct_codes, radices[index]
                )
            return distinct, inverse.reshape(-1)
    distinct, inverse = np.unique(matrix, axis=0, return_inverse=True)
    return distinct, inverse.reshape(-1)


def _materialise(
    distinct: np.ndarray, wanted: np.ndarray, names: Sequence[str], pad: int
) -> List[Monomial]:
    """Trusted monomials for the ``wanted`` rows of ``distinct``.

    ``distinct`` rows are canonical ``[variable ids | exponents]`` factor
    rows padded with ``pad``.  Each distinct monomial is built once, from
    shared ``(name, exponent)`` pairs, to keep the allocation count low.
    """
    used, positions = np.unique(wanted, return_inverse=True)
    width = distinct.shape[1] // 2
    variables = distinct[used, :width]
    exponents = distinct[used, width:]
    distinct_pairs, pair_of = unique_rows(
        np.stack([variables.ravel(), exponents.ravel()], axis=1)
    )
    pairs = [
        (names[variable], exponent) if variable != pad else None
        for variable, exponent in distinct_pairs.tolist()
    ]
    built = [
        Monomial.trusted(tuple([pairs[i] for i in row[:length]]))
        for row, length in zip(
            pair_of.reshape(variables.shape).tolist(),
            (variables != pad).sum(axis=1).tolist(),
        )
    ]
    return [built[i] for i in positions.reshape(-1).tolist()]


def _fold_segments(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Left-to-right float sums of ``values`` over segments starting at ``starts``.

    Each segment is summed strictly in order — ``((v0 + v1) + v2) + …`` —
    the way a Python loop accumulates, which ``np.add.reduceat`` (pairwise
    summation) does not guarantee.
    """
    if starts.size == 0:
        return np.zeros(0, dtype=np.float64)
    lengths = np.diff(np.append(starts, values.size))
    sums = values[starts].copy()
    active = np.flatnonzero(lengths > 1)
    offset = 1
    while active.size:
        sums[active] += values[starts[active] + offset]
        offset += 1
        active = active[lengths[active] > offset]
    return sums


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
    """The (fingerprint-cached) incidence of ``provenance``.

    A cached view is reused only if it :meth:`~ProvenanceIncidence.describes`
    ``provenance`` exactly; otherwise it is rebuilt and replaces the entry.
    """
    from repro.obs.tracer import trace

    cache = _incidence_cache()
    key = provenance.fingerprint()
    incidence = cache.get(key)
    if incidence is None or not incidence.describes(provenance):
        with trace("incidence.build", monomials=provenance.size()):
            incidence = ProvenanceIncidence(provenance)
        cache.put(key, incidence)
    return incidence


def clear_provenance_incidence_cache() -> None:
    """Drop every cached incidence (they can hold large row arrays)."""
    if _INCIDENCE_CACHE is not None:
        _INCIDENCE_CACHE.clear()
