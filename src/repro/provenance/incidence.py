"""Incidence indexes and the id-encoded row view of provenance.

Sparse what-if evaluation, compression and renaming all hinge on the same
question: *which monomials does this variable touch, and how?*  This module
is the one place it is answered:

* :class:`VariableIncidence` — a column-indexed CSR inverted index over the
  flat ``(monomial, variable, exponent)`` factor arrays a compiled provenance
  set stores per width-group.  The segment delta kernel of the tropical and
  bool compiled sets (:mod:`repro.provenance.backends.numeric`) expands a
  whole batch's changed cells through it in one pass, in O(occurrences)
  rather than O(monomials), to find the segments to re-reduce and the
  factors to patch;
* :class:`RowDeltaIndex` — the real compiled set's delta index, built from
  the same factor arrays: each column's distinct ``(row, exponent)``
  entries, the entry of every factor, and per width-group a
  :class:`PairIncidence` from column pairs to the monomials holding both.
  The real kernel updates one entry per changed variable and row, and
  fixes up only the monomials two changed variables share;
* :class:`ProvenanceIncidence` — the rows of a provenance set (groups in
  key order, terms in canonical order) encoded as integer arrays over a
  sorted name table and a distinct-monomial table, built once per set and
  kept on it (:meth:`ProvenanceSet.incidence`, dropped when the set is
  mutated).  It is the set's one array encoding:
  :meth:`ProvenanceIncidence.renamed` renames a set on it
  (``ProvenanceSet.rename``, hence ``apply_abstraction``), the numeric
  backends compile their width-groups from it, the single-tree DP counts
  its loads on it, :func:`~repro.provenance.statistics.describe_provenance`
  summarises it (through :attr:`~ProvenanceIncidence.variable_rows`), and
  the greedy kernel (:mod:`repro.core.kernel.greedy`) keeps its rows and
  signatures on its id-encoded rows;
* small array helpers (:func:`ragged_ranges`, :func:`sorted_unique`,
  :func:`unique_rows`, :func:`expand_segment_rows`) shared by the kernels,
  and the one segment fold: :func:`position_major` lays segments out
  position by position and :func:`fold_positions` folds them, for the
  coefficient sums of renames and greedy merges and the dense min/or
  kernel alike.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import _ZERO_EPSILON, Polynomial, ProvenanceSet
from repro.provenance.variables import variable_name

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


def position_major(
    starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Lay segments out position by position, longest first.

    Segment ``i`` covers ``starts[i] : starts[i] + lengths[i]`` (every
    length at least 1).  Returns ``(order, positions, counts)`` for
    :func:`fold_positions`:

    * ``order`` ranks the segments longest first, ties in segment order;
    * ``counts[k]`` is the number of segments longer than ``k``, so the
      segments holding a position ``k`` are the first ``counts[k]`` of
      ``order``;
    * ``positions`` lists element ``starts[s] + k`` of those segments, for
      ``k = 0, 1, …`` in turn (position 0 of every segment first).
    """
    order = np.argsort(-lengths, kind="stable")
    firsts = starts[order]
    # Segments at least L long, for L = 0 … max length; drop L = 0.
    counts = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:].tolist()
    positions = np.empty(sum(counts), dtype=np.intp)
    offset = 0
    for k, count in enumerate(counts):
        np.add(firsts[:count], k, out=positions[offset : offset + count])
        offset += count
    return order, positions, counts


def fold_positions(
    values: np.ndarray, counts: Sequence[int], fold: np.ufunc
) -> np.ndarray:
    """Fold each segment of position-major ``values`` along axis 0, in place.

    ``values`` holds the elements :func:`position_major` lists (rows of a
    2-D block, or scalars), and ``counts`` is its ``counts``.  The first
    ``counts[0]`` entries start as every segment's first element; position
    ``k`` of the ``counts[k]`` segments holding one is then folded into
    that prefix with one ``fold`` call, the running value first.  So each
    segment folds left to right, ``((v₀ ∘ v₁) ∘ v₂) ∘ …``, exactly as a
    Python loop does, and the loop allocates nothing.  Returns the view of
    the results, one per segment in ``order``.

    For ``np.minimum`` and ``np.logical_or`` the values equal
    ``reduceat``'s.  The bytes may not: NumPy's min reduction does not
    fold more than 8 elements strictly left to right (NumPy 2.4), so on a
    tie of ``0.0`` and ``-0.0`` in a longer segment the sign of the zero
    minimum may differ.
    """
    head = counts[0] if counts else 0
    offset = head
    for count in counts[1:]:
        fold(values[:count], values[offset : offset + count], out=values[:count])
        offset += count
    return values[:head]


def expand_segment_rows(
    segment_starts: np.ndarray, segment_rows: np.ndarray, total: int
) -> np.ndarray:
    """Per-monomial output-row array from a group's segment boundaries."""
    lengths = np.diff(np.append(segment_starts, total))
    return np.repeat(segment_rows, lengths)


class VariableIncidence:
    """CSR inverted index: variable column → monomial positions (+ exponents).

    Built from the ``(monomials × width)`` variable-index and exponent arrays
    of one compiled width-group; positions are ascending within each column,
    and ``slots`` gives the factor slot (column of the index array) each
    occurrence sits in.
    """

    __slots__ = ("ptr", "positions", "slots", "exponents")

    def __init__(
        self,
        ptr: np.ndarray,
        positions: np.ndarray,
        slots: np.ndarray,
        exponents: np.ndarray,
    ) -> None:
        self.ptr = ptr
        self.positions = positions
        self.slots = slots
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
        width = indices.shape[1]
        columns = indices.ravel()
        flat_exponents = np.asarray(exponents, dtype=np.float64).ravel()
        # A stable sort by column keeps positions ascending per column.
        order = np.argsort(columns, kind="stable")
        positions, slots = np.divmod(order, width)
        counts = np.bincount(columns, minlength=num_variables)
        ptr = np.concatenate(([0], np.cumsum(counts))).astype(np.intp)
        return cls(ptr, positions, slots, flat_exponents[order])

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


class PairIncidence:
    """CSR from column pairs to the monomials of one width-group holding both.

    A pair ``a < b`` is keyed by the ``int64`` code ``a * variables + b``;
    :attr:`codes` lists the distinct pairs ascending and
    ``monomials[ptr[i]:ptr[i + 1]]`` the ascending positions of the
    monomials that contain pair ``i``.
    """

    __slots__ = ("codes", "ptr", "monomials")

    def __init__(
        self, codes: np.ndarray, ptr: np.ndarray, monomials: np.ndarray
    ) -> None:
        self.codes = codes
        self.ptr = ptr
        self.monomials = monomials

    @classmethod
    def from_factor_arrays(
        cls, num_variables: int, indices: np.ndarray
    ) -> "PairIncidence":
        """Index every column pair of a ``(monomials × width)`` factor array."""
        num_monomials, width = indices.shape
        first, second = np.triu_indices(width, k=1)
        left = indices[:, first].astype(np.int64)
        right = indices[:, second].astype(np.int64)
        codes = (
            np.minimum(left, right) * num_variables + np.maximum(left, right)
        ).ravel()
        monomials = np.repeat(np.arange(num_monomials, dtype=np.int64), first.size)
        # Pairs ascending, monomials ascending within each pair: one sort of
        # combined (pair, monomial) keys where they fit an int64, else a
        # stable argsort.
        span = max(1, num_monomials)
        if num_variables * num_variables * span < 2**62:
            codes, monomials = np.divmod(np.sort(codes * span + monomials), span)
        else:
            order = np.argsort(codes, kind="stable")
            codes, monomials = codes[order], monomials[order]
        leading = np.ones(codes.size, dtype=np.bool_)
        np.not_equal(codes[1:], codes[:-1], out=leading[1:])
        starts = np.flatnonzero(leading)
        ptr = np.append(starts, codes.size).astype(np.intp)
        return cls(codes[starts], ptr, monomials.astype(np.intp))

    def lookup(self, pair_codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(query, monomial)`` for every monomial holding a queried pair.

        ``query`` indexes ``pair_codes``; a pair no monomial holds yields
        nothing.
        """
        if self.codes.size == 0 or pair_codes.size == 0:
            return _EMPTY_INTP, _EMPTY_INTP
        found = np.minimum(
            np.searchsorted(self.codes, pair_codes), self.codes.size - 1
        )
        hit = np.flatnonzero(self.codes[found] == pair_codes)
        starts = self.ptr[found[hit]]
        ends = self.ptr[found[hit] + 1]
        positions, _ = ragged_ranges(starts, ends)
        return np.repeat(hit, ends - starts), self.monomials[positions]


class RowDeltaIndex:
    """The real semiring's sparse delta index over a set's width-groups.

    Built from the compiled factor arrays (one ``(indices, exponents,
    rows)`` triple per width-group, monomials sorted by result row):

    * **entries** — the distinct ``(column, row, exponent)`` triples of
      all factors, CSR by column (:attr:`entry_ptr`, :attr:`entry_rows`,
      :attr:`entry_exponents`), and :attr:`factor_entries`, each factor's
      entry (groups concatenated, factors row-major).  Summing a baseline's
      monomial contributions per entry gives ``S[v, e, k]``, so changing
      ``v`` by ratio ``r`` moves row ``k`` by ``Σ_e (r^e − 1)·S[v, e, k]``
      — one update per entry, not per monomial;
    * **pairs** — per width-group, a :class:`PairIncidence` (``None`` for
      width 1), which finds the monomials two changed columns share: only
      those need an exact higher-order fix-up;
    * :attr:`monomial_rows` — per width-group, each monomial's result row.
    """

    __slots__ = (
        "entry_ptr",
        "entry_rows",
        "entry_exponents",
        "factor_entries",
        "has_higher_powers",
        "pairs",
        "monomial_rows",
    )

    def __init__(
        self,
        entry_ptr: np.ndarray,
        entry_rows: np.ndarray,
        entry_exponents: np.ndarray,
        factor_entries: np.ndarray,
        pairs: Tuple[Optional[PairIncidence], ...],
        monomial_rows: Tuple[np.ndarray, ...],
    ) -> None:
        self.entry_ptr = entry_ptr
        self.entry_rows = entry_rows
        self.entry_exponents = entry_exponents
        self.factor_entries = factor_entries
        self.has_higher_powers = bool(np.any(entry_exponents != 1.0))
        self.pairs = pairs
        self.monomial_rows = monomial_rows

    @classmethod
    def from_groups(
        cls,
        num_variables: int,
        num_rows: int,
        groups: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ) -> "RowDeltaIndex":
        """Index ``(indices, exponents, monomial rows)`` width-groups.

        Factor rows must list distinct columns (the canonical-factor
        invariant of compiled monomials).
        """
        num_rows = max(1, num_rows)
        factor_columns = np.concatenate(
            [indices.ravel() for indices, _, _ in groups] + [_EMPTY_INTP]
        ).astype(np.int64)
        factor_rows = np.concatenate(
            [np.repeat(rows, indices.shape[1]) for indices, _, rows in groups]
            + [_EMPTY_INTP]
        ).astype(np.int64)
        factor_exponents = np.concatenate(
            [exponents.ravel() for _, exponents, _ in groups] + [_EMPTY_F64]
        )
        distinct_exponents = sorted_unique(factor_exponents)
        radix = max(1, distinct_exponents.size)
        codes = (factor_columns * num_rows + factor_rows) * radix + np.searchsorted(
            distinct_exponents, factor_exponents
        )
        entry_codes = sorted_unique(codes)
        if entry_codes.size and entry_codes[-1] < 8 * codes.size + 4096:
            # Codes span a small range: a lookup table beats a binary
            # search per factor several times over.
            lookup = np.zeros(int(entry_codes[-1]) + 1, dtype=np.intp)
            lookup[entry_codes] = np.arange(entry_codes.size, dtype=np.intp)
            factor_entries = lookup[codes]
        else:
            factor_entries = np.searchsorted(entry_codes, codes)
        entry_exponents = distinct_exponents[entry_codes % radix]
        entry_rows = (entry_codes // radix) % num_rows
        entry_columns = entry_codes // (radix * num_rows)
        entry_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(entry_columns, minlength=num_variables)))
        ).astype(np.intp)
        pairs = tuple(
            PairIncidence.from_factor_arrays(num_variables, indices)
            if indices.shape[1] > 1
            else None
            for indices, _, _ in groups
        )
        return cls(
            entry_ptr,
            entry_rows.astype(np.intp, copy=False),
            entry_exponents,
            factor_entries.astype(np.intp, copy=False),
            pairs,
            tuple(np.asarray(rows, dtype=np.intp) for _, _, rows in groups),
        )

    def sizes(self) -> Dict[str, int]:
        """Entry, pair and pair-monomial counts (trace attributes)."""
        present = [pairs for pairs in self.pairs if pairs is not None]
        return {
            "factors": int(self.factor_entries.size),
            "entries": int(self.entry_rows.size),
            "pairs": sum(int(pairs.codes.size) for pairs in present),
            "pair_monomials": sum(int(pairs.monomials.size) for pairs in present),
        }


class ProvenanceIncidence:
    """An id-encoded view of a provenance set's monomial rows.

    Rows are the set's monomials flattened in canonical order: groups in key
    order, each group's terms in :meth:`Polynomial.terms` order.  A row is
    stored as integers over two tables, so whole-set rewrites (renaming,
    load counting, compiling) run as array operations.  Obtain it through
    :meth:`ProvenanceSet.incidence`, which builds it once per set:

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
        "_variable_rows",
    )

    def __init__(self, provenance: ProvenanceSet) -> None:
        self.keys: Tuple[Tuple, ...] = provenance.keys()
        self._polynomials: Tuple[Polynomial, ...] = provenance.polynomials()
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

    # -- the name-keyed view ------------------------------------------------------

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
    summation) does not guarantee.  The 1-D ``np.add`` case of
    :func:`fold_positions`, with the sums put back in segment order.
    """
    order, positions, counts = position_major(
        starts, np.diff(np.append(starts, values.size))
    )
    sums = np.empty(starts.size, dtype=np.float64)
    sums[order] = fold_positions(values[positions], counts, np.add)
    return sums
