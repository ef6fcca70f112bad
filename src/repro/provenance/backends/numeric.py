"""Numpy-backed backends for numeric semirings.

Three backends share one compiled-set implementation,
:class:`_CompiledNumericSet` (monomials grouped by factor count, sorted by
result row, per-row totals via ``*.reduceat``), built by slicing the
provenance set's id-encoded incidence rows
(:class:`~repro.provenance.incidence.ProvenanceIncidence`) with no
per-monomial Python loop; each subclass supplies only the algebra hooks:

* :class:`RealBackend` — the counting semiring ``(R, +, *)``, compiled to
  :class:`CompiledProvenanceSet`: a monomial contributes ``c · ∏ x^e`` and
  rows sum (``np.add.reduceat``);
* :class:`TropicalBackend` — min-plus: a monomial's contribution is its
  coefficient (a fixed cost) plus the exponent-weighted sum of its variables'
  costs, and per-row totals are segmented minima (``np.minimum.reduceat``);
* :class:`BooleanBackend` — or-and on packed boolean arrays: a monomial
  contributes ``True`` iff all of its variables are truthy, and per-row
  totals are segmented disjunctions (``np.logical_or.reduceat``).

All three consume the same ``scenarios × variables`` float matrices the
batch planner produces (the Boolean backend thresholds them at non-zero), so
the chunked matrix pipeline works for every numeric semiring.
The dense kernel is monomial-major: it gathers one factor column at a time
from the transposed matrix into a ``monomials × rows`` buffer, folds it in
place, reduces segments along axis 0 and folds them into key-major totals,
in segment-aligned blocks of about :data:`_DELTA_BLOCK_CELLS` cells.  Every
kernel combines a monomial's factors through one left-to-right fold,
:func:`_fold_columns`, so dense and sparse results share one accumulation
order.
Sparse scenarios have two delta kernels, each one batched pass over a whole
:class:`~repro.batch.planner.DeltaPlan`.  The base class re-reduces the
affected segments (min and or are not invertible): it expands every changed
cell through the group's inverted index, gathers the hit segments'
monomials once, patches the changed factors in place and folds the
reductions with the baseline ones of the unhit segments, in blocks of
scenarios bounded by :data:`_DELTA_BLOCK_CELLS` recomputed factor cells.
The real semiring, whose ``+`` is invertible, aggregates: per baseline it
sums monomial contributions per (variable, row, exponent) entry, so a
changed variable moves a row with one update per entry, and only monomials
holding two changed variables of one scenario get an exact fix-up
(:class:`~repro.provenance.incidence.RowDeltaIndex`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import MissingValuationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_span, trace
from repro.provenance.backends.base import (
    CompiledSemiringSet,
    SemiringBackend,
)
from repro.provenance.incidence import (
    RowDeltaIndex,
    VariableIncidence,
    expand_segment_rows,
    ragged_ranges,
    sorted_unique,
)
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.semiring import (
    BooleanSemiring,
    CountingSemiring,
    Semiring,
    TropicalSemiring,
)

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.batch.planner import DeltaPlan

#: Distinct baselines whose delta state a compiled set keeps, LRU-evicted.
#: Two is the working set of a factored batch (original baseline for the
#: report, factored baseline for the residual deltas); a little headroom
#: covers interleaved sweeps.
_DELTA_BASELINE_SLOTS = 4

#: Factor cells one block of a kernel gathers before the next block starts:
#: a block of scenarios in the segment delta kernel, a segment-aligned
#: block of monomials (times the rows) in the dense kernel.  Each of a
#: block's gather, patch and contribution temporaries holds about this many
#: cells (512 KiB of float64 here), so the bound keeps them cache-sized.
#: Measured on routing provenance of 4,800–50,000 monomials: in the dense
#: kernel (24–384 rows) 2^16 was fastest, 5–30% ahead of 2^17 and up to 2x
#: ahead of one unbounded pass; in the delta kernel (64 outages of 1–20
#: trunks) 2^16 and 2^17 were within a few percent of each other.
_DELTA_BLOCK_CELLS = 1 << 16

#: One group's sparse delta index: ``(inverted variable→monomial index,
#: per-segment end offsets, the segment of each index entry's monomial)``.
_DeltaGroup = Tuple[VariableIncidence, np.ndarray, np.ndarray]

#: The segment kernel's delta index: per-group indexes, and per column an
#: upper bound on the factor cells one change of it recomputes.
_DeltaIndex = Tuple[Tuple[_DeltaGroup, ...], np.ndarray]

#: One cached delta-state entry: ``(key, base_vector, per-group monomial
#: contributions, kernel reductions, totals)``.  The kernel reductions are
#: per-group segment reductions for the segment kernel and the per-entry
#: sums ``S`` for the real one (:meth:`_CompiledNumericSet._baseline_reductions`).
_DeltaState = Tuple[
    bytes, np.ndarray, Tuple[np.ndarray, ...], Tuple[np.ndarray, ...], np.ndarray
]


class _SegmentGroup:
    """One width-group of monomials, row-sorted for segmented reductions.

    All monomials with the same number of factors live in one group, sorted
    by result row so per-row totals are a contiguous segmented reduction
    (``*.reduceat``) instead of a scattered ``ufunc.at``.
    """

    __slots__ = (
        "coefficients",
        "indices",
        "exponents",
        "segment_starts",
        "segment_rows",
        "has_higher_powers",
    )

    def __init__(
        self,
        rows: np.ndarray,
        coefficients: np.ndarray,
        indices: np.ndarray,
        exponents: np.ndarray,
    ) -> None:
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        self.coefficients: np.ndarray = coefficients[order]
        self.indices: np.ndarray = indices[order]
        self.exponents: np.ndarray = exponents[order]
        boundaries = np.flatnonzero(np.diff(rows)) + 1
        self.segment_starts: np.ndarray = np.concatenate(([0], boundaries))
        self.segment_rows: np.ndarray = rows[self.segment_starts]
        self.has_higher_powers: bool = bool(np.any(self.exponents != 1.0))


class _CompiledNumericSet(CompiledSemiringSet):
    """A :class:`ProvenanceSet` compiled for fast repeated assignment.

    All polynomials share one variable index; the monomials are sliced out
    of the set's id-encoded incidence rows (:meth:`ProvenanceSet.incidence`)
    into flat numpy arrays (coefficient vector, variable-index matrix,
    exponent matrix) grouped by factor count and sorted by result row; unit
    monomials become per-row constants.  Evaluating the
    whole set under one valuation — or a whole ``scenarios × variables``
    matrix of valuations (:meth:`evaluate_matrix`) — is a handful of
    vectorised operations with no per-monomial Python loop.  Subclasses fix
    the algebra through a few hooks (unit-monomial constant, per-monomial
    contribution, segmented reduction, row accumulation).
    """

    supports_deltas = True

    #: The semiring backend this compiled form belongs to (the name stamped
    #: into compiled stores; see :mod:`repro.provenance.store`).
    backend_name: str = ""

    __slots__ = (
        "_keys",
        "_variables",
        "_index",
        "_constant",
        "_groups",
        "_delta_index",
        "_delta_baseline",
        "_fingerprint",
        "_store_path",
    )

    #: The additive identity of the semiring (fills rows with no monomials).
    _identity: float = 0.0

    def __init__(self, provenance: ProvenanceSet) -> None:
        self._init_delta_caches()
        self._fingerprint: Optional[str] = provenance.fingerprint()
        self._store_path: Optional[str] = None
        # The incidence rows are in canonical order (groups in key order,
        # terms in ``Polynomial.terms()`` order) with variable ids over the
        # sorted name table, so each width-group below is a row-sorted
        # slice of them, variable ids ascending within a monomial.
        incidence = provenance.incidence()
        self._keys: Tuple[Tuple, ...] = incidence.keys
        self._variables: Tuple[str, ...] = incidence.names
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self._variables)
        }
        variables = incidence.monomial_variables[incidence.monomial_ids]
        exponents = incidence.monomial_exponents[incidence.monomial_ids]
        widths = np.count_nonzero(variables >= 0, axis=1)

        # A normalised polynomial has at most one unit monomial.
        self._constant = np.full(len(self._keys), self._identity, dtype=np.float64)
        units = widths == 0
        self._constant[incidence.group_ids[units]] = self._constant_values(
            incidence.coefficients[units]
        )
        self._groups: List[_SegmentGroup] = []
        for width in sorted_unique(widths[~units]).tolist():
            rows = np.flatnonzero(widths == width)
            self._groups.append(
                _SegmentGroup(
                    incidence.group_ids[rows],
                    incidence.coefficients[rows],
                    variables[rows, :width],
                    exponents[rows, :width].astype(np.float64),
                )
            )

    def _init_delta_caches(self) -> None:
        """Reset the lazily built delta index and the baseline LRU."""
        self._delta_index: Optional[_DeltaIndex] = None
        self._delta_baseline: List[_DeltaState] = []

    # -- the algebra hooks ---------------------------------------------------

    #: How a monomial combines its factor terms, folded left to right by
    #: :func:`_fold_columns`: ``*`` (real), ``+`` (tropical), ``and`` (bool).
    _fold: ClassVar[np.ufunc]

    #: The dtype of factor terms, contributions and segment reductions:
    #: float64, except bool's ``np.bool_`` (its totals stay 0.0/1.0 floats).
    _term_dtype: ClassVar[type] = np.float64

    #: Whether :meth:`_factor_term` raises values to their exponents with
    #: ``np.power`` (real).  NumPy picks its ``power`` loop by layout: a
    #: stride-0 exponent of 2.0 takes an exact squaring fast path, and a
    #: one-element call whose output is its input takes the scalar libm
    #: ``pow``; either may round the last bit apart from the vector loop.
    #: Such terms therefore get a full exponent array and an output apart
    #: from their values, so a term does not depend on the block, the row
    #: count or the kernel that computed it.
    _powers: ClassVar[bool] = False

    def _constant_values(self, coefficients: np.ndarray) -> np.ndarray:
        """Row constants of unit monomials with these ``coefficients``.

        The identity folded with each coefficient: ``0 + c`` for the real
        semiring, ``min(∞, c)`` for the tropical one.
        """
        return coefficients

    def _factor_term(
        self,
        group: _SegmentGroup,
        values: np.ndarray,
        exponents: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """One factor's term of its gathered float ``values``, returned.

        ``exponents`` broadcasts against ``values`` (with :attr:`_powers`
        and higher powers it has their full shape).  A float64 term is
        computed in place over ``values``, or written to ``out`` when
        :attr:`_powers` raises it (``out`` then never aliases ``values``);
        a term of another :attr:`_term_dtype` is written to ``out``.
        Either way, ``values`` is scratch.
        """
        raise NotImplementedError

    def _finish(self, contributions: np.ndarray, coefficients: np.ndarray) -> None:
        """Fold the monomials' ``coefficients`` into their folded factors,
        in place (``coefficients`` broadcasts against ``contributions``)."""
        raise NotImplementedError

    def _contributions(self, group: _SegmentGroup, values: np.ndarray) -> np.ndarray:
        """Per-monomial contributions under one value vector."""
        return self._gathered_contributions(
            group, values[group.indices], slice(None)
        )

    def _gathered_contributions(
        self,
        group: _SegmentGroup,
        gathered: np.ndarray,
        positions: Union[np.ndarray, slice],
    ) -> np.ndarray:
        """Contributions of the monomials at ``positions`` of ``group``.

        ``gathered[i, k]`` is the value of factor ``k`` of monomial
        ``positions[i]`` (``n × width``, already gathered).  It is scratch:
        each column becomes its factor's term, and the terms are folded
        left to right (:func:`_fold_columns`), as the dense kernel folds
        them.
        """
        exponents = group.exponents[positions]
        contributions = np.empty(gathered.shape[0], dtype=self._term_dtype)
        terms = np.empty_like(contributions)
        _fold_columns(
            (
                self._factor_term(
                    group,
                    gathered[:, k],
                    exponents[:, k],
                    contributions if k == 0 else terms,
                )
                for k in range(gathered.shape[1])
            ),
            self._fold,
            contributions,
        )
        self._finish(contributions, group.coefficients[positions])
        return contributions

    def _reduce(self, contributions: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Segment reductions along axis 0 of ``contributions``."""
        raise NotImplementedError

    def _fold_rows(
        self, totals: np.ndarray, rows: np.ndarray, segments: np.ndarray
    ) -> None:
        """Fold per-segment values into totals (rows unique, along axis 0:
        a totals vector, or the dense kernel's key-major totals)."""
        raise NotImplementedError

    # -- the CompiledSemiringSet surface --------------------------------------

    @property
    def keys(self) -> Tuple[Tuple, ...]:
        """The result keys, in the order of the rows :meth:`evaluate` returns."""
        return self._keys

    @property
    def variables(self) -> Tuple[str, ...]:
        """All variables of the compiled set, sorted."""
        return self._variables

    def size(self) -> int:
        """Total number of monomials (the provenance size).

        A normalised polynomial has at most one unit monomial, so every
        constant slot that differs from the identity is exactly one.
        """
        constants = int(np.count_nonzero(self._constant != self._identity))
        return constants + sum(len(g.coefficients) for g in self._groups)

    @property
    def source_fingerprint(self) -> Optional[str]:
        """The fingerprint of the provenance set this was compiled from."""
        return self._fingerprint

    @property
    def store_path(self) -> Optional[str]:
        """The compiled store backing this set's arrays (``None`` if in-memory).

        Set only by :func:`repro.provenance.store.open_store` — batch layers
        use it to ship a path (not a pickle) to worker processes.
        """
        return self._store_path

    def to_store(self, path: str) -> str:
        """Persist this compiled set as a mmap-able store file at ``path``.

        See :func:`repro.provenance.store.write_store`; the set itself keeps
        its in-memory arrays (reopen via :meth:`from_store` for mapped ones).
        """
        from repro.provenance.store import write_store

        return write_store(self, path)

    @classmethod
    def from_store(cls, path: str) -> "_CompiledNumericSet":
        """Open the compiled store at ``path`` as an instance of this class.

        Raises :class:`~repro.exceptions.SerializationError` if the store
        was written by a different backend.
        """
        from repro.exceptions import SerializationError
        from repro.provenance.store import open_store

        compiled = open_store(path)
        if not isinstance(compiled, cls):
            raise SerializationError(
                f"{path}: store holds a {compiled.backend_name!r} compiled "
                f"set, not {cls.backend_name!r}"
            )
        return compiled

    def variable_index(self) -> Dict[str, int]:
        """A copy of the variable → column index shared by every polynomial."""
        return dict(self._index)

    def values_vector(self, valuation: Mapping[str, Any]) -> np.ndarray:
        """Lower a valuation to a value vector in this set's variable order."""
        missing = [name for name in self._variables if name not in valuation]
        if missing:
            raise MissingValuationError(missing)
        return np.array(
            [float(valuation[name]) for name in self._variables], dtype=np.float64
        )

    def evaluate(self, valuation: Mapping[str, Any]) -> Dict[Tuple, Any]:
        """Evaluate every polynomial, returning key → semiring value."""
        totals = self._evaluate_values(self.values_vector(valuation))
        return {key: self._to_python(totals[i]) for i, key in enumerate(self._keys)}

    def _to_python(self, value: np.floating) -> Any:
        return float(value)

    def evaluate_vector(self, valuation: Mapping[str, Any]) -> np.ndarray:
        """Like :meth:`evaluate` but returning a bare numpy vector (fast path)."""
        return self._evaluate_values(self.values_vector(valuation))

    def _evaluate_values(self, values: np.ndarray) -> np.ndarray:
        totals = self._constant.copy()
        for group in self._groups:
            segments = self._reduce(
                self._contributions(group, values), group.segment_starts
            )
            self._fold_rows(totals, group.segment_rows, segments)
        return totals

    def evaluate_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Evaluate a whole ``scenarios × variables`` matrix of valuations.

        ``matrix`` must have one column per variable of :attr:`variables`, in
        that order (build it with :meth:`values_vector` rows or via
        :class:`repro.batch.ScenarioBatch`).  Returns a
        ``scenarios × groups`` array whose columns follow :attr:`keys`.

        Monomial-major: the matrix is transposed once, each group is
        evaluated in segment-aligned blocks of monomials
        (:meth:`_dense_pass`) whose ``monomials × rows`` buffers hold about
        :data:`_DELTA_BLOCK_CELLS` cells, and per-segment values fold into
        ``keys × rows`` totals.  No temporary grows with the monomial
        width.  Each monomial folds its factors left to right, as the
        sparse kernels do, so a row is bit-identical to
        :meth:`evaluate_deltas` on tropical and bool, and to ``np.prod``/
        ``np.sum`` over each monomial's factors below width 8 (above it,
        ``np.sum`` sums pairwise).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self._variables):
            raise ValueError(
                f"expected a (scenarios, {len(self._variables)}) matrix, "
                f"got shape {matrix.shape}"
            )
        rows = matrix.shape[0]
        totals = np.repeat(self._constant[:, np.newaxis], rows, axis=1)
        if rows and self._groups:
            source = np.ascontiguousarray(matrix.T)
            for group in self._groups:
                self._dense_pass(group, source, totals)
        return np.ascontiguousarray(totals.T)

    def _dense_pass(
        self, group: _SegmentGroup, source: np.ndarray, totals: np.ndarray
    ) -> None:
        """Fold one group into ``keys × rows`` ``totals``, block by block.

        ``source`` is the transposed ``variables × rows`` matrix.  A block
        is a run of whole segments of about ``_DELTA_BLOCK_CELLS // rows``
        monomials.  Factor ``k`` of the block's monomials is gathered with
        one ``np.take`` into a ``monomials × rows`` buffer, turned into its
        term and folded into the accumulator in place; the accumulator's
        segments are then reduced along axis 0 and folded into ``totals``.
        The same buffers serve every block: the accumulator and the float
        gather scratch, plus a term buffer when terms are not float64, and
        for powered terms (:attr:`_powers`) a term buffer and a full
        exponent buffer.
        """
        num_monomials = len(group.coefficients)
        rows = source.shape[1]
        starts = group.segment_starts
        # Each block begins at the segment holding its first monomial.
        firsts = sorted_unique(
            np.searchsorted(
                starts,
                np.arange(0, num_monomials, max(1, _DELTA_BLOCK_CELLS // rows)),
                side="right",
            )
            - 1
        )
        bounds = np.append(starts[firsts], num_monomials)
        size = int(np.diff(bounds).max())
        powered = self._powers and group.has_higher_powers
        accumulator = np.empty((size, rows), dtype=self._term_dtype)
        scratch = np.empty((size, rows), dtype=np.float64)
        terms = (
            scratch
            if self._term_dtype is np.float64 and not powered
            else np.empty_like(accumulator)
        )
        powers = np.empty((size, rows), dtype=np.float64) if powered else None
        segment_bounds = np.append(firsts, starts.size).tolist()
        monomial_bounds = bounds.tolist()
        for block in range(len(monomial_bounds) - 1):
            first, last = monomial_bounds[block], monomial_bounds[block + 1]
            lo, hi = segment_bounds[block], segment_bounds[block + 1]
            out = accumulator[: last - first]
            _fold_columns(
                self._taken_terms(
                    group,
                    source,
                    first,
                    last,
                    out,
                    scratch[: last - first],
                    terms[: last - first],
                    None if powers is None else powers[: last - first],
                ),
                self._fold,
                out,
            )
            self._finish(out, group.coefficients[first:last, np.newaxis])
            self._fold_rows(
                totals,
                group.segment_rows[lo:hi],
                self._reduce(out, starts[lo:hi] - first),
            )

    def _taken_terms(
        self,
        group: _SegmentGroup,
        source: np.ndarray,
        first: int,
        last: int,
        out: np.ndarray,
        scratch: np.ndarray,
        terms: np.ndarray,
        powers: Optional[np.ndarray],
    ) -> Iterator[np.ndarray]:
        """The factor terms of monomials ``first:last``, column by column.

        Each factor is taken from ``source`` into the float ``scratch`` and
        its term lands in ``terms``, both consumed by the fold before the
        next factor is taken.  Factor 0's term lands in ``out`` (the fold's
        accumulator) instead, and float terms are taken straight into it
        unless they are powered.  Given ``powers``, each factor's exponents
        are spread over it first, so ``np.power`` sees no stride-0 exponent
        (:attr:`_powers`).
        """
        indices = group.indices[first:last]
        exponents = group.exponents[first:last, :, np.newaxis]
        in_place = out.dtype == source.dtype and powers is None
        for k in range(indices.shape[1]):
            values = out if k == 0 and in_place else scratch
            np.take(source, indices[:, k], axis=0, out=values, mode="clip")
            column = exponents[:, k]
            if powers is not None:
                np.copyto(powers, column)
                column = powers
            yield self._factor_term(
                group, values, column, out if k == 0 else terms
            )

    def evaluate_many(self, valuations: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Evaluate a batch of valuation mappings (rows follow the input order)."""
        if not valuations:
            return np.zeros((0, len(self._keys)), dtype=np.float64)
        matrix = np.stack([self.values_vector(v) for v in valuations])
        return self.evaluate_matrix(matrix)

    # -- sparse delta evaluation ----------------------------------------------

    def dense_row_footprint(self) -> int:
        """float64 cells :meth:`evaluate_matrix` keeps per scenario row.

        The transposed valuation column, the key-major totals and the
        returned row.  Factor gathers run in blocks of about
        :data:`_DELTA_BLOCK_CELLS` cells whatever the row count, so neither
        the monomial count nor the width adds a per-row term; chunking
        layers use this to bound peak memory.
        """
        return max(1, len(self._variables) + 2 * len(self._keys))

    def _delta_groups(self) -> _DeltaIndex:
        """Per-group inverted index and segment extents, per-column costs.

        Each group's :class:`VariableIncidence` entry (one factor) also gets
        the segment of its monomial, so the segment kernel maps a changed
        cell to the segment it hits without a search; per column, the
        factor cells of the distinct segments it occurs in bound what one
        change of it recomputes.  Derived from the group arrays on first
        use (compiled stores do not persist it).  Immutable once built
        (concurrent builders may race, but every result is equivalent), so
        cached compiled sets stay safe to share.
        """
        if self._delta_index is None:
            num_variables = len(self._variables)
            with trace(
                "incidence.delta_index",
                groups=len(self._groups),
                variables=num_variables,
            ):
                built = []
                column_cells = np.zeros(num_variables, dtype=np.int64)
                for group in self._groups:
                    num_monomials, width = group.indices.shape
                    incidence = VariableIncidence.from_factor_arrays(
                        num_variables, group.indices, group.exponents
                    )
                    ends = np.append(group.segment_starts[1:], num_monomials)
                    lengths = ends - group.segment_starts
                    entry_segments = np.repeat(
                        np.arange(lengths.size, dtype=np.intp), lengths
                    )[incidence.positions]
                    entry_columns = np.repeat(
                        np.arange(num_variables, dtype=np.intp),
                        np.diff(incidence.ptr),
                    )
                    # Entries ascend by (column, monomial), hence by
                    # (column, segment): a column's distinct segments are
                    # where that pair changes.
                    codes = entry_columns * np.int64(lengths.size) + entry_segments
                    first = np.ones(codes.size, dtype=np.bool_)
                    np.not_equal(codes[1:], codes[:-1], out=first[1:])
                    np.add.at(
                        column_cells,
                        entry_columns[first],
                        lengths[entry_segments[first]] * width,
                    )
                    built.append((incidence, ends.astype(np.intp), entry_segments))
                self._delta_index = (tuple(built), column_cells)
        return self._delta_index

    def _baseline_reductions(
        self,
        contributions: Tuple[np.ndarray, ...],
        segments: Tuple[np.ndarray, ...],
    ) -> Tuple[np.ndarray, ...]:
        """What the delta kernel reuses of a baseline: its segment reductions."""
        return segments

    def _delta_state(self, base_vector: np.ndarray) -> _DeltaState:
        """Baseline-once state: contributions, kernel reductions, totals."""
        base_vector = np.asarray(base_vector, dtype=np.float64)
        if base_vector.shape != (len(self._variables),):
            raise ValueError(
                f"expected a base vector of {len(self._variables)} variables, "
                f"got shape {base_vector.shape}"
            )
        key = base_vector.tobytes()
        cache = self._delta_baseline
        for i, cached in enumerate(cache):
            if cached[0] == key:
                if i:
                    # Move-to-front LRU: the factored batch path alternates
                    # between the original and the factored baseline, so a
                    # one-slot cache would rebuild on every alternation.
                    cache.insert(0, cache.pop(i))
                return cached
        contributions: List[np.ndarray] = []
        segment_values: List[np.ndarray] = []
        totals = self._constant.copy()
        for group in self._groups:
            contrib = self._contributions(group, base_vector)
            segments = self._reduce(contrib, group.segment_starts)
            contributions.append(contrib)
            segment_values.append(segments)
            self._fold_rows(totals, group.segment_rows, segments)
        entry: _DeltaState = (
            key,
            base_vector.copy(),
            tuple(contributions),
            self._baseline_reductions(tuple(contributions), tuple(segment_values)),
            totals,
        )
        cache.insert(0, entry)
        del cache[_DELTA_BASELINE_SLOTS:]
        return entry

    def baseline_totals(self, base_vector: np.ndarray) -> np.ndarray:
        """The per-group results under ``base_vector`` (the sparse baseline)."""
        return self._delta_state(base_vector)[4].copy()

    def evaluate_deltas(self, plan: "DeltaPlan") -> np.ndarray:
        """Evaluate sparse scenarios against one shared base vector.

        ``plan`` is a normalised :class:`~repro.batch.planner.DeltaPlan`
        over this set's variable order: its ``base_row`` is the base vector
        and scenario *s* changes the cells of its CSR slice.  Idempotent
        reductions (min, or) cannot be corrected additively, so the kernel
        re-reduces exactly the *segments* (one output row's monomials of
        one width-group) that hold a changed variable, and folds them with
        the baseline reductions of every other segment of an affected row.
        The batch is answered in passes over blocks of consecutive
        scenarios (:meth:`_segment_pass`); a block ends once the factor
        cells its scenarios may recompute reach :data:`_DELTA_BLOCK_CELLS`,
        so a pass's temporaries stay cache-sized.  Work is O(monomials
        inside affected segments), not O(all monomials), and min and or
        are exact, so a scenario's row is the same however the batch is
        split.
        """
        index, column_cells = self._delta_groups()
        _key, base, _contributions, segment_values, totals = self._delta_state(
            plan.base_row
        )
        cell_sids = _plan_scenarios(plan, len(self._variables))
        num_plans = len(plan)
        out = np.tile(totals, (num_plans, 1))
        # Scenario s starts block ⌊(cells of the scenarios before s) / bound⌋.
        cells = np.bincount(
            cell_sids, weights=column_cells[plan.columns], minlength=num_plans
        )
        blocks = (np.cumsum(cells) - cells) // _DELTA_BLOCK_CELLS
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(blocks)) + 1, [num_plans])
        ).tolist()
        counts = {"segments": 0, "recomputed_monomials": 0}
        # One step per cost-bounded block of scenarios, not per scenario.
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            first, last = plan.offsets[lo], plan.offsets[hi]
            segments, monomials = self._segment_pass(
                index,
                base,
                segment_values,
                plan.columns[first:last],
                plan.values[first:last],
                cell_sids[first:last] - lo,
                out[lo:hi],
            )
            counts["segments"] += segments
            counts["recomputed_monomials"] += monomials
        _record_sparse_call(counts)
        return out

    def _segment_pass(
        self,
        index: Tuple[_DeltaGroup, ...],
        base: np.ndarray,
        segment_values: Tuple[np.ndarray, ...],
        columns: np.ndarray,
        values: np.ndarray,
        sids: np.ndarray,
        out: np.ndarray,
    ) -> Tuple[int, int]:
        """One batched pass of :meth:`evaluate_deltas` over a block of cells.

        ``columns``/``values``/``sids`` are the block's changed cells, in
        plan order, with scenario ids local to ``out`` (the block's rows,
        pre-filled with the baseline totals).  Per group:

        * every cell's occurrences come out of the inverted index with
          their segment, giving the distinct hit (scenario, segment) pairs;
        * the hit segments' monomials are expanded once, their factors
          gathered from ``base`` and the changed occurrences patched in at
          (expanded row, factor slot), then reduced per hit segment.

        Every affected (scenario, row) cell then folds, group by group as
        the dense path does, the constant, the recomputed reductions and
        the baseline reductions of its unhit segments, and is written with
        one fancy-index assignment.  Returns the hit pairs and recomputed
        monomials, for the work counters.
        """
        num_keys = len(self._keys)
        recomputed_parts = []
        code_parts = [np.zeros(0, dtype=np.intp)]
        num_segments = num_monomials = 0
        for (incidence, ends, entry_segments), group in zip(index, self._groups):
            starts = incidence.ptr[columns]
            counts = incidence.ptr[columns + 1] - starts
            entries, _ = ragged_ranges(starts, starts + counts)
            if entries.size == 0:
                recomputed_parts.append((entries, entries))
                continue
            stride = group.segment_rows.size
            hit_codes = np.repeat(sids, counts) * stride + entry_segments[entries]
            hits = sorted_unique(hit_codes)
            hit_sids, hit_segments = np.divmod(hits, stride)
            positions, local_starts = ragged_ranges(
                group.segment_starts[hit_segments], ends[hit_segments]
            )
            gathered = base[group.indices[positions]]
            # Occurrence i lies in hit pair `pair[i]`, at its monomial's
            # offset inside that pair's expanded segment.
            pair = np.searchsorted(hits, hit_codes)
            rows = (
                local_starts[pair]
                + incidence.positions[entries]
                - group.segment_starts[hit_segments[pair]]
            )
            gathered[rows, incidence.slots[entries]] = np.repeat(values, counts)
            recomputed = self._reduce(
                self._gathered_contributions(group, gathered, positions),
                local_starts,
            )
            recomputed_parts.append((hits, recomputed))
            code_parts.append(hit_sids * num_keys + group.segment_rows[hit_segments])
            num_segments += int(hits.size)
            num_monomials += int(positions.size)
        affected = sorted_unique(np.concatenate(code_parts))
        if affected.size == 0:
            return 0, 0
        affected_sids, affected_rows = np.divmod(affected, num_keys)
        folded_rows = self._constant[affected_rows]
        for group, base_segments, (hits, recomputed) in zip(
            self._groups, segment_values, recomputed_parts
        ):
            stride = group.segment_rows.size
            segments = np.minimum(
                np.searchsorted(group.segment_rows, affected_rows), stride - 1
            )
            present = np.flatnonzero(group.segment_rows[segments] == affected_rows)
            folded = base_segments[segments[present]]
            if hits.size:
                # Affected cells ascend by (scenario, row), so their
                # (scenario, segment) codes ascend as the hits do.
                present_codes = affected_sids[present] * stride + segments[present]
                folded[np.searchsorted(present_codes, hits)] = recomputed
            self._fold_rows(folded_rows, present, folded)
        out[affected_sids, affected_rows] = folded_rows
        return num_segments, num_monomials


class CompiledProvenanceSet(_CompiledNumericSet):
    """The counting semiring ``(R, +, *)`` compiled — the float pipeline.

    A monomial contributes ``coefficient · ∏ x^e``, rows sum their
    monomials (``np.add.reduceat``) and unit monomials fold into the
    constant by addition.  Because ``+`` is invertible, sparse scenarios
    take the row-aggregated kernel of :meth:`evaluate_deltas` instead of
    the base class's segment re-reduction.
    """

    __slots__ = ("_row_delta_index",)

    backend_name = "real"
    _identity = 0.0
    _fold = np.multiply
    _powers = True

    def _factor_term(
        self,
        group: _SegmentGroup,
        values: np.ndarray,
        exponents: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        if group.has_higher_powers:
            return np.power(values, exponents, out=out)
        return values

    def _finish(self, contributions: np.ndarray, coefficients: np.ndarray) -> None:
        np.multiply(contributions, coefficients, out=contributions)

    def _reduce(self, contributions: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.add.reduceat(contributions, starts, axis=0)

    def _fold_rows(
        self, totals: np.ndarray, rows: np.ndarray, segments: np.ndarray
    ) -> None:
        totals[rows] += segments

    def _init_delta_caches(self) -> None:
        super()._init_delta_caches()
        self._row_delta_index: Optional[RowDeltaIndex] = None

    def _row_index(self) -> RowDeltaIndex:
        """The entry and column-pair index of :meth:`evaluate_deltas`.

        Derived from the group arrays on first use (compiled stores do not
        persist it); immutable once built, like :meth:`_delta_groups`.
        """
        if self._row_delta_index is None:
            with trace(
                "incidence.delta_index",
                groups=len(self._groups),
                variables=len(self._variables),
            ) as span:
                index = RowDeltaIndex.from_groups(
                    len(self._variables),
                    len(self._keys),
                    [
                        (
                            group.indices,
                            group.exponents,
                            expand_segment_rows(
                                group.segment_starts,
                                group.segment_rows,
                                len(group.coefficients),
                            ),
                        )
                        for group in self._groups
                    ],
                )
                span.update(index.sizes())
            self._row_delta_index = index
        return self._row_delta_index

    def _baseline_reductions(
        self,
        contributions: Tuple[np.ndarray, ...],
        segments: Tuple[np.ndarray, ...],
    ) -> Tuple[np.ndarray, ...]:
        """``S``: the baseline contributions summed per index entry."""
        index = self._row_index()
        weights = np.concatenate(
            [
                np.repeat(contrib, group.indices.shape[1])
                for contrib, group in zip(contributions, self._groups)
            ]
            + [np.zeros(0, dtype=np.float64)]
        )
        return (
            np.bincount(
                index.factor_entries,
                weights=weights,
                minlength=index.entry_rows.size,
            ),
        )

    def evaluate_deltas(self, plan: "DeltaPlan") -> np.ndarray:
        """Evaluate sparse scenarios as deltas against one shared base vector.

        ``plan`` is a normalised :class:`~repro.batch.planner.DeltaPlan`
        over this set's variable order (cells sorted by column within each
        scenario, no column repeated), against its ``base_row``.  The base
        valuation is evaluated once, and with it ``S[v, e, k]``: the summed
        baseline contributions of row ``k``'s monomials holding ``v`` with
        exponent ``e`` (see :class:`~repro.provenance.incidence.RowDeltaIndex`).
        With ratios ``r_v = new/base`` over a scenario's changed columns
        ``C``, row ``k`` then moves by::

            Σ_{v∈C} Σ_e (r_v^e − 1)·S[v, e, k]
              + Σ_{m : |C∩m| ≥ 2} old_m·(∏ r^e − 1 − Σ (r^e − 1))

        The whole batch is answered in one concatenated pass:

        * the linear terms cost O(entries of the changed columns) — one
          update per (variable, row, exponent), not per monomial;
        * the exact higher-order term visits only the monomials that hold
          two or more changed columns of one scenario, found through the
          column-pair index (deduplicated per scenario for widths ≥ 3);
        * every term lands in its scenario's row through one ``bincount``,
          in an order that does not depend on the rest of the batch, so a
          scenario's row is bit-identical however the batch is split;
        * scenarios whose ratios or updates are not finite (a zero,
          subnormal or overflowing value) fall back to one exact full
          re-evaluation of their row.

        Returns the same ``scenarios × groups`` array the dense
        :meth:`evaluate_matrix` path produces for the corresponding rows.
        """
        index = self._row_index()
        _key, base, contributions, (entry_sums,), totals = self._delta_state(
            plan.base_row
        )
        num_keys = len(self._keys)
        num_plans = len(plan)
        num_variables = len(self._variables)
        out = np.tile(totals, (num_plans, 1))
        if num_plans == 0 or num_keys == 0:
            return out
        cell_sids = _plan_scenarios(plan, num_variables)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratios = plan.values / base[plan.columns]
            exact = np.zeros(num_plans, dtype=np.bool_)
            exact[cell_sids[~np.isfinite(ratios)]] = True
            fast = ~exact[cell_sids]
            sids, columns, ratios = cell_sids[fast], plan.columns[fast], ratios[fast]

            # Linear terms: one per (changed column, entry).
            starts = index.entry_ptr[columns]
            counts = index.entry_ptr[columns + 1] - starts
            entries, _ = ragged_ranges(starts, starts + counts)
            entry_ratios = np.repeat(ratios, counts)
            if index.has_higher_powers:
                entry_ratios = np.power(entry_ratios, index.entry_exponents[entries])
            cells = [np.repeat(sids * num_keys, counts) + index.entry_rows[entries]]
            terms = [(entry_ratios - 1.0) * entry_sums[entries]]

            # Higher-order terms: monomials sharing two changed columns.
            first, second = _same_scenario_pairs(sids)
            pair_monomials = 0
            if first.size:
                stride = np.int64(num_variables)
                pair_codes = columns[first] * stride + columns[second]
                cell_codes = sids * stride + columns
                for group, pairs, rows, old in zip(
                    self._groups, index.pairs, index.monomial_rows, contributions
                ):
                    if pairs is None:
                        continue
                    query, monomials = pairs.lookup(pair_codes)
                    scenario = sids[first[query]]
                    if group.indices.shape[1] > 2:
                        # A monomial holding k changed columns is found
                        # once per pair of them; keep it once.
                        size = np.int64(len(old))
                        scenario, monomials = np.divmod(
                            sorted_unique(scenario * size + monomials), size
                        )
                    pair_monomials += int(monomials.size)
                    width = group.indices.shape[1]
                    if width == 2 and not group.has_higher_powers:
                        # A pair-found two-factor monomial holds exactly the
                        # pair's two cells; two-operand + and * commute, so
                        # their ratios need no factor-order lookup.
                        left = ratios[first[query]]
                        right = ratios[second[query]]
                        product = left * right
                        excess = (left - 1.0) + (right - 1.0)
                    else:
                        factor_codes = (
                            scenario[:, np.newaxis] * stride
                            + group.indices[monomials]
                        )
                        found = np.minimum(
                            np.searchsorted(cell_codes, factor_codes),
                            cell_codes.size - 1,
                        )
                        factor_ratios = np.where(
                            cell_codes[found] == factor_codes, ratios[found], 1.0
                        )
                        if group.has_higher_powers:
                            factor_ratios = np.power(
                                factor_ratios, group.exponents[monomials]
                            )
                        product, excess = _row_product_and_excess(factor_ratios)
                    cells.append(scenario * num_keys + rows[monomials])
                    terms.append(old[monomials] * (product - 1.0 - excess))
            corrections = np.bincount(
                np.concatenate(cells),
                weights=np.concatenate(terms),
                minlength=num_plans * num_keys,
            ).reshape(num_plans, num_keys)
            # Over/underflowed updates poison their scenarios' rows;
            # those rows are re-evaluated exactly below.
            exact |= ~np.isfinite(corrections).all(axis=1)
            out += corrections

            exact_rows = np.flatnonzero(exact)
            if exact_rows.size:
                # Exact fallback: one full (still vectorised) row
                # re-evaluation per affected scenario.
                scratch = base.copy()
                for s in exact_rows.tolist():  # cobralint: disable=CL003 -- rare zero/overflow fallback, off the fast path
                    changed, values = plan.cells(s)
                    scratch[changed] = values
                    out[s] = self._evaluate_values(scratch)
                    scratch[changed] = base[changed]
        _record_sparse_call(
            {
                "entries": int(entries.size),
                "pair_monomials": pair_monomials,
                "exact_rows": int(exact_rows.size),
            }
        )
        return out


def _plan_scenarios(plan: "DeltaPlan", num_variables: int) -> np.ndarray:
    """Each cell's scenario index, once ``plan`` is checked to fit the set.

    Plans are normalised where they are built
    (:class:`~repro.batch.planner.DeltaPlan`), so the kernels only check
    that every column is in range and the cells strictly ascend by
    (scenario, column).
    """
    columns = plan.columns
    if columns.size and (columns.min() < 0 or columns.max() >= num_variables):
        raise IndexError(
            f"delta plan column out of range for {num_variables} variables"
        )
    sids = plan.scenario_ids()
    codes = sids * np.int64(num_variables) + columns
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError(
            "delta plan cells must ascend by column within each scenario "
            "(build hand-made plans with DeltaPlan.from_pairs)"
        )
    return sids


def _fold_columns(
    columns: Iterator[np.ndarray], fold: np.ufunc, out: np.ndarray
) -> np.ndarray:
    """Fold ``columns`` into ``out`` left to right: ``((c₀ ∘ c₁) ∘ c₂) ∘ …``.

    The one accumulation order of every numeric kernel: the dense kernel,
    the segment kernel and the real kernel's pair fix-up all combine a
    monomial's factors through here.  It is the order NumPy's ``prod``
    uses, and ``sum``'s for fewer than 8 elements (pairwise summation
    starts at 8).  ``out`` receives the first column unless that column
    already is ``out``; later columns may be views or reused scratch,
    each consumed before the next is drawn.
    """
    first = next(columns)
    if first is not out:
        np.copyto(out, first)
    for column in columns:
        fold(out, column, out=out)
    return out


def _row_product_and_excess(factors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the product of ``factors`` and the sum of ``factors - 1.0``,
    each folded left to right by :func:`_fold_columns`."""
    shifted = factors - 1.0
    width = factors.shape[1]
    product = _fold_columns(
        (factors[:, k] for k in range(width)),
        np.multiply,
        np.empty(factors.shape[0], dtype=np.float64),
    )
    excess = _fold_columns(
        (shifted[:, k] for k in range(width)),
        np.add,
        np.empty(factors.shape[0], dtype=np.float64),
    )
    return product, excess


def _same_scenario_pairs(sids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` index pairs, ``i < j``, of cells with the same scenario.

    ``sids`` must be sorted; with cells sorted by (scenario, column) each
    pair has ``columns[i] < columns[j]``.
    """
    cells = np.arange(sids.size, dtype=np.intp)
    ends = np.searchsorted(sids, sids, side="right")
    second, _ = ragged_ranges(cells + 1, ends)
    return np.repeat(cells, ends - cells - 1), second


def _record_sparse_call(counts: Dict[str, int]) -> None:
    """Count one sparse call's work in the registry and the live span."""
    registry = get_registry()
    for name, value in counts.items():
        registry.inc(f"batch.sparse.{name}", value)
    current_span().update(counts)


class _CompiledTropicalSet(_CompiledNumericSet):
    """Min-plus compilation: costs add along a monomial, rows take minima."""

    __slots__ = ()

    backend_name = "tropical"
    _identity = float("inf")
    _fold = np.add

    def _factor_term(
        self,
        group: _SegmentGroup,
        values: np.ndarray,
        exponents: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        # ``x * 1.0`` is ``x`` exactly, so unit exponents skip the multiply.
        if group.has_higher_powers:
            np.multiply(values, exponents, out=values)
        return values

    def _finish(self, contributions: np.ndarray, coefficients: np.ndarray) -> None:
        np.add(contributions, coefficients, out=contributions)

    def _reduce(self, contributions: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(contributions, starts, axis=0)

    def _fold_rows(
        self, totals: np.ndarray, rows: np.ndarray, segments: np.ndarray
    ) -> None:
        totals[rows] = np.minimum(totals[rows], segments)


class _CompiledBooleanSet(_CompiledNumericSet):
    """Or-and compilation on packed boolean arrays.

    Exponents are irrelevant (``x^k = x`` in an idempotent semiring) and a
    monomial with a non-zero coefficient contributes the conjunction of its
    variables.  Terms, contributions and segment reductions are
    ``np.bool_``; totals are 0.0/1.0 floats, so the matrix pipeline and the
    batch report keep their float dtype.
    """

    __slots__ = ()

    backend_name = "bool"
    _identity = 0.0
    _fold = np.logical_and
    _term_dtype = np.bool_

    def _constant_values(self, coefficients: np.ndarray) -> np.ndarray:
        return (coefficients != 0.0).astype(np.float64)

    def _factor_term(
        self,
        group: _SegmentGroup,
        values: np.ndarray,
        exponents: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        return np.not_equal(values, 0.0, out=out)

    def _finish(self, contributions: np.ndarray, coefficients: np.ndarray) -> None:
        np.logical_and(contributions, coefficients != 0.0, out=contributions)

    def _reduce(self, contributions: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.logical_or.reduceat(contributions, starts, axis=0)

    def _fold_rows(
        self, totals: np.ndarray, rows: np.ndarray, segments: np.ndarray
    ) -> None:
        totals[rows] = np.maximum(totals[rows], segments)

    def _to_python(self, value: np.floating) -> Any:
        return bool(value != 0.0)


class NumericBackend(SemiringBackend):
    """Base class for backends whose carrier is (a subset of) the reals."""

    is_numeric = True
    #: The float standing in for a *missing* variable in matrix pipelines —
    #: the value under which the variable leaves the result unchanged.
    numeric_fill: float = 1.0

    def coerce(self, value: Any) -> float:
        return float(value)

    def scale_value(self, value: Any, factor: float) -> float:
        return float(value) * float(factor)

    def set_value(self, amount: float, name: str) -> float:
        return float(amount)

    def embed_coefficient(self, coefficient: float) -> float:
        return float(coefficient)

    def reduce_members(self, values: Sequence[Any]) -> float:
        values = [float(v) for v in values]
        return sum(values) / len(values) if values else float(self.semiring.one)

    def delta(self, baseline: Any, value: Any) -> float:
        if value == baseline:
            return 0.0
        return float(value) - float(baseline)

    def error(self, full: Any, compressed: Any) -> float:
        if full == compressed:
            return 0.0
        return abs(float(full) - float(compressed))

    def magnitude(self, value: Any) -> float:
        return abs(float(value))

    def format_value(self, value: Any, width: int = 14) -> str:
        return f"{float(value):.2f}"


class RealBackend(NumericBackend):
    """The counting semiring ``(R, +, *)`` — the original float pipeline."""

    name = "real"
    numeric_fill = 1.0

    def __init__(self) -> None:
        self._semiring = CountingSemiring()

    @property
    def semiring(self) -> Semiring:
        return self._semiring

    def compile(self, provenance: ProvenanceSet) -> CompiledProvenanceSet:
        with trace("backend.compile", backend=self.name, monomials=provenance.size()):
            return CompiledProvenanceSet(provenance)


class TropicalBackend(NumericBackend):
    """The tropical (min, +) semiring: variables are costs, results min-costs.

    Scenario semantics: ``scale`` multiplies a cost (a 20% toll hike is
    ``scale(..., 1.2)``), ``set`` pins it; the default value of a variable
    is the semiring one (0.0 — no added cost), so untouched variables never
    change a route's cost.  Coefficients embed as fixed costs.
    """

    name = "tropical"
    numeric_fill = 0.0

    def __init__(self) -> None:
        self._semiring = TropicalSemiring()

    @property
    def semiring(self) -> Semiring:
        return self._semiring

    def default_value(self, name: str) -> float:
        return 0.0

    def compile(self, provenance: ProvenanceSet) -> _CompiledTropicalSet:
        with trace("backend.compile", backend=self.name, monomials=provenance.size()):
            return _CompiledTropicalSet(provenance)

    def magnitude(self, value: Any) -> float:
        value = float(value)
        return abs(value) if np.isfinite(value) else float("inf")

    def format_value(self, value: Any, width: int = 14) -> str:
        value = float(value)
        return "unreachable" if np.isinf(value) else f"{value:.2f}"


class BooleanBackend(NumericBackend):
    """The Boolean semiring: tuple existence under deletions/access control.

    Values are truthinesses (the matrix pipeline carries them as 0.0/1.0
    floats); ``scale`` by 0 deletes, by anything else keeps; ``set`` assigns
    the amount's truthiness.  Coefficients embed as presence.
    """

    name = "bool"
    numeric_fill = 1.0

    def __init__(self) -> None:
        self._semiring = BooleanSemiring()

    @property
    def semiring(self) -> Semiring:
        return self._semiring

    def coerce(self, value: Any) -> bool:
        return bool(value)

    def scale_value(self, value: Any, factor: float) -> bool:
        return bool(value) and factor != 0

    def set_value(self, amount: float, name: str) -> bool:
        return amount != 0

    def embed_coefficient(self, coefficient: float) -> bool:
        return coefficient != 0

    def compile(self, provenance: ProvenanceSet) -> _CompiledBooleanSet:
        with trace("backend.compile", backend=self.name, monomials=provenance.size()):
            return _CompiledBooleanSet(provenance)

    def reduce_members(self, values: Sequence[Any]) -> float:
        # The mean of 0/1 values is non-zero iff any member survives, so the
        # numeric mean lowering coincides with the Boolean disjunction.
        values = [1.0 if v else 0.0 for v in values]
        return sum(values) / len(values) if values else 1.0

    def delta(self, baseline: Any, value: Any) -> float:
        return float(bool(value)) - float(bool(baseline))

    def error(self, full: Any, compressed: Any) -> float:
        return 0.0 if bool(full) == bool(compressed) else 1.0

    def magnitude(self, value: Any) -> float:
        return 1.0 if bool(value) else 0.0

    def format_value(self, value: Any, width: int = 14) -> str:
        return "true" if bool(value) else "false"
