"""The row-major dense kernel: a parity oracle for ``evaluate_matrix``.

Production dense evaluation of the numeric compiled sets is monomial-major
(:meth:`repro.provenance.backends.numeric._CompiledNumericSet.evaluate_matrix`):
it gathers one factor column at a time into a ``monomials × rows`` buffer
and folds it in place.  This is the kernel it replaced, kept as a
reference: per width-group it gathers the whole ``rows × monomials × width``
factor tensor, combines each monomial's factors with ``np.prod`` /
``np.sum`` / ``np.all`` along the last axis, and reduces segments along
axis 1.  The per-semiring hooks it used are kept beside it
(:class:`_RowMajorHooks`), so it shares no kernel code with what it checks;
it reads only the compiled group arrays.

NumPy's ``np.sum`` folds fewer than 8 elements left to right and sums
pairwise from 8 on, so the tropical oracle agrees with production exactly
below width 8 and to rounding above; ``np.prod`` and ``np.all`` always
fold left to right.

One line differs from the old kernel: real powers get the exponents spread
over the whole factor tensor.  Broadcast, a group of one width-1 monomial
collapses to a stride-0 exponent, and NumPy squares a stride-0 2.0 exactly
where its vector ``pow`` loop may round the last bit apart; production
keeps every power on the vector loop, so the oracle does too.

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.dense_matrix_kernel import dense_evaluate_matrix
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.provenance.backends.numeric import _CompiledNumericSet, _SegmentGroup


class _RowMajorHooks:
    """The algebra hooks of the row-major kernel, per backend name."""

    def __init__(self, compiled: _CompiledNumericSet) -> None:
        self._variables = compiled.variables
        self._constant = compiled._constant
        self._groups = compiled._groups
        self._backend = compiled.backend_name

    def _contributions(self, group: _SegmentGroup, matrix: np.ndarray) -> np.ndarray:
        """Per-monomial contributions for a ``... × variables`` value matrix."""
        gathered = matrix[..., group.indices]
        return self._gathered_contributions(group, gathered, slice(None))

    def _gathered_contributions(
        self,
        group: _SegmentGroup,
        gathered: np.ndarray,
        positions: Union[np.ndarray, slice],
    ) -> np.ndarray:
        if self._backend == "real":
            if group.has_higher_powers:
                exponents = np.broadcast_to(group.exponents[positions], gathered.shape)
                gathered = np.power(gathered, np.ascontiguousarray(exponents))
            return np.prod(gathered, axis=-1) * group.coefficients[positions]
        if self._backend == "tropical":
            return (
                np.sum(gathered * group.exponents[positions], axis=-1)
                + group.coefficients[positions]
            )
        present = np.all(gathered != 0.0, axis=-1)
        return present & (group.coefficients[positions] != 0.0)

    def _reduce(self, contributions: np.ndarray, starts: np.ndarray, axis: int) -> np.ndarray:
        if self._backend == "real":
            return np.add.reduceat(contributions, starts, axis=axis)
        if self._backend == "tropical":
            return np.minimum.reduceat(contributions, starts, axis=axis)
        return np.logical_or.reduceat(contributions, starts, axis=axis)

    def _accumulate(self, totals: np.ndarray, rows: np.ndarray, segments: np.ndarray, axis: int) -> None:
        if self._backend == "real":
            totals[:, rows] += segments
        elif self._backend == "tropical":
            totals[:, rows] = np.minimum(totals[:, rows], segments)
        else:
            totals[:, rows] = np.maximum(totals[:, rows], segments.astype(np.float64))


def dense_evaluate_matrix(
    compiled: _CompiledNumericSet, matrix: np.ndarray
) -> np.ndarray:
    """The row-major ``evaluate_matrix`` of ``compiled`` over ``matrix``."""
    self = _RowMajorHooks(compiled)
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(self._variables):
        raise ValueError(
            f"expected a (scenarios, {len(self._variables)}) matrix, "
            f"got shape {matrix.shape}"
        )
    totals = np.tile(self._constant, (matrix.shape[0], 1))
    for group in self._groups:
        segments = self._reduce(
            self._contributions(group, matrix), group.segment_starts, axis=1
        )
        self._accumulate(totals, group.segment_rows, segments, axis=1)
    return totals
