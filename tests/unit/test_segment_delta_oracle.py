"""Unit tests of the segment delta kernel oracle's incidence lookups.

``tests/oracles/segment_delta_kernel.py`` is the reference the batched
tropical/bool delta kernel is checked against, so the per-column monomial
lookups its per-scenario loop runs on are pinned here.
"""

import numpy as np

from oracles.segment_delta_kernel import rows_for, rows_for_any

from repro.provenance.incidence import VariableIncidence


def _index():
    # 4 monomials over 3 variables:  m0=v0*v2, m1=v2^2, m2=v0*v1, m3=v1
    indices = np.array([[0, 2], [2, 2], [0, 1], [1, 1]], dtype=np.intp)
    exponents = np.array([[1, 1], [1, 1], [1, 2], [1, 1]], dtype=np.float64)
    return VariableIncidence.from_factor_arrays(3, indices, exponents)


class TestIncidenceLookups:
    def test_rows_for_each_column(self):
        index = _index()
        assert list(rows_for(index, 0)) == [0, 2]
        assert list(rows_for(index, 1)) == [2, 3, 3]
        assert list(rows_for(index, 2)) == [0, 1, 1]

    def test_rows_for_any_unions_and_dedups(self):
        index = _index()
        assert list(rows_for_any(index, np.array([0, 2]))) == [0, 1, 2]
        assert rows_for_any(index, np.zeros(0, dtype=np.intp)).size == 0

    def test_matches_bruteforce_on_random_factors(self):
        rng = np.random.default_rng(5)
        # Canonical factors: distinct variables per monomial row.
        indices = np.stack(
            [rng.choice(10, size=3, replace=False) for _ in range(50)]
        ).astype(np.intp)
        exponents = rng.integers(1, 4, size=(50, 3)).astype(np.float64)
        index = VariableIncidence.from_factor_arrays(10, indices, exponents)
        for column in range(10):
            expected = sorted(np.flatnonzero((indices == column).any(axis=1)))
            assert list(rows_for_any(index, np.array([column]))) == expected
            assert list(rows_for_any(index, np.array([column, column]))) == expected
