"""Unit tests for the shared inverted incidence indexes (repro.provenance.incidence)."""

import numpy as np
import pytest

from repro.provenance.incidence import (
    ProvenanceIncidence,
    VariableIncidence,
    clear_provenance_incidence_cache,
    expand_segment_rows,
    provenance_incidence,
    ragged_ranges,
)
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet


class TestRaggedRanges:
    def test_concatenates_ranges(self):
        positions, local_starts = ragged_ranges(
            np.array([0, 5, 9]), np.array([2, 8, 10])
        )
        assert list(positions) == [0, 1, 5, 6, 7, 9]
        assert list(local_starts) == [0, 2, 5]

    def test_empty_input(self):
        positions, local_starts = ragged_ranges(np.zeros(0), np.zeros(0))
        assert positions.size == 0
        assert local_starts.size == 0

    def test_zero_length_range(self):
        positions, local_starts = ragged_ranges(np.array([3, 4]), np.array([3, 6]))
        assert list(positions) == [4, 5]
        assert list(local_starts) == [0, 0]


class TestExpandSegmentRows:
    def test_repeats_rows_over_segment_lengths(self):
        rows = expand_segment_rows(
            np.array([0, 3, 4]), np.array([1, 4, 7]), total=6
        )
        assert list(rows) == [1, 1, 1, 4, 7, 7]


class TestVariableIncidence:
    def _index(self):
        # 4 monomials over 3 variables:  m0=v0*v2, m1=v2^2, m2=v0*v1, m3=v1
        indices = np.array([[0, 2], [2, 2], [0, 1], [1, 1]], dtype=np.intp)
        exponents = np.array(
            [[1, 1], [1, 1], [1, 2], [1, 1]], dtype=np.float64
        )
        return VariableIncidence.from_factor_arrays(3, indices, exponents)

    def test_rows_for_each_column(self):
        index = self._index()
        assert list(index.rows_for(0)) == [0, 2]
        assert list(index.rows_for(1)) == [2, 3, 3]
        assert list(index.rows_for(2)) == [0, 1, 1]

    def test_rows_for_any_unions_and_dedups(self):
        index = self._index()
        assert list(index.rows_for_any(np.array([0, 2]))) == [0, 1, 2]
        assert index.rows_for_any(np.zeros(0, dtype=np.intp)).size == 0

    def test_occurrences_align_exponents_with_positions(self):
        index = self._index()
        positions, exponents, counts = index.occurrences(np.array([1, 0]))
        assert list(positions) == [2, 3, 3, 0, 2]
        assert list(exponents) == [2.0, 1.0, 1.0, 1.0, 1.0]
        assert list(counts) == [3, 2]

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
            assert list(index.rows_for_any(np.array([column]))) == expected
            assert list(index.rows_for_any(np.array([column, column]))) == expected


class TestProvenanceIncidence:
    @pytest.fixture
    def provenance(self):
        result = ProvenanceSet()
        result[("g1",)] = Polynomial(
            {Monomial.of("x", "y"): 2.0, Monomial.of("z"): 3.0, Monomial.unit(): 1.0}
        )
        result[("g2",)] = Polynomial({Monomial.of("x"): 4.0})
        return result

    def test_name_keyed_rows(self, provenance):
        incidence = ProvenanceIncidence(provenance)
        assert incidence.num_rows() == 4
        # Canonical term order per group: the unit monomial first, then the
        # sorted monomials — so g1 flattens to [1, x*y, z] and g2 to [x].
        assert list(incidence.rows_for("x")) == [1, 3]
        assert list(incidence.rows_for("z")) == [2]
        assert incidence.rows_for("ghost").size == 0

    def test_id_encoded_view(self, provenance):
        incidence = ProvenanceIncidence(provenance)
        assert incidence.names == ("x", "y", "z")
        # Distinct monomials sorted; x is shared by both groups.
        assert [m.to_text() for m in incidence.monomials] == ["1", "x", "x*y", "z"]
        assert incidence.monomial_variables.tolist() == [
            [-1, -1], [0, -1], [0, 1], [2, -1]
        ]
        assert incidence.monomial_exponents.tolist() == [[0, 0], [1, 0], [1, 1], [1, 0]]
        assert incidence.group_ids.tolist() == [0, 0, 0, 1]
        assert incidence.monomial_ids.tolist() == [0, 2, 3, 1]
        assert incidence.coefficients.tolist() == [1.0, 2.0, 3.0, 4.0]
        # g1's terms were inserted as x*y, z, 1.
        assert incidence.insertion.tolist() == [2, 0, 1, 0]
        assert incidence.rows == [
            (0, (), 1.0),
            (0, (("x", 1), ("y", 1)), 2.0),
            (0, (("z", 1),), 3.0),
            (1, (("x", 1),), 4.0),
        ]

    def test_cached_view_must_describe_the_set(self, provenance):
        clear_provenance_incidence_cache()
        first = provenance_incidence(provenance)
        assert first.describes(provenance)
        # Same fingerprint (coefficients agree to 9 decimals, and key order
        # is ignored), different rows: rebuilt, not reused.
        nudged = ProvenanceSet()
        nudged[("g2",)] = provenance[("g2",)]
        nudged[("g1",)] = Polynomial(
            {Monomial.of("x", "y"): 2.0 + 1e-11, Monomial.of("z"): 3.0,
             Monomial.unit(): 1.0}
        )
        assert nudged.fingerprint() == provenance.fingerprint()
        assert not first.describes(nudged)
        second = provenance_incidence(nudged)
        assert second is not first and second.describes(nudged)
        assert second.keys == (("g2",), ("g1",))

    def test_cached_by_fingerprint(self, provenance):
        clear_provenance_incidence_cache()
        first = provenance_incidence(provenance)
        clone = ProvenanceSet({key: poly for key, poly in provenance.items()})
        assert provenance_incidence(clone) is first
        provenance[("g3",)] = Polynomial({Monomial.of("w"): 1.0})
        assert provenance_incidence(provenance) is not first


class TestKernelIndexUnification:
    def test_kernel_index_reuses_shared_incidence(self):
        from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
        from repro.core.kernel.index import MonomialIncidenceIndex

        provenance = ProvenanceSet()
        provenance[("g",)] = Polynomial(
            {Monomial.of("a", "b"): 1.0, Monomial.of("b"): 2.0}
        )
        tree = AbstractionTree("R", {"R": ["a", "b"]})
        index = MonomialIncidenceIndex(provenance, AbstractionForest([tree]))
        shared = provenance_incidence(provenance)
        assert list(index.variable_rows["b"]) == list(shared.rows_for("b"))
        assert list(index.rows_under("R")) == [0, 1]
