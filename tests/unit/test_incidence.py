"""Unit tests for the shared inverted incidence indexes (repro.provenance.incidence)."""

import numpy as np
import pytest

from repro.provenance.incidence import (
    PairIncidence,
    ProvenanceIncidence,
    RowDeltaIndex,
    VariableIncidence,
    expand_segment_rows,
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

    def test_occurrences_align_exponents_with_positions(self):
        index = self._index()
        positions, exponents, counts = index.occurrences(np.array([1, 0]))
        assert list(positions) == [2, 3, 3, 0, 2]
        assert list(exponents) == [2.0, 1.0, 1.0, 1.0, 1.0]
        assert list(counts) == [3, 2]

    def test_slots_locate_each_occurrence(self):
        indices = np.array([[0, 2], [2, 2], [0, 1], [1, 1]], dtype=np.intp)
        index = self._index()
        columns = np.repeat(np.arange(3), np.diff(index.ptr))
        assert list(index.slots) == [0, 0, 1, 0, 1, 1, 0, 1]
        assert np.array_equal(indices[index.positions, index.slots], columns)


class TestPairIncidence:
    def test_lookup_finds_the_monomials_holding_a_pair(self):
        # m0=v0*v2, m1=v1*v2, m2=v0*v1, m3=v1*v0 (column order is free).
        indices = np.array([[0, 2], [1, 2], [0, 1], [1, 0]], dtype=np.intp)
        pairs = PairIncidence.from_factor_arrays(3, indices)
        assert list(pairs.codes) == [0 * 3 + 1, 0 * 3 + 2, 1 * 3 + 2]
        query, monomials = pairs.lookup(np.array([2, 1, 7, 5], dtype=np.int64))
        assert list(query) == [0, 1, 1, 3]
        assert list(monomials) == [0, 2, 3, 1]

    def test_width_three_lists_every_pair(self):
        pairs = PairIncidence.from_factor_arrays(
            4, np.array([[0, 1, 3]], dtype=np.intp)
        )
        assert list(pairs.codes) == [1, 3, 7]
        assert list(pairs.monomials) == [0, 0, 0]

    def test_empty_index_finds_nothing(self):
        pairs = PairIncidence.from_factor_arrays(3, np.zeros((0, 2), dtype=np.intp))
        query, monomials = pairs.lookup(np.array([1], dtype=np.int64))
        assert query.size == monomials.size == 0


class TestRowDeltaIndex:
    def test_entries_sum_contributions_per_column_row_exponent(self):
        rng = np.random.default_rng(3)
        groups = []
        for width in (1, 2, 3):
            indices = np.stack(
                [rng.choice(6, size=width, replace=False) for _ in range(40)]
            ).astype(np.intp)
            exponents = rng.integers(1, 3, size=(40, width)).astype(np.float64)
            rows = np.sort(rng.integers(0, 5, size=40)).astype(np.intp)
            groups.append((indices, exponents, rows))
        index = RowDeltaIndex.from_groups(6, 5, groups)
        contributions = [rng.uniform(-1, 1, 40) for _ in groups]
        sums = np.bincount(
            index.factor_entries,
            weights=np.concatenate(
                [np.repeat(c, g[0].shape[1]) for c, g in zip(contributions, groups)]
            ),
            minlength=index.entry_rows.size,
        )
        expected = {}
        for (indices, exponents, rows), contrib in zip(groups, contributions):
            for m in range(len(rows)):
                for column, exponent in zip(indices[m], exponents[m]):
                    key = (int(column), int(rows[m]), float(exponent))
                    expected[key] = expected.get(key, 0.0) + contrib[m]
        got = {}
        for column in range(6):
            for entry in range(index.entry_ptr[column], index.entry_ptr[column + 1]):
                key = (column, int(index.entry_rows[entry]), float(index.entry_exponents[entry]))
                assert key not in got
                got[key] = sums[entry]
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value)
        assert index.has_higher_powers
        assert index.pairs[0] is None
        assert index.sizes()["pairs"] == (
            index.pairs[1].codes.size + index.pairs[2].codes.size
        )


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

    def test_cached_on_the_set(self, provenance):
        first = provenance.incidence()
        assert provenance.incidence() is first
        # An equal but distinct set builds its own rows.
        clone = ProvenanceSet({key: poly for key, poly in provenance.items()})
        assert clone.incidence() is not first

    def test_mutation_drops_the_cached_rows(self, provenance):
        first = provenance.incidence()
        provenance[("g3",)] = Polynomial({Monomial.of("w"): 1.0})
        second = provenance.incidence()
        assert second is not first and second.num_rows() == 5
        assert provenance.rename({"w": "x"})[("g3",)] == Polynomial(
            {Monomial.of("x"): 1.0}
        )
        provenance.add(("g2",), Polynomial({Monomial.of("y"): 5.0}))
        assert provenance.incidence() is not second
        assert provenance.rename({"y": "x"})[("g2",)] == Polynomial(
            {Monomial.of("x"): 9.0}
        )

    def test_nudged_set_gets_its_own_rows(self, provenance):
        first = provenance.incidence()
        # Coefficients that agree to 9 decimals are still different sets:
        # the fingerprint hashes the exact float64 bytes.
        nudged = ProvenanceSet()
        nudged[("g2",)] = provenance[("g2",)]
        nudged[("g1",)] = Polynomial(
            {Monomial.of("x", "y"): 2.0 + 1e-11, Monomial.of("z"): 3.0,
             Monomial.unit(): 1.0}
        )
        assert nudged.fingerprint() != provenance.fingerprint()
        second = nudged.incidence()
        assert second is not first
        assert second.keys == (("g2",), ("g1",))
        assert second.coefficients.tolist() == [4.0, 1.0, 2.0 + 1e-11, 3.0]
        assert nudged.rename({})[("g1",)] is nudged[("g1",)]

