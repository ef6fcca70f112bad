"""Unit tests of the dict-row greedy kernel oracle and its incidence index.

``tests/oracles/dict_greedy_kernel.py`` is the reference the array kernel is
checked against, so its own row view and per-tree-node CSR are pinned here.
"""

from oracles.dict_greedy_kernel import MonomialIncidenceIndex, _incidence_rows

from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
from repro.provenance.incidence import ProvenanceIncidence
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet


class TestIncidenceIndex:
    def test_csr_rows_aggregate_bottom_up(self, simple_provenance, simple_tree):
        index = MonomialIncidenceIndex(
            simple_provenance, AbstractionForest([simple_tree])
        )
        assert index.num_rows() == simple_provenance.size()
        # a1 occurs in two monomials (one per group); the "A" subtree adds a2.
        assert index.occurrences("a1") == 2
        assert index.occurrences("A") == 3
        # The root touches every monomial containing any tree leaf (the pure
        # e1 monomial of g2 has no tree variable).
        assert index.occurrences("R") == simple_provenance.size() - 1
        assert set(index.rows_under("A")) >= set(index.rows_under("a1"))


class TestNameKeyedRows:
    def test_rows_follow_the_canonical_incidence_order(self):
        provenance = ProvenanceSet()
        provenance[("g1",)] = Polynomial(
            {Monomial.of("x", "y"): 2.0, Monomial.of("z"): 3.0, Monomial.unit(): 1.0}
        )
        provenance[("g2",)] = Polynomial({Monomial.of("x"): 4.0})
        incidence = ProvenanceIncidence(provenance)
        assert _incidence_rows(incidence) == [
            (0, (), 1.0),
            (0, (("x", 1), ("y", 1)), 2.0),
            (0, (("z", 1),), 3.0),
            (1, (("x", 1),), 4.0),
        ]


class TestKernelIndexUnification:
    def test_kernel_index_reuses_shared_incidence(self):
        provenance = ProvenanceSet()
        provenance[("g",)] = Polynomial(
            {Monomial.of("a", "b"): 1.0, Monomial.of("b"): 2.0}
        )
        tree = AbstractionTree("R", {"R": ["a", "b"]})
        index = MonomialIncidenceIndex(provenance, AbstractionForest([tree]))
        shared = provenance.incidence()
        assert list(index.variable_rows["b"]) == list(shared.rows_for("b"))
        assert list(index.rows_under("R")) == [0, 1]
