"""Unit tests for valuations and the compiled (vectorised) evaluators."""

import numpy as np
import pytest

from repro.exceptions import MissingValuationError
from repro.provenance.backends import resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.provenance.semiring import evaluate_in_semiring
from repro.provenance.valuation import FingerprintCache, Valuation


@pytest.fixture
def p1():
    return Polynomial.from_terms(
        [
            (208.8, ["p1", "m1"]),
            (240.0, ["p1", "m3"]),
            (42.0, ["v", "m1"]),
            (24.2, ["v", "m3"]),
            (5.0, []),
        ]
    )


class TestValuation:
    def test_mapping_interface(self):
        valuation = Valuation({"x": 1.5, "y": 2})
        assert valuation["x"] == pytest.approx(1.5)
        assert valuation["y"] == pytest.approx(2.0)
        assert len(valuation) == 2
        assert set(valuation) == {"x", "y"}
        assert "x" in valuation

    def test_uniform(self):
        valuation = Valuation.uniform(["a", "b"], 0.5)
        assert valuation["a"] == valuation["b"] == pytest.approx(0.5)

    def test_identity_for_polynomial(self, p1):
        valuation = Valuation.identity_for(p1)
        assert set(valuation) == set(p1.variables())
        assert all(value == 1.0 for value in valuation.values())

    def test_updated_does_not_mutate(self):
        original = Valuation({"x": 1.0})
        updated = original.updated({"x": 2.0, "y": 3.0})
        assert original["x"] == 1.0
        assert updated["x"] == 2.0
        assert updated["y"] == 3.0

    def test_scaled(self):
        valuation = Valuation({"m1": 1.0, "m3": 1.0}).scaled(["m3"], 0.8)
        assert valuation["m3"] == pytest.approx(0.8)
        assert valuation["m1"] == pytest.approx(1.0)

    def test_scaled_treats_missing_as_one(self):
        valuation = Valuation({}).scaled(["m3"], 0.8)
        assert valuation["m3"] == pytest.approx(0.8)

    def test_restricted(self):
        valuation = Valuation({"a": 1, "b": 2}).restricted(["b", "c"])
        assert set(valuation) == {"b"}

    def test_covers_and_missing(self):
        valuation = Valuation({"a": 1})
        assert valuation.covers(["a"])
        assert not valuation.covers(["a", "b"])
        assert valuation.missing(["b", "a", "c"]) == ("b", "c")


NUMERIC_BACKENDS = ("real", "tropical", "bool")


def _reference(provenance, backend, valuation):
    return {
        key: evaluate_in_semiring(
            polynomial,
            backend.semiring,
            valuation,
            coefficient_embedding=backend.embed_coefficient,
        )
        for key, polynomial in provenance.items()
    }


@pytest.mark.parametrize("name", NUMERIC_BACKENDS)
class TestCompiledNumericSet:
    @pytest.fixture
    def provenance(self, p1):
        provenance = ProvenanceSet()
        provenance[("10001",)] = p1
        provenance[("10002",)] = Polynomial.from_terms(
            [(77.9, ["b1", "m1"]), (80.5, ["b1", "m3"]), (3.0, [])]
        )
        provenance[("10003",)] = Polynomial(
            {Monomial({"m1": 3}): 2.0, Monomial.of("m1", "b1"): 1.0}
        )
        return provenance

    def test_matches_reference_evaluation(self, provenance, name):
        backend = resolve_backend(name)
        compiled = backend.compile(provenance)
        valuation = Valuation.identity_for(provenance, semiring=name).scaled(
            ["m3"], 0.8
        ).set_to(["b1"], 0.0)
        naive = _reference(provenance, backend, valuation)
        fast = compiled.evaluate(valuation)
        assert set(fast) == set(naive)
        for key in naive:
            assert fast[key] == pytest.approx(naive[key])

    def test_size_matches(self, provenance, name):
        assert resolve_backend(name).compile(provenance).size() == provenance.size()

    def test_keys_order_preserved(self, provenance, name):
        assert resolve_backend(name).compile(provenance).keys == provenance.keys()

    def test_evaluate_vector_alignment(self, provenance, name):
        compiled = resolve_backend(name).compile(provenance)
        valuation = Valuation.identity_for(provenance, semiring=name)
        vector = compiled.evaluate_vector(valuation)
        mapping = compiled.evaluate(valuation)
        for index, key in enumerate(compiled.keys):
            assert vector[index] == pytest.approx(float(mapping[key]))

    def test_missing_variable_raises(self, provenance, name):
        with pytest.raises(MissingValuationError):
            resolve_backend(name).compile(provenance).evaluate({"p1": 1.0})

    def test_empty_set(self, name):
        compiled = resolve_backend(name).compile(ProvenanceSet())
        assert compiled.size() == 0
        assert compiled.evaluate({}) == {}


class TestFingerprintCache:
    def test_get_counts_misses(self):
        """Regression: misses used to be counted only via get_or_build."""
        cache = FingerprintCache(capacity=2)
        assert cache.get("absent") is None
        assert cache.info()["misses"] == 1
        assert cache.info()["hits"] == 0

    def test_cached_falsy_values_are_hits(self):
        """Regression: a cached None/0/False was reported as a miss."""
        cache = FingerprintCache(capacity=4)
        cache.put("none", None)
        cache.put("zero", 0)
        cache.put("false", False)
        assert cache.get("none") is None
        assert cache.get("zero") == 0
        assert cache.get("false") is False
        info = cache.info()
        assert info["hits"] == 3
        assert info["misses"] == 0

    def test_get_or_build_does_not_rebuild_falsy_values(self):
        cache = FingerprintCache(capacity=2)
        calls = []

        def factory():
            calls.append(1)
            return None

        assert cache.get_or_build("k", factory) is None
        assert cache.get_or_build("k", factory) is None
        assert len(calls) == 1
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_get_default_argument(self):
        cache = FingerprintCache(capacity=2)
        sentinel = object()
        assert cache.get("absent", sentinel) is sentinel

    def test_lru_eviction_and_recency(self):
        cache = FingerprintCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touch a -> b is least recent
        cache.put("c", 3)
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == 1
        assert cache.get("c") == 3
