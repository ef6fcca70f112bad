"""Contract tests: every registered backend honours the full ABC surface.

The registry is the extension point — new semirings plug in by subclassing
:class:`SemiringBackend` and registering an instance — so these tests pin
the contract mechanically for *whatever* is registered, not just the five
shipped backends:

* every abstract method/property is implemented (no lingering ABC stubs);
* every overridden method keeps the base signature (parameter names, kinds
  and defaults), so generic call sites never break on a specific backend;
* the compiled set each backend produces implements *its* ABC surface and
  its ``supports_deltas`` flag tells the truth.
"""

import inspect

import numpy as np
import pytest

from repro.batch import DeltaPlan
from repro.provenance.backends import backend_names, resolve_backend
from repro.provenance.backends.base import CompiledSemiringSet, SemiringBackend
from repro.provenance.polynomial import Polynomial, ProvenanceSet

ALL_BACKENDS = backend_names()


def _provenance():
    result = ProvenanceSet()
    result[("r1",)] = Polynomial.from_terms([(2.0, ["x", "y"]), (1.0, [])])
    result[("r2",)] = Polynomial.from_terms([(3.0, ["z"])])
    return result


def _abstract_names(abc_class):
    return set(abc_class.__abstractmethods__)


def _overridden_methods(instance, abc_class):
    """(name, impl, base) for every base method the instance's class redefines."""
    for name, base_member in inspect.getmembers(abc_class):
        if name.startswith("__") or not callable(base_member):
            continue
        impl = getattr(type(instance), name, None)
        if impl is None or impl is base_member:
            continue
        yield name, impl, getattr(abc_class, name)


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBackendContract:
    def test_resolves_to_a_semiring_backend(self, name):
        backend = resolve_backend(name)
        assert isinstance(backend, SemiringBackend)
        assert backend.name == name

    def test_every_abstract_member_is_implemented(self, name):
        backend = resolve_backend(name)
        assert not getattr(type(backend), "__abstractmethods__", frozenset())
        for member in _abstract_names(SemiringBackend):
            assert getattr(type(backend), member, None) is not None

    def test_overrides_keep_the_base_signature(self, name):
        backend = resolve_backend(name)
        for method, impl, base in _overridden_methods(backend, SemiringBackend):
            if isinstance(
                inspect.getattr_static(SemiringBackend, method), property
            ):
                continue
            impl_params = list(inspect.signature(impl).parameters.values())
            base_params = list(inspect.signature(base).parameters.values())
            assert [(p.name, p.kind, p.default) for p in impl_params] == [
                (p.name, p.kind, p.default) for p in base_params
            ], f"{name}.{method} diverges from SemiringBackend.{method}"

    def test_value_semantics_round_trip(self, name):
        backend = resolve_backend(name)
        default = backend.default_value("x")
        scaled = backend.scale_value(default, 2.0)
        pinned = backend.set_value(5.0, "x")
        for value in (default, scaled, pinned, backend.embed_coefficient(2.0)):
            backend.coerce(value)
            assert isinstance(backend.magnitude(value), float)
            assert isinstance(backend.format_value(value), str)
        assert isinstance(backend.delta(default, scaled), float)
        backend.reduce_members([default, scaled])

    def test_compiled_set_implements_the_full_surface(self, name):
        backend = resolve_backend(name)
        compiled = backend.compile(_provenance())
        assert isinstance(compiled, CompiledSemiringSet)
        assert not getattr(type(compiled), "__abstractmethods__", frozenset())
        assert set(compiled.keys) == {("r1",), ("r2",)}
        assert set(compiled.variables) == {"x", "y", "z"}
        assert compiled.size() >= 3
        assert compiled.dense_row_footprint() >= 1
        valuation = {v: backend.default_value(v) for v in compiled.variables}
        results = compiled.evaluate(valuation)
        assert set(results) == {("r1",), ("r2",)}
        many = compiled.evaluate_many([valuation, valuation])
        assert len(many) == 2

    def test_supports_deltas_flag_tells_the_truth(self, name):
        backend = resolve_backend(name)
        compiled = backend.compile(_provenance())
        base = np.array(
            [1.0, 2.0, 3.0] if backend.is_numeric else [0.0, 0.0, 0.0]
        )
        plan = DeltaPlan.from_pairs(
            base, [(np.array([0], dtype=np.intp), np.array([4.0]))]
        )
        if compiled.supports_deltas:
            out = compiled.evaluate_deltas(plan)
            assert np.asarray(out).shape[0] == 1
        else:
            with pytest.raises(NotImplementedError):
                compiled.evaluate_deltas(plan)

    def test_error_measure_is_a_float_and_zero_on_identity(self, name):
        backend = resolve_backend(name)
        value = backend.set_value(3.0, "x")
        assert backend.error(value, value) == pytest.approx(0.0)
        assert isinstance(
            backend.error(value, backend.default_value("x")), float
        )
