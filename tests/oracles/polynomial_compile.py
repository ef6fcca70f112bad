"""The per-monomial compile loop the numeric backends replaced: an oracle.

``_CompiledNumericSet.__init__`` now slices the provenance set's id-encoded
incidence rows into its width-groups.  The Python loop below walked every
polynomial's ``terms()`` instead, folding each unit monomial into the row
constant through a per-term hook; it is kept verbatim as the reference the
array build is checked against (``tests/property/test_compile_parity.py``).

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.polynomial_compile import compile_by_polynomial
"""

from typing import Callable, Dict, List, Tuple, Type, TypeVar

import numpy as np

from repro.provenance.backends.numeric import _CompiledNumericSet, _SegmentGroup
from repro.provenance.polynomial import ProvenanceSet

CompiledT = TypeVar("CompiledT", bound=_CompiledNumericSet)

def _fold_real(constant: np.ndarray, row: int, coefficient: float) -> None:
    constant[row] += coefficient


def _fold_tropical(constant: np.ndarray, row: int, coefficient: float) -> None:
    constant[row] = min(constant[row], float(coefficient))


def _fold_bool(constant: np.ndarray, row: int, coefficient: float) -> None:
    if coefficient != 0.0:
        constant[row] = 1.0


#: The per-term constant folds, by backend name: each folds one unit
#: monomial's coefficient into ``constant[row]``.
_FOLD_CONSTANT: Dict[str, Callable[[np.ndarray, int, float], None]] = {
    "real": _fold_real,
    "tropical": _fold_tropical,
    "bool": _fold_bool,
}


def compile_by_polynomial(
    set_class: Type[CompiledT], provenance: ProvenanceSet
) -> CompiledT:
    """``set_class(provenance)`` built by the per-monomial loop."""
    self = set_class.__new__(set_class)
    fold_constant = _FOLD_CONSTANT[set_class.backend_name]
    self._init_delta_caches()
    self._fingerprint = provenance.fingerprint()
    self._store_path = None
    self._keys = provenance.keys()
    variables = sorted(provenance.variables())
    self._variables = tuple(variables)
    self._index = {name: i for i, name in enumerate(variables)}
    key_index = {key: i for i, key in enumerate(self._keys)}

    self._constant = np.full(len(self._keys), self._identity, dtype=np.float64)
    by_width: Dict[int, List[Tuple[int, float, List[int], List[int]]]] = {}
    for key, polynomial in provenance.items():
        row = key_index[key]
        for monomial, coefficient in polynomial.terms():
            if monomial.is_unit():
                fold_constant(self._constant, row, coefficient)
                continue
            var_indices: List[int] = []
            exponents: List[int] = []
            for name, exponent in monomial:
                var_indices.append(self._index[name])
                exponents.append(exponent)
            by_width.setdefault(len(var_indices), []).append(
                (row, coefficient, var_indices, exponents)
            )

    self._groups = []
    for _width, rows in sorted(by_width.items()):
        self._groups.append(
            _SegmentGroup(
                np.array([r[0] for r in rows], dtype=np.intp),
                np.array([r[1] for r in rows], dtype=np.float64),
                np.array([r[2] for r in rows], dtype=np.intp),
                np.array([r[3] for r in rows], dtype=np.float64),
            )
        )
    return self
