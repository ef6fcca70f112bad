"""Provenance polynomials and keyed collections of them.

A :class:`Polynomial` is a finite sum of monomials with numeric coefficients,
the symbolic representation of a (possibly aggregate) query result described
in Section 2 of the COBRA paper.  A :class:`ProvenanceSet` is the multiset of
polynomials COBRA receives as input — in practice one polynomial per result
group (e.g. one per zip code in the running example), keyed by the group-by
values so the engine can report per-group result changes.
"""

from __future__ import annotations

import hashlib
from numbers import Real
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.exceptions import (
    InvalidPolynomialError,
    MissingValuationError,
)
from repro.obs.tracer import trace
from repro.provenance.monomial import Monomial, VariableLike
from repro.provenance.variables import variable_name

if TYPE_CHECKING:  # pragma: no cover — import cycle: incidence imports this
    from repro.provenance.incidence import ProvenanceIncidence

Number = Union[int, float]

#: Coefficients with absolute value below this threshold are dropped when a
#: polynomial is normalised.  Exact zero always collapses; the epsilon guards
#: against float dust produced by long chains of additions.
_ZERO_EPSILON = 1e-12

#: The unit monomial, looked up by the ``p * 1`` short-circuit in ``__mul__``.
_UNIT = Monomial.unit()


class Polynomial:
    """An immutable provenance polynomial: a map from monomials to coefficients.

    Construction normalises the representation: terms with (numerically) zero
    coefficients are dropped and duplicate monomials are merged by summing
    their coefficients.

    Examples
    --------
    >>> p = Polynomial({Monomial.of("p1", "m1"): 208.8, Monomial.of("p1", "m3"): 240})
    >>> p.num_monomials()
    2
    >>> sorted(p.variables())
    ['m1', 'm3', 'p1']
    """

    __slots__ = ("_terms", "_hash")

    def __init__(
        self,
        terms: Optional[Mapping[Monomial, Number]] = None,
    ) -> None:
        merged: Dict[Monomial, float] = {}
        if terms:
            for monomial, coefficient in terms.items():
                if not isinstance(monomial, Monomial):
                    raise InvalidPolynomialError(
                        f"polynomial keys must be Monomial, got {type(monomial).__name__}"
                    )
                if not isinstance(coefficient, Real):
                    raise InvalidPolynomialError(
                        f"coefficient of {monomial.to_text()} must be a number, "
                        f"got {coefficient!r}"
                    )
                value = merged.get(monomial, 0.0) + float(coefficient)
                merged[monomial] = value
        self._terms: Dict[Monomial, float] = {
            m: c for m, c in merged.items() if abs(c) > _ZERO_EPSILON
        }
        self._hash: Optional[int] = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def trusted(cls, terms: Dict[Monomial, float]) -> "Polynomial":
        """Adopt ``terms`` as the term dict *without* revalidating or copying.

        Every coefficient must be a ``float`` with absolute value above
        ``_ZERO_EPSILON`` — what a normalised polynomial holds.  Callers
        hand over the dict; it must not be mutated afterwards.
        """
        polynomial = cls.__new__(cls)
        polynomial._terms = terms
        polynomial._hash = None
        return polynomial

    @classmethod
    def zero(cls) -> "Polynomial":
        """The additive identity (no monomials)."""
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        """The multiplicative identity (the unit monomial with coefficient 1)."""
        return cls({Monomial.unit(): 1.0})

    @classmethod
    def constant(cls, value: Number) -> "Polynomial":
        """A constant polynomial."""
        return cls({Monomial.unit(): float(value)})

    @classmethod
    def variable(cls, var: VariableLike, coefficient: Number = 1.0) -> "Polynomial":
        """The polynomial ``coefficient * var``."""
        return cls({Monomial.of(variable_name(var)): float(coefficient)})

    @classmethod
    def from_terms(
        cls, terms: Iterable[Tuple[Number, Sequence[VariableLike]]]
    ) -> "Polynomial":
        """Build a polynomial from ``(coefficient, [variables...])`` terms.

        Repeated variables inside a term raise the exponent, and repeated
        identical terms are merged, e.g.
        ``Polynomial.from_terms([(2, ["x", "x"]), (3, ["y"])])`` is
        ``2*x^2 + 3*y``.
        """
        accumulated: Dict[Monomial, float] = {}
        for coefficient, variables in terms:
            monomial = Monomial.of(*variables)
            accumulated[monomial] = accumulated.get(monomial, 0.0) + float(coefficient)
        return cls(accumulated)

    @classmethod
    def sum(cls, polynomials: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of ``polynomials``, built as one polynomial in one pass.

        The result equals ``reduce(operator.add, polynomials,
        Polynomial.zero())`` coefficient for coefficient and in term order: a
        running coefficient is dropped as soon as it cancels to within
        ``_ZERO_EPSILON``, as each intermediate ``+`` would drop it, and a
        monomial that comes back afterwards is appended at the end.  The fold
        copies and re-validates its running total at every step, which is
        quadratic in the number of summands; this accumulates into one dict
        and validates each surviving coefficient once.
        """
        running: Dict[Monomial, float] = {}
        for polynomial in polynomials:
            if not isinstance(polynomial, Polynomial):
                raise InvalidPolynomialError(
                    f"Polynomial.sum takes polynomials, got {type(polynomial).__name__}"
                )
            for monomial, coefficient in polynomial._terms.items():
                value = running.get(monomial, 0.0) + coefficient
                if abs(value) > _ZERO_EPSILON:
                    running[monomial] = value
                else:
                    running.pop(monomial, None)
        return cls(running)

    # -- inspection --------------------------------------------------------

    def terms(self) -> Tuple[Tuple[Monomial, float], ...]:
        """All ``(monomial, coefficient)`` pairs in canonical (sorted) order."""
        # Monomials order by their factor tuples; comparing those directly
        # skips a Python-level ``__lt__`` call per comparison.
        return tuple(
            sorted(self._terms.items(), key=lambda item: item[0].factors)
        )

    def coefficient(self, monomial: Monomial) -> float:
        """Coefficient of ``monomial`` (0.0 if absent)."""
        return self._terms.get(monomial, 0.0)

    def num_monomials(self) -> int:
        """The number of monomials — the paper's measure of provenance size."""
        return len(self._terms)

    def variables(self) -> frozenset:
        """The set of variable names occurring in the polynomial."""
        names = set()
        for monomial in self._terms:
            names.update(monomial.variables())
        return frozenset(names)

    def degree(self) -> int:
        """The maximum total degree over all monomials (0 for the zero polynomial)."""
        if not self._terms:
            return 0
        return max(monomial.degree() for monomial in self._terms)

    def is_zero(self) -> bool:
        """Whether this is the zero polynomial."""
        return not self._terms

    def constant_term(self) -> float:
        """The coefficient of the unit monomial."""
        return self._terms.get(Monomial.unit(), 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[Tuple[Monomial, float]]:
        return iter(self.terms())

    def __contains__(self, monomial: object) -> bool:
        return monomial in self._terms

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Polynomial | Number") -> "Polynomial":
        if isinstance(other, Real):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        merged = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            merged[monomial] = merged.get(monomial, 0.0) + coefficient
        return Polynomial(merged)

    __radd__ = __add__

    def __sub__(self, other: "Polynomial | Number") -> "Polynomial":
        if isinstance(other, Real):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial | Number") -> "Polynomial":
        if isinstance(other, Real):
            return self.scale(float(other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        # ``c * 1.0 == c``, so a unit factor returns the other (immutable)
        # operand unchanged instead of rebuilding it.
        if _is_one(other._terms):
            return self
        if _is_one(self._terms):
            return other
        product: Dict[Monomial, float] = {}
        for mono_a, coeff_a in self._terms.items():
            for mono_b, coeff_b in other._terms.items():
                key = mono_a * mono_b
                product[key] = product.get(key, 0.0) + coeff_a * coeff_b
        return Polynomial(product)

    __rmul__ = __mul__

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def scale(self, factor: Number) -> "Polynomial":
        """Multiply every coefficient by ``factor``."""
        return Polynomial(
            {monomial: coefficient * float(factor)
             for monomial, coefficient in self._terms.items()}
        )

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables through ``mapping``, merging coinciding monomials.

        This is abstraction on one polynomial: when the mapping sends
        several variables to the same meta-variable, previously distinct
        monomials may become identical and their coefficients are summed —
        precisely the compression effect described in the paper.
        :meth:`ProvenanceSet.rename` gives the same result for every
        polynomial of a set at once, computed on arrays.
        """
        merged: Dict[Monomial, float] = {}
        for monomial, coefficient in self._terms.items():
            target = monomial.rename(mapping)
            merged[target] = merged.get(target, 0.0) + coefficient
        return Polynomial(merged)

    def substitute(self, assignment: Mapping[str, Number]) -> "Polynomial":
        """Partially evaluate: replace some variables by numeric values.

        Variables not mentioned in ``assignment`` remain symbolic.  The result
        is again a polynomial; substituting every variable yields a constant
        polynomial whose value equals :meth:`evaluate`.
        """
        merged: Dict[Monomial, float] = {}
        for monomial, coefficient in self._terms.items():
            numeric = coefficient
            remaining: Dict[str, int] = {}
            for name, exp in monomial:
                if name in assignment:
                    numeric *= float(assignment[name]) ** exp
                else:
                    remaining[name] = exp
            key = Monomial(remaining)
            merged[key] = merged.get(key, 0.0) + numeric
        return Polynomial(merged)

    def evaluate(self, valuation: Mapping[str, Number]) -> float:
        """Fully evaluate the polynomial under ``valuation``.

        Raises
        ------
        MissingValuationError
            If some variable of the polynomial has no value in ``valuation``.
        """
        missing = [name for name in self.variables() if name not in valuation]
        if missing:
            raise MissingValuationError(missing)
        total = 0.0
        for monomial, coefficient in self._terms.items():
            term = coefficient
            for name, exp in monomial:
                term *= float(valuation[name]) ** exp
            total += term
        return total

    def restrict_variables(self, variables: Iterable[str]) -> "Polynomial":
        """Keep only monomials whose variables are all within ``variables``."""
        keep = set(variables)
        return Polynomial(
            {
                monomial: coefficient
                for monomial, coefficient in self._terms.items()
                if set(monomial.variables()) <= keep
            }
        )

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def almost_equal(self, other: "Polynomial", tolerance: float = 1e-9) -> bool:
        """Structural equality up to a per-coefficient absolute ``tolerance``."""
        keys = set(self._terms) | set(other._terms)
        return all(
            abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)) <= tolerance
            for k in keys
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self.to_text()!r})"

    def to_text(self, precision: int = 6) -> str:
        """Render as text, e.g. ``"208.8*p1*m1 + 240*p1*m3"``."""
        if not self._terms:
            return "0"
        parts: List[str] = []
        for monomial, coefficient in self.terms():
            coeff_text = _format_number(coefficient, precision)
            if monomial.is_unit():
                parts.append(coeff_text)
            elif coefficient == 1.0:
                parts.append(monomial.to_text())
            else:
                parts.append(f"{coeff_text}*{monomial.to_text()}")
        return " + ".join(parts)


def _is_one(terms: Mapping[Monomial, float]) -> bool:
    """Whether ``terms`` is exactly the unit polynomial ``{1: 1.0}``."""
    return len(terms) == 1 and terms.get(_UNIT) == 1.0


def _format_number(value: float, precision: int) -> str:
    """Format a coefficient without a trailing ``.0`` for integral values."""
    if float(value).is_integer():
        return str(int(value))
    return f"{round(value, precision):g}"


class ProvenanceSet:
    """A keyed multiset of provenance polynomials.

    This is COBRA's input: "a multiset of polynomials, intuitively including
    all polynomials that appear in the provenance-aware result of query
    evaluation".  Each polynomial is keyed by the identifying values of its
    result tuple (e.g. the ``Zip`` group-by key) so the engine can show how
    each result row changes under a hypothetical valuation.
    """

    __slots__ = (
        "_polynomials",
        "_variables_cache",
        "_fingerprint_cache",
        "_size_cache",
        "_incidence",
    )

    def __init__(
        self,
        polynomials: Optional[Mapping[Tuple, Polynomial]] = None,
    ) -> None:
        self._polynomials: Dict[Tuple, Polynomial] = {}
        self._invalidate_caches()
        if polynomials:
            for key, polynomial in polynomials.items():
                self[key] = polynomial

    @classmethod
    def trusted(
        cls, polynomials: Dict[Tuple, Polynomial], variables: frozenset
    ) -> "ProvenanceSet":
        """Adopt tuple-keyed ``polynomials`` and their known variable set.

        No checks and no copy: the keys must already be normalised tuples,
        the values :class:`Polynomial`, and ``variables`` exactly the union
        of their variables.  For array rewrites that know all three by
        construction (the incidence-row rename).
        """
        result = cls()
        result._polynomials = polynomials
        result._variables_cache = variables
        return result

    # -- mutation (builder-style) -------------------------------------------

    def _invalidate_caches(self) -> None:
        self._variables_cache: Optional[frozenset] = None
        self._fingerprint_cache: Optional[str] = None
        self._size_cache: Optional[int] = None
        self._incidence: Optional[ProvenanceIncidence] = None

    def __setitem__(self, key, polynomial: Polynomial) -> None:
        if not isinstance(polynomial, Polynomial):
            raise InvalidPolynomialError(
                f"ProvenanceSet values must be Polynomial, got {type(polynomial).__name__}"
            )
        self._polynomials[_normalize_key(key)] = polynomial
        self._invalidate_caches()

    def add(self, key, polynomial: Polynomial) -> None:
        """Add (or sum into) the polynomial registered under ``key``."""
        key = _normalize_key(key)
        if key in self._polynomials:
            self._polynomials[key] = self._polynomials[key] + polynomial
            self._invalidate_caches()
        else:
            self[key] = polynomial

    # -- access --------------------------------------------------------------

    def __getitem__(self, key) -> Polynomial:
        return self._polynomials[_normalize_key(key)]

    def get(self, key, default: Optional[Polynomial] = None) -> Optional[Polynomial]:
        """Return the polynomial under ``key`` or ``default``."""
        return self._polynomials.get(_normalize_key(key), default)

    def __contains__(self, key) -> bool:
        return _normalize_key(key) in self._polynomials

    def __len__(self) -> int:
        return len(self._polynomials)

    def keys(self) -> Tuple[Tuple, ...]:
        """All result keys in insertion order."""
        return tuple(self._polynomials.keys())

    def items(self) -> Iterator[Tuple[Tuple, Polynomial]]:
        """Iterate over ``(key, polynomial)`` pairs."""
        return iter(self._polynomials.items())

    def polynomials(self) -> Tuple[Polynomial, ...]:
        """All polynomials, in key insertion order."""
        return tuple(self._polynomials.values())

    # -- aggregate measures ---------------------------------------------------

    def size(self) -> int:
        """Total number of monomials across all polynomials (cached until mutation)."""
        if self._size_cache is None:
            self._size_cache = sum(
                p.num_monomials() for p in self._polynomials.values()
            )
        return self._size_cache

    def variables(self) -> frozenset:
        """Union of variables across all polynomials (cached until mutation).

        Scenario selection and batch compilation both need the full variable
        universe repeatedly; the union is computed once and invalidated by the
        builder-style mutators, so callers can share one variable index
        instead of recomputing the union per use.
        """
        if self._variables_cache is None:
            names = set()
            for polynomial in self._polynomials.values():
                names.update(polynomial.variables())
            self._variables_cache = frozenset(names)
        return self._variables_cache

    def num_variables(self) -> int:
        """Number of distinct variables — the paper's expressiveness measure."""
        return len(self.variables())

    def fingerprint(self) -> str:
        """An exact content hash of the set, stable across processes (cached).

        Hashes the arrays of :meth:`incidence`: the keys' canonical reprs
        (:func:`_key_text`: numeric parts that compare equal, such as
        ``1``, ``1.0`` and ``True``, are spelled alike), the name table, the
        distinct monomials' factor matrices and, per row, the group, the
        monomial id and the coefficient's exact float64 bytes.  Groups are
        renumbered in canonical-repr order, so two sets share a fingerprint
        exactly when they are ``==``, whatever the insertion order of their
        keys and terms.  Compile caches and compiled stores are keyed by it.
        """
        if self._fingerprint_cache is None:
            incidence = self.incidence()
            reprs = [_key_text(key) for key in incidence.keys]
            order = sorted(range(len(reprs)), key=reprs.__getitem__)
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            group_ids = rank[incidence.group_ids]
            # Rows within a group already ascend by monomial id.
            rows = np.argsort(group_ids, kind="stable")
            digest = hashlib.sha256()
            for strings in ([reprs[i] for i in order], incidence.names):
                encoded = [text.encode("utf-8") for text in strings]
                _feed(digest, np.array([len(e) for e in encoded], dtype="<i8"))
                digest.update(b"".join(encoded))
            for array in (
                incidence.monomial_variables,
                incidence.monomial_exponents,
                group_ids[rows],
                incidence.monomial_ids[rows],
            ):
                _feed(digest, array.astype("<i8"))
            _feed(digest, incidence.coefficients[rows].astype("<f8"))
            self._fingerprint_cache = digest.hexdigest()
        return self._fingerprint_cache

    def incidence(self) -> ProvenanceIncidence:
        """The set's id-encoded rows (cached until mutation).

        The one array encoding of the set that renaming, compression,
        statistics and compilation all run on; see
        :class:`~repro.provenance.incidence.ProvenanceIncidence`.
        """
        if self._incidence is None:
            # Imported here: the incidence module imports this one.
            from repro.provenance.incidence import ProvenanceIncidence

            with trace("incidence.build", monomials=self.size()):
                self._incidence = ProvenanceIncidence(self)
        return self._incidence

    # -- transformations --------------------------------------------------------

    def rename(self, mapping: Mapping[str, str]) -> "ProvenanceSet":
        """Rename variables in every polynomial (the abstraction primitive).

        The result equals renaming each polynomial with
        :meth:`Polynomial.rename`, coefficient bit for coefficient bit and in
        term order, but is computed on the set's id-encoded incidence rows
        (:meth:`~repro.provenance.incidence.ProvenanceIncidence.renamed`).
        """
        return self.incidence().renamed(mapping)

    def substitute(self, assignment: Mapping[str, Number]) -> "ProvenanceSet":
        """Partially evaluate every polynomial."""
        return ProvenanceSet(
            {key: polynomial.substitute(assignment)
             for key, polynomial in self._polynomials.items()}
        )

    def evaluate(self, valuation: Mapping[str, Number]) -> Dict[Tuple, float]:
        """Evaluate every polynomial, returning key → numeric result."""
        return {
            key: polynomial.evaluate(valuation)
            for key, polynomial in self._polynomials.items()
        }

    def map(self, func) -> "ProvenanceSet":
        """Apply ``func`` to every polynomial and rebuild the set."""
        return ProvenanceSet(
            {key: func(polynomial)
             for key, polynomial in self._polynomials.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceSet):
            return NotImplemented
        return self._polynomials == other._polynomials

    def almost_equal(self, other: "ProvenanceSet", tolerance: float = 1e-9) -> bool:
        """Key-wise :meth:`Polynomial.almost_equal` comparison."""
        if set(self._polynomials) != set(other._polynomials):
            return False
        return all(
            self._polynomials[key].almost_equal(other._polynomials[key], tolerance)
            for key in self._polynomials
        )

    def __repr__(self) -> str:
        return (
            f"ProvenanceSet(groups={len(self)}, size={self.size()}, "
            f"variables={self.num_variables()})"
        )


def _feed(digest, array: np.ndarray) -> None:
    """Hash an array's shape, then its bytes (so shapes cannot alias)."""
    digest.update(repr(array.shape).encode("ascii"))
    digest.update(array.tobytes())


def _key_text(key: Tuple) -> str:
    """``repr`` of a key with its numeric parts spelled canonically.

    Keys compare by ``==``, under which ``1``, ``1.0``, ``True`` and
    ``np.int64(1)`` are one value: integral ints, bools and floats are
    spelled as ``int``, other floats as ``float``, so equal keys get one
    text.  Other parts (strings, say) keep their ``repr``.
    """
    return repr(_canonical_part(key))


def _canonical_part(part):
    if isinstance(part, tuple):
        return tuple(_canonical_part(item) for item in part)
    if isinstance(part, (bool, int, np.integer)):
        return int(part)
    if isinstance(part, (float, np.floating)):
        return int(part) if float(part).is_integer() else float(part)
    return part


def _normalize_key(key) -> Tuple:
    """Normalise result keys to tuples so scalar and 1-tuple keys coincide."""
    if isinstance(key, tuple):
        return key
    if isinstance(key, list):
        return tuple(key)
    return (key,)
