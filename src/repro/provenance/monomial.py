"""Monomials: products of provenance variables with positive integer exponents.

A monomial is the multiplicative part of one term of a provenance polynomial,
e.g. ``p1 * m1`` or ``x^2 * y``.  Monomials are immutable, hashable and
totally ordered (lexicographically on their canonical factor sequence), which
lets polynomials use them as dictionary keys and print in a stable order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple, Union

from repro.exceptions import InvalidMonomialError
from repro.provenance.variables import Variable, variable_name

VariableLike = Union[str, Variable]


class Monomial:
    """An immutable product of variables raised to positive integer powers.

    Parameters
    ----------
    exponents:
        A mapping from variable (name or :class:`Variable`) to a positive
        integer exponent, or an iterable of variables (each occurrence
        contributing exponent 1).  The empty monomial represents the
        multiplicative unit ``1``.
    """

    __slots__ = ("_factors", "_hash")

    def __init__(
        self,
        exponents: Union[
            Mapping[VariableLike, int], Iterable[VariableLike], None
        ] = None,
    ) -> None:
        factors: Dict[str, int] = {}
        if exponents is None:
            pass
        elif isinstance(exponents, Mapping):
            for var, exp in exponents.items():
                name = variable_name(var)
                if not isinstance(exp, int) or isinstance(exp, bool):
                    raise InvalidMonomialError(
                        f"exponent of {name!r} must be an int, got {exp!r}"
                    )
                if exp < 0:
                    raise InvalidMonomialError(
                        f"exponent of {name!r} must be non-negative, got {exp}"
                    )
                if exp > 0:
                    factors[name] = factors.get(name, 0) + exp
        else:
            for var in exponents:
                name = variable_name(var)
                factors[name] = factors.get(name, 0) + 1
        self._factors: Tuple[Tuple[str, int], ...] = tuple(
            sorted(factors.items())
        )
        self._hash = hash(self._factors)

    # -- constructors -----------------------------------------------------

    @classmethod
    def unit(cls) -> "Monomial":
        """The empty monomial, i.e. the constant factor ``1``."""
        return cls()

    @classmethod
    def of(cls, *variables: VariableLike) -> "Monomial":
        """Build a monomial from variable occurrences: ``Monomial.of("x", "x", "y")`` is ``x^2*y``."""
        return cls(variables)

    @classmethod
    def trusted(cls, factors: Tuple[Tuple[str, int], ...]) -> "Monomial":
        """Wrap an already-canonical factor tuple *without* revalidating it.

        ``factors`` must be sorted by name, with distinct valid names and
        positive ``int`` exponents — what :attr:`factors` returns.  Array
        rewrites that produce canonical factors by construction (the
        incidence-row rename) use this fast path; everything else goes
        through the validating constructor.
        """
        monomial = cls.__new__(cls)
        monomial._factors = factors
        monomial._hash = hash(factors)
        return monomial

    @classmethod
    def from_factors(cls, factors: Iterable[Tuple[VariableLike, int]]) -> "Monomial":
        """Build a monomial from ``(variable, exponent)`` pairs."""
        merged: Dict[str, int] = {}
        for var, exp in factors:
            name = variable_name(var)
            merged[name] = merged.get(name, 0) + int(exp)
        return cls(merged)

    # -- inspection --------------------------------------------------------

    @property
    def factors(self) -> Tuple[Tuple[str, int], ...]:
        """The canonical ``(variable, exponent)`` factor sequence, sorted by name."""
        return self._factors

    def exponent(self, var: VariableLike) -> int:
        """Exponent of ``var`` in this monomial (0 if absent)."""
        name = variable_name(var)
        for candidate, exp in self._factors:
            if candidate == name:
                return exp
        return 0

    def variables(self) -> Tuple[str, ...]:
        """Names of the variables occurring (with positive exponent)."""
        return tuple(name for name, _ in self._factors)

    def degree(self) -> int:
        """Total degree: the sum of all exponents."""
        return sum(exp for _, exp in self._factors)

    def is_unit(self) -> bool:
        """Whether this is the empty (constant ``1``) monomial."""
        return not self._factors

    def __len__(self) -> int:
        return len(self._factors)

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(self._factors)

    def __contains__(self, var: object) -> bool:
        if isinstance(var, Variable):
            var = var.name
        return any(name == var for name, _ in self._factors)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        merged: Dict[str, int] = dict(self._factors)
        for name, exp in other._factors:
            merged[name] = merged.get(name, 0) + exp
        return Monomial(merged)

    def rename(self, mapping: Mapping[str, str]) -> "Monomial":
        """Return the monomial with variables renamed through ``mapping``.

        Variables not present in ``mapping`` are kept as-is.  If two distinct
        variables map to the same target their exponents are added — this is
        exactly what happens when an abstraction groups variables together.
        """
        merged: Dict[str, int] = {}
        for name, exp in self._factors:
            target = mapping.get(name, name)
            merged[target] = merged.get(target, 0) + exp
        return Monomial(merged)

    def without(self, variables: Iterable[VariableLike]) -> "Monomial":
        """Return the monomial with the given variables removed entirely."""
        drop = {variable_name(v) for v in variables}
        return Monomial(
            {name: exp for name, exp in self._factors if name not in drop}
        )

    def restrict(self, variables: Iterable[VariableLike]) -> "Monomial":
        """Return the monomial keeping only the given variables."""
        keep = {variable_name(v) for v in variables}
        return Monomial(
            {name: exp for name, exp in self._factors if name in keep}
        )

    def evaluate(self, valuation: Mapping[str, float]) -> float:
        """Evaluate the monomial under a variable → value mapping."""
        result = 1.0
        for name, exp in self._factors:
            result *= float(valuation[name]) ** exp
        return result

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._factors == other._factors

    def __lt__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._factors < other._factors

    def __le__(self, other: "Monomial") -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._factors <= other._factors

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Monomial({self.to_text()!r})"

    def to_text(self) -> str:
        """Render as text, e.g. ``"p1*m1"`` or ``"x^2*y"`` (``"1"`` for the unit)."""
        if not self._factors:
            return "1"
        parts = []
        for name, exp in self._factors:
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return "*".join(parts)
