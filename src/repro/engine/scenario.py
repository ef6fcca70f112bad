"""Hypothetical scenarios: named, composable modifications of a valuation.

A scenario captures questions such as the ones the paper's analyst asks —
"what if the price per minute of all plans is decreased by 20% in March?" or
"what if the business plans' ppm is increased by 10%?" — as a sequence of
operations over provenance variables.  Scenarios are applied to a valuation
to produce the valuation encoding the hypothetical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ScenarioError
from repro.provenance.valuation import Valuation

VariableSelector = Union[str, Sequence[str], Callable[[str], bool]]

#: One resolved scenario step: ``(kind, selected variable names, amount)``.
ResolvedOperation = Tuple[str, Tuple[str, ...], float]


def _select(
    selector: VariableSelector,
    names: Sequence[str],
    name_set: Optional[frozenset] = None,
) -> Tuple[str, ...]:
    """Resolve a selector against an already-materialised name universe.

    ``names`` must be a sequence (resolved once per scenario application, not
    per operation); ``name_set`` is an optional matching set for O(1)
    membership tests, built on demand otherwise.
    """
    if callable(selector):
        return tuple(name for name in names if selector(name))
    if name_set is None:
        name_set = frozenset(names)
    if isinstance(selector, str):
        return (selector,) if selector in name_set else ()
    # Explicit name lists are typically tiny against a large universe, so
    # iterate the selector (deduplicated, first occurrence wins) instead of
    # scanning every universe name per operation.
    return tuple(
        name for name in dict.fromkeys(selector) if name in name_set
    )


def _amount(amount: float, what: str) -> float:
    """``amount`` as a float, rejecting NaN: a NaN step would silently turn
    every row it touches into NaN."""
    value = float(amount)
    if math.isnan(value):
        raise ScenarioError(f"{what} must not be NaN")
    return value


def nonfinite_amount_error(name: str) -> ScenarioError:
    """The error for scenario ``name`` carrying an ``inf`` amount into the
    real semiring, where ``inf × 0`` would be a silent NaN.  Tropical and
    Boolean outages need ``inf``, so only the real backend raises it."""
    return ScenarioError(
        f"scenario {name!r} has a non-finite scale or set amount, which the "
        "real semiring cannot evaluate (inf * 0 is NaN)"
    )


def nan_value_error(name: str, variable: str) -> ScenarioError:
    """The error for scenario ``name`` turning ``variable`` into NaN.

    Amounts are never NaN, so a NaN value comes from a scale multiplying 0
    by ``inf`` (a zero cost scaled by ``inf``, or an ``inf`` one by 0),
    which no semiring defines.  A tropical outage cuts a link by setting
    its cost to ``inf``.
    """
    return ScenarioError(
        f"scenario {name!r} makes variable {variable!r} NaN: a scale "
        "multiplies 0 by inf; to cut a link, use "
        f"set_value({variable!r}, inf) instead of scaling it"
    )


@dataclass(frozen=True)
class _Operation:
    """One scenario step: scale or set the selected variables."""

    kind: str  # "scale" | "set"
    selector: VariableSelector
    amount: float


@dataclass(frozen=True)
class Scenario:
    """A named hypothetical: a sequence of scale/set operations on variables.

    Scenarios are immutable; ``scale``/``set_value`` return extended copies so
    they can be built fluently::

        march_discount = (
            Scenario("March discount")
            .scale(lambda name: name == "m3", 0.8)
        )
    """

    name: str
    description: str = ""
    operations: Tuple[_Operation, ...] = ()

    def scale(self, selector: VariableSelector, factor: float) -> "Scenario":
        """Multiply the selected variables' values by ``factor``.

        ``factor`` must be non-negative and not NaN; ``inf`` is allowed.
        """
        if factor < 0:
            raise ScenarioError("scale factor must be non-negative")
        factor = _amount(factor, "scale factor")
        return Scenario(
            self.name,
            self.description,
            self.operations + (_Operation("scale", selector, factor),),
        )

    def set_value(self, selector: VariableSelector, value: float) -> "Scenario":
        """Set the selected variables' values to ``value`` (not NaN; ``inf``
        is allowed — tropical outages set or scale costs to it)."""
        return Scenario(
            self.name,
            self.description,
            self.operations + (_Operation("set", selector, _amount(value, "value")),),
        )

    def resolved_operations(
        self,
        variables: Iterable[str],
        name_set: Optional[frozenset] = None,
    ) -> Tuple[ResolvedOperation, ...]:
        """Resolve every operation's selector against ``variables`` in one pass.

        The name universe is materialised exactly once (a single list and a
        single membership set shared by all operations), so applying a
        scenario — or lowering it into a batch plan — costs one resolution per
        operation instead of one list materialisation per operation.  Callers
        resolving many scenarios against one universe (the batch planner)
        pass the membership set in so it is built once per batch, not once
        per scenario.
        """
        names = variables if isinstance(variables, (list, tuple)) else list(variables)
        if name_set is None:
            name_set = frozenset(names)
        return tuple(
            (op.kind, _select(op.selector, names, name_set), op.amount)
            for op in self.operations
        )

    def apply(
        self,
        valuation: Valuation,
        variables: Optional[Iterable[str]] = None,
        semiring: Optional[object] = None,
    ) -> Valuation:
        """Apply the scenario to ``valuation``.

        ``variables`` restricts which names the selectors may touch; by
        default the valuation's own variables are used.  The operations'
        meaning is defined by the valuation's semiring backend (``semiring=``
        types a plain mapping first): numeric backends multiply/assign, set
        backends interpret scale-by-0 / set-0 as deletion.
        """
        if not isinstance(valuation, Valuation):
            valuation = Valuation(valuation, semiring=semiring)
        names = list(variables) if variables is not None else list(valuation)
        result = valuation
        for kind, selected, amount in self.resolved_operations(names):
            if kind == "scale":
                result = result.scaled(selected, amount)
            else:
                result = result.set_to(selected, amount)
        return result

    def affected_variables(self, variables: Iterable[str]) -> Tuple[str, ...]:
        """The subset of ``variables`` touched by at least one operation."""
        touched: List[str] = []
        seen = set()
        for _kind, selected, _amount in self.resolved_operations(variables):
            for name in selected:
                if name not in seen:
                    seen.add(name)
                    touched.append(name)
        return tuple(touched)

    def __repr__(self) -> str:
        return f"Scenario({self.name!r}, operations={len(self.operations)})"
