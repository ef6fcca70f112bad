"""Lowering scenario lists into valuation matrices and sparse delta plans.

The interactive engine answers one hypothetical at a time by rewriting a
:class:`~repro.provenance.valuation.Valuation` per scenario.  For batch
what-if traffic that per-scenario dict churn dominates, so the planner
lowers a list of :class:`~repro.engine.scenario.Scenario` objects over a
shared, sorted variable universe — in one of two shapes:

* :meth:`ScenarioBatch.valuation_matrix` — the dense ``scenarios ×
  variables`` matrix, feeding
  :meth:`~repro.provenance.backends.numeric.CompiledProvenanceSet.evaluate_matrix`;
* :meth:`ScenarioBatch.delta_plan` — the sparse lowering: one shared base
  row plus per-scenario ``(changed_columns, new_values)`` pairs, feeding
  :meth:`~repro.provenance.backends.numeric.CompiledProvenanceSet.evaluate_deltas`.
  Real what-if scenarios perturb a handful of variables, so the plan is a
  few cells per scenario instead of a full row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.scenario import Scenario
from repro.obs.tracer import trace
from repro.provenance.valuation import Valuation

_EMPTY_COLUMNS = np.zeros(0, dtype=np.intp)
_EMPTY_VALUES = np.zeros(0, dtype=np.float64)


@dataclass(frozen=True)
class DeltaPlan:
    """The sparse lowering of a scenario batch.

    Attributes
    ----------
    base_row:
        The shared base value vector over the batch's variable universe.
    changes:
        Per scenario, ``(changed_columns, new_values)`` — only the cells
        whose value actually differs from ``base_row`` (a no-op scenario has
        two empty arrays).  Columns index the batch universe.
    """

    base_row: np.ndarray
    changes: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return len(self.changes)

    def changed_cells(self) -> int:
        """Total number of changed cells across the whole batch."""
        return sum(columns.size for columns, _values in self.changes)

    def project(
        self, columns: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[Tuple[np.ndarray, np.ndarray], ...]]:
        """Restrict the plan to a compiled set's variable subspace.

        ``columns`` maps the target's variable order to universe columns
        (``batch.columns_for(compiled.variables)``).  Returns the projected
        base vector and per-scenario changes with universe columns remapped
        to target columns; changed variables outside the subspace (which
        cannot affect the target's results) are dropped.
        """
        columns = np.asarray(columns, dtype=np.intp)
        inverse = np.full(len(self.base_row), -1, dtype=np.intp)
        inverse[columns] = np.arange(columns.size, dtype=np.intp)
        projected: List[Tuple[np.ndarray, np.ndarray]] = []
        for changed, values in self.changes:
            local = inverse[changed]
            keep = local >= 0
            if keep.all():
                projected.append((local, values))
            else:
                projected.append((local[keep], values[keep]))
        return self.base_row[columns], tuple(projected)


class ScenarioBatch:
    """A list of scenarios lowered over one shared variable index.

    Parameters
    ----------
    scenarios:
        The hypotheticals to evaluate, in row order.
    variables:
        The variable universe the scenarios' selectors are resolved against
        (typically the union of the provenance's variables and the base
        valuation's).  Sorted into a canonical column order.
    """

    __slots__ = ("_scenarios", "_variables", "_index", "_resolved", "_touched")

    def __init__(
        self, scenarios: Sequence[Scenario], variables: Iterable[str]
    ) -> None:
        self._scenarios: Tuple[Scenario, ...] = tuple(scenarios)
        self._variables: Tuple[str, ...] = tuple(sorted(set(variables)))
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self._variables)
        }
        # Selectors are resolved once per scenario against the shared
        # universe (one membership set for the whole batch); applying the
        # plan is pure array arithmetic from here on.
        name_set = frozenset(self._variables)
        self._resolved = tuple(
            tuple(
                (kind, np.array([self._index[n] for n in selected], dtype=np.intp), amount)
                for kind, selected, amount in scenario.resolved_operations(
                    self._variables, name_set
                )
            )
            for scenario in self._scenarios
        )
        self._touched: Optional[np.ndarray] = None

    # -- inspection ---------------------------------------------------------

    @property
    def scenarios(self) -> Tuple[Scenario, ...]:
        """The scenarios, in row order."""
        return self._scenarios

    @property
    def names(self) -> Tuple[str, ...]:
        """The scenario names, in row order."""
        return tuple(scenario.name for scenario in self._scenarios)

    @property
    def variables(self) -> Tuple[str, ...]:
        """The shared variable universe, in column order (sorted)."""
        return self._variables

    def __len__(self) -> int:
        return len(self._scenarios)

    @property
    def resolved_operations(
        self,
    ) -> Tuple[Tuple[Tuple[str, np.ndarray, float], ...], ...]:
        """Per scenario, the resolved ``(kind, columns, amount)`` steps.

        Columns index the batch universe (``np.intp`` arrays), in the
        scenario's operation order — the contract the factored compiler
        (:mod:`repro.batch.factored`) relies on: operations resolve
        identically for every scenario sharing them, so a shared operation
        prefix resolves to a shared step prefix.
        """
        return self._resolved

    @property
    def noop_rows(self) -> Tuple[int, ...]:
        """Rows whose resolved operations all select nothing.

        A scenario whose selectors resolve to empty index arrays (ghost
        names, empty lists, predicates matching nothing) cannot move any
        value, so evaluators reuse the shared baseline row for it instead of
        re-evaluating.
        """
        return tuple(
            row
            for row, operations in enumerate(self._resolved)
            if all(columns.size == 0 for _kind, columns, _amount in operations)
        )

    def is_noop(self, row: int) -> bool:
        """Whether the ``row``-th scenario resolves to a pure no-op."""
        return all(
            columns.size == 0 for _kind, columns, _amount in self._resolved[row]
        )

    def touched_counts(self) -> np.ndarray:
        """Per scenario, the number of distinct universe columns it selects.

        Computed once per batch, lazily, in one vectorised pass: every
        selected cell is keyed ``row * |universe| + column`` and the distinct
        keys are counted per row.  The sparse/dense heuristic
        (:meth:`touched_fraction`) and the factoring statistics
        (:func:`repro.batch.factored.prefix_statistics`) both read it.
        """
        if self._touched is None:
            rows: List[int] = []
            parts: List[np.ndarray] = []
            for row, operations in enumerate(self._resolved):
                for _kind, columns, _amount in operations:
                    if columns.size:
                        rows.append(row)
                        parts.append(columns)
            counts = np.zeros(len(self._scenarios), dtype=np.int64)
            if parts:
                sizes = np.array([part.size for part in parts], dtype=np.int64)
                keys = np.repeat(np.array(rows, dtype=np.int64), sizes) * len(
                    self._variables
                ) + np.concatenate(parts)
                distinct = np.unique(keys) // len(self._variables)
                counts = np.bincount(distinct, minlength=len(self._scenarios))
            self._touched = counts
        return self._touched

    def touched_fraction(self) -> float:
        """Mean fraction of the universe the scenarios touch (the sparse/dense
        heuristic): per scenario, distinct selected columns over universe
        size, averaged over the batch."""
        if not self._scenarios or not self._variables:
            return 0.0
        total = int(self.touched_counts().sum())
        return total / (len(self._scenarios) * len(self._variables))

    # -- lowering -----------------------------------------------------------

    def base_row(
        self, base: Optional[Mapping[str, float]] = None, fill: float = 1.0
    ) -> np.ndarray:
        """The base valuation as a row over the universe.

        Variables missing from ``base`` default to ``fill`` — 1.0 (the
        identity valuation) on the float pipeline, the backend's identity
        fill for other numeric semirings (e.g. 0.0 added cost in the
        tropical backend).
        """
        if base is None:
            base = Valuation.uniform(self._variables, fill)
        return np.array(
            [float(base.get(name, fill)) for name in self._variables],
            dtype=np.float64,
        )

    def valuation_matrix(
        self, base: Optional[Mapping[str, float]] = None, fill: float = 1.0
    ) -> np.ndarray:
        """The ``scenarios × variables`` matrix of hypothetical valuations.

        Row *s* equals ``scenarios[s].apply(base, variables)`` restricted to
        the universe, with variables missing from ``base`` defaulting to
        ``fill`` (see :meth:`base_row`).
        """
        with trace(
            "batch.lower",
            kind="dense",
            scenarios=len(self._scenarios),
            variables=len(self._variables),
        ):
            matrix = np.tile(self.base_row(base, fill), (len(self._scenarios), 1))
            for row, operations in enumerate(self._resolved):
                for kind, columns, amount in operations:
                    if columns.size == 0:
                        continue
                    if kind == "scale":
                        matrix[row, columns] *= amount
                    else:
                        matrix[row, columns] = amount
            return matrix

    def delta_plan(
        self, base: Optional[Mapping[str, float]] = None, fill: float = 1.0
    ) -> DeltaPlan:
        """The sparse lowering: a shared base row plus per-scenario changes.

        Produces exactly the rows :meth:`valuation_matrix` would — but as
        ``(changed_columns, new_values)`` pairs against the base row, with
        cells that end up back at their base value filtered out.  Cost is
        O(universe + touched cells), independent of the batch size × universe
        product the dense lowering pays.
        """
        with trace(
            "batch.lower",
            kind="sparse",
            scenarios=len(self._scenarios),
            variables=len(self._variables),
        ):
            base_row = self.base_row(base, fill)
            changes, _cells = self.lower_residuals(base_row, 0)
            return DeltaPlan(base_row=base_row, changes=changes)

    def lower_residuals(
        self, row: np.ndarray, start: int
    ) -> Tuple[Tuple[Tuple[np.ndarray, np.ndarray], ...], int]:
        """Each scenario's operations from position ``start`` on, against ``row``.

        The one sparse lowering loop: :meth:`delta_plan` runs it from 0
        against the base row, :func:`repro.batch.factored.factor_batch` from
        the shared prefix's length against the factored row.  Returns the
        per-scenario ``(changed_columns, new_values)`` pairs — cells that end
        up back at their ``row`` value are filtered out — and the total
        number of changed cells.  Covered by cobralint's CL003 rule: keep
        per-scenario allocations out of it.
        """
        changes: List[Tuple[np.ndarray, np.ndarray]] = []
        cells = 0
        for operations in self._resolved:
            live = [
                (kind, columns, amount)
                for kind, columns, amount in operations[start:]
                if columns.size
            ]
            if not live:
                changes.append((_EMPTY_COLUMNS, _EMPTY_VALUES))
                continue
            if len(live) == 1:
                # The common one-operation scenario needs no column union.
                kind, touched, amount = live[0]
                if kind == "scale":
                    values = row[touched] * amount
                else:
                    values = np.full(touched.size, amount, dtype=np.float64)
            else:
                touched = np.unique(
                    np.concatenate([columns for _kind, columns, _amount in live])
                )
                # Fancy indexing yields a fresh array: no copy needed.
                values = row[touched]
                for kind, columns, amount in live:
                    local = np.searchsorted(touched, columns)
                    if kind == "scale":
                        values[local] *= amount
                    else:
                        values[local] = amount
            moved = values != row[touched]
            changed = touched[moved]
            changes.append((changed, values[moved]))
            cells += changed.size
        return tuple(changes), cells

    def columns_for(self, names: Sequence[str]) -> np.ndarray:
        """Column indices of ``names`` within the universe (for submatrices).

        Raises ``KeyError`` for names outside the universe — callers should
        build the batch over the union of every variable set they need.
        """
        return np.array([self._index[name] for name in names], dtype=np.intp)
