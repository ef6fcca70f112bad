"""The per-scenario scenario-batch lowering: a parity oracle.

Production interns a batch's distinct operations into one table, resolves
each distinct selector once and builds the cells and the shared prefix as
array work (:class:`repro.batch.planner.ScenarioBatch`).
This is the implementation it replaced, kept as a reference: every
scenario's selectors resolved one by one (``Scenario.resolved_operations``),
one ``np.array`` of column indices per operation occurrence, the flat
cells built from a per-step Python list, and the operation prefix found by
dataclass equality (:func:`common_prefix_length`).  The lowering methods
below are that implementation's code unchanged; :func:`oracle_factoring` is
its separate factoring step (the shared prefix applied to a copy of the base
row, then the residual lowering) without its span and statistics, which
production folds into ``ScenarioBatch.delta_plan(prefix=…)``.

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.scenario_batch import OracleScenarioBatch
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.batch.planner import DeltaPlan
from repro.engine.scenario import Scenario
from repro.provenance.valuation import Valuation

_EMPTY_COLUMNS = np.zeros(0, dtype=np.intp)


def common_prefix_length(scenarios: Sequence[Scenario]) -> int:
    """The length of the longest operation prefix shared by all scenarios.

    Operations compare by dataclass equality: string/tuple selectors compare
    by value, callable selectors by identity — which is exactly what plans
    built from a shared base produce (the base's operation objects are
    literally reused), so composed sweeps factor even with predicate
    selectors.
    """
    if not scenarios:
        return 0
    first = scenarios[0].operations
    prefix = len(first)
    for scenario in scenarios[1:]:
        operations = scenario.operations
        limit = min(prefix, len(operations))
        k = 0
        while k < limit and first[k] == operations[k]:
            k += 1
        prefix = k
        if prefix == 0:
            return 0
    return prefix


class OracleScenarioBatch:
    """A scenario list lowered with per-scenario, per-occurrence resolution."""

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
        self._cells: Optional[Tuple[np.ndarray, ...]] = None

    def __len__(self) -> int:
        return len(self._scenarios)

    @property
    def resolved_operations(
        self,
    ) -> Tuple[Tuple[Tuple[str, np.ndarray, float], ...], ...]:
        return self._resolved

    def touched_counts(self) -> np.ndarray:
        if self._touched is None:
            sids, columns, _positions, _scales, _amounts = self._operation_cells()
            first = _run_mask(sids * np.int64(len(self._variables)) + columns)
            self._touched = np.bincount(
                sids[first], minlength=len(self._scenarios)
            )
        return self._touched

    def _operation_cells(self) -> Tuple[np.ndarray, ...]:
        if self._cells is None:
            steps = [
                (row, position, kind == "scale", amount, columns)
                for row, operations in enumerate(self._resolved)
                for position, (kind, columns, amount) in enumerate(operations)
                if columns.size
            ]
            rows, positions, scales, amounts, selected = (
                zip(*steps) if steps else ((),) * 5
            )
            sizes = np.array([c.size for c in selected], dtype=np.intp)

            def per_cell(step_values, dtype):
                return np.repeat(np.array(step_values, dtype=dtype), sizes)

            cells = (
                per_cell(rows, np.int64),
                np.concatenate(selected + (_EMPTY_COLUMNS,)),
                per_cell(positions, np.intp),
                per_cell(scales, np.bool_),
                per_cell(amounts, np.float64),
            )
            order = np.lexsort(cells[2::-1])
            self._cells = tuple(array[order] for array in cells)
        return self._cells

    def base_row(
        self, base: Optional[Mapping[str, float]] = None, fill: float = 1.0
    ) -> np.ndarray:
        if base is None:
            base = Valuation.uniform(self._variables, fill)
        return np.array(
            [float(base.get(name, fill)) for name in self._variables],
            dtype=np.float64,
        )

    def valuation_matrix(
        self, base: Optional[Mapping[str, float]] = None, fill: float = 1.0
    ) -> np.ndarray:
        base_row = self.base_row(base, fill)
        matrix = np.tile(base_row, (len(self._scenarios), 1))
        sids, columns, values = self._lowered_cells(base_row, 0)
        matrix[sids, columns] = values
        return matrix

    def delta_plan(
        self, base: Optional[Mapping[str, float]] = None, fill: float = 1.0
    ) -> DeltaPlan:
        return self.lower_residuals(self.base_row(base, fill), 0)

    def lower_residuals(self, row: np.ndarray, start: int) -> DeltaPlan:
        sids, columns, values = self._lowered_cells(row, start)
        moved = values != row[columns]
        return DeltaPlan.from_cells(
            row, len(self._scenarios), sids[moved], columns[moved], values[moved]
        )

    def _lowered_cells(
        self, row: np.ndarray, start: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        sids, columns, positions, scales, amounts = self._operation_cells()
        if start:
            live = positions >= start
            sids, columns, scales, amounts = (
                sids[live], columns[live], scales[live], amounts[live]
            )
        starts = _run_mask(sids * np.int64(len(self._variables)) + columns)
        first = np.flatnonzero(starts)
        cell = np.cumsum(starts) - 1
        depth = np.arange(sids.size) - first[cell]
        values = row[columns[first]]
        for k in range(int(depth.max()) + 1 if depth.size else 0):
            step = np.flatnonzero(depth == k)
            scaled = step[scales[step]]
            values[cell[scaled]] *= amounts[scaled]
            assigned = step[~scales[step]]
            values[cell[assigned]] = amounts[assigned]
        return sids[first], columns[first], values


def oracle_factoring(
    batch: OracleScenarioBatch,
    base: Optional[Mapping[str, float]] = None,
    fill: float = 1.0,
    prefix_length: Optional[int] = None,
) -> Tuple[np.ndarray, DeltaPlan]:
    """``(factored_row, residual_plan)``: the shared prefix applied once to
    the base row, then every scenario's residual steps lowered against it."""
    if prefix_length is None:
        prefix_length = common_prefix_length(batch._scenarios)
    base_row = batch.base_row(base, fill)
    factored_row = base_row.copy()
    if len(batch):
        for kind, columns, amount in batch.resolved_operations[0][:prefix_length]:
            if columns.size == 0:
                continue
            if kind == "scale":
                factored_row[columns] *= amount
            else:
                factored_row[columns] = amount
    return factored_row, batch.lower_residuals(factored_row, prefix_length)


def _run_mask(codes: np.ndarray) -> np.ndarray:
    """Where a run of equal values starts in a sorted ``codes`` (bool mask)."""
    starts = np.ones(codes.size, dtype=np.bool_)
    np.not_equal(codes[1:], codes[:-1], out=starts[1:])
    return starts
