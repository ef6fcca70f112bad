"""Shared-delta factoring: evaluate a sweep's common prefix once.

Structured sweeps — grids, Monte Carlo samples, composed scenarios
(:mod:`repro.engine.plan`) — share most of their deltas: every point applies
the same base operations ("March price cut") before its own small
perturbation.  The sparse path still pays for the shared cells *per
scenario*; factoring splits the batch instead:

1. find the longest common *operation* prefix across the batch's scenarios
   (:attr:`~repro.batch.planner.ScenarioBatch.prefix_length`, cached on the
   batch — operations compare by their interned id, so plans built from a
   shared base, whose operation objects are literally reused, share them);
2. apply that prefix once to the base row, producing the **factored
   baseline** row (:func:`factor_batch`);
3. lower only the *residual* operations of each scenario against the
   factored row, yielding a :class:`~repro.batch.planner.DeltaPlan` whose
   CSR holds few cells per scenario.

The factored row and residual values are computed by the same sequential
float operations the unfactored lowering applies per scenario (prefix steps
first, residual steps after — in operation order), so the effective
valuation rows are bit-identical to the unfactored ones; the delta kernels
then see the same rows they would have seen, just against a different
baseline.

The residual lowering is :meth:`~repro.batch.planner.ScenarioBatch.lower_residuals`,
shared with the unfactored sparse lowering; it and :func:`factor_batch` are
covered by cobralint's CL003 hot-path-allocation rule — keep per-scenario
allocations out of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.batch.planner import DeltaPlan, ScenarioBatch
from repro.engine.scenario import Scenario
from repro.obs.tracer import trace


def common_prefix_length(scenarios: Sequence[Scenario]) -> int:
    """The length of the longest operation prefix shared by all scenarios.

    Operations compare by dataclass equality: string/tuple selectors compare
    by value, callable selectors by identity — which is exactly what plans
    built from a shared base produce (the base's operation objects are
    literally reused), so composed sweeps factor even with predicate
    selectors.  A batch's own prefix
    (:attr:`~repro.batch.planner.ScenarioBatch.prefix_length`) compares
    interned operation ids instead, computed once per batch.
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


@dataclass(frozen=True)
class Factoring:
    """The factored lowering of a scenario batch.

    Attributes
    ----------
    prefix_length:
        Number of leading operations shared by every scenario.
    base_row:
        The unfactored base row (no operation applied), over the universe.
    factored_row:
        The base row with the shared prefix applied once.
    residual_plan:
        A :class:`DeltaPlan` whose ``base_row`` is the factored row and whose
        cells cover only the residual (post-prefix) steps.
    prefix_cells:
        Distinct universe cells the shared prefix touches.
    residual_cells:
        Total changed cells across all residual plans.
    """

    prefix_length: int
    base_row: np.ndarray
    factored_row: np.ndarray
    residual_plan: DeltaPlan
    prefix_cells: int
    residual_cells: int

    def __len__(self) -> int:
        return len(self.residual_plan)

    @property
    def shared_fraction(self) -> float:
        """Fraction of per-scenario work the prefix absorbs.

        Per scenario the unfactored sparse path touches roughly
        ``prefix_cells + residual_cells / n`` cells; the factored path pays
        only the residual share.  1.0 means the sweep is pure prefix."""
        scenarios = max(1, len(self.residual_plan))
        per_scenario_residual = self.residual_cells / scenarios
        denominator = self.prefix_cells + per_scenario_residual
        if denominator == 0:
            return 0.0
        return self.prefix_cells / denominator


def _prefix_cells(batch: ScenarioBatch, prefix_length: int) -> int:
    """Distinct universe cells the shared operation prefix touches."""
    if prefix_length == 0 or not len(batch):
        return 0
    selected = [
        columns for _kind, columns, _amount in batch.steps(0)[:prefix_length]
    ]
    if not selected:
        return 0
    return int(np.unique(np.concatenate(selected)).size)


def prefix_statistics(
    batch: ScenarioBatch, prefix_length: Optional[int] = None
) -> Tuple[int, int, float]:
    """Cheap factoring stats without lowering: ``(prefix_length,
    prefix_cells, shared_fraction_estimate)``.

    The estimate compares the cells the prefix touches against the mean
    cells each scenario touches in total (the batch's cached
    :meth:`~repro.batch.planner.ScenarioBatch.touched_counts`); the
    batch-mode heuristic uses it to decide whether factoring is worth the
    extra full-row evaluation.
    """
    if prefix_length is None:
        prefix_length = batch.prefix_length
    if prefix_length == 0 or not len(batch):
        return 0, 0, 0.0
    prefix_cells = _prefix_cells(batch, prefix_length)
    if prefix_cells == 0:
        return prefix_length, 0, 0.0
    mean_touched = int(batch.touched_counts().sum()) / len(batch)
    if mean_touched == 0:
        return prefix_length, prefix_cells, 0.0
    return prefix_length, prefix_cells, min(1.0, prefix_cells / mean_touched)


def factor_batch(
    batch: ScenarioBatch,
    base: Optional[Mapping[str, float]] = None,
    fill: float = 1.0,
    prefix_length: Optional[int] = None,
) -> Factoring:
    """Lower ``batch`` into a factored baseline plus residual deltas.

    Mirrors :meth:`ScenarioBatch.delta_plan` (same ``base``/``fill``
    contract, and the same residual loop,
    :meth:`~repro.batch.planner.ScenarioBatch.lower_residuals`) but applies
    the shared operation prefix exactly once.  The returned residual plan's
    rows, applied on top of the factored row, reproduce the unfactored
    valuation rows bit-for-bit.
    """
    if prefix_length is None:
        prefix_length = batch.prefix_length
    with trace(
        "batch.factor",
        scenarios=len(batch),
        variables=len(batch.variables),
        prefix_length=prefix_length,
    ) as span:
        base_row = batch.base_row(base, fill)
        factored_row = base_row.copy()
        if len(batch):
            for kind, columns, amount in batch.steps(0)[:prefix_length]:
                if columns.size == 0:
                    continue
                if kind == "scale":
                    factored_row[columns] *= amount
                else:
                    factored_row[columns] = amount
        prefix_cells = _prefix_cells(batch, prefix_length)
        residual_plan = batch.lower_residuals(factored_row, prefix_length)
        residual_cells = residual_plan.changed_cells()
        span.set("prefix_cells", prefix_cells)
        span.set("residual_cells", residual_cells)
        return Factoring(
            prefix_length=prefix_length,
            base_row=base_row,
            factored_row=factored_row,
            residual_plan=residual_plan,
            prefix_cells=prefix_cells,
            residual_cells=residual_cells,
        )
