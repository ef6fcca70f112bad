"""Lowering scenario lists into valuation matrices and sparse delta plans.

The interactive engine answers one hypothetical at a time by rewriting a
:class:`~repro.provenance.valuation.Valuation` per scenario.  For batch
what-if traffic that per-scenario dict churn dominates, so the planner
lowers a list of :class:`~repro.engine.scenario.Scenario` objects over a
shared, sorted variable universe — in one of two shapes:

* :meth:`ScenarioBatch.valuation_matrix` — the dense ``scenarios ×
  variables`` matrix, feeding
  :meth:`~repro.provenance.backends.numeric.CompiledProvenanceSet.evaluate_matrix`;
* :meth:`ScenarioBatch.delta_plan` — the sparse lowering: a
  :class:`DeltaPlan`, one shared base row plus a CSR of changed cells
  (per-scenario ``offsets`` into flat ``columns``/``values``), feeding
  :meth:`~repro.provenance.backends.numeric.CompiledProvenanceSet.evaluate_deltas`.
  Real what-if scenarios perturb a handful of variables, so the plan is a
  few cells per scenario instead of a full row.  Structured sweeps (grids,
  samples and composed plans from :mod:`repro.engine.plan`) share an
  operation prefix; ``delta_plan(prefix=k)`` *factors* it: the first ``k``
  shared operations are applied once to the base row, and only each
  scenario's residual operations become cells.

The batch is built from one operation table: each distinct operation is
interned once (by object, then by value), each distinct selector resolved
once against the universe into one flat column array, and every scenario
becomes a CSR of operation ids.  The flat operation cells (one entry per
scenario, operation and selected column) and the shared operation prefix
are array work over that table, so neither lowering loops over scenarios in
Python: the scenarios' steps are applied to every touched cell at once, one
vectorised pass per operation depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine.scenario import Scenario, _Operation, _select
from repro.obs.tracer import trace
from repro.provenance.incidence import ragged_ranges, sorted_unique
from repro.provenance.valuation import Valuation

#: A base valuation as the lowerings accept it: a mapping (missing names
#: take the fill), or the row :meth:`ScenarioBatch.base_row` already built
#: from one, which is used as is and never written to.
BaseLike = Union[Mapping[str, float], np.ndarray, None]

_EMPTY_COLUMNS = np.zeros(0, dtype=np.intp)
_EMPTY_VALUES = np.zeros(0, dtype=np.float64)


@dataclass(frozen=True)
class DeltaPlan:
    """The sparse lowering of a scenario batch: a base row plus a CSR of cells.

    Scenario *s* changes the cells ``columns[offsets[s]:offsets[s + 1]]`` to
    ``values[offsets[s]:offsets[s + 1]]``; every other column keeps its
    ``base_row`` value.  The CSR is normalised where it is built: within a
    scenario, cells are sorted by column and each column occurs once (a
    column repeated in :meth:`from_pairs` input keeps its last value, as
    ``row[columns] = values`` would).  Consumers — the projection, the meta
    lowering, the delta kernels and the shard split — read the three flat
    arrays directly, with no per-scenario objects.

    Attributes
    ----------
    base_row:
        The shared base value vector over the plan's column space.
    offsets:
        ``len(plan) + 1`` non-decreasing ``np.intp`` cell offsets, from 0.
    columns:
        The changed cells' columns (``np.intp``), indexing ``base_row``.
    values:
        The changed cells' new values (``np.float64``).
    """

    base_row: np.ndarray
    offsets: np.ndarray
    columns: np.ndarray
    values: np.ndarray

    @classmethod
    def from_pairs(
        cls,
        base_row: np.ndarray,
        pairs: Sequence[Tuple[Sequence[int], Sequence[float]]],
    ) -> "DeltaPlan":
        """A normalised plan from per-scenario ``(columns, values)`` pairs.

        The constructor for hand-built plans: cells are sorted by column
        within each scenario and a repeated column keeps its last value.
        Raises ``IndexError`` for a column outside ``base_row``.
        """
        base_row = np.asarray(base_row, dtype=np.float64)
        lengths = np.array(
            [len(columns) for columns, _values in pairs], dtype=np.intp
        )
        columns = np.concatenate(
            [np.asarray(columns, dtype=np.intp) for columns, _values in pairs]
            + [_EMPTY_COLUMNS]
        )
        values = np.concatenate(
            [np.asarray(values, dtype=np.float64) for _columns, values in pairs]
            + [_EMPTY_VALUES]
        )
        if columns.size and (columns.min() < 0 or columns.max() >= base_row.size):
            raise IndexError(
                f"delta plan column out of range for {base_row.size} variables"
            )
        offsets = offsets_from_counts(lengths)
        return cls(base_row, *_normalised(offsets, columns, values))

    @classmethod
    def from_cells(
        cls,
        base_row: np.ndarray,
        scenarios: int,
        scenario_ids: np.ndarray,
        columns: np.ndarray,
        values: np.ndarray,
    ) -> "DeltaPlan":
        """A plan of ``scenarios`` rows from cells already in normal order.

        ``scenario_ids``/``columns``/``values`` list each changed cell,
        ascending by (scenario, column) with no cell repeated — the order
        the lowerings produce; only the offsets are computed here.
        """
        counts = np.bincount(scenario_ids, minlength=scenarios)
        return cls(base_row, offsets_from_counts(counts), columns, values)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def changed_cells(self) -> int:
        """Total number of changed cells across the whole batch."""
        return int(self.columns.size)

    def cells(self, scenario: int) -> Tuple[np.ndarray, np.ndarray]:
        """Scenario ``scenario``'s ``(columns, values)``, as views of the CSR."""
        lo, hi = self.offsets[scenario], self.offsets[scenario + 1]
        return self.columns[lo:hi], self.values[lo:hi]

    def scenario_ids(self) -> np.ndarray:
        """Each cell's scenario index (``np.intp``, non-decreasing)."""
        return np.repeat(np.arange(len(self), dtype=np.intp), np.diff(self.offsets))

    def rows(self, start: int, stop: int) -> "DeltaPlan":
        """The plan of scenarios ``start:stop`` (a shard), sharing the base row."""
        lo, hi = self.offsets[start], self.offsets[stop]
        return DeltaPlan(
            self.base_row,
            self.offsets[start : stop + 1] - lo,
            self.columns[lo:hi],
            self.values[lo:hi],
        )

    def project(self, columns: np.ndarray) -> "DeltaPlan":
        """Restrict the plan to a compiled set's variable subspace.

        ``columns`` maps the target's variable order to plan columns
        (``batch.columns_for(compiled.variables)``).  Returns the plan over
        the target's order: the projected base vector, and every cell
        remapped to its target column; cells of columns outside the subspace
        (which cannot affect the target's results) are dropped.  One
        ``inverse[columns]`` gather, a mask and a ``cumsum`` of the kept
        counts; an increasing ``columns`` keeps the cells sorted, any other
        order is re-normalised.
        """
        columns = np.asarray(columns, dtype=np.intp)
        inverse = np.full(len(self.base_row), -1, dtype=np.intp)
        inverse[columns] = np.arange(columns.size, dtype=np.intp)
        local = inverse[self.columns]
        keep = local >= 0
        kept = np.zeros(local.size + 1, dtype=np.intp)
        np.cumsum(keep, out=kept[1:])
        offsets, local, values = kept[self.offsets], local[keep], self.values[keep]
        if np.any(columns[1:] <= columns[:-1]):
            offsets, local, values = _normalised(offsets, local, values)
        return DeltaPlan(self.base_row[columns], offsets, local, values)


def offsets_from_counts(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (``0, c0, c0 + c1, …``) from per-scenario cell counts."""
    offsets = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _normalised(
    offsets: np.ndarray, columns: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort a CSR's cells by column within each scenario, last value winning.

    The stable sort keeps a repeated cell's values in input order, so the
    last of each run is the value the input assigns last.
    """
    sids = np.repeat(np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets))
    width = int(columns.max()) + 1 if columns.size else 1
    codes = sids * width + columns
    if not np.any(codes[1:] <= codes[:-1]):
        return offsets, columns, values
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    last = np.ones(codes.size, dtype=np.bool_)
    np.not_equal(codes[1:], codes[:-1], out=last[:-1])
    keep = order[last]
    counts = np.bincount(sids[keep], minlength=offsets.size - 1)
    return offsets_from_counts(counts), columns[keep], values[keep]


class _OperationTable(NamedTuple):
    """A batch's distinct operations, and each scenario as a CSR of their ids.

    Scenario *s* applies the operations ``ids[offsets[s]:offsets[s + 1]]``,
    in order.  Per distinct operation: ``operations`` holds the first object
    interned for it, ``scales`` is ``True`` for a scale step and ``False``
    for a set step, ``amounts`` its amount, and ``starts``/``stops`` bound
    its resolved universe columns in the flat, read-only ``columns`` —
    operations sharing a selector share one range.
    """

    offsets: np.ndarray
    ids: np.ndarray
    operations: Tuple[_Operation, ...]
    scales: np.ndarray
    amounts: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    columns: np.ndarray


#: Stands for a callable selector in an interning key: callables compare by
#: identity, and no tuple of names can hold this object.
_CALLABLE = object()


def _operation_table(
    scenarios: Sequence[Scenario],
    variables: Tuple[str, ...],
    index: Mapping[str, int],
) -> _OperationTable:
    """Intern ``scenarios``' operations and resolve each distinct selector once.

    An operation object seen before reuses its id.  Otherwise operations
    equal in ``(kind, selector, amount)`` share one id: a ``str`` selector
    compares by value, a callable by identity, any other sequence as the
    tuple of its names, and the amount together with its sign, so ``-0.0``
    and ``0.0`` (equal, but lowering to different bits) stay apart.  Each
    distinct selector is resolved through :func:`~repro.engine.scenario._select`
    against the sorted universe, exactly as ``Scenario.resolved_operations``
    resolves it.
    """
    name_set = frozenset(variables)
    by_object: Dict[int, int] = {}
    by_value: Dict[Tuple[str, int, float, float], int] = {}
    by_selector: Dict[object, int] = {}
    selector_spans: List[Tuple[int, int]] = []
    operations: List[_Operation] = []
    selectors: List[int] = []
    columns: List[int] = []
    ids: List[int] = []
    counts: List[int] = []
    for scenario in scenarios:
        steps = scenario.operations
        counts.append(len(steps))
        for operation in steps:
            op_id = by_object.get(id(operation))
            if op_id is None:
                selector = operation.selector
                if callable(selector):
                    key: object = (_CALLABLE, id(selector))
                elif isinstance(selector, str):
                    key = selector
                else:
                    key = selector = tuple(selector)
                selector_id = by_selector.get(key)
                if selector_id is None:
                    selector_id = by_selector[key] = len(selector_spans)
                    start = len(columns)
                    columns.extend(
                        map(index.__getitem__, _select(selector, variables, name_set))
                    )
                    selector_spans.append((start, len(columns)))
                amount = operation.amount
                value = (operation.kind, selector_id, amount, math.copysign(1.0, amount))
                op_id = by_value.get(value)
                if op_id is None:
                    op_id = by_value[value] = len(operations)
                    operations.append(operation)
                    selectors.append(selector_id)
                by_object[id(operation)] = op_id
            ids.append(op_id)
    bounds = np.array(selector_spans, dtype=np.intp).reshape(-1, 2)[
        np.array(selectors, dtype=np.intp)
    ]
    flat = np.array(columns, dtype=np.intp)
    flat.setflags(write=False)
    return _OperationTable(
        offsets=offsets_from_counts(np.array(counts, dtype=np.intp)),
        ids=np.array(ids, dtype=np.intp),
        operations=tuple(operations),
        scales=np.array([op.kind == "scale" for op in operations], dtype=np.bool_),
        amounts=np.array([op.amount for op in operations], dtype=np.float64),
        starts=bounds[:, 0],
        stops=bounds[:, 1],
        columns=flat,
    )


def _step_positions(offsets: np.ndarray) -> np.ndarray:
    """Each CSR entry's position within its row (``np.intp``)."""
    counts = np.diff(offsets)
    return np.arange(offsets[-1], dtype=np.intp) - np.repeat(offsets[:-1], counts)


def _shared_prefix(offsets: np.ndarray, ids: np.ndarray) -> int:
    """The length of the longest id prefix every CSR row starts with.

    Compares every entry before the shortest row's length against row 0's
    entry at the same position; the first position that differs anywhere
    ends the prefix.  Covered by cobralint's CL003 rule.
    """
    counts = np.diff(offsets)
    if counts.size == 0:
        return 0
    length = int(counts.min())
    if length == 0:
        return 0
    positions = _step_positions(offsets)
    head = np.flatnonzero(positions < length)
    differs = positions[head[ids[head] != ids[positions[head]]]]
    return int(differs.min()) if differs.size else length


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

    __slots__ = (
        "_scenarios", "_variables", "_index", "_table", "_prefix",
        "_prefix_cells", "_resolved", "_touched", "_cells",
    )

    def __init__(
        self, scenarios: Sequence[Scenario], variables: Iterable[str]
    ) -> None:
        self._scenarios: Tuple[Scenario, ...] = tuple(scenarios)
        self._variables: Tuple[str, ...] = tuple(sorted(set(variables)))
        self._index: Dict[str, int] = {
            name: i for i, name in enumerate(self._variables)
        }
        # One operation table per batch: each distinct operation interned
        # once and each distinct selector resolved once; everything else
        # (the cells, the shared prefix) is array work over it.
        self._table = _operation_table(self._scenarios, self._variables, self._index)
        self._prefix: Optional[int] = None
        self._prefix_cells: Optional[int] = None
        self._resolved: Optional[
            Tuple[Tuple[Tuple[str, np.ndarray, float], ...], ...]
        ] = None
        self._touched: Optional[np.ndarray] = None
        self._cells: Optional[Tuple[np.ndarray, ...]] = None

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

    def steps(self, row: int) -> Tuple[Tuple[str, np.ndarray, float], ...]:
        """Scenario ``row``'s resolved ``(kind, columns, amount)`` steps.

        Columns index the batch universe: read-only ``np.intp`` views of the
        operation table, in the scenario's operation order.  Operations
        resolve identically for every scenario sharing them, so a shared
        operation prefix resolves to a shared step prefix — the contract
        :meth:`delta_plan` relies on when it factors a prefix from row 0's
        steps alone.
        """
        table = self._table
        lo, hi = table.offsets[row], table.offsets[row + 1]
        return tuple(
            (
                table.operations[op_id].kind,
                table.columns[table.starts[op_id] : table.stops[op_id]],
                table.operations[op_id].amount,
            )
            for op_id in table.ids[lo:hi].tolist()
        )

    @property
    def resolved_operations(
        self,
    ) -> Tuple[Tuple[Tuple[str, np.ndarray, float], ...], ...]:
        """Per scenario, the resolved steps (:meth:`steps`), built lazily."""
        if self._resolved is None:
            self._resolved = tuple(
                self.steps(row) for row in range(len(self._scenarios))
            )
        return self._resolved

    @property
    def prefix_length(self) -> int:
        """The length of the longest operation prefix every scenario shares.

        Operations compare by their interned id (see :func:`_operation_table`),
        computed once per batch and cached.  Never shorter than the prefix of
        operations equal as dataclasses, except that ``-0.0`` and ``0.0``
        amounts differ here; longer where equal names are spelled as a list
        in one scenario and a tuple in another.
        """
        if self._prefix is None:
            self._prefix = _shared_prefix(self._table.offsets, self._table.ids)
        return self._prefix

    @property
    def prefix_cells(self) -> int:
        """Distinct universe columns the shared operation prefix
        (:attr:`prefix_length`) selects, computed once and cached."""
        if self._prefix_cells is None:
            self._prefix_cells = self._prefix_columns(self.prefix_length).size
        return self._prefix_cells

    def _prefix_columns(self, length: int) -> np.ndarray:
        """The distinct universe columns row 0's first ``length`` operations
        select (sorted).  Covered by cobralint's CL003 rule."""
        table = self._table
        ids = table.ids[:length]
        picked, _starts = ragged_ranges(table.starts[ids], table.stops[ids])
        return sorted_unique(table.columns[picked])

    def touched_counts(self) -> np.ndarray:
        """Per scenario, the number of distinct universe columns it selects.

        Computed once per batch, lazily, from the flat operation cells
        (:meth:`_operation_cells`): distinct ``(scenario, column)`` cells are
        counted per scenario.  The evaluator's ``mode="auto"`` rule reads
        it, through :meth:`touched_fraction` and directly.
        """
        if self._touched is None:
            sids, columns, _positions, _scales, _amounts = self._operation_cells()
            first = _run_mask(sids * np.int64(len(self._variables)) + columns)
            self._touched = np.bincount(
                sids[first], minlength=len(self._scenarios)
            )
        return self._touched

    def _operation_cells(self) -> Tuple[np.ndarray, ...]:
        """Every selected cell of every operation, as flat arrays (cached).

        ``(scenarios, columns, positions, scales, amounts)``: one entry per
        (scenario, operation, selected column), sorted by scenario, then
        column, then the operation's position in its scenario.  ``scales``
        is ``True`` for a scale step and ``False`` for a set step.  Each
        operation occurrence is expanded to its table column range with
        ``np.repeat`` and :func:`~repro.provenance.incidence.ragged_ranges`,
        then one stable sort orders the cells (an operation selects a column
        at most once, so the order has no ties).  Covered by cobralint's
        CL003 rule.
        """
        if self._cells is None:
            table = self._table
            ids = table.ids
            sizes = (table.stops - table.starts)[ids]
            rows = np.repeat(
                np.arange(len(self._scenarios), dtype=np.int64),
                np.diff(table.offsets),
            )
            picked, _starts = ragged_ranges(table.starts[ids], table.stops[ids])
            cells = (
                np.repeat(rows, sizes),
                table.columns[picked],
                np.repeat(_step_positions(table.offsets), sizes),
                np.repeat(table.scales[ids], sizes),
                np.repeat(table.amounts[ids], sizes),
            )
            width = np.int64(max(1, len(self._variables)))
            order = np.argsort(cells[0] * width + cells[1], kind="stable")
            self._cells = tuple(array[order] for array in cells)
        return self._cells

    def touched_fraction(self) -> float:
        """Mean fraction of the universe the scenarios touch (the sparse/dense
        heuristic): per scenario, distinct selected columns over universe
        size, averaged over the batch."""
        if not self._scenarios or not self._variables:
            return 0.0
        total = int(self.touched_counts().sum())
        return total / (len(self._scenarios) * len(self._variables))

    def nonfinite_rows(self) -> np.ndarray:
        """Rows with an operation whose amount is not finite (``np.intp``,
        ascending, a row once per such operation): one check over the
        operation table's amounts."""
        table = self._table
        occurrences = np.flatnonzero(~np.isfinite(table.amounts)[table.ids])
        return np.searchsorted(table.offsets, occurrences, side="right") - 1

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

    def _row(self, base: BaseLike, fill: float) -> np.ndarray:
        """``base`` as a row: a prebuilt row as is, else :meth:`base_row`."""
        if isinstance(base, np.ndarray):
            return base
        return self.base_row(base, fill)

    def valuation_matrix(self, base: BaseLike = None, fill: float = 1.0) -> np.ndarray:
        """The ``scenarios × variables`` matrix of hypothetical valuations.

        Row *s* equals ``scenarios[s].apply(base, variables)`` restricted to
        the universe, with variables missing from ``base`` defaulting to
        ``fill`` (see :meth:`base_row`).  ``base`` may also be the row
        :meth:`base_row` built, so a caller that needs the row itself
        builds it once.
        """
        with trace(
            "batch.lower",
            kind="dense",
            scenarios=len(self._scenarios),
            variables=len(self._variables),
        ):
            base_row = self._row(base, fill)
            matrix = np.tile(base_row, (len(self._scenarios), 1))
            sids, columns, values = self._lowered_cells(base_row, 0)
            matrix[sids, columns] = values
            return matrix

    def delta_plan(
        self, base: BaseLike = None, fill: float = 1.0, prefix: int = 0
    ) -> DeltaPlan:
        """The sparse lowering: a shared base row plus per-scenario changes.

        Produces exactly the rows :meth:`valuation_matrix` would — but as
        ``(changed_columns, new_values)`` cells against the plan's base row,
        with cells that end up back at their base value filtered out.  Cost
        is O(universe + touched cells), independent of the batch size ×
        universe product the dense lowering pays.

        With ``prefix=k`` (at most :attr:`prefix_length`) the lowering is
        *factored*: the first ``k`` operations, shared by every scenario, are
        applied once to the base row, which becomes the plan's base row, and
        only each scenario's operations from position ``k`` on become cells.
        The shared steps are applied by the same sequential float operations
        as the scenario's own, so each rebuilt row is bit-identical to the
        unfactored one.  ``base`` may be a prebuilt row, as for
        :meth:`valuation_matrix`: the unfactored plan shares it as its base
        row, and a factored one applies the prefix to a copy.  Traced as
        ``batch.lower`` when unfactored and as ``batch.factor`` (with the
        prefix statistics) when factored.  Covered by cobralint's CL003 rule.
        """
        if not 0 <= prefix <= self.prefix_length:
            raise ValueError(
                f"prefix must be between 0 and the batch's shared prefix "
                f"length {self.prefix_length}, got {prefix}"
            )
        attributes: Dict[str, object] = (
            {"prefix_length": prefix} if prefix else {"kind": "sparse"}
        )
        with trace(
            "batch.factor" if prefix else "batch.lower",
            scenarios=len(self._scenarios),
            variables=len(self._variables),
            **attributes,
        ) as span:
            row = self._row(base, fill)
            if prefix:
                row = row.copy()
            for kind, columns, amount in self.steps(0)[:prefix] if prefix else ():
                if kind == "scale":
                    row[columns] *= amount
                else:
                    row[columns] = amount
            sids, columns, values = self._lowered_cells(row, prefix)
            moved = values != row[columns]
            plan = DeltaPlan.from_cells(
                row, len(self._scenarios), sids[moved], columns[moved], values[moved]
            )
            if prefix:
                prefix_cells = self._prefix_columns(prefix).size
                # Per scenario the unfactored plan touches about
                # ``prefix_cells + residual_cells / n`` cells; the shared
                # fraction is the part the factored plan no longer pays.
                residual = plan.changed_cells() / len(self._scenarios)
                span.update(
                    {
                        "prefix_cells": prefix_cells,
                        "residual_cells": plan.changed_cells(),
                        "shared_fraction": (
                            prefix_cells / (prefix_cells + residual)
                            if prefix_cells + residual
                            else 0.0
                        ),
                    }
                )
            return plan

    def _lowered_cells(
        self, row: np.ndarray, start: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every touched ``(scenario, column)`` cell and its value after the
        scenario's operations from position ``start`` on, applied to ``row``.

        Cells come sorted by scenario, then column.  A cell's operations are
        applied in operation order, one vectorised pass per operation depth
        (the k-th operation touching each cell), so every value results from
        the same sequence of float operations as applying the scenario's
        steps one by one to a copy of ``row``.
        """
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

    def columns_for(self, names: Sequence[str]) -> np.ndarray:
        """Column indices of ``names`` within the universe (for submatrices).

        Raises ``KeyError`` for names outside the universe — callers should
        build the batch over the union of every variable set they need.
        """
        return np.array([self._index[name] for name in names], dtype=np.intp)


def _run_mask(codes: np.ndarray) -> np.ndarray:
    """Where a run of equal values starts in a sorted ``codes`` (bool mask)."""
    starts = np.ones(codes.size, dtype=np.bool_)
    np.not_equal(codes[1:], codes[:-1], out=starts[1:])
    return starts
