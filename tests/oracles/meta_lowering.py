"""The per-scenario meta lowerings: a parity oracle.

Production lowers the originals' scenario values to the compressed
variables through a cached member CSR and its transpose
(:class:`repro.batch.evaluator.MetaLowering`): one ``reduceat`` per
lowering.  These are the loop implementations it replaced, kept as a
reference — a per-meta table of ``("mean" | "pass" | "fill", source)``,
one ``np.mean`` per meta column in the dense lowering, and a per-scenario,
per-touched-meta ``np.mean`` in the sparse one.  The only change is that
the sparse oracle reads each scenario's cells with
:meth:`~repro.batch.planner.DeltaPlan.cells` and returns the per-scenario
``(meta_columns, meta_values)`` pairs it always built.

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.meta_lowering import oracle_lower_meta_deltas
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.batch.planner import DeltaPlan, ScenarioBatch
from repro.core.compression import Abstraction


def _meta_lowering(
    abstraction: Abstraction,
    batch: ScenarioBatch,
    meta_variables: Sequence[str],
) -> List[Tuple[str, Any]]:
    """How each meta column derives from the batch universe's columns.

    Per meta column: ``("mean", member columns)`` for a meta-variable with
    members in the universe, ``("pass", column)`` for an original the
    abstraction leaves untouched, ``("fill", None)`` otherwise.  The one
    table behind :func:`oracle_lower_meta_matrix` and
    :func:`oracle_lower_meta_deltas`.
    """
    grouped = abstraction.grouped_variables()
    mapped = set(abstraction.mapping)
    universe = set(batch.variables)
    lowering: List[Tuple[str, Any]] = []
    for variable in meta_variables:
        members = grouped.get(variable)
        if members is not None:
            present = [m for m in members if m in universe]
            if present:
                lowering.append(("mean", batch.columns_for(present)))
                continue
        elif variable in universe and variable not in mapped:
            lowering.append(("pass", int(batch.columns_for([variable])[0])))
            continue
        lowering.append(("fill", None))
    return lowering


def oracle_lower_meta_matrix(
    abstraction: Abstraction,
    batch: ScenarioBatch,
    matrix: np.ndarray,
    meta_variables: Sequence[str],
    fill: float = 1.0,
) -> np.ndarray:
    """Lower a scenarios × originals matrix to the compressed variable space:
    per meta column, the ``np.mean`` of its members' columns."""
    result = np.full(
        (matrix.shape[0], len(meta_variables)), fill, dtype=np.float64
    )
    for j, (kind, source) in enumerate(
        _meta_lowering(abstraction, batch, meta_variables)
    ):
        if kind == "mean":
            result[:, j] = matrix[:, source].mean(axis=1)
        elif kind == "pass":
            result[:, j] = matrix[:, source]
    return result


def oracle_lower_meta_deltas(
    abstraction: Abstraction,
    batch: ScenarioBatch,
    plan: DeltaPlan,
    meta_variables: Sequence[str],
    fill: float = 1.0,
) -> Tuple[np.ndarray, Tuple[Tuple[np.ndarray, np.ndarray], ...]]:
    """The sparse counterpart of :func:`oracle_lower_meta_matrix`.

    The meta base row is derived once from the plan's base row, and per
    scenario only the meta-variables containing a changed original are
    re-averaged.  Returns the meta base row and per-scenario
    ``(meta_columns, meta_values)`` pairs.
    """
    lowering = _meta_lowering(abstraction, batch, meta_variables)
    base_row = np.full(len(meta_variables), fill, dtype=np.float64)
    column_to_metas: Dict[int, list] = {}
    for j, (kind, source) in enumerate(lowering):
        if kind == "mean":
            base_row[j] = plan.base_row[source].mean()
            for column in source:
                column_to_metas.setdefault(int(column), []).append(j)
        elif kind == "pass":
            base_row[j] = plan.base_row[source]
            column_to_metas.setdefault(source, []).append(j)

    empty_columns = np.zeros(0, dtype=np.intp)
    empty_values = np.zeros(0, dtype=np.float64)
    scratch = plan.base_row.copy()
    changes = []
    for s in range(len(plan)):
        columns, values = plan.cells(s)
        if columns.size == 0:
            changes.append((empty_columns, empty_values))
            continue
        scratch[columns] = values
        metas = sorted(
            {
                j
                for column in columns
                for j in column_to_metas.get(int(column), ())
            }
        )
        meta_columns = []
        meta_values = []
        for j in metas:
            kind, source = lowering[j]
            value = scratch[source].mean() if kind == "mean" else scratch[source]
            if value != base_row[j]:
                meta_columns.append(j)
                meta_values.append(value)
        changes.append(
            (
                np.asarray(meta_columns, dtype=np.intp),
                np.asarray(meta_values, dtype=np.float64),
            )
        )
        scratch[columns] = plan.base_row[columns]
    return base_row, tuple(changes)
