"""The real semiring's per-monomial ratio delta kernel: a parity oracle.

Production sparse evaluation of real sets aggregates baseline contributions
per ``(column, row, exponent)`` entry
(:class:`repro.provenance.incidence.RowDeltaIndex`).  This is the kernel it
replaced, kept verbatim as a reference: every occurrence of a changed
variable applies its monomial's ratio update ``old · (r^e − 1)``, and a
per-scenario loop of ``ufunc.at`` scatters fixes monomials touched by
several changed variables.  It builds its own inverted index and baseline
(:func:`_delta_groups`, :func:`_delta_state`) from the compiled group
arrays, as the compiled set once did.

Import with ``tests/`` on ``sys.path`` (``tests/conftest.py`` arranges
that under pytest)::

    from oracles.ratio_delta_kernel import ratio_evaluate_deltas
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.batch.planner import DeltaPlan
from repro.provenance.backends.numeric import CompiledProvenanceSet
from repro.provenance.incidence import VariableIncidence, expand_segment_rows


def _delta_groups(
    self: CompiledProvenanceSet,
) -> Tuple[Tuple[VariableIncidence, np.ndarray, np.ndarray], ...]:
    """Per-group inverted index, per-monomial rows and segment extents."""
    built = []
    for group in self._groups:
        num_monomials = len(group.coefficients)
        built.append(
            (
                VariableIncidence.from_factor_arrays(
                    len(self._variables), group.indices, group.exponents
                ),
                expand_segment_rows(
                    group.segment_starts, group.segment_rows, num_monomials
                ),
                np.append(group.segment_starts[1:], num_monomials).astype(np.intp),
            )
        )
    return tuple(built)


def _delta_state(
    self: CompiledProvenanceSet, base_vector: np.ndarray
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], np.ndarray]:
    """``(base, per-group monomial contributions, totals)`` under ``base_vector``."""
    base = np.asarray(base_vector, dtype=np.float64).copy()
    contributions = tuple(
        self._contributions(group, base) for group in self._groups
    )
    return base, contributions, self.baseline_totals(base)


def ratio_evaluate_deltas(
    self: CompiledProvenanceSet, plan: DeltaPlan
) -> np.ndarray:
    """Evaluate sparse scenarios as deltas against one shared base vector.

    ``plan`` is a :class:`~repro.batch.planner.DeltaPlan` over this set's
    variable order, against its ``base_row``; scenario *s* changes the
    distinct columns of ``plan.cells(s)``.  The
    base valuation is evaluated once; the whole
    batch of scenarios is then answered with a handful of vectorised
    passes over the *occurrences* of changed variables (via the inverted
    variable→monomial index) — O(touched monomials), not O(monomials ×
    scenarios):

    * every occurrence contributes its monomial's multiplicative ratio
      update ``old · (new/base − 1)``, accumulated into per-scenario
      result rows with one global ``bincount``;
    * monomials touched by several changed variables of one scenario get
      an exact product fix-up through two persistent scatter buffers;
    * scenarios whose ratios misbehave (a zero, subnormal or otherwise
      over/underflowing base value) fall back to one exact full
      re-evaluation of their row.

    Returns the same ``scenarios × groups`` array the dense
    :meth:`evaluate_matrix` path produces for the corresponding rows.
    """
    index = _delta_groups(self)
    base, contributions, totals = _delta_state(self, plan.base_row)
    num_keys = len(self._keys)
    num_plans = len(plan)
    out = np.tile(totals, (num_plans, 1))
    if num_plans == 0 or num_keys == 0:
        return out

    # Split the batch: scenarios with finite per-column ratios take the
    # vectorised delta passes; the rest (zero/subnormal base values) are
    # re-evaluated exactly, one full row each.
    column_parts: List[np.ndarray] = []
    ratio_parts: List[np.ndarray] = []
    sid_parts: List[np.ndarray] = []
    exact: List[Tuple[int, np.ndarray, np.ndarray]] = []
    # Scenarios with a single changed column can never need the
    # multi-touch product fix-up (a variable occurs once per monomial).
    multi_column = np.zeros(num_plans, dtype=np.bool_)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for s in range(num_plans):
            columns, values = plan.cells(s)
            if columns.size == 0:
                continue
            ratios = values / base[columns]
            if np.isfinite(ratios).all():
                column_parts.append(columns)
                ratio_parts.append(ratios)
                sid_parts.append(
                    np.full(columns.size, s, dtype=np.intp)
                )
                multi_column[s] = columns.size > 1
            else:
                exact.append((s, columns, values))

        bad_sids: Set[int] = set()
        if column_parts:
            all_columns = np.concatenate(column_parts)
            all_ratios = np.concatenate(ratio_parts)
            all_sids = np.concatenate(sid_parts)
            corrections = np.zeros(num_plans * num_keys, dtype=np.float64)
            any_multi = bool(multi_column.any())
            for (incidence, monomial_rows, _ends), group, base_contrib in zip(
                index, self._groups, contributions
            ):
                # Scatter buffers for the product fix-up, allocated per
                # call (not cached on the instance) so concurrently
                # shared compiled sets never race on them; they are
                # reset to the identity after each scenario segment.
                if any_multi:
                    products = np.ones(
                        len(group.coefficients), dtype=np.float64
                    )
                    counts = np.zeros(
                        len(group.coefficients), dtype=np.float64
                    )
                occ_pos, occ_exp, occ_counts = incidence.occurrences(
                    all_columns
                )
                if occ_pos.size == 0:
                    continue
                occ_ratio = np.repeat(all_ratios, occ_counts)
                if group.has_higher_powers:
                    occ_ratio = np.power(occ_ratio, occ_exp)
                occ_sid = np.repeat(all_sids, occ_counts)
                old = base_contrib[occ_pos]
                linear = old * (occ_ratio - 1.0)
                if not np.isfinite(linear).all():
                    # Over/underflowed updates poison their scenarios'
                    # correction rows; re-evaluate those rows exactly
                    # (the pollution is overwritten below).
                    bad = ~np.isfinite(linear)
                    bad_sids.update(int(s) for s in np.unique(occ_sid[bad]))
                corrections += np.bincount(
                    occ_sid * num_keys + monomial_rows[occ_pos],
                    weights=linear,
                    minlength=num_plans * num_keys,
                )[: num_plans * num_keys]
                # Product fix-up: within one scenario, a monomial touched
                # by k >= 2 changed variables must contribute
                # old·(∏ratios − 1), not the sum of its linear updates.
                if not any_multi:
                    continue
                boundaries = np.flatnonzero(
                    np.concatenate(([True], occ_sid[1:] != occ_sid[:-1]))
                )
                ends = np.append(boundaries[1:], occ_sid.size)
                # cobralint: disable=CL003 -- iterates scenario segments,
                # not elements: one step per scenario with multi-touch
                # monomials, each step fully vectorised via ufunc.at.
                for b, e in zip(boundaries, ends):
                    if e - b < 2 or not multi_column[occ_sid[b]]:
                        continue
                    pos = occ_pos[b:e]
                    np.add.at(counts, pos, 1.0)
                    k = counts[pos]
                    collided = k > 1.0
                    if collided.any():
                        cpos = pos[collided]
                        cratio = occ_ratio[b:e][collided]
                        np.multiply.at(products, cpos, cratio)
                        fix = old[b:e][collided] * (
                            (products[cpos] - 1.0) / k[collided]
                            - (cratio - 1.0)
                        )
                        if np.isfinite(fix).all():
                            np.add.at(
                                corrections,
                                int(occ_sid[b]) * num_keys
                                + monomial_rows[cpos],
                                fix,
                            )
                        else:
                            bad_sids.add(int(occ_sid[b]))
                        products[cpos] = 1.0
                    counts[pos] = 0.0
            out += corrections.reshape(num_plans, num_keys)

        # Exact fallback: one full (still vectorised) row re-evaluation
        # per affected scenario — the cost of one dense row, only for
        # the scenarios that need it.
        if exact or bad_sids:
            scratch = base.copy()
            for s in sorted(bad_sids):
                exact.append((s, *plan.cells(s)))
            for s, columns, values in exact:
                scratch[columns] = values
                out[s] = self._evaluate_values(scratch)
                scratch[columns] = base[columns]
    return out
