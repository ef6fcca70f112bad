"""Aggregated results of a batch what-if evaluation.

A :class:`BatchReport` is the sweep-level counterpart of
:class:`~repro.engine.report.AssignmentReport`: instead of one scenario's
per-group comparison it holds the full ``scenarios × groups`` result
matrices — baseline, full provenance, and (optionally) compressed
provenance — plus the derived per-scenario deltas and abstraction-induced
errors, so an analyst can rank hundreds of hypotheticals at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ScenarioOutcome:
    """One scenario's row of a :class:`BatchReport`."""

    name: str
    results: Dict[Tuple, float]
    deltas: Dict[Tuple, float]
    total_delta: float
    max_absolute_error: float
    mean_absolute_error: float

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly rendering (keys joined with ``/``)."""
        return {
            "name": self.name,
            "results": {
                "/".join(map(str, k)): v if isinstance(v, (int, float)) else str(v)
                for k, v in self.results.items()
            },
            "total_delta": self.total_delta,
            "max_absolute_error": self.max_absolute_error,
            "mean_absolute_error": self.mean_absolute_error,
        }


@dataclass(frozen=True)
class BatchReport:
    """The outcome of evaluating a scenario batch against a provenance set.

    Attributes
    ----------
    scenario_names:
        One name per row of the result matrices.
    keys:
        One result key per column.
    baseline:
        The query results under the base valuation, shape ``(groups,)``.
    full_results:
        Per-scenario results from the full provenance,
        shape ``(scenarios, groups)``.
    compressed_results:
        Per-scenario results from the compressed provenance (meta-variable
        defaults derived per scenario), or ``None`` when no abstraction was
        available.  Same shape as ``full_results``.
    full_size / compressed_size:
        Provenance sizes in monomials (``compressed_size`` is ``None``
        without an abstraction).
    semiring:
        The evaluation backend's name.  Numeric backends (``real``,
        ``tropical``, ``bool``) store float matrices; set-valued backends
        (``why``, ``lineage``) store object matrices of semiring values, and
        the delta/error matrices below are derived through the backend's
        error measure (symmetric-difference cardinality).
    mode:
        Which evaluation path produced the matrices: ``"dense"`` (the full
        ``scenarios × variables`` matrix pipeline), ``"sparse"`` (baseline-
        once delta evaluation), ``"factored"`` (shared-prefix deltas
        evaluated once, residual deltas per scenario), ``"mixed"`` (a
        chunked plan evaluation whose chunks took different paths) or
        ``"generic"`` (the per-scenario symbolic
        fallback of set-valued semirings).  The numeric paths give
        identical results on the tropical and bool backends and results
        equal to rounding on the real one (the parity tests hold them to
        ``rtol=1e-9``), since each kernel sums in its own order; the field
        records what ``mode="auto"`` picked.
    degradations:
        Resilience events the evaluation recovered from (shard retries,
        salvaged pool breaks, quarantined stores, serial fallbacks), one
        human-readable sentence each.  Empty for a clean run; non-empty
        means the numbers are exact but the sweep *succeeded degraded* —
        worth surfacing before trusting latency measurements.
    """

    scenario_names: Tuple[str, ...]
    keys: Tuple[Tuple, ...]
    baseline: np.ndarray
    full_results: np.ndarray
    compressed_results: Optional[np.ndarray] = None
    full_size: int = 0
    compressed_size: Optional[int] = None
    semiring: str = "real"
    mode: str = "dense"
    degradations: Tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        """Whether the evaluation recovered from any failure along the way."""
        return bool(self.degradations)

    def __len__(self) -> int:
        return len(self.scenario_names)

    def _backend(self):
        from repro.provenance.backends import resolve_backend

        return resolve_backend(self.semiring)

    def _is_object_valued(self) -> bool:
        return self.full_results.dtype == object

    def _elementwise(self, func, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Map a binary backend function over object-valued result matrices.

        ``left`` may be the 1-D baseline (broadcast along rows) or a matrix
        of ``right``'s shape.
        """
        result = np.zeros(right.shape, dtype=np.float64)
        for index in np.ndindex(right.shape):
            result[index] = func(left[index[-1]] if left.ndim == 1 else left[index],
                                 right[index])
        return result

    def _map_magnitudes(self, values: np.ndarray) -> np.ndarray:
        backend = self._backend()
        result = np.zeros(values.shape, dtype=np.float64)
        for index in np.ndindex(values.shape):
            result[index] = backend.magnitude(values[index])
        return result

    # -- derived matrices ---------------------------------------------------

    @property
    def deltas(self) -> np.ndarray:
        """Per-scenario, per-group change from the baseline (full provenance).

        Signed float differences for numeric semirings; for set-valued ones
        the backend's distance from the baseline (always non-negative).
        """
        if self._is_object_valued():
            return self._elementwise(
                self._backend().delta, self.baseline, self.full_results
            )
        base = self.baseline[np.newaxis, :]
        with np.errstate(invalid="ignore"):
            deltas = self.full_results - base
        # Equal entries are zero change even at infinity (a tropical group
        # unreachable in both evaluations would otherwise yield inf - inf
        # = NaN and poison total_delta and the scenario ranking).
        return np.where(self.full_results == base, 0.0, deltas)

    @property
    def total_deltas(self) -> np.ndarray:
        """Per-scenario total change, summed over the result groups."""
        return self.deltas.sum(axis=1)

    @property
    def absolute_errors(self) -> Optional[np.ndarray]:
        """``|full - compressed|`` per scenario and group, if compressed ran.

        Per the backend's error measure: numeric deltas for numeric
        semirings, symmetric-difference cardinality for set-valued ones.
        """
        if self.compressed_results is None:
            return None
        if self._is_object_valued():
            return self._elementwise(
                self._backend().error, self.full_results, self.compressed_results
            )
        with np.errstate(invalid="ignore"):
            errors = np.abs(self.full_results - self.compressed_results)
        return np.where(self.full_results == self.compressed_results, 0.0, errors)

    @property
    def max_absolute_error(self) -> float:
        """Largest abstraction-induced deviation across the whole sweep."""
        errors = self.absolute_errors
        if errors is None or errors.size == 0:
            return 0.0
        return float(errors.max())

    @property
    def mean_absolute_error(self) -> float:
        """Mean abstraction-induced deviation across the whole sweep."""
        errors = self.absolute_errors
        if errors is None or errors.size == 0:
            return 0.0
        return float(errors.mean())

    @property
    def max_relative_error(self) -> float:
        """Largest relative deviation (0 where the full result is ~0)."""
        errors = self.absolute_errors
        if errors is None or errors.size == 0:
            return 0.0
        if self._is_object_valued():
            scale = self._map_magnitudes(self.full_results)
        else:
            scale = np.abs(self.full_results)
        # Epsilon-clamped denominator: a corrupted zero-valued full result
        # is reported as a (large) relative error, never silently skipped;
        # corruption of an infinite-scale group reports inf, not inf/inf.
        from repro.core.metrics import ZERO_BASELINE_EPSILON

        with np.errstate(divide="ignore", invalid="ignore"):
            relative = errors / np.maximum(scale, ZERO_BASELINE_EPSILON)
        relative = np.where(errors == 0.0, 0.0, relative)
        relative = np.where(np.isnan(relative), np.inf, relative)
        return float(relative.max())

    # -- per-scenario views -------------------------------------------------

    def outcome(self, index: int) -> ScenarioOutcome:
        """The named per-group view of the ``index``-th scenario."""
        row = self.full_results[index]
        delta_row = self.deltas[index]
        errors = self.absolute_errors
        error_row = (
            errors[index] if errors is not None else np.zeros(len(row), dtype=np.float64)
        )
        if self._is_object_valued():
            results = {key: row[i] for i, key in enumerate(self.keys)}
        else:
            results = {key: float(row[i]) for i, key in enumerate(self.keys)}
        return ScenarioOutcome(
            name=self.scenario_names[index],
            results=results,
            deltas={key: float(delta_row[i]) for i, key in enumerate(self.keys)},
            total_delta=float(delta_row.sum()),
            max_absolute_error=float(error_row.max()) if error_row.size else 0.0,
            mean_absolute_error=float(error_row.mean()) if error_row.size else 0.0,
        )

    def outcomes(self) -> Tuple[ScenarioOutcome, ...]:
        """All per-scenario views, in row order."""
        return tuple(self.outcome(i) for i in range(len(self)))

    def ranked_by_total_delta(self, descending: bool = True) -> Tuple[int, ...]:
        """Scenario indices ordered by total change from the baseline."""
        order = np.argsort(self.total_deltas, kind="stable")
        if descending:
            order = order[::-1]
        return tuple(int(i) for i in order)

    # -- rendering ----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """A flat dictionary of the headline numbers (for benchmarks/JSON)."""
        return {
            "scenarios": len(self),
            "groups": len(self.keys),
            "semiring": self.semiring,
            "mode": self.mode,
            "full_size": self.full_size,
            "compressed_size": self.compressed_size,
            "max_absolute_error": self.max_absolute_error,
            "mean_absolute_error": self.mean_absolute_error,
            "max_relative_error": self.max_relative_error,
            "degradations": list(self.degradations),
        }

    def render_text(self, max_rows: int = 10) -> str:
        """A human-readable sweep table (scenarios ranked by |total delta|)."""
        lines: List[str] = []
        suffix = "" if self.semiring == "real" else f", semiring: {self.semiring}"
        if self.mode != "dense":
            suffix += f", mode: {self.mode}"
        lines.append(
            f"{len(self)} scenarios x {len(self.keys)} result groups "
            f"(full provenance: {self.full_size} monomials{suffix})"
        )
        if self.compressed_results is not None:
            lines.append(
                f"compressed provenance: {self.compressed_size} monomials, "
                f"abstraction error mean {self.mean_absolute_error:.4g} / "
                f"max {self.max_absolute_error:.4g} "
                f"(max relative {self.max_relative_error:.2%})"
            )
        lines.append("")
        header = f"{'scenario':<32} {'total delta':>14}"
        if self.compressed_results is not None:
            header += f" {'max abs err':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        total_deltas = self.total_deltas
        errors = self.absolute_errors
        ranked = sorted(
            range(len(self)), key=lambda i: abs(float(total_deltas[i])), reverse=True
        )
        for index in ranked[:max_rows]:
            line = (
                f"{self.scenario_names[index]:<32} "
                f"{float(total_deltas[index]):>14.2f}"
            )
            if errors is not None:
                row_max = float(errors[index].max()) if errors[index].size else 0.0
                line += f" {row_max:>12.4f}"
            lines.append(line)
        if len(self) > max_rows:
            lines.append(f"... ({len(self) - max_rows} more scenarios)")
        if self.degradations:
            lines.append("")
            lines.append(f"degraded ({len(self.degradations)} recoveries):")
            for event in self.degradations:
                lines.append(f"  - {event}")
        return "\n".join(lines)
