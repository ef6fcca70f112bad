"""Batch what-if evaluation: many scenarios, one vectorised pass.

The interactive :class:`~repro.engine.session.CobraSession` answers one
hypothetical at a time.  This subpackage is the service-oriented counterpart
built for heavy multi-scenario traffic:

* :mod:`repro.batch.planner` — :class:`ScenarioBatch` lowers a list of
  :class:`~repro.engine.scenario.Scenario` objects over a shared variable
  index, either into one ``scenarios × variables`` valuation matrix or into
  a sparse :class:`DeltaPlan` (shared base row + a CSR of changed cells:
  per-scenario offsets into flat column/value arrays).  Structured sweeps
  factor there too: ``delta_plan(prefix=k)`` applies the scenarios' common
  operation prefix once to the base row and lowers only the residual
  operations (``mode="auto"`` upgrades qualifying sparse batches to it);
* :mod:`repro.batch.evaluator` — :class:`BatchEvaluator` compiles provenance
  sets once (LRU-cached by content fingerprint) and evaluates whole sweeps
  with chunked matrix kernels or baseline-once sparse delta kernels
  (``mode="auto"`` picks per batch).  The compressed side of a sweep is
  lowered through a cached :class:`~repro.batch.evaluator.MetaLowering`
  (member CSR and transpose) and aligned through a cached key index.
  Sharding has one path, ``processes``:
  one persistent worker pool that maps each compiled set from a store file
  (in-memory sets are spilled once to a temporary store);
* :mod:`repro.batch.report` — :class:`BatchReport` aggregates per-scenario /
  per-group deltas against the baseline and the abstraction-induced error of
  the compressed provenance across the sweep.

The convenient entry points are
:meth:`repro.engine.session.CobraSession.evaluate_many` (flat scenario
lists) and :meth:`repro.engine.session.CobraSession.evaluate_plan`
(declarative :mod:`repro.engine.plan` sweeps), which route through a
session's provenance (and its compressed form, if one was computed).
"""

from repro.batch.planner import DeltaPlan, ScenarioBatch
from repro.batch.evaluator import BatchEvaluator
from repro.batch.report import BatchReport, ScenarioOutcome

__all__ = [
    "ScenarioBatch",
    "DeltaPlan",
    "BatchEvaluator",
    "BatchReport",
    "ScenarioOutcome",
]
