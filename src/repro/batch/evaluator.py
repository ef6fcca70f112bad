"""The batch what-if evaluation service.

:class:`BatchEvaluator` ties the batch subsystem together: it compiles
provenance sets once (an LRU cache keyed by the exact
:meth:`~repro.provenance.polynomial.ProvenanceSet.fingerprint`, which
adopted compiled stores also seed), lowers
scenario lists through :class:`~repro.batch.planner.ScenarioBatch`, and
evaluates the whole sweep with one of three vectorised pipelines:

* **dense** — one ``scenarios × variables`` matrix through the segmented
  matrix kernels, in row chunks of ``chunk_size`` (default: a fixed cap on
  the float cells one chunk materialises);
* **sparse** — the baseline valuation is evaluated **once**, then the
  scenarios are applied as one :class:`~repro.batch.planner.DeltaPlan`, a
  CSR of changed cells
  (:meth:`~repro.provenance.backends.numeric.CompiledProvenanceSet.evaluate_deltas`):
  the real set updates one per-row entry per changed variable, the
  tropical/bool sets recompute only affected segments.  Real what-if traffic
  perturbs a few variables per scenario, so this is the hot path;
* **factored** — for structured sweeps sharing a common operation prefix
  (grids, samples and composed plans from :mod:`repro.engine.plan`): the
  prefix is applied **once** to produce a factored baseline, then only each
  scenario's small residual delta runs through the sparse kernel.  Sparse
  and factored share one delta pipeline and one lowering,
  :meth:`~repro.batch.planner.ScenarioBatch.delta_plan`; they differ only in
  its ``prefix``.

With a compressed set, the sweep's scenario values are lowered to the
meta-variables through a :class:`MetaLowering` (a member CSR and its
transpose), cached per abstraction, universe and compressed variables; the
compressed results are aligned with the full keys through an index cached
per pair of fingerprints.  Both lowerings are array work over the whole
sweep.

``mode="auto"`` picks between them by the batch's touched-variable fraction
and prefix-sharing statistics; ``processes=N`` shards scenario rows of any
pipeline across worker processes with chunked, memory-bounded assembly.

Sharding has one path: each evaluator owns one persistent worker pool, and
every task ships the *path* of a compiled store that the worker maps.  An
adopted store (:meth:`BatchEvaluator.adopt_store`) is used as is; an
in-memory compiled set is spilled once into a private temporary directory
(``cobra-shards-*``) that :meth:`BatchEvaluator.close` — or garbage
collection — deletes along with the pool.

Resilience: shard maps run in *rounds* under the evaluator's
:class:`~repro.resilience.RetryPolicy` — a broken pool salvages every
completed shard result and re-submits only the failed shards to a fresh
pool, escalating to per-shard serial evaluation (itself retried) only
after the pool rounds are exhausted.  Per-shard wall-clock deadlines
(``RetryPolicy.shard_timeout``) bound hung workers, pool bringup and
compilation retry transient I/O failures, and every recovery lands in the
``resilience.*`` metrics plus the report's ``degradations`` summary.  The
``batch.shard``/``batch.compile``/``pool.bringup`` fault-injection sites
make all of it deterministically testable.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
import weakref
from collections import OrderedDict
from contextlib import suppress
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

try:
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover — platforms without multiprocessing
    class BrokenProcessPool(Exception):
        pass

import numpy as np

from repro.core.compression import Abstraction, Compressor
from repro.core.defaults import default_meta_valuation
from repro.engine.scenario import (
    Scenario,
    nan_value_error,
    nonfinite_amount_error,
)
from repro.exceptions import SerializationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_span, get_tracer, trace, tracing_enabled
from repro.provenance.backends import BackendLike, resolve_backend
from repro.provenance.backends.numeric import CompiledProvenanceSet
from repro.provenance.incidence import ragged_ranges, sorted_unique
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.valuation import FingerprintCache, Valuation
from repro.resilience import (
    RetryPolicy,
    active_plan_spec,
    collect_degradations,
    fault_point,
    install_plan,
    plan_from_spec,
    policy_from_env,
    record_degradation,
)
from repro.batch.planner import DeltaPlan, ScenarioBatch, offsets_from_counts
from repro.batch.report import BatchReport

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
    from repro.core.optimizer import OptimizationResult
    from repro.engine.plan import ScenarioPlan

#: Scenarios per chunk when consuming a lazily-lowered plan
#: (:meth:`BatchEvaluator.evaluate_plan`); bounds peak ``Scenario``
#: materialisation for huge grids.
PLAN_CHUNK_SCENARIOS = 8192

#: Target number of float64 cells one dense evaluation chunk keeps when no
#: ``chunk_size`` is configured: per row, the compiled set's
#: ``dense_row_footprint()`` (the kernel's factor gathers are blocked
#: separately and do not grow with the chunk).  Chunks bound memory; they
#: are also the shards of a sharded request, but ``processes`` is only an
#: upper bound: a dense request whose shards would each carry fewer than
#: :data:`DENSE_SHARD_CROSSOVER_CELLS` kernel cells runs in-process.
_TARGET_CELLS_PER_CHUNK = 4_000_000

#: Estimated kernel cells (rows × monomials) each shard of a dense request
#: must carry before ``processes > 1`` sends the shards to worker
#: processes.  Below it, shipping each chunk and its result through the
#: pool costs more than the work it splits, so the request runs
#: in-process.  Measured on a shared 2-core host: one tropical outage
#: request, serial against 2-process sharded in two chunks, over routing
#: provenance of 2,500–50,000 monomials at 12–3,072 rows.  Sharding broke
#: even at about 4.8M cells per shard and won from 6.4M while the host was
#: busy; on a quiet host it won from about 1.2M.
DENSE_SHARD_CROSSOVER_CELLS = 5_000_000

#: ``mode="auto"`` takes the sparse path when the mean fraction of the
#: variable universe the scenarios touch is at most this.  Real what-if
#: sweeps sit far below it; matrix-filling sweeps far above.
SPARSE_TOUCHED_FRACTION = 0.1

#: ``mode="auto"`` upgrades a sparse batch to the factored path only when it
#: has at least this many scenarios — below that the extra full-row pass for
#: the factored baseline costs more than the shared cells it saves.
FACTORED_MIN_SCENARIOS = 8

#: ...and only when the shared operation prefix accounts for at least this
#: fraction of the cells a typical scenario touches (the batch's
#: :attr:`~repro.batch.planner.ScenarioBatch.prefix_cells` over its mean
#: touched cells).
FACTORED_SHARED_FRACTION = 0.5

_EVALUATION_MODES = ("auto", "dense", "sparse", "factored")

# ---------------------------------------------------------------------------
# Process-pool sharding
# ---------------------------------------------------------------------------


def _run_shard(compiled, kind, piece):
    """Evaluate one shard: the one kernel call site of every sharded map.

    ``kind`` is ``"dense"`` (``piece`` is a matrix chunk) or ``"sparse"``
    (``piece`` is a scenario range of a :class:`DeltaPlan`).  The pool task
    and the in-process serial rung both come through here, so the
    ``batch.shard`` fault point fires identically on either.
    """
    fault_point("batch.shard", kind=kind)
    if kind == "dense":
        return compiled.evaluate_matrix(piece)
    return compiled.evaluate_deltas(piece)


def _shard_task(task):
    """One task of the evaluator's worker pool: open the store, run a shard.

    ``task`` is ``(store_path, kind, obs, fault_spec, piece)``.
    The pool is generic (no initializer), so each task names its compiled
    store; the per-process store cache
    (:func:`repro.provenance.store.open_store`) makes repeated opens
    O(header), and every worker mapping the same file shares one page-cache
    copy of the arrays.
    """
    path, kind, obs, fault_spec, piece = task
    if active_plan_spec() != fault_spec:
        # Track the parent's fault plan: armed once per plan, so its
        # counters persist across this worker's tasks and injection
        # schedules stay deterministic.
        install_plan(None if fault_spec is None else plan_from_spec(fault_spec))
    # Persistent workers serve many calls: start each task with a clean
    # tracer so reused workers never accumulate undrained spans, and only
    # record when the parent is tracing this call.
    tracer = get_tracer()
    tracer.reset()
    tracer.enabled = bool(obs)
    from repro.provenance.store import open_store

    compiled = open_store(path)
    if not obs:
        return _run_shard(compiled, kind, piece)
    # Traced: return ``(result, span_dicts, metrics_delta)`` — the shard's
    # completed span subtrees and the metric delta it produced, which the
    # parent grafts back via Tracer.attach and MetricsRegistry.merge.
    registry = get_registry()
    before = registry.snapshot()
    with trace("batch.shard", kind=kind, rows=len(piece)):
        result = _run_shard(compiled, kind, piece)
    spans = [span.to_dict() for span in tracer.drain()]
    return result, spans, registry.diff(before, registry.snapshot())


def _pool_probe() -> bool:
    """The trivial task :func:`_bringup_pool` uses to force worker bringup."""
    return True


def _bringup_pool(processes, policy):
    """A live ``ProcessPoolExecutor`` of ``processes`` workers, or ``None``.

    Process pools need working ``fork``/semaphores; sandboxes and exotic
    platforms may refuse them.  Workers are spawned lazily by the executor,
    so bringup failures can surface either at construction or at first
    submit — both are probed here, with a task that cannot itself raise.

    Bringup runs under ``policy``: transient ``OSError`` / broken-pool
    failures are retried with backoff before giving up (injected via the
    ``pool.bringup`` fault site).  A ``None`` return means "no pool" —
    either the platform refuses (``ImportError``/``PermissionError``) or
    retries were exhausted; the swallowed cause is logged to the metrics
    registry (``resilience.pool_bringup_failures.<ExcName>``) and recorded
    as a degradation, never silently eaten.  Any *other* exception
    propagates to the caller.
    """

    def attempt():
        fault_point("pool.bringup", processes=processes)
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=processes)
        probed = False
        try:
            pool.submit(_pool_probe).result()
            probed = True
        finally:
            if not probed:
                pool.shutdown(wait=False, cancel_futures=True)
        return pool

    try:
        return policy.run(
            attempt,
            retryable=(OSError, BrokenProcessPool),
            give_up=(ImportError, PermissionError),
            site="pool.bringup",
        )
    except (ImportError, BrokenProcessPool, OSError) as exc:
        registry = get_registry()
        registry.inc("resilience.pool_bringup_failures")
        registry.inc(f"resilience.pool_bringup_failures.{type(exc).__name__}")
        record_degradation(
            f"process-pool bringup failed ({type(exc).__name__}: {exc}); "
            "degrading to serial evaluation"
        )
        return None


def _release(pool, spill_dir) -> None:
    """Shut ``pool`` down and delete ``spill_dir``; either may be ``None``.

    Module-level so the evaluator's :func:`weakref.finalize` holds no
    reference back to the evaluator it cleans up after.
    """
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)
    if spill_dir is not None:
        shutil.rmtree(spill_dir, ignore_errors=True)


def _harvest_round(pool, task, indices, pieces, results, policy, obs):
    """Submit one round of shards and harvest: the indices that failed.

    ``task`` is the shared head of every shard's :func:`_shard_task` tuple
    (the piece is appended per shard).  Completed shard results are written
    straight into ``results`` — a pool that breaks mid-round loses only its
    unfinished shards.  A shard misses its ``policy.shard_timeout`` deadline
    → counted under ``resilience.timeouts`` and marked failed; transient
    worker failures (``OSError``, store corruption) are marked failed for
    re-run; anything else is a genuine worker bug and propagates.
    """
    timeout = policy.shard_timeout
    deadline = None if timeout is None else time.monotonic() + timeout
    futures = []
    unsubmitted = []
    for position, i in enumerate(indices):
        try:
            futures.append((i, pool.submit(_shard_task, task + (pieces[i],))))
        except BrokenProcessPool:
            # The pool died while we were still submitting: everything not
            # yet submitted joins the failed set for the next round.
            unsubmitted = list(indices[position:])
            break
    failed = []
    registry = get_registry()
    for i, future in futures:
        try:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            raw = future.result(timeout=remaining)
        except BrokenProcessPool:
            failed.append(i)
        except _FuturesTimeout:
            registry.inc("resilience.timeouts")
            record_degradation(
                f"batch.shard[{i}] missed its {timeout:.3g}s deadline"
            )
            future.cancel()
            failed.append(i)
        except (OSError, SerializationError) as exc:
            record_degradation(
                f"batch.shard[{i}] failed ({type(exc).__name__}: {exc}); "
                "queued for re-run"
            )
            failed.append(i)
        else:
            if obs:
                raw, spans, delta = raw
                get_tracer().attach(spans, shard=i)
                get_registry().merge(delta)
            results[i] = raw
    failed.extend(unsubmitted)
    return failed


def _reject_nan_rows(
    batch: ScenarioBatch, row: np.ndarray, matrix: np.ndarray
) -> None:
    """Raise for the first value the dense lowering made NaN (a scale of 0
    by ``inf``), scanning rows in order; NaN base values are not the
    scenarios' doing and pass."""
    made = np.isnan(matrix)
    if made.any():
        made &= ~np.isnan(row)
        sids, columns = np.nonzero(made)
        if sids.size:
            raise nan_value_error(
                batch.names[sids[0]], batch.variables[columns[0]]
            )


def _reject_nan_cells(
    batch: ScenarioBatch, row: np.ndarray, plan: DeltaPlan
) -> None:
    """Raise for the first value a sparse or factored lowering made NaN.

    The same first (scenario, variable) as :func:`_reject_nan_rows` names.
    A NaN cell where the unfactored base ``row`` is not NaN is one; so is a
    NaN a factored plan's prefix put into its base row, in every scenario
    that does not overwrite that column with a value.
    """
    sids = plan.scenario_ids()
    values = np.isnan(plan.values)
    made = np.flatnonzero(values & ~np.isnan(row[plan.columns]))
    first = [(int(sids[made[0]]), int(plan.columns[made[0]]))] if made.size else []
    prefixed = np.isnan(plan.base_row) & ~np.isnan(row)
    if prefixed.any():
        kept = prefixed[plan.columns] & ~values
        counts = np.bincount(sids[kept], minlength=len(plan))
        lacking = np.flatnonzero(counts < np.count_nonzero(prefixed))
        if lacking.size:
            sid = int(lacking[0])
            columns = np.setdiff1d(
                np.flatnonzero(prefixed), plan.columns[kept & (sids == sid)]
            )
            first.append((sid, int(columns[0])))
    if first:
        sid, column = min(first)
        raise nan_value_error(batch.names[sid], batch.variables[column])


class MetaLowering:
    """How the compressed variables derive from a batch universe's columns.

    Meta column *j* is the mean of the universe columns
    ``members[member_ptr[j]:member_ptr[j + 1]]``: a meta-variable's members
    that occur in the universe (in sorted member order), the column itself
    for an original the abstraction leaves untouched (a mean of one), and
    none for anything else, which takes the backend's identity ``fill``.
    The transpose (``column_ptr``/``column_metas``: universe column → the
    metas it feeds) lets the sparse lowering find the metas a scenario's
    cells touch without a Python loop.

    This derives the meta values as the interactive engine's
    ``default_meta_valuation(reducer="mean", on_missing="skip")`` does.  The
    mean lowering is shared by every numeric backend: it is the paper's
    default for real and tropical values, and for 0/1 Boolean columns it is
    non-zero exactly when the disjunction is.

    Depends only on the abstraction's mapping, the universe and the
    compressed variables, so :class:`BatchEvaluator` caches it under exactly
    that content.  Every mean is one ``np.add.reduceat`` over members in
    this order, so the dense, sparse and factored lowerings build identical
    meta rows for the same scenario.
    """

    __slots__ = (
        "counts",
        "member_ptr",
        "members",
        "column_ptr",
        "column_metas",
        "_averaged",
    )

    def __init__(
        self,
        abstraction: Abstraction,
        variables: Sequence[str],
        meta_variables: Sequence[str],
    ) -> None:
        grouped = abstraction.grouped_variables()
        index = {name: i for i, name in enumerate(variables)}
        per_meta: List[List[int]] = []
        for variable in meta_variables:
            members = grouped.get(variable)
            if members is not None:
                per_meta.append([index[m] for m in members if m in index])
            elif variable in index and variable not in abstraction.mapping:
                per_meta.append([index[variable]])
            else:
                per_meta.append([])
        self.counts = np.array([len(m) for m in per_meta], dtype=np.intp)
        self.member_ptr = offsets_from_counts(self.counts)
        self.members = np.array(
            [column for members in per_meta for column in members], dtype=np.intp
        )
        owners = np.repeat(np.arange(len(per_meta), dtype=np.intp), self.counts)
        order = np.argsort(self.members, kind="stable")
        self.column_ptr = offsets_from_counts(
            np.bincount(self.members, minlength=len(index))
        )
        self.column_metas = owners[order]
        self._averaged = np.flatnonzero(self.counts)

    def lower_matrix(self, matrix: np.ndarray, fill: float) -> np.ndarray:
        """Lower a scenarios × universe matrix to the compressed columns:
        one ``reduceat`` along axis 1 over the gathered member columns."""
        averaged = self._averaged
        result = np.full((matrix.shape[0], self.counts.size), fill, dtype=np.float64)
        if averaged.size and matrix.shape[0]:
            sums = np.add.reduceat(
                matrix[:, self.members], self.member_ptr[averaged], axis=1
            )
            result[:, averaged] = sums / self.counts[averaged]
        return result

    def lower_deltas(self, plan: DeltaPlan, fill: float) -> DeltaPlan:
        """Lower a plan over the universe to a plan over the compressed columns.

        The meta base row is the lowered plan base row.  Then,
        as array work over the whole plan: the changed cells expand through
        the transpose into ``(scenario, meta)`` codes, made distinct; each
        affected meta's members are gathered from the base row, the
        scenario's own cells overlaid by a ``searchsorted`` on the plan's
        sorted cell codes; one ``reduceat`` over them, divided by the member
        counts, gives the new means, and cells equal to the meta base drop.
        """
        base = self.lower_matrix(plan.base_row[np.newaxis, :], fill)[0]
        sids = plan.scenario_ids()
        starts = self.column_ptr[plan.columns]
        fanout = self.column_ptr[plan.columns + 1] - starts
        positions, _ = ragged_ranges(starts, starts + fanout)
        width = np.int64(base.size)
        codes = sorted_unique(
            np.repeat(sids.astype(np.int64), fanout) * width
            + self.column_metas[positions]
        )
        pair_sids, metas = np.divmod(codes, width)
        counts = self.counts[metas]
        member_positions, segments = ragged_ranges(
            self.member_ptr[metas], self.member_ptr[metas] + counts
        )
        columns = self.members[member_positions]
        values = plan.base_row[columns]
        universe = np.int64(plan.base_row.size)
        cell_codes = sids * universe + plan.columns
        query = np.repeat(pair_sids, counts) * universe + columns
        found = np.minimum(np.searchsorted(cell_codes, query), cell_codes.size - 1)
        hit = cell_codes[found] == query
        values[hit] = plan.values[found[hit]]
        means = np.add.reduceat(values, segments) / counts
        moved = means != base[metas]
        return DeltaPlan.from_cells(
            base,
            len(plan),
            pair_sids[moved],
            metas[moved].astype(np.intp),
            means[moved],
        )


class BatchEvaluator:
    """Evaluates many scenarios against (possibly many) provenance sets.

    Parameters
    ----------
    cache_size:
        How many compiled provenance sets to keep, LRU-evicted.  Compilation
        is the expensive step (one pass over every monomial), so a service
        answering what-if traffic over a handful of live provenance sets pays
        it once per set, not once per request.
    chunk_size:
        Rows per dense evaluation chunk (and per shard when a dense request
        is sharded).  ``None`` sizes chunks so one chunk's per-row buffers
        stay under ``_TARGET_CELLS_PER_CHUNK`` float64 cells (~32 MB),
        floored at one row.
    processes:
        Default process-pool width for :meth:`evaluate`'s sharding path
        (overridable per call).  ``None`` evaluates in-process.  An upper
        bound: a dense request whose shards would carry less kernel work
        than :data:`DENSE_SHARD_CROSSOVER_CELLS` runs in-process anyway.
    retry_policy:
        The :class:`~repro.resilience.RetryPolicy` governing shard
        retries/deadlines, pool bringup and store opens.  Defaults to
        :func:`~repro.resilience.policy_from_env` (``COBRA_RETRY``
        overrides honoured).
    """

    def __init__(
        self,
        cache_size: int = 8,
        chunk_size: Optional[int] = None,
        compressor: Optional[Compressor] = None,
        processes: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None)")
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1 (or None)")
        self._chunk_size = chunk_size
        self._processes = processes
        self._retry = retry_policy if retry_policy is not None else policy_from_env()
        self._compiled = FingerprintCache(cache_size, metrics="batch.compile_cache")
        # Per-request derived state of the compressed side, bounded like
        # the compile cache: meta lowerings keyed by exact content, and the
        # compressed → full key alignment keyed by the two fingerprints.
        self._lowerings = FingerprintCache(cache_size)
        self._alignments = FingerprintCache(cache_size)
        self._compressor = compressor
        # The one worker pool (and its width), plus the directory holding
        # in-memory compiled sets spilled for it, keyed like the compile
        # cache and bounded by the same capacity.
        self._pool = None
        self._pool_width = 0
        self._spill_dir: Optional[str] = None
        self._spills: "OrderedDict[Tuple[Optional[str], str], str]" = OrderedDict()
        self._spill_capacity = cache_size
        self._finalizer = weakref.finalize(self, _release, None, None)

    @property
    def retry_policy(self) -> RetryPolicy:
        """The retry posture this evaluator applies to shards/pools/stores."""
        return self._retry

    # -- compiled-provenance cache -------------------------------------------

    def compile(self, provenance: ProvenanceSet, semiring: "BackendLike" = None):
        """The compiled form of ``provenance``, cached by content fingerprint.

        The cache is keyed by ``(fingerprint, backend name)``: the
        fingerprint is exact (equal only for ``==`` sets), and the same
        provenance compiled for several semirings coexists.  The default is
        the real backend, whose compiled form is ``CompiledProvenanceSet``.
        """
        backend = resolve_backend(semiring)

        def build_once():
            fault_point("batch.compile", backend=backend.name)
            with trace(
                "batch.compile", backend=backend.name, monomials=provenance.size()
            ):
                return backend.compile(provenance)

        def build():
            return self._retry.run(
                build_once, retryable=(OSError,), site="batch.compile"
            )

        return self._compiled.get_or_build(
            (provenance.fingerprint(), backend.name), build
        )

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the compiled-provenance cache."""
        return self._compiled.info()

    def clear_cache(self) -> None:
        """Drop every cached compilation (counters are kept)."""
        self._compiled.clear()

    # -- compiled stores -------------------------------------------------------

    def adopt_store(self, path, provenance=None, semiring=None):
        """Open the compiled store at ``path`` and seed the compile cache.

        Subsequent :meth:`evaluate` calls over provenance with the store's
        fingerprint (and backend) reuse the mapped arrays instead of
        recompiling, and ``processes=N`` sharding ships this store's path to
        the worker pool without spilling a copy.  Returns the mapped
        compiled set.

        Opening runs under the evaluator's retry policy (transient I/O
        failures back off and retry).  A store that fails verification —
        bad magic, truncated blocks, a CRC mismatch — is quarantined
        (:func:`~repro.provenance.store.quarantine_store`); when
        ``provenance`` is supplied the evaluator then transparently
        recompiles it (for ``semiring``) instead of raising, so a corrupt
        artifact degrades a warm start into a recompile, not an outage.
        """
        from repro.provenance.store import open_store, quarantine_store

        def open_once():
            return open_store(path)

        try:
            compiled = self._retry.run(
                open_once,
                retryable=(OSError,),
                give_up=(FileNotFoundError,),
                site="store.open",
            )
        except SerializationError as exc:
            quarantined = quarantine_store(path)
            if provenance is None:
                raise
            record_degradation(
                f"store {path} was corrupt ({exc}); quarantined to "
                f"{quarantined} and recompiled from provenance"
            )
            return self.compile(provenance, semiring)
        self._compiled.put(
            (compiled.source_fingerprint, compiled.backend_name), compiled
        )
        return compiled

    def close(self) -> None:
        """Shut down the worker pool and delete the spilled compiled sets.

        Safe to call repeatedly; the evaluator stays usable (a later sharded
        call simply brings a fresh pool up and spills again).  Evaluators
        nobody closes are cleaned up the same way when garbage-collected.
        """
        self._finalizer()
        self._pool = None
        self._spill_dir = None
        self._spills.clear()

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    def _track(self) -> None:
        """Point the finalizer at the live pool and spill directory."""
        self._finalizer.detach()
        self._finalizer = weakref.finalize(
            self, _release, self._pool, self._spill_dir
        )

    def _drop_pool(self) -> None:
        """Shut the worker pool down (the spilled stores stay)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            self._track()
            _release(pool, None)

    def _pool_for(self, processes: int):
        """The worker pool, (re)built at ``processes`` width; ``None`` if
        the platform cannot run one."""
        if self._pool is not None and self._pool_width != processes:
            self._drop_pool()
        if self._pool is None:
            self._pool = _bringup_pool(processes, policy=self._retry)
            if self._pool is not None:
                self._pool_width = processes
                self._track()
        return self._pool

    def _store_path_for(self, compiled) -> Optional[str]:
        """The compiled store pool workers open for ``compiled``.

        An adopted store is used as is.  An in-memory compiled set is
        spilled once, with :func:`~repro.provenance.store.write_store`, into
        this evaluator's private temporary directory; later calls over the
        same ``(source_fingerprint, backend_name)`` reuse the file.  ``None``
        when the set cannot be spilled (the shards then run in-process).
        """
        if compiled.store_path is not None:
            return compiled.store_path
        key = (compiled.source_fingerprint, compiled.backend_name)
        path = self._spills.get(key)
        if path is not None:
            self._spills.move_to_end(key)
            return path
        from repro.provenance.store import write_store

        try:
            if self._spill_dir is None:
                self._spill_dir = tempfile.mkdtemp(prefix="cobra-shards-")
                self._track()
            name = f"{compiled.backend_name}-{compiled.source_fingerprint}.cps"
            path = write_store(compiled, os.path.join(self._spill_dir, name))
        except OSError as exc:
            record_degradation(
                f"could not spill the compiled set for worker processes "
                f"({type(exc).__name__}: {exc}); evaluating shards in-process"
            )
            return None
        self._spills[key] = path
        if len(self._spills) > self._spill_capacity:
            _, stale = self._spills.popitem(last=False)
            with suppress(OSError):
                os.remove(stale)
        return path

    def _shard_map(self, processes, compiled, kind, pieces):
        """Map shards over the worker pool in salvage rounds, then serially.

        Every task ships the compiled set's store path (see
        :meth:`_store_path_for`), never the set itself.  Round *n* submits
        every still-pending shard; completed results are kept
        (``resilience.salvaged_shards``) and only failures re-run, on a
        fresh pool — a pool that failed a round is never reused.  After
        ``policy.attempts - 1`` pool rounds (or with no pool at all) the
        stragglers run in-process, each retried under the policy; genuine
        worker exceptions propagate.  Returns results in piece order.

        With tracing enabled, pool workers record their own span subtrees
        and metric deltas (see :func:`_shard_task`) and the parent grafts
        them as each future completes, stamping each root with its shard
        index; the serial rung records plain nested ``batch.shard`` spans —
        it already runs inside the parent's live trace.
        """
        policy = self._retry
        obs = tracing_enabled()
        registry = get_registry()
        results = [None] * len(pieces)
        pending = list(range(len(pieces)))
        path = self._store_path_for(compiled)
        task = (path, kind, obs, active_plan_spec())
        for round_no in range(max(1, policy.attempts - 1)):
            pool = None if path is None else self._pool_for(processes)
            if pool is None:
                break
            failed = None
            try:
                failed = _harvest_round(
                    pool, task, pending, pieces, results, policy, obs
                )
            finally:
                if failed is None or failed:
                    self._drop_pool()
            if not failed:
                return results
            salvaged = len(pending) - len(failed)
            if salvaged:
                registry.inc("resilience.salvaged_shards", salvaged)
            record_degradation(
                f"shard round {round_no + 1} degraded: salvaged "
                f"{salvaged}/{len(pending)} shards, re-running {len(failed)}"
            )
            pending = failed
        for i in pending:
            with trace("batch.shard", shard=i, fallback="serial"):
                piece = pieces[i]

                def run_shard(piece=piece):
                    return _run_shard(compiled, kind, piece)

                results[i] = policy.run(
                    run_shard,
                    retryable=(OSError, SerializationError),
                    site="batch.shard.serial",
                )
        return results

    # -- compression ----------------------------------------------------------

    @property
    def compressor(self) -> Compressor:
        """The evaluator's compression service (lazy; share one for a fleet)."""
        if self._compressor is None:
            self._compressor = Compressor()
        return self._compressor

    # -- matrix evaluation ----------------------------------------------------

    def _resolve_chunk_size(self, compiled, rows: int) -> int:
        """Rows per dense chunk: ``chunk_size``, or else the cell cap.

        Without ``chunk_size`` the chunk is sized so the dense kernel's
        per-row float64 buffers (``compiled.dense_row_footprint()`` cells)
        stay under ``_TARGET_CELLS_PER_CHUNK`` — floored at one row, since
        a single row is the smallest evaluable unit.
        """
        if self._chunk_size is not None:
            return self._chunk_size
        footprint = getattr(compiled, "dense_row_footprint", None)
        per_row_cells = footprint() if callable(footprint) else max(1, compiled.size())
        return max(1, min(rows, _TARGET_CELLS_PER_CHUNK // per_row_cells))

    def evaluate_matrix(
        self,
        compiled: CompiledProvenanceSet,
        matrix: np.ndarray,
        processes: Optional[int] = None,
    ) -> np.ndarray:
        """Chunked, optionally process-sharded, ``scenarios × groups`` evaluation.

        Rows run in chunks (:meth:`_resolve_chunk_size`).  With
        ``processes > 1`` and two or more chunks, the chunks are the shards
        of the worker pool — but only when each carries at least
        :data:`DENSE_SHARD_CROSSOVER_CELLS` estimated kernel cells (chunk
        rows × monomials); below that the request runs in-process and
        counts under ``batch.dense.in_process``.  The
        ``batch.kernel.dense`` span records the decision: the requested
        ``processes``, the estimated ``shard_cells``, the
        ``shard_crossover`` and the ``shards`` used (0 in-process).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        rows = matrix.shape[0]
        chunk = self._resolve_chunk_size(compiled, rows)
        requested = processes or 1
        shard_cells = min(chunk, rows) * compiled.size()
        sharded = (
            requested > 1
            and rows > chunk
            and shard_cells >= DENSE_SHARD_CROSSOVER_CELLS
        )
        if requested > 1 and not sharded:
            get_registry().inc("batch.dense.in_process")
        with trace(
            "batch.kernel.dense",
            rows=rows,
            chunk=chunk,
            processes=requested,
            shard_cells=shard_cells,
            shard_crossover=DENSE_SHARD_CROSSOVER_CELLS,
        ) as span:
            if rows <= chunk:
                span.set("shards", 0)
                return compiled.evaluate_matrix(matrix)
            pieces = [
                matrix[start : start + chunk] for start in range(0, rows, chunk)
            ]
            span.update(
                {"chunks": len(pieces), "shards": len(pieces) if sharded else 0}
            )
            if sharded:
                results = self._shard_map(requested, compiled, "dense", pieces)
            else:
                results = [compiled.evaluate_matrix(piece) for piece in pieces]
            return np.concatenate(results, axis=0)

    def evaluate_deltas(
        self,
        compiled,
        plan: DeltaPlan,
        processes: Optional[int] = None,
    ) -> np.ndarray:
        """Sparse ``scenarios × groups`` evaluation, optionally process-sharded.

        The baseline is evaluated once (inside the compiled set's cached
        delta state); each shard is a scenario range of ``plan``
        (:meth:`DeltaPlan.rows`), so assembly memory is bounded by
        ``shards × shard_rows × groups`` floats.
        """
        rows = len(plan)
        with trace("batch.kernel.sparse", rows=rows) as span:
            if not (processes and processes > 1) or rows < 2:
                return compiled.evaluate_deltas(plan)
            shard = -(-rows // (processes * 4))
            pieces = [
                plan.rows(start, min(start + shard, rows))
                for start in range(0, rows, shard)
            ]
            span.update({"processes": processes, "shards": len(pieces)})
            results = self._shard_map(processes, compiled, "sparse", pieces)
            return np.concatenate(results, axis=0)

    # -- the full service entry point -----------------------------------------

    def evaluate(
        self,
        provenance: ProvenanceSet,
        scenarios: Sequence[Scenario],
        base_valuation: Optional[Mapping[str, float]] = None,
        compressed: Optional[ProvenanceSet] = None,
        abstraction: Optional[Abstraction] = None,
        semiring: BackendLike = None,
        mode: str = "auto",
        processes: Optional[int] = None,
    ) -> BatchReport:
        """Evaluate ``scenarios`` against ``provenance`` in one vectorised pass.

        When ``compressed`` and ``abstraction`` are given, the sweep is also
        evaluated against the compressed provenance (per-scenario
        meta-variable values derived as member means), so the report carries
        the abstraction-induced error across the whole sweep.

        ``semiring`` selects the evaluation backend: numeric backends (real,
        tropical, bool) take the vectorised pipelines; set-valued backends
        fall back to a per-scenario Python loop over the generic evaluator,
        producing object-valued result matrices with backend-defined deltas.

        ``mode`` picks the numeric pipeline: ``"dense"`` lowers the batch to
        a full matrix, ``"sparse"`` evaluates the baseline once and applies
        per-scenario deltas through the compiled set's delta index (the real
        set's per-(variable, row) entries, the tropical/bool sets' inverted
        variable→monomial index), ``"factored"`` additionally evaluates the
        scenarios' shared operation prefix once against a factored baseline,
        and ``"auto"``
        (default) selects sparse whenever the scenarios touch at most
        ``SPARSE_TOUCHED_FRACTION`` of the variable universe on average —
        upgrading to factored when at least ``FACTORED_MIN_SCENARIOS``
        scenarios share at least ``FACTORED_SHARED_FRACTION`` of their
        touched cells.  On the tropical and bool backends the three modes
        give identical results; on the real backend they agree to rounding
        (the parity tests hold them to ``rtol=1e-9``), because each kernel
        sums in its own order.  The real backend rejects a non-finite scale
        or set amount with :class:`~repro.exceptions.ScenarioError` before
        any kernel runs (``inf × 0`` would be a silent NaN); tropical and
        bool outages need ``inf`` and keep it, but a scale that makes a
        value NaN (a zero cost scaled by ``inf``) raises
        :class:`~repro.exceptions.ScenarioError` in every mode, naming the
        scenario and the variable.  ``processes`` shards scenario rows
        across worker processes (default: the evaluator's configured
        width); it is an upper bound, and dense requests below
        :data:`DENSE_SHARD_CROSSOVER_CELLS` per shard stay in-process.
        """
        registry = get_registry()
        registry.inc("batch.evaluations")
        registry.inc("batch.scenarios", len(scenarios))
        with collect_degradations() as degradations:
            if not tracing_enabled():
                report = self._evaluate_impl(
                    provenance, scenarios, base_valuation, compressed,
                    abstraction, semiring, mode, processes,
                )
            else:
                with trace(
                    "batch.evaluate", scenarios=len(scenarios), requested_mode=mode
                ) as span:
                    with registry.scope() as run:
                        report = self._evaluate_impl(
                            provenance, scenarios, base_valuation, compressed,
                            abstraction, semiring, mode, processes,
                        )
                    span.update(
                        {
                            "mode": report.mode,
                            "semiring": report.semiring,
                            "metrics": run.metrics,
                        }
                    )
        if degradations:
            report = replace(
                report, degradations=report.degradations + tuple(degradations)
            )
        return report

    def _evaluate_impl(
        self,
        provenance: ProvenanceSet,
        scenarios: Sequence[Scenario],
        base_valuation: Optional[Mapping[str, float]],
        compressed: Optional[ProvenanceSet],
        abstraction: Optional[Abstraction],
        semiring: BackendLike,
        mode: str,
        processes: Optional[int],
    ) -> BatchReport:
        if (compressed is None) != (abstraction is None):
            raise ValueError(
                "compressed and abstraction must be provided together"
            )
        if mode not in _EVALUATION_MODES:
            raise ValueError(
                f"mode must be one of {_EVALUATION_MODES}, got {mode!r}"
            )
        if processes is None:
            processes = self._processes
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1 (or None)")
        backend = resolve_backend(semiring)
        if not backend.is_numeric:
            return self._evaluate_generic(
                provenance, scenarios, base_valuation, compressed, abstraction, backend
            )
        fill = getattr(backend, "numeric_fill", 1.0)
        base = (
            Valuation(dict(base_valuation), semiring=backend)
            if base_valuation
            else Valuation(semiring=backend)
        )
        universe = set(provenance.variables()) | set(base)
        batch = ScenarioBatch(scenarios, universe)
        if backend.name == "real":
            nonfinite = batch.nonfinite_rows()
            if nonfinite.size:
                raise nonfinite_amount_error(batch.names[nonfinite[0]])

        compiled_full = self.compile(provenance, backend)
        supports_deltas = getattr(compiled_full, "supports_deltas", False)
        if mode in ("sparse", "factored") and not supports_deltas:
            raise ValueError(
                f"the {backend.name!r} backend's compiled form does not "
                "support sparse delta evaluation; use mode='dense'"
            )
        registry = get_registry()
        chosen = "dense"
        if mode in ("sparse", "factored"):
            chosen = mode
        elif mode == "auto" and supports_deltas:
            # Factored first: a structured sweep's shared prefix may touch a
            # large slice of the universe (disqualifying plain sparse), but
            # it is evaluated once — only the *residual* touched fraction
            # has to be sparse.  Factoring needs enough scenarios sharing a
            # large enough prefix to pay for the extra factored-baseline row.
            touched = batch.touched_fraction()
            prefix_cells = batch.prefix_cells
            mean_touched = int(batch.touched_counts().sum()) / max(1, len(batch))
            shared = min(1.0, prefix_cells / mean_touched) if prefix_cells else 0.0
            residual_touched = max(
                0.0, touched - prefix_cells / max(1, len(batch.variables))
            )
            if (
                len(batch) >= FACTORED_MIN_SCENARIOS
                and batch.prefix_length >= 1
                and shared >= FACTORED_SHARED_FRACTION
                and residual_touched <= SPARSE_TOUCHED_FRACTION
            ):
                chosen = "factored"
                registry.inc("batch.factored.auto_hits")
            else:
                registry.inc("batch.factored.auto_misses")
                if touched <= SPARSE_TOUCHED_FRACTION:
                    chosen = "sparse"
        registry.inc(f"batch.mode.{chosen}")
        if tracing_enabled():
            current_span().update(
                {
                    "touched_fraction": batch.touched_fraction(),
                    "mode": chosen,
                    "backend": backend.name,
                }
            )

        compiled_compressed = None
        if compressed is not None and abstraction is not None:
            compiled_compressed = self.compile(compressed, backend)

        # The base row is built once per request: it lowers the scenarios
        # and is the baseline's valuation.
        row = batch.base_row(base, fill)
        if chosen == "dense":
            baseline, full_results, meta_rows = self._evaluate_dense(
                compiled_full, compiled_compressed, abstraction, batch, row,
                fill, processes,
            )
        else:
            baseline, full_results, meta_rows = self._evaluate_deltas(
                compiled_full, compiled_compressed, abstraction, batch, row,
                fill, processes, batch.prefix_length if chosen == "factored" else 0,
            )

        with trace("batch.reduce", keys=len(compiled_full.keys)):
            compressed_results = None
            compressed_size = None
            if compiled_compressed is not None:
                compressed_results = self._align_compressed(
                    compiled_full, compiled_compressed, full_results, meta_rows,
                    backend,
                )
                compressed_size = compressed.size()

            return BatchReport(
                scenario_names=batch.names,
                keys=compiled_full.keys,
                baseline=baseline,
                full_results=full_results,
                compressed_results=compressed_results,
                full_size=provenance.size(),
                compressed_size=compressed_size,
                semiring=backend.name,
                mode=chosen,
            )

    # -- the numeric pipelines ------------------------------------------------

    def _evaluate_dense(
        self, compiled_full, compiled_compressed, abstraction, batch, row,
        fill, processes,
    ):
        """The dense pipeline over the base ``row``.  Every row is evaluated
        on its own, so a scenario that moves no value gets the baseline's
        bits."""
        matrix = batch.valuation_matrix(row, fill=fill)
        _reject_nan_rows(batch, row, matrix)
        full_columns = batch.columns_for(compiled_full.variables)
        baseline = compiled_full.evaluate_matrix(row[np.newaxis, full_columns])[0]
        full_results = self.evaluate_matrix(
            compiled_full, matrix[:, full_columns], processes
        )

        meta_rows = None
        if compiled_compressed is not None:
            lowering = self._meta_lowering(abstraction, batch, compiled_compressed)
            meta_rows = self.evaluate_matrix(
                compiled_compressed, lowering.lower_matrix(matrix, fill), processes
            )
        return baseline, full_results, meta_rows

    def _evaluate_deltas(
        self, compiled_full, compiled_compressed, abstraction, batch, row,
        fill, processes, prefix,
    ):
        """The sparse (``prefix=0``) and factored pipelines: the batch's
        :meth:`~repro.batch.planner.ScenarioBatch.delta_plan`, evaluated.

        The report's baseline is the valuation with no scenario applied,
        the unfactored base ``row``.  A factored plan's rows equal the
        sparse plan's rows bit-for-bit, so per-scenario results agree to
        rounding.
        """
        plan = batch.delta_plan(row, fill=fill, prefix=prefix)
        _reject_nan_cells(batch, row, plan)
        if prefix:
            registry = get_registry()
            registry.inc("batch.factored.prefix_cells", batch.prefix_cells)
            registry.inc("batch.factored.residual_cells", plan.changed_cells())
        full_columns = batch.columns_for(compiled_full.variables)
        full_plan = plan.project(full_columns)
        baseline = compiled_full.baseline_totals(row[full_columns])
        full_results = self.evaluate_deltas(compiled_full, full_plan, processes)

        meta_rows = None
        if compiled_compressed is not None:
            lowering = self._meta_lowering(abstraction, batch, compiled_compressed)
            meta_rows = self.evaluate_deltas(
                compiled_compressed, lowering.lower_deltas(plan, fill), processes
            )
        return baseline, full_results, meta_rows

    def _meta_lowering(
        self, abstraction: Abstraction, batch: ScenarioBatch, compiled_compressed
    ) -> MetaLowering:
        """The cached :class:`MetaLowering` of ``abstraction`` over the batch.

        Keyed by exact content — the mapping's items, the universe and the
        compressed variables — so a sweep repeating its inputs rebuilds
        nothing, and a few bounds cycling through one evaluator each keep
        their own entry.
        """
        variables = compiled_compressed.variables
        return self._lowerings.get_or_build(
            (tuple(abstraction.mapping.items()), batch.variables, variables),
            lambda: MetaLowering(abstraction, batch.variables, variables),
        )

    # -- declarative plans ------------------------------------------------------

    def evaluate_plan(
        self,
        provenance: ProvenanceSet,
        plan: "ScenarioPlan",
        base_valuation: Optional[Mapping[str, float]] = None,
        compressed: Optional[ProvenanceSet] = None,
        abstraction: Optional[Abstraction] = None,
        semiring: BackendLike = None,
        mode: str = "auto",
        processes: Optional[int] = None,
    ) -> BatchReport:
        """Evaluate a declarative :class:`~repro.engine.plan.ScenarioPlan`.

        The plan lowers lazily and is consumed in chunks of
        :data:`PLAN_CHUNK_SCENARIOS` scenarios, so a 10^6-point grid never materialises every ``Scenario`` at once;
        each chunk goes through :meth:`evaluate` (keeping the mode heuristic,
        sharding, and compressed-sweep semantics) and the chunk reports are
        stitched back into one :class:`BatchReport`.
        """
        registry = get_registry()
        registry.inc("batch.plans")
        with trace(
            "batch.plan",
            plan=getattr(plan, "name", type(plan).__name__),
            points=len(plan),
            chunk=PLAN_CHUNK_SCENARIOS,
        ) as span:
            reports = []
            chunk: list = []
            for scenario in plan.lower():
                chunk.append(scenario)
                if len(chunk) >= PLAN_CHUNK_SCENARIOS:
                    reports.append(
                        self.evaluate(
                            provenance, chunk, base_valuation, compressed,
                            abstraction, semiring, mode, processes,
                        )
                    )
                    chunk = []
            if chunk:
                reports.append(
                    self.evaluate(
                        provenance, chunk, base_valuation, compressed,
                        abstraction, semiring, mode, processes,
                    )
                )
            if not reports:
                raise ValueError("the plan lowered to zero scenarios")
            span.set("chunks", len(reports))
            if len(reports) == 1:
                return reports[0]
            return self._stitch_reports(reports)

    @staticmethod
    def _stitch_reports(reports: Sequence[BatchReport]) -> BatchReport:
        """One report covering every chunk of a plan evaluation.

        Shared fields (keys, baseline, sizes, semiring) come from the first
        chunk — every chunk evaluated the same provenance against the same
        base.  ``mode`` is the shared chunk mode, or ``"mixed"`` when the
        auto heuristic picked differently across chunks.
        """
        first = reports[0]
        names = tuple(
            name for report in reports for name in report.scenario_names
        )
        full_results = np.concatenate(
            [report.full_results for report in reports], axis=0
        )
        compressed_results = None
        if first.compressed_results is not None:
            compressed_results = np.concatenate(
                [report.compressed_results for report in reports], axis=0
            )
        modes = {report.mode for report in reports}
        return BatchReport(
            scenario_names=names,
            keys=first.keys,
            baseline=first.baseline,
            full_results=full_results,
            compressed_results=compressed_results,
            full_size=first.full_size,
            compressed_size=first.compressed_size,
            semiring=first.semiring,
            mode=modes.pop() if len(modes) == 1 else "mixed",
            degradations=tuple(
                event for report in reports for event in report.degradations
            ),
        )

    def _align_compressed(
        self, compiled_full, compiled_compressed, full_results, meta_rows, backend
    ) -> np.ndarray:
        """Align compressed columns with the full provenance's keys; groups
        absent from the compressed set evaluate to the semiring zero, as in
        the interactive report.

        The ``(destination, source)`` column index is cached per pair of
        source fingerprints, together with the key tuples it was built from:
        it is reused while both compiled sets list the same keys in the same
        order (an identity check when they are the same tuples), so a
        request pays one fancy-indexed assignment.
        """
        full_keys, compressed_keys = compiled_full.keys, compiled_compressed.keys
        key = (
            compiled_full.source_fingerprint,
            compiled_compressed.source_fingerprint,
        )
        cached = self._alignments.get(key)
        if cached is None or cached[:2] != (full_keys, compressed_keys):
            key_column = {k: i for i, k in enumerate(compressed_keys)}
            pairs = [
                (j, key_column[k]) for j, k in enumerate(full_keys) if k in key_column
            ]
            destination = np.array([j for j, _ in pairs], dtype=np.intp)
            source = np.array([i for _, i in pairs], dtype=np.intp)
            cached = (full_keys, compressed_keys, destination, source)
            self._alignments.put(key, cached)
        _full_keys, _compressed_keys, destination, source = cached
        compressed_results = np.full_like(full_results, float(backend.semiring.zero))
        compressed_results[:, destination] = meta_rows[:, source]
        return compressed_results

    def _evaluate_generic(
        self,
        provenance: ProvenanceSet,
        scenarios: Sequence[Scenario],
        base_valuation: Optional[Mapping[str, float]],
        compressed: Optional[ProvenanceSet],
        abstraction: Optional[Abstraction],
        backend,
    ) -> BatchReport:
        """The pure-Python fallback for set-valued semirings (Why, Lineage).

        Sparse mode does not apply to symbolic carriers; every requested
        ``mode`` takes this same per-scenario loop (reported as
        ``mode="generic"``), so results never depend on the mode knob.
        """
        get_registry().inc("batch.mode.generic")
        if tracing_enabled():
            current_span().update({"mode": "generic", "backend": backend.name})
        base = (
            Valuation(dict(base_valuation), semiring=backend)
            if base_valuation
            else Valuation(semiring=backend)
        )
        universe = tuple(sorted(set(provenance.variables()) | set(base)))
        base = base.updated(
            {
                name: backend.default_value(name)
                for name in universe
                if name not in base
            }
        )
        compiled_full = self.compile(provenance, backend)
        compiled_compressed = None
        if compressed is not None and abstraction is not None:
            compiled_compressed = self.compile(compressed, backend)

        keys = compiled_full.keys
        names = tuple(scenario.name for scenario in scenarios)
        baseline_map = compiled_full.evaluate(base)
        baseline = np.empty(len(keys), dtype=object)
        for j, key in enumerate(keys):
            baseline[j] = baseline_map[key]

        zero = backend.semiring.zero
        full_results = np.empty((len(scenarios), len(keys)), dtype=object)
        compressed_results = (
            np.empty((len(scenarios), len(keys)), dtype=object)
            if compiled_compressed is not None
            else None
        )
        with trace("batch.kernel.generic", rows=len(scenarios)):
            for i, scenario in enumerate(scenarios):
                valuation = scenario.apply(base, universe)
                row = compiled_full.evaluate(valuation)
                for j, key in enumerate(keys):
                    full_results[i, j] = row[key]
                if compiled_compressed is not None:
                    meta_valuation = default_meta_valuation(
                        abstraction, valuation, on_missing="skip", semiring=backend
                    )
                    missing = meta_valuation.missing(compiled_compressed.variables)
                    if missing:
                        meta_valuation = meta_valuation.updated(
                            {name: backend.default_value(name) for name in missing}
                        )
                    compressed_row = compiled_compressed.evaluate(meta_valuation)
                    for j, key in enumerate(keys):
                        compressed_results[i, j] = compressed_row.get(key, zero)

        return BatchReport(
            scenario_names=names,
            keys=keys,
            baseline=baseline,
            full_results=full_results,
            compressed_results=compressed_results,
            full_size=provenance.size(),
            compressed_size=compressed.size() if compressed is not None else None,
            semiring=backend.name,
            mode="generic",
        )

    def compress_and_evaluate(
        self,
        provenance: ProvenanceSet,
        trees: "Union[AbstractionTree, AbstractionForest]",
        bound: int,
        scenarios: Sequence[Scenario],
        base_valuation: Optional[Mapping[str, float]] = None,
        method: str = "greedy",
        allow_infeasible: bool = False,
        semiring: BackendLike = None,
        mode: str = "auto",
        processes: Optional[int] = None,
    ) -> Tuple[BatchReport, "OptimizationResult"]:
        """Compress under ``bound`` and evaluate ``scenarios`` in one call.

        The compress-once-then-sweep service path: the abstraction is chosen
        through :attr:`compressor` (so repeated calls over the same
        provenance/forest — even at different bounds — reuse one cached
        coarsening trajectory), and both the full and the compressed
        provenance come out of the fingerprint-keyed compile cache.  Returns
        the batch report together with the optimisation result that produced
        the abstraction.
        """
        result = self.compressor.compress(
            provenance,
            trees,
            bound,
            method=method,
            allow_infeasible=allow_infeasible,
        )
        report = self.evaluate(
            provenance,
            scenarios,
            base_valuation=base_valuation,
            compressed=result.compressed,
            abstraction=result.abstraction,
            semiring=semiring,
            mode=mode,
            processes=processes,
        )
        return report, result
