"""The batch what-if evaluation service.

:class:`BatchEvaluator` ties the batch subsystem together: it compiles
provenance sets once (an LRU cache keyed by
:meth:`~repro.provenance.polynomial.ProvenanceSet.fingerprint`), lowers
scenario lists through :class:`~repro.batch.planner.ScenarioBatch`, and
evaluates the whole sweep with one of three vectorised pipelines:

* **dense** — one ``scenarios × variables`` matrix through the segmented
  matrix kernels, chunked to a memory budget and optionally fanned out over
  a thread pool (the kernels release the GIL);
* **sparse** — the baseline valuation is evaluated **once**, then each
  scenario is applied as a ``(changed_columns, new_values)`` delta through
  the compiled sets' inverted variable→monomial index
  (:meth:`~repro.provenance.backends.numeric.CompiledProvenanceSet.evaluate_deltas`),
  recomputing only affected monomials/segments.  Real what-if traffic
  perturbs a few variables per scenario, so this is the hot path;
* **factored** — for structured sweeps sharing a common operation prefix
  (grids, samples and composed plans from :mod:`repro.engine.plan`): the
  prefix is applied **once** to produce a factored baseline
  (:mod:`repro.batch.factored`), then only each scenario's small residual
  delta runs through the sparse kernel.

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
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple, Union

try:
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover — platforms without multiprocessing
    class BrokenProcessPool(Exception):
        pass

import numpy as np

from repro.core.compression import Abstraction, Compressor
from repro.core.defaults import default_meta_valuation
from repro.engine.scenario import Scenario
from repro.exceptions import SerializationError
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_span, get_tracer, trace, tracing_enabled
from repro.provenance.backends import BackendLike, resolve_backend
from repro.provenance.backends.numeric import CompiledProvenanceSet
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
from repro.batch.factored import factor_batch, prefix_statistics
from repro.batch.planner import DeltaPlan, ScenarioBatch
from repro.batch.report import BatchReport

if TYPE_CHECKING:  # pragma: no cover — typing only
    from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
    from repro.core.optimizer import OptimizationResult
    from repro.engine.plan import ScenarioPlan

#: Scenarios per chunk when consuming a lazily-lowered plan
#: (:meth:`BatchEvaluator.evaluate_plan`); bounds peak ``Scenario``
#: materialisation for huge grids.
PLAN_CHUNK_SCENARIOS = 8192

#: Target number of float64 cells materialised per evaluation chunk when no
#: explicit memory budget is configured; keeps the per-chunk gather/product
#: temporaries comfortably inside cache/RAM.
_TARGET_CELLS_PER_CHUNK = 4_000_000

#: Environment variable naming the default per-chunk memory budget (bytes)
#: of the dense matrix pipeline.
MAX_BYTES_ENV = "COBRA_BATCH_MAX_BYTES"

#: ``mode="auto"`` takes the sparse path when the mean fraction of the
#: variable universe the scenarios touch is at most this.  Real what-if
#: sweeps sit far below it; matrix-filling sweeps far above.
SPARSE_TOUCHED_FRACTION = 0.1

#: ``mode="auto"`` upgrades a sparse batch to the factored path only when it
#: has at least this many scenarios — below that the extra full-row pass for
#: the factored baseline costs more than the shared cells it saves.
FACTORED_MIN_SCENARIOS = 8

#: ...and only when the shared operation prefix accounts for at least this
#: fraction of the cells a typical scenario touches (see
#: :func:`repro.batch.factored.prefix_statistics`).
FACTORED_SHARED_FRACTION = 0.5

_EVALUATION_MODES = ("auto", "dense", "sparse", "factored")

# ---------------------------------------------------------------------------
# Process-pool sharding
# ---------------------------------------------------------------------------


def _run_shard(compiled, kind, base_vector, piece):
    """Evaluate one shard: the one kernel call site of every sharded map.

    ``kind`` is ``"dense"`` (``piece`` is a matrix chunk) or ``"sparse"``
    (``piece`` is a slice of delta plans against ``base_vector``).  The pool
    task and the in-process serial rung both come through here, so the
    ``batch.shard`` fault point fires identically on either.
    """
    fault_point("batch.shard", kind=kind)
    if kind == "dense":
        return compiled.evaluate_matrix(piece)
    return compiled.evaluate_deltas(base_vector, piece)


def _shard_task(task):
    """One task of the evaluator's worker pool: open the store, run a shard.

    ``task`` is ``(store_path, kind, base_vector, obs, fault_spec, piece)``.
    The pool is generic (no initializer), so each task names its compiled
    store; the per-process store cache
    (:func:`repro.provenance.store.open_store`) makes repeated opens
    O(header), and every worker mapping the same file shares one page-cache
    copy of the arrays.
    """
    path, kind, base_vector, obs, fault_spec, piece = task
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
        return _run_shard(compiled, kind, base_vector, piece)
    # Traced: return ``(result, span_dicts, metrics_delta)`` — the shard's
    # completed span subtrees and the metric delta it produced, which the
    # parent grafts back via Tracer.attach and MetricsRegistry.merge.
    registry = get_registry()
    before = registry.snapshot()
    rows = int(piece.shape[0]) if kind == "dense" else len(piece)
    with trace("batch.shard", kind=kind, rows=rows):
        result = _run_shard(compiled, kind, base_vector, piece)
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


def _resolve_max_bytes(max_bytes: Optional[int]) -> Optional[int]:
    """The effective dense-chunk memory budget, or ``None`` for the default.

    An explicit argument wins; otherwise the ``COBRA_BATCH_MAX_BYTES``
    environment variable is consulted, and a malformed or non-positive value
    there raises a :class:`ValueError` naming the variable and the value —
    not a bare ``int()`` traceback deep inside evaluation.
    """
    if max_bytes is not None:
        return int(max_bytes)
    env = os.environ.get(MAX_BYTES_ENV)
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"{MAX_BYTES_ENV} must be an integer number of bytes, "
            f"got {env!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{MAX_BYTES_ENV} must be >= 1, got {env!r}")
    return value


def lower_meta_matrix(
    abstraction: Abstraction,
    batch: ScenarioBatch,
    matrix: np.ndarray,
    meta_variables: Sequence[str],
    fill: float = 1.0,
) -> np.ndarray:
    """Lower a scenarios × originals matrix to the compressed variable space.

    Column *j* of the result is the value of ``meta_variables[j]`` under each
    scenario, derived exactly as the interactive engine's
    ``default_meta_valuation(reducer="mean", on_missing="skip")``: the mean of
    the scenario values of the meta-variable's members that occur in the
    universe, the scenario value itself for originals the abstraction leaves
    untouched, and ``fill`` (the backend's identity fill, 1.0 on the float
    pipeline) otherwise.  The mean lowering is shared by every numeric
    backend: it is the paper's default for real and tropical values, and for
    0/1 Boolean columns it is non-zero exactly when the disjunction is.
    """
    grouped = abstraction.grouped_variables()
    mapped = set(abstraction.mapping)
    universe = set(batch.variables)
    result = np.full(
        (matrix.shape[0], len(meta_variables)), fill, dtype=np.float64
    )
    for j, variable in enumerate(meta_variables):
        members = grouped.get(variable)
        if members is not None:
            present = [m for m in members if m in universe]
            if present:
                result[:, j] = matrix[:, batch.columns_for(present)].mean(axis=1)
        elif variable in universe and variable not in mapped:
            result[:, j] = matrix[:, batch.columns_for([variable])[0]]
    return result


def lower_meta_deltas(
    abstraction: Abstraction,
    batch: ScenarioBatch,
    plan: DeltaPlan,
    meta_variables: Sequence[str],
    fill: float = 1.0,
) -> Tuple[np.ndarray, Tuple[Tuple[np.ndarray, np.ndarray], ...]]:
    """The sparse counterpart of :func:`lower_meta_matrix`.

    Lowers a :class:`~repro.batch.planner.DeltaPlan` over the originals into
    the compressed variable space without materialising any dense matrix:
    the meta base row is derived once from the plan's base row, and per
    scenario only the meta-variables containing a changed original are
    re-averaged.  Cell for cell this computes the exact numbers
    :func:`lower_meta_matrix` would.
    """
    grouped = abstraction.grouped_variables()
    mapped = set(abstraction.mapping)
    universe = set(batch.variables)
    base_row = np.full(len(meta_variables), fill, dtype=np.float64)
    # Per meta column: ("mean", member column array) | ("pass", column) |
    # ("fill", None) — mirroring the dense lowering's three cases.
    lowering = []
    column_to_metas: Dict[int, list] = {}
    for j, variable in enumerate(meta_variables):
        members = grouped.get(variable)
        if members is not None:
            present = [m for m in members if m in universe]
            if present:
                columns = batch.columns_for(present)
                base_row[j] = plan.base_row[columns].mean()
                lowering.append(("mean", columns))
                for column in columns:
                    column_to_metas.setdefault(int(column), []).append(j)
            else:
                lowering.append(("fill", None))
        elif variable in universe and variable not in mapped:
            column = int(batch.columns_for([variable])[0])
            base_row[j] = plan.base_row[column]
            lowering.append(("pass", column))
            column_to_metas.setdefault(column, []).append(j)
        else:
            lowering.append(("fill", None))

    empty_columns = np.zeros(0, dtype=np.intp)
    empty_values = np.zeros(0, dtype=np.float64)
    scratch = plan.base_row.copy()
    changes = []
    for columns, values in plan.changes:
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


class BatchEvaluator:
    """Evaluates many scenarios against (possibly many) provenance sets.

    Parameters
    ----------
    cache_size:
        How many compiled provenance sets to keep, LRU-evicted.  Compilation
        is the expensive step (one pass over every monomial), so a service
        answering what-if traffic over a handful of live provenance sets pays
        it once per set, not once per request.
    max_workers:
        When set (> 1), dense mega-batches are split into chunks evaluated on
        a thread pool; the numpy kernels release the GIL for the bulk of the
        work.  ``None`` evaluates chunks serially on the calling thread.
    chunk_size:
        Rows per evaluation chunk; overrides the memory-derived default.
    max_bytes:
        Peak bytes of dense-kernel temporaries a chunk may materialise.
        Defaults to the ``COBRA_BATCH_MAX_BYTES`` environment variable when
        set, otherwise a ~32 MB cells heuristic.  A single row is always
        evaluable, so the effective floor is one row's footprint.
    processes:
        Default process-pool width for :meth:`evaluate`'s sharding path
        (overridable per call).  ``None`` evaluates in-process.
    retry_policy:
        The :class:`~repro.resilience.RetryPolicy` governing shard
        retries/deadlines, pool bringup and store opens.  Defaults to
        :func:`~repro.resilience.policy_from_env` (``COBRA_RETRY``
        overrides honoured).
    """

    def __init__(
        self,
        cache_size: int = 8,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        compressor: Optional[Compressor] = None,
        max_bytes: Optional[int] = None,
        processes: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None)")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None)")
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1 (or None)")
        max_bytes = _resolve_max_bytes(max_bytes)
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None)")
        self._max_workers = max_workers
        self._chunk_size = chunk_size
        self._max_bytes = max_bytes
        self._processes = processes
        self._retry = retry_policy if retry_policy is not None else policy_from_env()
        self._compiled = FingerprintCache(cache_size, metrics="batch.compile_cache")
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

        The cache is keyed by ``(fingerprint, backend name)``, so the same
        provenance compiled for several semirings coexists; the default is
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

    def _shard_map(self, processes, compiled, base_vector, kind, pieces):
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
        task = (path, kind, base_vector, obs, active_plan_spec())
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
                    return _run_shard(compiled, kind, base_vector, piece)

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
        """Rows per dense chunk, respecting the explicit memory budget.

        With ``max_bytes`` set, the chunk is sized so the dense kernels'
        per-row float64 temporaries (``compiled.dense_row_footprint()``
        cells) never exceed the budget — floored at one row, since a single
        row is the smallest evaluable unit.
        """
        if self._chunk_size is not None:
            return self._chunk_size
        footprint = getattr(compiled, "dense_row_footprint", None)
        per_row_cells = footprint() if callable(footprint) else max(1, compiled.size())
        if self._max_bytes is not None:
            per_row_bytes = 8 * per_row_cells
            return max(1, min(rows, self._max_bytes // max(1, per_row_bytes)))
        return max(1, min(rows, _TARGET_CELLS_PER_CHUNK // per_row_cells))

    def evaluate_matrix(
        self,
        compiled: CompiledProvenanceSet,
        matrix: np.ndarray,
        processes: Optional[int] = None,
    ) -> np.ndarray:
        """Chunked (threaded or process-sharded) ``scenarios × groups`` evaluation."""
        matrix = np.asarray(matrix, dtype=np.float64)
        rows = matrix.shape[0]
        chunk = self._resolve_chunk_size(compiled, rows)
        with trace("batch.kernel.dense", rows=rows, chunk=chunk) as span:
            if rows <= chunk and not (processes and processes > 1):
                return compiled.evaluate_matrix(matrix)
            pieces = [
                matrix[start : start + chunk] for start in range(0, rows, chunk)
            ]
            span.set("chunks", len(pieces))
            if processes and processes > 1 and len(pieces) > 1:
                span.set("processes", processes)
                results = self._shard_map(
                    processes, compiled, None, "dense", pieces
                )
            elif (
                self._max_workers is not None
                and self._max_workers > 1
                and len(pieces) > 1
            ):
                with ThreadPoolExecutor(max_workers=self._max_workers) as pool:
                    results = list(pool.map(compiled.evaluate_matrix, pieces))
            else:
                results = [compiled.evaluate_matrix(piece) for piece in pieces]
            return np.concatenate(results, axis=0)

    def evaluate_deltas(
        self,
        compiled,
        base_vector: np.ndarray,
        plans: Sequence[Tuple[np.ndarray, np.ndarray]],
        processes: Optional[int] = None,
    ) -> np.ndarray:
        """Sparse ``scenarios × groups`` evaluation, optionally process-sharded.

        The baseline is evaluated once (inside the compiled set's cached
        delta state); each shard re-ships only its plans, so assembly memory
        is bounded by ``shards × shard_rows × groups`` floats.
        """
        with trace("batch.kernel.sparse", rows=len(plans)) as span:
            if not (processes and processes > 1) or len(plans) < 2:
                return compiled.evaluate_deltas(base_vector, plans)
            shard = max(1, -(-len(plans) // (processes * 4)))
            pieces = [
                plans[start : start + shard]
                for start in range(0, len(plans), shard)
            ]
            if len(pieces) == 1:
                return compiled.evaluate_deltas(base_vector, plans)
            span.update({"processes": processes, "shards": len(pieces)})
            results = self._shard_map(
                processes, compiled, base_vector, "sparse", pieces
            )
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
        per-scenario deltas through the inverted variable→monomial index,
        ``"factored"`` additionally evaluates the scenarios' shared
        operation prefix once against a factored baseline, and ``"auto"``
        (default) selects sparse whenever the scenarios touch at most
        ``SPARSE_TOUCHED_FRACTION`` of the variable universe on average —
        upgrading to factored when at least ``FACTORED_MIN_SCENARIOS``
        scenarios share at least ``FACTORED_SHARED_FRACTION`` of their
        touched cells.  All three produce element-wise equal results.
        ``processes`` shards scenario rows across worker processes (default:
        the evaluator's configured width).
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
            prefix_length, prefix_cells, shared = prefix_statistics(batch)
            residual_touched = max(
                0.0, touched - prefix_cells / max(1, len(batch.variables))
            )
            if (
                len(batch) >= FACTORED_MIN_SCENARIOS
                and prefix_length >= 1
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

        if chosen == "factored":
            baseline, full_results, meta_rows = self._evaluate_factored(
                compiled_full, compiled_compressed, abstraction, batch, base,
                fill, processes,
            )
        elif chosen == "sparse":
            baseline, full_results, meta_rows = self._evaluate_sparse(
                compiled_full, compiled_compressed, abstraction, batch, base,
                fill, processes,
            )
        else:
            baseline, full_results, meta_rows = self._evaluate_dense(
                compiled_full, compiled_compressed, abstraction, batch, base,
                fill, processes,
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

    # -- the two numeric pipelines --------------------------------------------

    def _evaluate_dense(
        self, compiled_full, compiled_compressed, abstraction, batch, base,
        fill, processes,
    ):
        matrix = batch.valuation_matrix(base, fill=fill)
        full_columns = batch.columns_for(compiled_full.variables)
        base_row = np.array(
            [float(base.get(name, fill)) for name in compiled_full.variables],
            dtype=np.float64,
        )
        baseline = compiled_full.evaluate_matrix(base_row[np.newaxis, :])[0]

        noop = batch.noop_rows
        if noop and len(batch):
            # No-op scenarios reuse the shared baseline result; only the
            # rows that actually move a value hit the kernels.
            live = np.setdiff1d(
                np.arange(len(batch), dtype=np.intp),
                np.asarray(noop, dtype=np.intp),
            )
            full_results = np.empty(
                (len(batch), len(compiled_full.keys)), dtype=np.float64
            )
            full_results[np.asarray(noop, dtype=np.intp)] = baseline
            if live.size:
                full_results[live] = self.evaluate_matrix(
                    compiled_full, matrix[live][:, full_columns], processes
                )
        else:
            full_results = self.evaluate_matrix(
                compiled_full, matrix[:, full_columns], processes
            )

        meta_rows = None
        if compiled_compressed is not None:
            meta_matrix = lower_meta_matrix(
                abstraction, batch, matrix, compiled_compressed.variables, fill=fill
            )
            meta_rows = self.evaluate_matrix(
                compiled_compressed, meta_matrix, processes
            )
        return baseline, full_results, meta_rows

    def _evaluate_sparse(
        self, compiled_full, compiled_compressed, abstraction, batch, base,
        fill, processes,
    ):
        plan = batch.delta_plan(base, fill=fill)
        full_columns = batch.columns_for(compiled_full.variables)
        base_vector, plans = plan.project(full_columns)
        baseline = compiled_full.baseline_totals(base_vector)
        full_results = self.evaluate_deltas(
            compiled_full, base_vector, plans, processes
        )

        meta_rows = None
        if compiled_compressed is not None:
            meta_base, meta_plans = lower_meta_deltas(
                abstraction, batch, plan, compiled_compressed.variables, fill=fill
            )
            meta_rows = self.evaluate_deltas(
                compiled_compressed, meta_base, meta_plans, processes
            )
        return baseline, full_results, meta_rows

    def _evaluate_factored(
        self, compiled_full, compiled_compressed, abstraction, batch, base,
        fill, processes,
    ):
        """The factored pipeline: shared prefix once, residual deltas after.

        The report's baseline stays the *unfactored* baseline (the valuation
        with no scenario applied); only the delta evaluation runs against the
        factored row.  The residual plan's rows equal the unfactored plan's
        rows bit-for-bit (see :mod:`repro.batch.factored`), so per-scenario
        results match the sparse path cell for cell.
        """
        factoring = factor_batch(batch, base, fill=fill)
        full_columns = batch.columns_for(compiled_full.variables)
        base_vector = np.array(
            [float(base.get(name, fill)) for name in compiled_full.variables],
            dtype=np.float64,
        )
        baseline = compiled_full.baseline_totals(base_vector)
        factored_vector, plans = factoring.residual_plan.project(full_columns)
        full_results = self.evaluate_deltas(
            compiled_full, factored_vector, plans, processes
        )

        registry = get_registry()
        registry.inc("batch.factored.prefix_cells", factoring.prefix_cells)
        registry.inc("batch.factored.residual_cells", factoring.residual_cells)
        if tracing_enabled():
            current_span().update(
                {
                    "prefix_length": factoring.prefix_length,
                    "prefix_cells": factoring.prefix_cells,
                    "residual_cells": factoring.residual_cells,
                    "shared_fraction": factoring.shared_fraction,
                }
            )

        meta_rows = None
        if compiled_compressed is not None:
            meta_base, meta_plans = lower_meta_deltas(
                abstraction, batch, factoring.residual_plan,
                compiled_compressed.variables, fill=fill,
            )
            meta_rows = self.evaluate_deltas(
                compiled_compressed, meta_base, meta_plans, processes
            )
        return baseline, full_results, meta_rows

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
        chunk_scenarios: Optional[int] = None,
    ) -> BatchReport:
        """Evaluate a declarative :class:`~repro.engine.plan.ScenarioPlan`.

        The plan lowers lazily and is consumed in chunks of
        ``chunk_scenarios`` (default :data:`PLAN_CHUNK_SCENARIOS`) scenarios,
        so a 10^6-point grid never materialises every ``Scenario`` at once;
        each chunk goes through :meth:`evaluate` (keeping the mode heuristic,
        sharding, and compressed-sweep semantics) and the chunk reports are
        stitched back into one :class:`BatchReport`.
        """
        if chunk_scenarios is None:
            chunk_scenarios = PLAN_CHUNK_SCENARIOS
        if chunk_scenarios < 1:
            raise ValueError("chunk_scenarios must be >= 1 (or None)")
        registry = get_registry()
        registry.inc("batch.plans")
        with trace(
            "batch.plan",
            plan=getattr(plan, "name", type(plan).__name__),
            points=len(plan),
            chunk=chunk_scenarios,
        ) as span:
            reports = []
            chunk: list = []
            for scenario in plan.lower():
                chunk.append(scenario)
                if len(chunk) >= chunk_scenarios:
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

    @staticmethod
    def _align_compressed(
        compiled_full, compiled_compressed, full_results, meta_rows, backend
    ) -> np.ndarray:
        """Align compressed columns with the full provenance's keys; groups
        absent from the compressed set evaluate to the semiring zero, as in
        the interactive report."""
        key_column = {key: i for i, key in enumerate(compiled_compressed.keys)}
        zero = float(backend.semiring.zero)
        compressed_results = np.full_like(full_results, zero)
        for j, key in enumerate(compiled_full.keys):
            column = key_column.get(key)
            if column is not None:
                compressed_results[:, j] = meta_rows[:, column]
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
        strategy: str = "incremental",
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
            strategy=strategy,
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
