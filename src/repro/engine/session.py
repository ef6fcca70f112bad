"""The COBRA session: the back-end workflow of Figure 4.

A :class:`CobraSession` walks through exactly the steps the demo walks its
audience through:

1. load provenance polynomials (from any provenance engine) together with
   the analyst's valuation of the provenance variables;
2. set an abstraction tree (or forest) and a bound on the provenance size;
3. :meth:`compress` — compute the optimal abstraction under the bound;
4. inspect the meta-variables and their default values
   (:meth:`meta_variable_panel`, Figure 5);
5. :meth:`assign` values to the meta-variables (or accept the defaults) and
   receive an :class:`~repro.engine.report.AssignmentReport` comparing the
   results from the compressed provenance with those from the full
   provenance, together with the provenance sizes and the assignment
   speedup.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import SessionStateError
from repro.provenance.backends import BackendLike, resolve_backend
from repro.provenance.backends.base import CompiledSemiringSet
from repro.provenance.polynomial import ProvenanceSet
from repro.provenance.valuation import Valuation
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree
from repro.core.compression import Abstraction, Compressor
from repro.core.defaults import default_meta_valuation
from repro.core.optimizer import OptimizationResult
from repro.engine.report import AssignmentReport, GroupComparison, MetaVariableInfo
from repro.engine.scenario import (
    Scenario,
    nan_value_error,
    nonfinite_amount_error,
)
from repro.obs.tracer import trace as obs_trace
from repro.utils.timing import measure_speedup

if TYPE_CHECKING:  # pragma: no cover — import cycle: repro.batch imports engine
    from repro.batch.evaluator import BatchEvaluator
    from repro.batch.report import BatchReport
    from repro.engine.plan import ScenarioPlan

TreeOrForest = Union[AbstractionTree, AbstractionForest]


class CobraSession:
    """One analyst's interaction with COBRA over a fixed provenance input.

    Parameters
    ----------
    provenance:
        The full provenance polynomials, keyed by result group.
    base_valuation:
        The analyst's valuation of the provenance variables.  The identity
        valuation (the default) reproduces the original query results.
    semiring:
        The evaluation backend — a name (``"real"``, ``"tropical"``,
        ``"bool"``, ``"why"``, ``"lineage"``), a semiring instance, or a
        :class:`~repro.provenance.backends.SemiringBackend`.  The default is
        the real (float) pipeline; any other backend types the valuations by
        its carrier and evaluates results in that semiring.
    """

    def __init__(
        self,
        provenance: ProvenanceSet,
        base_valuation: Optional[Mapping[str, float]] = None,
        semiring: BackendLike = None,
    ) -> None:
        if not isinstance(provenance, ProvenanceSet):
            raise SessionStateError(
                "CobraSession expects a ProvenanceSet; use "
                "repro.db.to_provenance_set or the workload generators"
            )
        self._provenance = provenance
        self._backend = resolve_backend(semiring)
        if base_valuation is None:
            self._base_valuation = Valuation.identity_for(
                provenance, semiring=self._backend
            )
        else:
            self._base_valuation = Valuation(
                dict(base_valuation), semiring=self._backend
            )
        missing = self._base_valuation.missing(provenance.variables())
        if missing:
            # Unassigned variables default to their backend identity (1.0 on
            # the float pipeline — no change), mirroring the demo's behaviour
            # of starting from the original query result.
            self._base_valuation = self._base_valuation.updated(
                {name: self._backend.default_value(name) for name in missing}
            )

        self._trees: Optional[AbstractionForest] = None
        self._bound: Optional[int] = None
        self._optimization: Optional[OptimizationResult] = None
        self._batch_evaluator: Optional["BatchEvaluator"] = None  # lazy
        self._compressor: Optional[Compressor] = None  # lazy, plan-cached

    # -- step 1: the input ----------------------------------------------------

    @property
    def provenance(self) -> ProvenanceSet:
        """The full (uncompressed) provenance."""
        return self._provenance

    @property
    def base_valuation(self) -> Valuation:
        """The analyst's valuation of the original provenance variables."""
        return self._base_valuation

    @property
    def backend(self):
        """The session's semiring backend (the real backend by default)."""
        return self._backend

    def initial_results(self) -> Dict[Tuple, float]:
        """The query results under the base valuation (the demo's first screen)."""
        return self._compile(self._provenance, "full").evaluate(self._base_valuation)

    # -- step 2: tree and bound ---------------------------------------------------

    def set_abstraction_trees(
        self, trees: Union[TreeOrForest, Sequence[AbstractionTree]]
    ) -> None:
        """Set the abstraction tree or forest guiding the compression.

        A list or tuple of trees is taken as the forest of those trees;
        anything else that is not a tree or forest raises
        :class:`SessionStateError`.
        """
        if isinstance(trees, AbstractionTree):
            trees = AbstractionForest([trees])
        elif isinstance(trees, (list, tuple)) and trees and all(
            isinstance(tree, AbstractionTree) for tree in trees
        ):
            trees = AbstractionForest(trees)
        elif not isinstance(trees, AbstractionForest):
            raise SessionStateError(
                "set_abstraction_trees() takes an AbstractionTree, an "
                "AbstractionForest or a non-empty list/tuple of "
                f"AbstractionTree, got {trees!r}"
            )
        self._trees = trees
        self._optimization = None

    def set_bound(self, bound: int) -> None:
        """Set the bound on the number of monomials of the compressed provenance."""
        if bound < 0:
            raise SessionStateError("the bound must be non-negative")
        self._bound = int(bound)
        self._optimization = None

    @property
    def bound(self) -> Optional[int]:
        """The current bound (``None`` until :meth:`set_bound` is called)."""
        return self._bound

    # -- step 3: compression ------------------------------------------------------

    def compressor(self) -> Compressor:
        """The session's plan-cached compression service (lazy)."""
        if self._compressor is None:
            self._compressor = Compressor()
        return self._compressor

    def compress(
        self,
        method: str = "auto",
        allow_infeasible: bool = False,
        keep_trace: bool = False,
    ) -> OptimizationResult:
        """Compute the optimal abstraction for the configured trees and bound.

        ``method`` is one of :data:`~repro.core.compression.METHODS`; the
        request goes through the session's
        :class:`~repro.core.compression.Compressor`, so repeated
        ``set_bound`` → ``compress`` rounds reuse one cached plan — the
        greedy's coarsening trajectory, or the single-tree DP's frontier
        for ``"dp"`` and a single-tree ``"auto"`` — instead of re-running
        the search per bound.
        """
        if self._trees is None:
            raise SessionStateError("call set_abstraction_trees() before compress()")
        if self._bound is None:
            raise SessionStateError("call set_bound() before compress()")
        with obs_trace("session.compress", method=method, bound=self._bound):
            self._optimization = self.compressor().compress(
                self._provenance,
                self._trees,
                self._bound,
                method=method,
                allow_infeasible=allow_infeasible,
                keep_trace=keep_trace,
            )
        return self._optimization

    def compress_sweep(
        self,
        bounds: Sequence[int],
        method: str = "greedy",
        allow_infeasible: bool = False,
    ) -> Dict[int, OptimizationResult]:
        """Compress under every bound in ``bounds`` (compress once, sweep many).

        The greedy's coarsening order does not depend on the bound, so the
        whole sweep shares one cached trajectory: the cost is
        one greedy run down to the tightest bound, plus cheap prefix
        reconstructions.  The session's own ``optimization`` state is left
        untouched — use :meth:`compress` to commit to a single bound.
        """
        if self._trees is None:
            raise SessionStateError(
                "call set_abstraction_trees() before compress_sweep()"
            )
        return self.compressor().sweep(
            self._provenance,
            self._trees,
            bounds,
            method=method,
            allow_infeasible=allow_infeasible,
        )

    @property
    def optimization(self) -> OptimizationResult:
        """The result of the last :meth:`compress` call."""
        if self._optimization is None:
            raise SessionStateError("no abstraction computed yet; call compress()")
        return self._optimization

    @property
    def abstraction(self) -> Abstraction:
        """The abstraction chosen by the last :meth:`compress` call."""
        return self.optimization.abstraction

    @property
    def compressed_provenance(self) -> ProvenanceSet:
        """The compressed provenance of the last :meth:`compress` call."""
        return self.optimization.compressed

    # -- step 4: the meta-variable panel -------------------------------------------

    def default_valuation(self, reducer: str = "mean") -> Valuation:
        """The default valuation of the compressed provenance's variables.

        Tree leaves that never occur in the provenance are excluded from the
        averages (``on_missing="skip"``), so a meta-variable's default is the
        average of the values its *occurring* members take under the base
        valuation — exactly the number the demo's assignment screen shows.
        """
        return default_meta_valuation(
            self.abstraction,
            self._base_valuation,
            reducer=reducer,
            provenance=self._provenance,
            on_missing="skip",
            semiring=self._backend,
        )

    def meta_variable_panel(self, reducer: str = "mean") -> Tuple[MetaVariableInfo, ...]:
        """The rows of the meta-variable assignment screen (Figure 5)."""
        abstraction = self.abstraction
        defaults = self.default_valuation(reducer=reducer)
        is_real = self._backend.name == "real"
        rows = []
        for meta, members in sorted(abstraction.grouped_variables().items()):
            member_values = tuple(
                float(self._base_valuation.get(member, 1.0))
                if is_real
                else self._base_valuation.get(
                    member, self._backend.default_value(member)
                )
                for member in members
            )
            rows.append(
                MetaVariableInfo(
                    name=meta,
                    members=members,
                    member_values=member_values,
                    default_value=float(defaults[meta]) if is_real else defaults[meta],
                )
            )
        return tuple(rows)

    # -- step 5: assignment and comparison -------------------------------------------

    def _evaluator(self) -> "BatchEvaluator":
        """The session's batch evaluator (lazy): it holds every compiled form.

        It shares the session's Compressor, so a compress-then-sweep
        through either entry point reuses one plan cache.
        """
        if self._batch_evaluator is None:
            from repro.batch.evaluator import BatchEvaluator

            self._batch_evaluator = BatchEvaluator(compressor=self.compressor())
        return self._batch_evaluator

    def _compile(self, provenance: ProvenanceSet, which: str) -> CompiledSemiringSet:
        """``provenance`` compiled for the session's backend (evaluator-cached)."""
        with obs_trace("session.compile", which=which):
            return self._evaluator().compile(provenance, self._backend)

    # -- compiled stores -------------------------------------------------------

    def compile_to_store(self, path):
        """Compile the full provenance and persist it as a mmap-able store.

        The paper's workflow split in one call: the strong machine compiles
        once and writes ``path``; any number of consumers then
        :meth:`open_from_store` it with O(header) cold-start cost.  Returns
        the compiled set (also kept in the session's evaluator).
        """
        compiled = self._compile(self._provenance, "full")
        to_store = getattr(compiled, "to_store", None)
        if to_store is None:
            raise SessionStateError(
                f"the {self._backend.name!r} backend's compiled form has no "
                "mmap store format (only real/tropical/bool do)"
            )
        to_store(path)
        return compiled

    def open_from_store(self, path, recover: bool = True):
        """Adopt the compiled store at ``path`` as this session's compiled form.

        The session's evaluator adopts the store
        (:meth:`~repro.batch.evaluator.BatchEvaluator.adopt_store`), which
        seeds its compile cache, so :meth:`evaluate_many` — including
        ``processes=N`` sharding, which then ships the store *path* to a
        persistent worker pool — runs off the mapped arrays.  The store must
        match the session: same backend, and a fingerprint equal to this
        session's provenance (a store compiled from different provenance
        would silently answer the wrong what-ifs).  Returns the mapped
        compiled set.

        Opening runs under the evaluator's retry policy (``COBRA_RETRY``
        overrides honoured): transient I/O failures back off and retry
        before anything is declared corrupt.  A store that fails
        verification — bad magic, truncated blocks, a CRC32 mismatch — is
        quarantined (renamed ``<path>.quarantined``).  With ``recover=True``
        (default) the session then recompiles from its own provenance
        instead of raising: the warm start degrades to a compile, recorded
        as a degradation event and under ``resilience.quarantines``.

        Raises
        ------
        SerializationError
            If the file is not a valid compiled store (``recover=False``).
        SessionStateError
            On a backend or provenance-fingerprint mismatch.
        """
        self._check_store(path)
        return self._evaluator().adopt_store(
            path, self._provenance if recover else None, self._backend
        )

    def _check_store(self, path) -> None:
        """Reject a store compiled for another backend or other provenance.

        Probes the store's header only, before the evaluator adopts (and
        caches) anything, so a rejected store never takes a compile-cache
        slot.  A header that cannot be read is left to
        :meth:`~repro.batch.evaluator.BatchEvaluator.adopt_store`, which
        retries transient failures and quarantines corrupt stores.
        """
        from repro.exceptions import SerializationError
        from repro.provenance.store import STORE_VERSION, read_store_header

        try:
            header = read_store_header(path)
        except FileNotFoundError:
            raise
        except (OSError, SerializationError):
            return
        backend = header.get("backend")
        if backend != self._backend.name:
            raise SessionStateError(
                f"{path}: store was compiled for the {backend!r} backend, "
                f"but this session evaluates in {self._backend.name!r}"
            )
        stored = header.get("fingerprint")
        fingerprint = self._provenance.fingerprint()
        if stored != fingerprint:
            if header["version"] < STORE_VERSION:
                raise SessionStateError(
                    f"{path}: store format version {header['version']} records "
                    "a fingerprint computed before the exact fingerprint of "
                    f"version {STORE_VERSION}; recompile the store"
                )
            raise SessionStateError(
                f"{path}: store fingerprint {stored!r} does not match this "
                f"session's provenance ({fingerprint!r}); recompile the store"
            )

    def assign(
        self,
        meta_changes: Optional[Mapping[str, float]] = None,
        full_valuation: Optional[Mapping[str, float]] = None,
        measure_assignment_speedup: bool = True,
        speedup_repeats: int = 3,
    ) -> AssignmentReport:
        """Assign values to the meta-variables and compare against the full provenance.

        Parameters
        ----------
        meta_changes:
            Values for (a subset of) the meta-variables; unspecified
            meta-variables take their default value (average of their
            members), and untouched original variables keep their base value.
        full_valuation:
            The valuation of the *original* variables representing the same
            hypothetical, used to evaluate the full provenance.  Defaults to
            the base valuation, which corresponds to the analyst accepting
            the original scenario.
        measure_assignment_speedup:
            Also time the two evaluations (via the compiled evaluators) and
            report the speedup, as the demo does.
        """
        with obs_trace("session.assign"):
            return self._assign(
                meta_changes,
                full_valuation,
                measure_assignment_speedup,
                speedup_repeats,
            )

    def _assign(
        self,
        meta_changes: Optional[Mapping[str, float]],
        full_valuation: Optional[Mapping[str, float]],
        measure_assignment_speedup: bool,
        speedup_repeats: int,
    ) -> AssignmentReport:
        full_value_map = (
            Valuation(dict(full_valuation), semiring=self._backend)
            if full_valuation is not None
            else self._base_valuation
        )
        missing = full_value_map.missing(self._provenance.variables())
        if missing:
            full_value_map = full_value_map.updated(
                {name: self._backend.default_value(name) for name in missing}
            )

        meta_valuation = default_meta_valuation(
            self.abstraction,
            full_value_map,
            reducer="mean",
            on_missing="skip",
            semiring=self._backend,
        )
        if meta_changes:
            meta_valuation = meta_valuation.updated(dict(meta_changes))
        compressed_missing = meta_valuation.missing(
            self.compressed_provenance.variables()
        )
        if compressed_missing:
            meta_valuation = meta_valuation.updated(
                {
                    name: self._backend.default_value(name)
                    for name in compressed_missing
                }
            )

        compiled_full = self._compile(self._provenance, "full")
        compiled_compressed = self._compile(
            self.compressed_provenance, "compressed"
        )
        baseline_results = compiled_full.evaluate(self._base_valuation)
        full_results = compiled_full.evaluate(full_value_map)
        compressed_results = compiled_compressed.evaluate(meta_valuation)

        zero = self._backend.semiring.zero
        groups = tuple(
            GroupComparison(
                key=key,
                baseline=baseline_results[key],
                full_result=full_results[key],
                compressed_result=compressed_results.get(key, zero),
                semiring=self._backend.name,
            )
            for key in self._provenance.keys()
        )

        speedup = None
        if measure_assignment_speedup:
            if self._backend.name == "real":
                full_fn = lambda: compiled_full.evaluate_vector(full_value_map)  # noqa: E731
                compressed_fn = lambda: compiled_compressed.evaluate_vector(  # noqa: E731
                    meta_valuation
                )
            else:
                full_fn = lambda: compiled_full.evaluate(full_value_map)  # noqa: E731
                compressed_fn = lambda: compiled_compressed.evaluate(  # noqa: E731
                    meta_valuation
                )
            speedup = measure_speedup(full_fn, compressed_fn, repeats=speedup_repeats)

        return AssignmentReport(
            groups=groups,
            full_size=self._provenance.size(),
            compressed_size=self.compressed_provenance.size(),
            full_variables=self._provenance.num_variables(),
            compressed_variables=self.compressed_provenance.num_variables(),
            speedup=speedup,
            semiring=self._backend.name,
        )

    def assign_scenario(
        self,
        scenario: Scenario,
        measure_assignment_speedup: bool = True,
    ) -> AssignmentReport:
        """Apply a :class:`~repro.engine.scenario.Scenario` and compare results.

        The scenario is applied to the original variables to obtain the full
        valuation; the corresponding meta-variable values are derived as the
        average of their members' scenario values (the demo's default), which
        is exact whenever the scenario treats all members of a group alike.
        On the real backend a non-finite amount raises
        :class:`~repro.exceptions.ScenarioError`, as in :meth:`evaluate_many`;
        so does, on any backend, a scale that makes a value NaN (``0 × inf``).
        """
        if self._backend.name == "real" and not all(
            math.isfinite(operation.amount) for operation in scenario.operations
        ):
            raise nonfinite_amount_error(scenario.name)
        full_valuation = scenario.apply(
            self._base_valuation, self._provenance.variables()
        )
        for name, value in full_valuation.items():
            if (
                isinstance(value, float)
                and math.isnan(value)
                and not math.isnan(self._base_valuation.get(name, 0.0))
            ):
                raise nan_value_error(scenario.name, name)
        return self.assign(
            meta_changes=None,
            full_valuation=full_valuation,
            measure_assignment_speedup=measure_assignment_speedup,
        )

    def _batch_inputs(
        self,
        include_compressed: Union[bool, str],
        evaluator: Optional["BatchEvaluator"],
    ) -> Tuple["BatchEvaluator", Optional[ProvenanceSet], Optional[Abstraction]]:
        """The evaluator and the ``(compressed, abstraction)`` pair
        (``None`` for full-only) of an :meth:`evaluate_many` or
        :meth:`evaluate_plan` call."""
        if include_compressed not in (True, False, "auto"):
            raise SessionStateError(
                "include_compressed must be True, False or 'auto'"
            )
        if include_compressed is True and self._optimization is None:
            raise SessionStateError(
                "include_compressed=True requires compress() to have run"
            )
        if evaluator is None:
            evaluator = self._evaluator()
        if include_compressed is False or self._optimization is None:
            return evaluator, None, None
        return evaluator, self.compressed_provenance, self.abstraction

    def evaluate_many(
        self,
        scenarios: Sequence[Scenario],
        include_compressed: Union[bool, str] = "auto",
        evaluator: Optional["BatchEvaluator"] = None,
        mode: str = "auto",
        processes: Optional[int] = None,
    ) -> "BatchReport":
        """Evaluate a whole scenario sweep in one vectorised batch pass.

        Unlike :meth:`compare_scenarios` (a Python loop over
        :meth:`assign_scenario`, fine for a handful of what-ifs), this lowers
        all scenarios through the :mod:`repro.batch` subsystem — hundreds of
        scenarios cost a handful of numpy operations.

        Parameters
        ----------
        scenarios:
            The hypotheticals to evaluate, one report row each.
        include_compressed:
            ``"auto"`` (default) also evaluates the compressed provenance
            whenever :meth:`compress` has run, so the report carries the
            abstraction-induced error across the sweep; ``True`` requires a
            compression (raising otherwise); ``False`` evaluates the full
            provenance only.
        evaluator:
            An explicit :class:`~repro.batch.BatchEvaluator` (e.g. shared
            across sessions, or configured with a worker pool).  By default
            the session keeps one of its own, so repeated sweeps reuse the
            compiled provenance.
        mode:
            ``"auto"`` (default) picks between the dense matrix pipeline,
            sparse baseline-once delta evaluation and the factored pipeline
            (a shared operation prefix applied once) by how much of the
            variable universe the scenarios touch and share;
            ``"dense"``/``"sparse"``/``"factored"`` force a pipeline.  On
            the tropical and bool backends the three give identical
            results; on the real backend they agree to rounding (the parity
            tests hold them to ``rtol=1e-9``).
        processes:
            Shard scenario rows across this many worker processes (large
            sweeps on multi-core hosts); ``None`` evaluates in-process.
        """
        evaluator, compressed, abstraction = self._batch_inputs(
            include_compressed, evaluator
        )
        with obs_trace(
            "session.evaluate_many",
            scenarios=len(scenarios),
            compressed=compressed is not None,
        ):
            return evaluator.evaluate(
                self._provenance,
                scenarios,
                base_valuation=self._base_valuation,
                compressed=compressed,
                abstraction=abstraction,
                semiring=self._backend,
                mode=mode,
                processes=processes,
            )

    def evaluate_plan(
        self,
        plan: "ScenarioPlan",
        include_compressed: Union[bool, str] = "auto",
        evaluator: Optional["BatchEvaluator"] = None,
        mode: str = "auto",
        processes: Optional[int] = None,
    ) -> "BatchReport":
        """Evaluate a declarative :class:`~repro.engine.plan.ScenarioPlan`.

        The plan form of :meth:`evaluate_many`: grids, Monte Carlo samples
        and composed sweeps (:mod:`repro.engine.plan`) lower lazily in
        bounded chunks, and sweeps sharing a common operation prefix take
        the factored pipeline (shared deltas evaluated once — see
        :meth:`repro.batch.planner.ScenarioBatch.delta_plan`) under
        ``mode="auto"``.  ``include_compressed``/``evaluator``/``mode``/
        ``processes`` behave exactly as in :meth:`evaluate_many`.
        """
        evaluator, compressed, abstraction = self._batch_inputs(
            include_compressed, evaluator
        )
        with obs_trace(
            "session.evaluate_plan",
            plan=getattr(plan, "name", type(plan).__name__),
            points=len(plan),
            compressed=compressed is not None,
        ):
            return evaluator.evaluate_plan(
                self._provenance,
                plan,
                base_valuation=self._base_valuation,
                compressed=compressed,
                abstraction=abstraction,
                semiring=self._backend,
                mode=mode,
                processes=processes,
            )

    def compare_scenarios(
        self,
        scenarios: Sequence[Scenario],
        measure_assignment_speedup: bool = False,
    ) -> Dict[str, AssignmentReport]:
        """Run several hypothetical scenarios and return one report per scenario.

        This is the batch form of :meth:`assign_scenario`, matching the
        analyst workflow of examining a handful of candidate what-ifs side by
        side (scenario name → report).
        """
        reports: Dict[str, AssignmentReport] = {}
        for scenario in scenarios:
            reports[scenario.name] = self.assign_scenario(
                scenario, measure_assignment_speedup=measure_assignment_speedup
            )
        return reports

    # -- "under the hood" -----------------------------------------------------------

    def size_profile(self) -> Dict[int, int]:
        """The size/expressiveness Pareto frontier of the configured tree.

        Maps every achievable number of meta-variables to the smallest
        provenance size any cut of that cardinality can reach — the curve the
        meta-analyst consults before picking a bound.  Only available for a
        single abstraction tree satisfying the single-tree precondition.
        """
        from repro.core.optimizer import compute_size_profile

        if self._trees is None:
            raise SessionStateError("call set_abstraction_trees() first")
        if len(self._trees) != 1:
            raise SessionStateError(
                "size_profile() is only defined for a single abstraction tree"
            )
        return compute_size_profile(self._provenance, self._trees.trees()[0])

    def trace(self) -> Optional[Dict]:
        """The optimizer's intermediate results, if ``compress(keep_trace=True)``."""
        return self.optimization.trace

