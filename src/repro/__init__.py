"""COBRA — Compression via Abstraction of Provenance for Hypothetical Reasoning.

A from-scratch reproduction of the ICDE 2019 demonstration paper by Deutch,
Moskovitch and Rinetzky (and the algorithmic core of its SIGMOD 2019
companion).  The package is organised as follows:

* :mod:`repro.provenance` — provenance polynomials, semirings and valuations;
* :mod:`repro.db` — a provenance-aware in-memory relational engine;
* :mod:`repro.core` — abstraction trees and the compression algorithms (the
  paper's contribution);
* :mod:`repro.engine` — the COBRA session: compress, assign, compare;
* :mod:`repro.batch` — the batch what-if service: whole scenario sweeps
  evaluated as vectorised matrix operations over compiled provenance;
* :mod:`repro.workloads` — the telephony running example and a TPC-H-style
  workload, plus random-instance generators;
* :mod:`repro.resilience` — deterministic fault injection, retry policy and
  degradation events threaded through the store and batch pipelines;
* :mod:`repro.cli` — a command-line front-end mirroring the demo's GUI flow.
"""

from repro.exceptions import (
    CobraError,
    InfeasibleBoundError,
    InvalidCutError,
    InvalidTreeError,
    UnsupportedPolynomialError,
)
from repro.provenance import (
    SEMIRING_BACKEND_NAMES,
    CompiledProvenanceSet,
    Monomial,
    Polynomial,
    ProvenanceSet,
    ProvenanceStatistics,
    SemiringBackend,
    Valuation,
    Variable,
    VariableRegistry,
    describe_provenance,
    parse_polynomial,
    format_polynomial,
    resolve_backend,
)
from repro.core import (
    Abstraction,
    AbstractionForest,
    AbstractionTree,
    CompressionResult,
    Compressor,
    Cut,
    IncrementalGreedyKernel,
    OptimizationResult,
    apply_abstraction,
    compute_size_profile,
    default_meta_valuation,
    enumerate_cuts,
    leaf_cut,
    optimize_brute_force,
    optimize_forest,
    optimize_greedy,
    optimize_single_tree,
    root_cut,
)
from repro.engine import CobraSession, Scenario, AssignmentReport
from repro.batch import (
    BatchEvaluator,
    BatchReport,
    ScenarioBatch,
    ScenarioOutcome,
)
from repro.db import Catalog, Query, col, const, execute, parse_sql, to_provenance_set
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    collect_degradations,
    fault_plan,
    fault_point,
    install_plan,
)

__version__ = "1.0.0"

__all__ = [
    "CobraError",
    "InfeasibleBoundError",
    "InvalidCutError",
    "InvalidTreeError",
    "UnsupportedPolynomialError",
    "CompiledProvenanceSet",
    "Monomial",
    "Polynomial",
    "ProvenanceSet",
    "ProvenanceStatistics",
    "Valuation",
    "Variable",
    "VariableRegistry",
    "describe_provenance",
    "parse_polynomial",
    "format_polynomial",
    "SemiringBackend",
    "resolve_backend",
    "SEMIRING_BACKEND_NAMES",
    "compute_size_profile",
    "Abstraction",
    "AbstractionForest",
    "AbstractionTree",
    "CompressionResult",
    "Compressor",
    "Cut",
    "IncrementalGreedyKernel",
    "OptimizationResult",
    "apply_abstraction",
    "default_meta_valuation",
    "enumerate_cuts",
    "leaf_cut",
    "optimize_brute_force",
    "optimize_forest",
    "optimize_greedy",
    "optimize_single_tree",
    "root_cut",
    "CobraSession",
    "Scenario",
    "AssignmentReport",
    "BatchEvaluator",
    "BatchReport",
    "ScenarioBatch",
    "ScenarioOutcome",
    "Catalog",
    "Query",
    "col",
    "const",
    "execute",
    "parse_sql",
    "to_provenance_set",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "collect_degradations",
    "fault_plan",
    "fault_point",
    "install_plan",
    "__version__",
]
