"""COBRA's core: compression of provenance via abstraction trees.

This subpackage implements the paper's contribution:

* :mod:`repro.core.abstraction_tree` — abstraction trees (ontology-like
  hierarchies over provenance variables) and forests of them;
* :mod:`repro.core.cut` — cuts of a tree (the representation of an
  abstraction) and their enumeration;
* :mod:`repro.core.compression` — applying an abstraction to provenance,
  i.e. replacing grouped variables by meta-variables and merging monomials;
* :mod:`repro.core.optimizer` — the exact polynomial-time dynamic program
  for the single-tree optimisation problem (maximise the number of
  variables subject to a bound on the number of monomials);
* :mod:`repro.core.brute_force` — exhaustive cut enumeration, used to verify
  optimality on small instances;
* :mod:`repro.core.greedy` — a greedy coarsening heuristic that also handles
  the general (multi-variable-per-monomial) case;
* :mod:`repro.core.kernel` — the greedy's one engine: merge-gain counters
  kept as sorted signature-code arrays over the id-encoded incidence rows
  and delta-updated per step, lazy-heap candidate selection and the
  bound-independent trajectory that ``Compressor`` caches for bound sweeps;
* :mod:`repro.core.multi_tree` — optimisation over forests of abstraction
  trees (exact for small forests, greedy budget allocation otherwise);
* :mod:`repro.core.defaults` — default valuations for meta-variables
  (average of the abstracted variables' values, as in the demo's UI);
* :mod:`repro.core.metrics` — provenance size, expressiveness and distortion
  measures used in the reports and benchmarks.
"""

from repro.core.abstraction_tree import AbstractionTree, AbstractionForest, TreeNode
from repro.core.cut import Cut, enumerate_cuts, leaf_cut, root_cut
from repro.core.compression import (
    Abstraction,
    CompressionResult,
    Compressor,
    apply_abstraction,
)
from repro.core.kernel import GreedyTrajectory, IncrementalGreedyKernel
from repro.core.optimizer import (
    OptimizationResult,
    compute_size_profile,
    optimize_single_tree,
)
from repro.core.brute_force import optimize_brute_force
from repro.core.greedy import optimize_greedy
from repro.core.multi_tree import optimize_forest
from repro.core.defaults import default_meta_valuation
from repro.core.metrics import (
    provenance_size,
    num_variables,
    compression_ratio,
    compute_error_metrics,
    variable_retention,
    result_distortion,
)

__all__ = [
    "AbstractionTree",
    "AbstractionForest",
    "TreeNode",
    "Cut",
    "enumerate_cuts",
    "leaf_cut",
    "root_cut",
    "Abstraction",
    "CompressionResult",
    "Compressor",
    "GreedyTrajectory",
    "IncrementalGreedyKernel",
    "apply_abstraction",
    "OptimizationResult",
    "compute_size_profile",
    "optimize_single_tree",
    "optimize_brute_force",
    "optimize_greedy",
    "optimize_forest",
    "default_meta_valuation",
    "provenance_size",
    "num_variables",
    "compression_ratio",
    "variable_retention",
    "result_distortion",
    "compute_error_metrics",
]
