"""Applying an abstraction to provenance: the compression step itself.

An :class:`Abstraction` is a variable → meta-variable mapping, usually
induced by one cut per tree of a forest.  Applying it to a polynomial (or a
whole :class:`~repro.provenance.polynomial.ProvenanceSet`) renames variables
and merges monomials that become identical, summing their coefficients —
the mechanism by which provenance shrinks (Example 4 of the paper).  The
rename runs on the set's id-encoded incidence rows
(:meth:`~repro.provenance.incidence.ProvenanceIncidence.renamed`).

:class:`Compressor` is the service façade over the abstraction-selection
algorithms: it routes a ``(provenance, trees, bound)`` request to one of
:data:`METHODS` and caches each method's bound-independent plan by
provenance fingerprint — the greedy's coarsening trajectory, the
single-tree DP's frontier — so bound sweeps pay for the search once
("compress once, then sweep").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import AbstractionError
from repro.obs.tracer import trace as obs_trace
from repro.provenance.incidence import provenance_incidence
from repro.provenance.polynomial import Polynomial, ProvenanceSet
from repro.core.abstraction_tree import AbstractionForest, AbstractionTree, as_forest
from repro.core.cut import Cut


@dataclass(frozen=True)
class Abstraction:
    """A variable → meta-variable mapping, with the cuts that induced it.

    Attributes
    ----------
    mapping:
        The renaming applied to provenance variables.  Variables not in the
        mapping are left untouched.
    cuts:
        The cuts (one per abstraction tree) this abstraction was derived
        from; empty for hand-built abstractions.
    """

    mapping: Mapping[str, str]
    cuts: Tuple[Cut, ...] = ()

    @classmethod
    def identity(cls) -> "Abstraction":
        """The abstraction that changes nothing."""
        return cls({})

    @classmethod
    def from_cut(cls, cut: Cut) -> "Abstraction":
        """The abstraction induced by a single cut."""
        return cls(cut.mapping(), (cut,))

    @classmethod
    def from_cuts(cls, cuts: Sequence[Cut]) -> "Abstraction":
        """The abstraction induced by one cut per tree of a forest."""
        mapping: Dict[str, str] = {}
        for cut in cuts:
            for leaf, meta in cut.mapping().items():
                if leaf in mapping and mapping[leaf] != meta:
                    raise AbstractionError(
                        f"variable {leaf!r} is mapped to both "
                        f"{mapping[leaf]!r} and {meta!r}"
                    )
                mapping[leaf] = meta
        return cls(mapping, tuple(cuts))

    @classmethod
    def from_groups(cls, groups: Mapping[str, Iterable[str]]) -> "Abstraction":
        """A hand-built abstraction: meta-variable name → variables it replaces."""
        mapping: Dict[str, str] = {}
        for meta, variables in groups.items():
            for variable in variables:
                if variable in mapping:
                    raise AbstractionError(
                        f"variable {variable!r} appears in two groups"
                    )
                mapping[variable] = meta
        return cls(mapping)

    # -- (de)serialisation --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable representation (meta-variable → grouped variables).

        The cut objects are not serialised — only the induced grouping, which
        is all an analyst-side tool needs to interpret compressed provenance.
        """
        return {"groups": {meta: list(members)
                           for meta, members in self.grouped_variables().items()}}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Abstraction":
        """Rebuild an abstraction from the dictionary produced by :meth:`to_dict`."""
        groups = data.get("groups")
        if not isinstance(groups, Mapping):
            raise AbstractionError("abstraction dictionary must contain 'groups'")
        return cls.from_groups({str(meta): list(members)
                                for meta, members in groups.items()})

    # -- inspection ------------------------------------------------------------

    def meta_variables(self) -> Tuple[str, ...]:
        """The distinct meta-variable names introduced by this abstraction."""
        return tuple(sorted(set(self.mapping.values())))

    def grouped_variables(self) -> Dict[str, Tuple[str, ...]]:
        """meta-variable → the original variables it replaces (sorted)."""
        groups: Dict[str, List[str]] = {}
        for variable, meta in self.mapping.items():
            groups.setdefault(meta, []).append(variable)
        return {meta: tuple(sorted(vs)) for meta, vs in groups.items()}

    def is_identity(self) -> bool:
        """Whether the abstraction leaves every variable unchanged."""
        return all(variable == meta for variable, meta in self.mapping.items())

    def degrees_of_freedom(self, variables: Iterable[str]) -> int:
        """Number of distinct variable names after abstraction, over ``variables``.

        This is the expressiveness measure of the paper restricted to the
        variables actually appearing in the provenance.
        """
        return len({self.mapping.get(v, v) for v in variables})


@dataclass(frozen=True)
class CompressionResult:
    """The outcome of applying an abstraction to a provenance set.

    Attributes
    ----------
    compressed:
        The abstracted provenance.
    abstraction:
        The abstraction that was applied.
    original_size / compressed_size:
        Total number of monomials before and after.
    original_variables / compressed_variables:
        Number of distinct variables before and after.
    """

    compressed: ProvenanceSet
    abstraction: Abstraction
    original_size: int
    compressed_size: int
    original_variables: int
    compressed_variables: int

    @property
    def size_reduction(self) -> int:
        """How many monomials were removed by the compression."""
        return self.original_size - self.compressed_size

    @property
    def compression_ratio(self) -> float:
        """``compressed_size / original_size`` (1.0 when nothing was gained)."""
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    @property
    def variable_retention(self) -> float:
        """``compressed_variables / original_variables`` (1.0 = full freedom kept)."""
        if self.original_variables == 0:
            return 1.0
        return self.compressed_variables / self.original_variables

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of the headline numbers (for reports/benchmarks)."""
        return {
            "original_size": self.original_size,
            "compressed_size": self.compressed_size,
            "size_reduction": self.size_reduction,
            "compression_ratio": self.compression_ratio,
            "original_variables": self.original_variables,
            "compressed_variables": self.compressed_variables,
            "variable_retention": self.variable_retention,
        }


ProvenanceLike = Union[Polynomial, ProvenanceSet, Sequence[Polynomial]]

#: The abstraction-selection methods, one name per algorithm: ``"greedy"``
#: coarsening, the single-tree ``"dp"``, ``"exact"`` enumeration of cut
#: combinations, and ``"auto"``, which picks among them per instance.
METHODS = ("auto", "greedy", "dp", "exact")


def _as_provenance_set(provenance: ProvenanceLike) -> ProvenanceSet:
    if isinstance(provenance, ProvenanceSet):
        return provenance
    if isinstance(provenance, Polynomial):
        result = ProvenanceSet()
        result[(0,)] = provenance
        return result
    result = ProvenanceSet()
    for index, polynomial in enumerate(provenance):
        if not isinstance(polynomial, Polynomial):
            raise AbstractionError(
                f"expected Polynomial items, got {type(polynomial).__name__}"
            )
        result[(index,)] = polynomial
    return result


def check_names_disjoint(
    provenance: ProvenanceSet, forest: AbstractionForest
) -> None:
    """Reject a forest whose inner-node names are also provenance variables.

    Coarsening at such a node would merge its meta-variable with the real
    variable of the same name, so no abstraction of that input has a
    meaningful answer.  Raises :class:`AbstractionError` naming the nodes.
    """
    variables = provenance.variables()
    colliding = sorted(
        name
        for tree in forest.trees()
        for name in tree.inner_nodes()
        if name in variables
    )
    if colliding:
        raise AbstractionError(
            "inner abstraction-tree nodes also occur as provenance "
            f"variables: {', '.join(colliding)}; rename them so "
            "meta-variables cannot merge with real variables"
        )


def apply_abstraction(
    provenance: ProvenanceLike,
    abstraction: "Abstraction | Cut | Mapping[str, str]",
) -> CompressionResult:
    """Apply ``abstraction`` to ``provenance`` and return a :class:`CompressionResult`.

    ``provenance`` may be a single polynomial, a sequence of polynomials or a
    keyed :class:`ProvenanceSet`; ``abstraction`` may be an
    :class:`Abstraction`, a :class:`~repro.core.cut.Cut` or a bare renaming
    mapping.
    """
    if isinstance(abstraction, Cut):
        abstraction = Abstraction.from_cut(abstraction)
    elif isinstance(abstraction, Mapping) and not isinstance(abstraction, Abstraction):
        abstraction = Abstraction(dict(abstraction))

    incidence = provenance_incidence(_as_provenance_set(provenance))
    compressed = incidence.renamed(dict(abstraction.mapping))
    return CompressionResult(
        compressed=compressed,
        abstraction=abstraction,
        original_size=incidence.num_rows(),
        compressed_size=compressed.size(),
        original_variables=len(incidence.names),
        compressed_variables=compressed.num_variables(),
    )


class Compressor:
    """Method-routing compression service with one cached plan per method.

    ``method`` is one of :data:`METHODS`.  Every request is routed by
    :func:`~repro.core.multi_tree.select_abstraction`; the bound-independent
    half of the chosen algorithm is cached per ``(provenance, forest)``
    (content fingerprint + forest structure + tree identities):

    * ``"greedy"`` — the :class:`~repro.core.kernel.trajectory.GreedyTrajectory`,
      lazily extended as lower bounds arrive;
    * ``"dp"`` and a single-tree ``"auto"`` — the
      :class:`~repro.core.optimizer.SingleTreeFrontier` (loads plus DP and
      choice tables).

    A new bound then only resolves the plan, rebuilds the cut and renames,
    so a *sweep* of bounds costs barely more than one ("compress once, then
    sweep").  ``"exact"`` enumeration is not cached.

    The cache makes a single ``Compressor`` shareable between a
    :class:`~repro.engine.session.CobraSession` and the batch service.
    """

    def __init__(self, cache_size: int = 8) -> None:
        from repro.provenance.valuation import FingerprintCache

        self._plans = FingerprintCache(cache_size, metrics="compress.plan_cache")

    def compress(
        self,
        provenance: ProvenanceLike,
        trees: "AbstractionTree | AbstractionForest",
        bound: int,
        method: str = "greedy",
        allow_infeasible: bool = False,
        keep_trace: bool = False,
    ) -> "OptimizationResult":
        """Select and apply the best abstraction of ``trees`` under ``bound``.

        ``method`` is one of :data:`METHODS`; any other name raises
        ``ValueError``.  The ``compress.run`` span records the ``algorithm``
        that answered and whether its plan came from the ``cache``
        (``"hit"``/``"miss"``; uncached ``"exact"`` counts as a miss).
        """
        from repro.core.multi_tree import select_abstraction

        if bound < 0:
            raise ValueError("bound must be non-negative")
        with obs_trace("compress.run", method=method, bound=bound) as span:
            provenance_set = _as_provenance_set(provenance)
            forest = as_forest(trees)
            hits: List[bool] = []

            def plan(kind: str):
                found, hit = self._plan(kind, provenance_set, forest)
                hits.append(hit)
                return found

            result = select_abstraction(
                provenance_set,
                forest,
                bound,
                method,
                allow_infeasible,
                keep_trace,
                plan,
            )
            span.update(
                {
                    "algorithm": result.algorithm,
                    "cache": "hit" if hits and hits[-1] else "miss",
                }
            )
        return result

    def sweep(
        self,
        provenance: ProvenanceLike,
        trees: "AbstractionTree | AbstractionForest",
        bounds: Iterable[int],
        method: str = "greedy",
        allow_infeasible: bool = False,
    ) -> Dict[int, "OptimizationResult"]:
        """Compress under every bound in ``bounds`` (one plan, N resolutions)."""
        return {
            int(bound): self.compress(
                provenance,
                trees,
                int(bound),
                method=method,
                allow_infeasible=allow_infeasible,
            )
            for bound in bounds
        }

    def _plan(
        self, kind: str, provenance_set: ProvenanceSet, forest: AbstractionForest
    ) -> Tuple[object, bool]:
        """The cached ``kind`` plan (built on a miss) and whether it was cached."""
        from repro.core.kernel.index import forest_signature
        from repro.core.multi_tree import build_plan

        # Cut equality requires tree *identity*, so the key pins the exact
        # tree objects alongside the structural fingerprints.
        key = (
            kind,
            provenance_set.fingerprint(),
            forest_signature(forest),
            tuple(id(tree) for tree in forest.trees()),
        )
        found = self._plans.get(key)
        if found is not None:
            return found, True
        found = build_plan(kind, provenance_set, forest)
        self._plans.put(key, found)
        return found, False

    def cache_info(self) -> Dict[str, int]:
        """Hit/miss/size counters of the plan cache (all methods)."""
        return self._plans.info()

    def clear_cache(self) -> None:
        """Drop this instance's cached plans (counters are kept).

        The kernel's incidence-index cache is process-global (shared by all
        compressors and :func:`~repro.core.greedy.optimize_greedy`); release
        it explicitly via :func:`repro.core.kernel.index.clear_incidence_cache`.
        """
        self._plans.clear()
