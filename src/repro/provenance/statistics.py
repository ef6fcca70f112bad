"""Descriptive statistics of a provenance set.

Before choosing a bound or building an abstraction tree, a meta-analyst
wants to know what the provenance looks like: how many polynomials there
are, how the monomials are distributed over them, which variables occur
most often and which carry the most coefficient mass.  The demo's "under the
hood" phase shows parts of this; :func:`describe_provenance` computes it for
any :class:`~repro.provenance.polynomial.ProvenanceSet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.provenance.polynomial import ProvenanceSet


@dataclass(frozen=True)
class ProvenanceStatistics:
    """A summary of the shape of a provenance set.

    Attributes
    ----------
    num_groups:
        Number of result groups (polynomials).
    size:
        Total number of monomials (the paper's size measure).
    num_variables:
        Number of distinct variables (the paper's expressiveness measure).
    min/max/mean_monomials_per_group:
        Distribution of monomials over the result groups.
    degree_histogram:
        monomial total degree → number of monomials of that degree.
    variable_occurrences:
        variable → number of monomials it appears in.
    variable_mass:
        variable → total absolute coefficient mass of the monomials it
        appears in (a proxy for how much the result depends on it).
    """

    num_groups: int
    size: int
    num_variables: int
    min_monomials_per_group: int
    max_monomials_per_group: int
    mean_monomials_per_group: float
    degree_histogram: Dict[int, int]
    variable_occurrences: Dict[str, int]
    variable_mass: Dict[str, float]

    def top_variables_by_occurrence(self, count: int = 10) -> List[Tuple[str, int]]:
        """The ``count`` variables appearing in the most monomials."""
        ranked = sorted(
            self.variable_occurrences.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:count]

    def top_variables_by_mass(self, count: int = 10) -> List[Tuple[str, float]]:
        """The ``count`` variables carrying the most absolute coefficient mass."""
        ranked = sorted(
            self.variable_mass.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:count]

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly rendering of the scalar fields."""
        return {
            "num_groups": self.num_groups,
            "size": self.size,
            "num_variables": self.num_variables,
            "min_monomials_per_group": self.min_monomials_per_group,
            "max_monomials_per_group": self.max_monomials_per_group,
            "mean_monomials_per_group": self.mean_monomials_per_group,
            "degree_histogram": dict(self.degree_histogram),
        }

    def render_text(self, top: int = 5) -> str:
        """A short human-readable summary (used by the CLI)."""
        lines = [
            f"groups: {self.num_groups}   monomials: {self.size}   "
            f"variables: {self.num_variables}",
            f"monomials per group: min {self.min_monomials_per_group}, "
            f"mean {self.mean_monomials_per_group:.1f}, "
            f"max {self.max_monomials_per_group}",
            "degree histogram: "
            + ", ".join(
                f"{degree}: {count}"
                for degree, count in sorted(self.degree_histogram.items())
            ),
            "most frequent variables: "
            + ", ".join(
                f"{name} ({count})"
                for name, count in self.top_variables_by_occurrence(top)
            ),
        ]
        return "\n".join(lines)


def describe_provenance(provenance: ProvenanceSet) -> ProvenanceStatistics:
    """Compute :class:`ProvenanceStatistics` for ``provenance``.

    Counted on the id-encoded rows of the provenance's incidence
    (:func:`~repro.provenance.incidence.provenance_incidence`), so the
    statistics and the incidence-based algorithms agree on what counts as a
    monomial row.  Dictionaries list degrees and variables in order of
    first occurrence along the rows; a variable's mass sums the absolute
    coefficients of its rows in row order.
    """
    from repro.provenance.incidence import provenance_incidence

    incidence = provenance_incidence(provenance)
    size = incidence.num_rows()
    group_sizes = np.bincount(incidence.group_ids, minlength=len(provenance))

    degrees = incidence.monomial_exponents.sum(axis=1)[incidence.monomial_ids]
    values, first, counts = np.unique(degrees, return_index=True, return_counts=True)
    by_first = np.argsort(first)
    degree_histogram = dict(
        zip(values[by_first].tolist(), counts[by_first].tolist())
    )

    variables = incidence.monomial_variables[incidence.monomial_ids]
    present = variables >= 0
    mass = np.bincount(
        variables[present],
        weights=np.broadcast_to(
            np.abs(incidence.coefficients)[:, None], variables.shape
        )[present],
        minlength=len(incidence.names),
    ).tolist()
    name_index = {name: i for i, name in enumerate(incidence.names)}
    order = list(incidence.variable_rows)
    return ProvenanceStatistics(
        num_groups=len(provenance),
        size=size,
        num_variables=len(incidence.names),
        min_monomials_per_group=int(group_sizes.min()) if group_sizes.size else 0,
        max_monomials_per_group=int(group_sizes.max()) if group_sizes.size else 0,
        mean_monomials_per_group=(size / group_sizes.size) if group_sizes.size else 0.0,
        degree_histogram=degree_histogram,
        variable_occurrences={
            name: len(incidence.variable_rows[name]) for name in order
        },
        variable_mass={name: mass[name_index[name]] for name in order},
    )
