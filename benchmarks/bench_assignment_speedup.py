"""E9 — the assignment-speedup mechanism (the Assignment component of Fig. 4).

The reason compression matters downstream is that analysts repeatedly assign
values to provenance variables; assignment cost is linear in the number of
monomials.  This bench evaluates the full and the compressed provenance of
the medium telephony instance under a stream of valuations and measures the
evaluation throughput at several compression levels — the mechanism behind
the 47% / 79% speedups reported in Section 4.
"""

import pytest

from repro.core.cut import Cut
from repro.core.compression import apply_abstraction
from repro.provenance import CompiledProvenanceSet, Valuation

#: compression level -> plan-tree cut nodes
LEVELS = {
    "full (11 vars)": None,
    "seven groups": ("SB", "e", "F", "Y", "v", "p1", "p2"),
    "three groups": ("Business", "Special", "Standard"),
    "one group": ("Plans",),
}


def _compiled(medium_provenance, fig2_tree, nodes):
    if nodes is None:
        provenance = medium_provenance
    else:
        provenance = apply_abstraction(
            medium_provenance, Cut(fig2_tree, nodes)
        ).compressed
    return provenance, CompiledProvenanceSet(provenance)


@pytest.mark.parametrize("level", list(LEVELS))
@pytest.mark.benchmark(group="E9-assignment")
def test_assignment_throughput(benchmark, medium_provenance, fig2_tree, level):
    """Time one assignment (evaluation of every result group) per level."""
    provenance, compiled = _compiled(medium_provenance, fig2_tree, LEVELS[level])
    valuation = Valuation.uniform(provenance.variables(), 1.0).updated({"m3": 0.8})

    totals = benchmark(lambda: compiled.evaluate_vector(valuation))

    assert len(totals) == len(provenance)
    assert float(totals.sum()) > 0.0


@pytest.mark.benchmark(group="E9-assignment")
def test_speedup_tracks_compression_ratio(medium_provenance, fig2_tree):
    """Measured speedups grow with the compression ratio (the paper's claim)."""
    from repro.utils.timing import measure_speedup

    full_provenance, full_compiled = _compiled(medium_provenance, fig2_tree, None)
    full_valuation = Valuation.uniform(full_provenance.variables(), 1.0)

    fractions = {}
    for level, nodes in LEVELS.items():
        if nodes is None:
            continue
        provenance, compiled = _compiled(medium_provenance, fig2_tree, nodes)
        valuation = Valuation.uniform(provenance.variables(), 1.0)
        measurement = measure_speedup(
            lambda: full_compiled.evaluate_vector(full_valuation),
            lambda: compiled.evaluate_vector(valuation),
            repeats=3,
        )
        fractions[level] = measurement.speedup_fraction

    assert fractions["one group"] >= fractions["three groups"] >= -0.2
    assert fractions["one group"] > 0.4
