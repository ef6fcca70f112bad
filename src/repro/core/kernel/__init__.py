"""The incremental compression kernel: the greedy's one engine.

A naive greedy recomputes the merge gain of **every** candidate inner node
by scanning **every** monomial at **every** coarsening step —
O(steps × candidates × |provenance|).  This package replaces those rescans
with an incremental pipeline:

* :mod:`repro.core.kernel.index` — a CSR-style monomial-incidence index
  (tree node → the rows of monomials its subtree touches), built in one
  linear pass and cached by provenance fingerprint;
* :mod:`repro.core.kernel.greedy` — :class:`IncrementalGreedyKernel`:
  per-candidate merge-gain counters delta-updated in O(affected monomials)
  per coarsening, with candidate selection through a lazy max-heap;
* :mod:`repro.core.kernel.trajectory` — :class:`GreedyTrajectory`: the
  bound-independent coarsening trajectory, lazily extended and shared across
  bound sweeps ("compress once, then sweep").  Every greedy result — from
  :func:`repro.core.greedy.optimize_greedy` or
  :class:`repro.core.compression.Compressor` — is read off one.

The kernel emits the **identical cut sequence** (and therefore identical
compressed provenance) as the full-rescan greedy kept as a test oracle in
``tests/oracles/greedy_scan.py``; ``tests/unit/test_kernel.py`` and
``tests/property/test_kernel_gain_parity.py`` enforce this.
"""

from repro.core.kernel.index import MonomialIncidenceIndex
from repro.core.kernel.greedy import IncrementalGreedyKernel
from repro.core.kernel.trajectory import GreedyTrajectory

__all__ = [
    "MonomialIncidenceIndex",
    "IncrementalGreedyKernel",
    "GreedyTrajectory",
]
