"""The incremental compression kernel: the greedy's one engine.

A naive greedy recomputes the merge gain of **every** candidate inner node
by scanning **every** monomial at **every** coarsening step —
O(steps × candidates × |provenance|).  This package replaces those rescans
with an incremental pipeline:

* :mod:`repro.core.kernel.greedy` — :class:`IncrementalGreedyKernel`: the
  provenance's id-encoded incidence rows
  (:meth:`~repro.provenance.polynomial.ProvenanceSet.incidence`, kept on
  the set) held as arrays,
  and per-candidate merge-gain counters held as sorted arrays of exact
  ``int64`` signature codes with a count per code.  A coarsening updates
  only the rows it touches and the counters of their active ancestors;
  candidates are selected through a lazy max-heap;
* :mod:`repro.core.kernel.trajectory` — :class:`GreedyTrajectory`: the
  bound-independent coarsening trajectory, lazily extended and shared across
  bound sweeps ("compress once, then sweep").  Every greedy result — from
  :func:`repro.core.greedy.optimize_greedy` or
  :class:`repro.core.compression.Compressor` — is read off one.

The kernel emits the **identical cut sequence** (and therefore identical
compressed provenance) as the full-rescan greedy kept as a test oracle in
``tests/oracles/greedy_scan.py``, and the identical gain tables, sizes and
counters as the dict-row kernel it replaced
(``tests/oracles/dict_greedy_kernel.py``); ``tests/unit/test_kernel.py``,
``tests/property/test_kernel_gain_parity.py`` and
``tests/property/test_array_kernel_parity.py`` enforce this.
"""

from repro.core.kernel.greedy import IncrementalGreedyKernel
from repro.core.kernel.trajectory import GreedyTrajectory

__all__ = [
    "IncrementalGreedyKernel",
    "GreedyTrajectory",
]
