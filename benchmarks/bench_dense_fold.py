"""Benchmark: the dense min/or kernel's segment fold against ``reduceat``.

The tropical and Boolean dense kernels reduce each block's ``monomials ×
rows`` accumulator either with ``reduceat`` along axis 0 or position by
position (``position_major`` / ``fold_positions``), and pick per block:
fold when ``longest * _DENSE_FOLD_CROSSOVER + monomials <= segments *
rows``.  This script times one dense pass over a synthetic width-3 group
of one block (``_DELTA_BLOCK_CELLS`` cells) both ways, over a grid:

* rows 8, 16, 24, 48, 96, 192;
* segment lengths: uniform 1–100, skewed (95% of length 2, 5% of length
  10–100) and geometric (mean 2–50, capped at 100).

Per point it prints the block's segments, longest segment and monomials,
both times, the path the kernel picks and that path's time over
``reduceat``'s.  It exits non-zero when the picked path is more than
``--tolerance`` slower than ``reduceat`` anywhere on the grid.

Run::

    PYTHONPATH=src python benchmarks/bench_dense_fold.py
    PYTHONPATH=src python benchmarks/bench_dense_fold.py --quick --json fold.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Tuple
from unittest import mock

import numpy as np

from repro.provenance.backends import numeric, resolve_backend
from repro.provenance.monomial import Monomial
from repro.provenance.polynomial import Polynomial, ProvenanceSet

ROWS = (8, 16, 24, 48, 96, 192)
UNIFORM = (1, 2, 3, 5, 8, 13, 20, 40, 100)
SKEWED = (10, 20, 40, 100)
GEOMETRIC = (2, 3, 5, 10, 20, 50)
QUICK = (("uniform", 1), ("uniform", 5), ("uniform", 100), ("skewed", 40), ("geometric", 20))
WIDTH = 3
VARIABLES = 400
#: Crossovers that make every block fold, or none.
ALWAYS, NEVER = float("-inf"), float("inf")


def _lengths(layout: str, parameter: int, monomials: int, rng) -> np.ndarray:
    """Segment lengths of one block of about ``monomials`` monomials."""
    count = monomials  # enough segments of any layout to fill the block
    if layout == "uniform":
        lengths = np.full(count, parameter)
    elif layout == "skewed":
        lengths = np.where(rng.random(count) < 0.05, parameter, 2)
    else:
        lengths = np.minimum(rng.geometric(1.0 / parameter, size=count), 100)
    fits = np.searchsorted(np.cumsum(lengths), monomials, side="right")
    return lengths[: max(1, fits)].astype(np.intp)


def _group(lengths: np.ndarray, rng) -> numeric._SegmentGroup:
    """A width-3 group whose row ``i`` holds ``lengths[i]`` monomials."""
    total = int(lengths.sum())
    return numeric._SegmentGroup(
        np.repeat(np.arange(lengths.size), lengths),
        rng.uniform(0.0, 5.0, size=total),
        np.sort(rng.integers(0, VARIABLES, size=(total, WIDTH)), axis=1),
        np.ones((total, WIDTH)),
    )


def _compiled(semiring: str):
    """A compiled set of ``semiring`` whose kernel hooks run the passes."""
    provenance = ProvenanceSet()
    provenance[("k",)] = Polynomial({Monomial({"x": 1}): 1.0})
    return resolve_backend(semiring).compile(provenance)


def measure(
    semiring: str, rows: int, layout: str, parameter: int, repeats: int, seed: int
) -> Dict:
    """Both paths' best-of times for one block, and the kernel's pick."""
    rng = np.random.default_rng(seed)
    lengths = _lengths(layout, parameter, numeric._DELTA_BLOCK_CELLS // rows, rng)
    group = _group(lengths, rng)
    compiled = _compiled(semiring)
    source = rng.uniform(0.0, 10.0, size=(VARIABLES, rows))
    totals = np.empty((lengths.size, rows))

    def run(crossover: float) -> int:
        """One pass; returns the blocks that folded."""
        with mock.patch.object(numeric, "_DENSE_FOLD_CROSSOVER", crossover):
            totals.fill(compiled._identity)
            blocks, folded = compiled._dense_pass(group, source, totals)
        assert blocks == 1, blocks
        return folded

    run(ALWAYS)
    folded_bytes = totals.tobytes()
    run(NEVER)
    if folded_bytes != totals.tobytes():
        raise AssertionError(f"fold and reduceat disagree: {semiring} {rows} {layout} {parameter}")
    picked_fold = bool(run(numeric._DENSE_FOLD_CROSSOVER))
    fold = reduce = float("inf")
    for _ in range(repeats):  # alternated, so drift hits both
        start = time.perf_counter()
        run(ALWAYS)
        fold = min(fold, time.perf_counter() - start)
        start = time.perf_counter()
        run(NEVER)
        reduce = min(reduce, time.perf_counter() - start)
    return {
        "semiring": semiring,
        "rows": rows,
        "layout": layout,
        "parameter": parameter,
        "segments": int(lengths.size),
        "longest": int(lengths.max()),
        "monomials": int(lengths.sum()),
        "fold_us": fold * 1e6,
        "reduceat_us": reduce * 1e6,
        "picked": "fold" if picked_fold else "reduceat",
        "picked_over_reduceat": (fold if picked_fold else reduce) / reduce,
    }


def layouts(quick: bool) -> List[Tuple[str, int]]:
    if quick:
        return list(QUICK)
    return (
        [("uniform", n) for n in UNIFORM]
        + [("skewed", n) for n in SKEWED]
        + [("geometric", n) for n in GEOMETRIC]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="five layouts, fewer repeats")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--semiring", choices=("tropical", "bool", "both"), default="both")
    parser.add_argument("--tolerance", type=float, default=0.10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="write the grid records here")
    args = parser.parse_args(argv)
    repeats = args.repeats or (10 if args.quick else 40)
    semirings = ("tropical", "bool") if args.semiring == "both" else (args.semiring,)

    print(f"_DENSE_FOLD_CROSSOVER = {numeric._DENSE_FOLD_CROSSOVER}")
    print(
        f"{'semiring':9} {'rows':>4} {'layout':>9} {'n':>4} {'segs':>5} {'max':>4} "
        f"{'fold us':>8} {'reduceat':>8} {'picked':>8} {'ratio':>6}"
    )
    records = []
    for semiring in semirings:
        for rows in ROWS:
            for layout, parameter in layouts(args.quick):
                record = measure(semiring, rows, layout, parameter, repeats, args.seed)
                records.append(record)
                print(
                    f"{semiring:9} {rows:4d} {layout:>9} {parameter:4d} "
                    f"{record['segments']:5d} {record['longest']:4d} "
                    f"{record['fold_us']:8.1f} {record['reduceat_us']:8.1f} "
                    f"{record['picked']:>8} {record['picked_over_reduceat']:6.2f}"
                )
    worst = max(records, key=lambda r: r["picked_over_reduceat"])
    print(
        f"worst picked/reduceat: {worst['picked_over_reduceat']:.2f} "
        f"({worst['semiring']}, {worst['rows']} rows, {worst['layout']} {worst['parameter']})"
    )
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {"crossover": numeric._DENSE_FOLD_CROSSOVER, "records": records},
                handle,
                indent=1,
            )
    return 0 if worst["picked_over_reduceat"] <= 1.0 + args.tolerance else 1


if __name__ == "__main__":
    sys.exit(main())
