"""Compare fresh benchmark records against the committed BENCH baselines.

The repo commits the ``--quick`` benchmark records under
``benchmarks/baselines/BENCH_*.json`` so the perf trajectory is part of the
tree, not just a CI artifact.  This script is the CI gate that keeps them
honest: it re-reads a freshly generated record next to its committed
baseline and walks both documents together.

Comparison policy (recursive over dicts and lists):

* ``*speedup`` keys are the guarded quantities: the fresh value must be at
  least ``baseline * (1 - tolerance)``.  The tolerance band is wide by
  default (0.5) because CI machines are noisy and the committed numbers come
  from a different box — the gate catches "the speedup collapsed", not
  "the speedup wobbled".  The compiled-store cold-start scalar
  (``store_cold_start_speedup``) rides this rule like any other speedup.
* ``*seconds`` and ``*bytes`` keys and everything under
  ``stages`` are machine- or layout-dependent and therefore informational:
  printed, never failed on.  (``store_bytes`` varies with the JSON header
  and alignment padding, not with correctness.)  For ``stages`` the *names*
  still matter — a baseline stage missing from the fresh record means an
  instrumentation point was dropped.
* Every other scalar (sizes, counts, booleans, workload parameters) is
  deterministic and must match exactly (floats within 1e-6 relative).
  That includes ``processes``: a sharded timing taken at another pool
  width is not comparable, so the quick records pin it (``--processes 2``).
* A baseline key missing from the fresh record is a failure; extra fresh
  keys are fine (records may grow).

Usage::

    python benchmarks/compare_baselines.py --baseline-dir benchmarks/baselines \
        --fresh-dir bench_fresh [--tolerance 0.5]
    python benchmarks/compare_baselines.py BASELINE.json FRESH.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

#: (path, kind, message) — kind is "fail" or "info".
Finding = Tuple[str, str, str]


def _is_speedup_key(key: str) -> bool:
    return key.endswith("speedup")


def _is_informational_key(key: str) -> bool:
    return key.endswith("seconds") or key.endswith("bytes")


def _compare(
    path: str,
    baseline: Any,
    fresh: Any,
    tolerance: float,
    findings: List[Finding],
    informational: bool = False,
) -> None:
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            findings.append((path, "fail", f"expected an object, got {type(fresh).__name__}"))
            return
        for key, value in baseline.items():
            child = f"{path}.{key}" if path else key
            if key not in fresh:
                kind = "info" if informational else "fail"
                findings.append((child, kind, "missing from the fresh record"))
                continue
            _compare(
                child,
                value,
                fresh[key],
                tolerance,
                findings,
                informational=informational or key == "stages",
            )
        return
    if isinstance(baseline, list):
        if not isinstance(fresh, list) or len(fresh) != len(baseline):
            findings.append((path, "fail", "list shape changed"))
            return
        for index, (b, f) in enumerate(zip(baseline, fresh)):
            _compare(f"{path}[{index}]", b, f, tolerance, findings, informational)
        return

    key = path.rsplit(".", 1)[-1]
    if _is_speedup_key(key) and isinstance(baseline, (int, float)):
        floor = baseline * (1.0 - tolerance)
        verdict = "fail" if fresh < floor else "info"
        findings.append(
            (
                path,
                verdict,
                f"baseline {baseline:.2f}x, fresh {fresh:.2f}x "
                f"(floor {floor:.2f}x)"
                + (" — REGRESSION" if verdict == "fail" else ""),
            )
        )
        return
    if informational or _is_informational_key(key):
        if baseline != fresh:
            findings.append((path, "info", f"{baseline!r} -> {fresh!r} (informational)"))
        return
    if isinstance(baseline, bool) or not isinstance(baseline, (int, float)):
        if baseline != fresh:
            findings.append((path, "fail", f"expected {baseline!r}, got {fresh!r}"))
        return
    if not math.isclose(float(baseline), float(fresh), rel_tol=1e-6, abs_tol=1e-9):
        findings.append((path, "fail", f"expected {baseline!r}, got {fresh!r}"))


def compare_records(
    baseline: Any, fresh: Any, tolerance: float
) -> List[Finding]:
    """All findings from walking ``fresh`` against ``baseline``."""
    findings: List[Finding] = []
    _compare("", baseline, fresh, tolerance, findings)
    return findings


def compare_files(
    baseline_path: Path, fresh_path: Path, tolerance: float
) -> int:
    """Compare one pair of files; print findings; return the failure count."""
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())
    findings = compare_records(baseline, fresh, tolerance)
    failures = [f for f in findings if f[1] == "fail"]
    print(f"== {baseline_path.name}: {fresh_path} vs {baseline_path} ==")
    if not findings:
        print("  identical within policy")
    for path, kind, message in findings:
        marker = "FAIL" if kind == "fail" else "  ok"
        print(f"  {marker}  {path}: {message}")
    return len(failures)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="BASELINE.json FRESH.json pair")
    parser.add_argument(
        "--baseline-dir", default="benchmarks/baselines",
        help="directory of committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        help="directory of freshly generated records (same file names)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.5,
        help="allowed relative speedup shortfall before failing (default 0.5)",
    )
    args = parser.parse_args(argv)

    pairs: List[Tuple[Path, Path]] = []
    if args.files:
        if len(args.files) != 2:
            parser.error("positional usage takes exactly BASELINE FRESH")
        pairs.append((Path(args.files[0]), Path(args.files[1])))
    elif args.fresh_dir:
        fresh_dir = Path(args.fresh_dir)
        for baseline_path in sorted(Path(args.baseline_dir).glob("BENCH_*.json")):
            fresh_path = fresh_dir / baseline_path.name
            if not fresh_path.exists():
                print(f"== {baseline_path.name}: no fresh record in {fresh_dir} ==")
                print("  FAIL  missing fresh record")
                pairs.append((baseline_path, baseline_path))  # placeholder
                continue
            pairs.append((baseline_path, fresh_path))
        if not pairs:
            parser.error(f"no BENCH_*.json baselines in {args.baseline_dir}")
    else:
        parser.error("provide either BASELINE FRESH or --fresh-dir")

    failures = 0
    for baseline_path, fresh_path in pairs:
        if baseline_path == fresh_path:  # missing fresh record, counted above
            failures += 1
            continue
        failures += compare_files(baseline_path, fresh_path, args.tolerance)
        print()
    if failures:
        print(f"FAIL: {failures} baseline check(s) failed", file=sys.stderr)
        return 1
    print("OK: every fresh record is within the baseline tolerance band")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
