#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``, or check one for steadiness.

``python3 bench/compare.py A.json B.json`` prints, per workload and
end-to-end metric, both medians with their quartiles, the ratio B ÷ A
(A is the base) and a verdict by the metric's own bound in
``BENCHMARK.json``:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     B's median is better by more than the bound;
* ``unresolved`` the difference is inside the bound but the run-to-run
  spread of either side is wider than the bound, so "unchanged" cannot
  be said — unless every run of B reads better than every run of A;
* ``same``       inside the bound, and the spread is too.

It exits non-zero on any ``worse``, or if B failed more operations
than A.  With one file it prints each metric's spread (interquartile
range ÷ median) beside its bound and exits non-zero if a spread other
than ``setup_s``'s exceeds it.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

Samples = Dict[Tuple[str, str], List[float]]


def load(path: str) -> Tuple[Samples, Dict[str, int]]:
    """End-to-end samples by ``(workload, metric)`` and failed
    operations by workload, over every ``--trace 0`` run in the file."""
    samples: Samples = {}
    failed: Dict[str, int] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        failed[run["workload"]] = failed.get(run["workload"], 0) + run["failed"]
        for name, metric in run["metrics"].items():
            samples.setdefault((run["workload"], name), []).append(metric["value"])
    return samples, failed


def summary(values: List[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``; a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = summary(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    base = summary(a)[1]
    gain = sign * (summary(b)[1] - base) / base if base else 0.0
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "better"
    if max(spread(a), spread(b)) > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better"
        return "unresolved"
    return "same"


def main(argv: List[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in contract["end_to_end"]}
    a, a_failed = load(argv[1])
    status = 0
    if len(argv) == 2:
        print(f"{'workload':24} {'metric':26} {'n':>3} {'median':>12} {'spread':>8} {'bound':>6}")
        for (workload, name), values in a.items():
            spec = declared[name]
            wide = spread(values) > spec["bound"] and name != "setup_s"
            status |= wide
            print(f"{workload:24} {name:26} {len(values):3d} {summary(values)[1]:12.6g} "
                  f"{spread(values):8.4f} {spec['bound']:6.2f}{'  TOO WIDE' if wide else ''}")
        return status

    b, b_failed = load(argv[2])
    print(f"{'workload':24} {'metric':26} {'A q1/median/q3':>34} {'B q1/median/q3':>34} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for key in a:
        if key not in b:
            continue
        workload, name = key
        spec = declared[name]
        result = verdict(a[key], b[key], spec["better"], spec["bound"])
        status |= result == "worse"
        sa, sb = summary(a[key]), summary(b[key])
        print(f"{workload:24} {name:26} "
              f"{'/'.join(f'{v:.5g}' for v in sa):>34} {'/'.join(f'{v:.5g}' for v in sb):>34} "
              f"{sb[1] / sa[1] if sa[1] else float('nan'):7.3f} {spec['bound']:6.2f}  {result}")
    for workload, count in b_failed.items():
        if count > a_failed.get(workload, 0):
            print(f"{workload}: {count} failed operations in B, {a_failed.get(workload, 0)} in A")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
