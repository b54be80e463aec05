"""Measurement plumbing shared by the four workloads.

Everything here times the program *from outside*: a :class:`Spans`
recorder wraps calls into public ``repro`` functions, keeps the spans in
memory and writes them when the run ends.  The end-to-end pass
(``--trace 0``) runs with ``repro.obs.trace`` off; the traced pass
(``--trace 1``) additionally installs the program's own tracer around
the regions whose internal spans it reads, and replays each layer on
its own to attribute time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import resource
import statistics
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json`` — the single declaration of workloads and metrics."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory harness spans: ``{name, layer, workload, iteration,
    start_s, end_s, parent}``, nested by a stack (single-threaded — only
    the harness thread records)."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(
        self, name: str, layer: str, iteration: Optional[int] = None
    ) -> Iterator[Dict[str, Any]]:
        record = {
            "name": name,
            "layer": layer,
            "workload": self.workload,
            "iteration": iteration,
            "start_s": 0.0,
            "end_s": 0.0,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        record["start_s"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            self._stack.pop()

    def layer_self_s(self) -> Dict[str, float]:
        """Per layer: span time minus the interval its children cover."""
        covered = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                covered[record["parent"]] += wall(record)
        totals: Dict[str, float] = {}
        for record, children in zip(self.records, covered):
            totals[record["layer"]] = (
                totals.get(record["layer"], 0.0) + wall(record) - children
            )
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"spans": self.records, "layer_self_s": self.layer_self_s()}
            )
        )


def wall(record: Dict[str, Any]) -> float:
    """Host wall seconds of one finished span."""
    return record["end_s"] - record["start_s"]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> "tuple[str, float]":
    """The highest percentile with at least ten samples beyond it, and
    the upper quartile of a series too short to have one."""
    n = len(values)
    for q in (99, 95, 90):
        if n * (100 - q) >= 1000:
            return f"p{q}", float(np.percentile(values, q))
    if n < 2:
        return "q3", float(values[0])
    return "q3", float(statistics.quantiles(values, n=4)[2])


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes (``==`` would equate -0.0 and 0.0)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed; a bitwise mismatch, a rejected
    or timed-out request and a raised call all count as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.failed += n
        return bool(ok)


@dataclasses.dataclass
class Run:
    """What a workload receives: generated inputs come from ``seed``
    only, ``seconds`` is the measuring budget, ``smoke`` shrinks sizes
    for the contract test, ``tmp`` is scratch inside the checkout."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    tmp: Path
    spans: Spans
    tally: Tally
    #: Timing series by name, printed as count, median and tail.
    series: Dict[str, List[float]] = dataclasses.field(default_factory=dict)

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def deadline(self, share: float = 1.0) -> float:
        return time.perf_counter() + self.seconds * share

    def reps(self, n: int) -> int:
        """Repetitions of a fixed-count step: one in a smoke run."""
        return 1 if self.smoke else n

    def scratch(self, name: str) -> Path:
        """A fresh directory under ``tmp``."""
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.tmp))


def result_line(run: Run, metrics: Dict[str, float], declared: List[Dict]) -> str:
    """The contract's last stdout line.  Every declared metric is
    emitted; a per-layer metric of a layer the workload never enters
    reads 0."""
    out = {}
    for spec in declared:
        value = metrics.get(spec["name"], 0.0)
        out[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    return json.dumps(
        {
            "correct": run.tally.failed == 0,
            "attempted": run.tally.attempted,
            "failed": run.tally.failed,
            "metrics": out,
        }
    )
