"""Kernel-backend autotuning study.

The question behind the pluggable-backend layer: how much serving wall
clock does the compile-time autotuner buy over the default
``reference-fast`` kernels, per engine and end to end?  The study
compiles the same model twice — once with the default kernels, once
with ``backend="auto"`` — replays an identical serving workload
(requests one sample at a time, the regime the ROADMAP targets)
through both, and verifies every output is bitwise identical.  The
autotuner's own per-engine probe timings and winners are surfaced
alongside, so a run shows *what* was picked and *why* in one table.

Tuning is a pure speed decision: every candidate the tuner may pick
was vetoed against the reference kernel bit for bit, so the study's
bitwise column is a re-check of an already-enforced contract.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import (
    format_table,
    mlp_stack,
    study_model,
    study_requests,
    time_calls,
)
from repro.runtime import EngineCache, compile_model
from repro.runtime.backends import clear_tune_cache


@dataclass
class BackendStudyConfig:
    """Study budget.

    ``model`` selects a zoo network instead of the synthetic MLP (built
    at ``width_mult`` for ``image_hw``-pixel inputs, BN folded).
    ``probe_n`` is the autotuner's probe batch width for linear engines
    — match it to the serving batch size being measured.
    """

    in_features: int = 1024
    layer_widths: Sequence[int] = (512, 256)
    num_classes: int = 10
    n_requests: int = 32
    repeats: int = 3
    seed: int = 0
    probe_n: int = 1
    model: Optional[str] = None
    width_mult: float = 0.25
    image_hw: int = 16


def fast_config() -> BackendStudyConfig:
    return BackendStudyConfig(
        in_features=256, layer_widths=(128,), n_requests=8, repeats=2
    )


def full_config() -> BackendStudyConfig:
    return BackendStudyConfig()


@dataclass
class EngineTuneRow:
    """One engine's autotuning outcome."""

    layer_id: str
    winner: str
    probe_timings_ms: dict
    cached: bool

    @property
    def speedup(self) -> float:
        ref = self.probe_timings_ms.get("reference-fast")
        won = self.probe_timings_ms.get(self.winner)
        return ref / won if ref and won else 1.0


@dataclass
class BackendStudyResult:
    compile_default_ms: float = 0.0
    compile_tuned_ms: float = 0.0
    n_calls: int = 0
    n_samples: int = 0
    default_ms: float = 0.0
    tuned_ms: float = 0.0
    bitwise_identical: bool = False
    engines: List[EngineTuneRow] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.default_ms / self.tuned_ms if self.tuned_ms else 0.0

    @property
    def default_samples_per_s(self) -> float:
        return self.n_samples / (self.default_ms / 1000.0) if self.default_ms else 0.0

    @property
    def tuned_samples_per_s(self) -> float:
        return self.n_samples / (self.tuned_ms / 1000.0) if self.tuned_ms else 0.0

    def rows(self) -> List[Tuple]:
        return [
            (
                row.layer_id,
                row.winner,
                round(row.probe_timings_ms.get("reference-fast", 0.0), 3),
                round(row.probe_timings_ms.get(row.winner, 0.0), 3),
                round(row.speedup, 2),
                row.cached,
            )
            for row in self.engines
        ]


def run(config: BackendStudyConfig = None) -> BackendStudyResult:
    """Serve the same workload on default vs autotuned kernels."""
    config = config if config is not None else fast_config()
    model, runtime_config = study_model(config, mlp_stack)
    requests = study_requests(config)

    start = time.perf_counter()
    default = compile_model(model, runtime_config, cache=EngineCache())
    compile_default_ms = (time.perf_counter() - start) * 1000.0

    clear_tune_cache()  # honest tuned-compile timing: no prior decisions
    start = time.perf_counter()
    tuned = compile_model(
        model,
        dataclasses.replace(
            runtime_config, backend="auto", tune_probe_n=config.probe_n
        ),
        cache=EngineCache(),
    )
    compile_tuned_ms = (time.perf_counter() - start) * 1000.0

    result = BackendStudyResult(
        compile_default_ms=compile_default_ms,
        compile_tuned_ms=compile_tuned_ms,
    )
    for slot in tuned._slots:
        engine = slot.engine_for(slot.predicted_signed)
        report = engine.tune_report
        if report is not None:
            result.engines.append(
                EngineTuneRow(
                    layer_id=slot.layer_id,
                    winner=report.winner,
                    probe_timings_ms=dict(report.timings_ms),
                    cached=report.cached,
                )
            )

    calls = [requests[i : i + 1] for i in range(config.n_requests)]
    for x in calls:  # warm both paths (einsum capture, page cache)
        default.run(x)
        tuned.run(x)
    default_ms, outs_d = time_calls(lambda x: default.run(x)[0], calls, config.repeats)
    tuned_ms, outs_t = time_calls(lambda x: tuned.run(x)[0], calls, config.repeats)
    result.n_calls = len(calls)
    result.n_samples = sum(x.shape[0] for x in calls)
    result.default_ms = default_ms
    result.tuned_ms = tuned_ms
    result.bitwise_identical = all(
        np.array_equal(a, b) for a, b in zip(outs_d, outs_t)
    )
    return result


def format_report(result: BackendStudyResult) -> str:
    return "\n".join(
        [
            f"compile: default {result.compile_default_ms:.1f} ms, "
            f"tuned {result.compile_tuned_ms:.1f} ms (includes per-engine probes)",
            format_table(
                result.rows(),
                ["layer", "winner", "ref_ms", "winner_ms", "probe_speedup", "cached"],
            ),
            f"serving ({result.n_samples} requests, batch 1): "
            f"default {result.default_ms:.1f} ms "
            f"({result.default_samples_per_s:.1f}/s), "
            f"tuned {result.tuned_ms:.1f} ms "
            f"({result.tuned_samples_per_s:.1f}/s) -> "
            f"{result.speedup:.2f}x, bitwise={result.bitwise_identical}",
        ]
    )
