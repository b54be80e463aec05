"""Compile-once runtime amortization study.

The deployment question behind the runtime refactor: how much wall
clock does programming-once actually buy over the seed's per-call path,
which re-quantized the weights and rebuilt every subarray tile on each
inference?  This study measures the two serving regimes of interest —

* **serving** — requests arrive one sample at a time (the heavy-traffic
  deployment regime the ROADMAP targets); the seed path pays the full
  programming cost on every request.
* **streaming** — one large batch per call; programming cost amortizes
  over the batch, so the remaining gap is the runtime's optimized
  execution kernels.

Both regimes run the compiled path and the seed reference path on the
same requests and verify the outputs are bitwise identical — the
runtime is a pure restructuring, not an approximation.  Timings take
the minimum over ``repeats`` (the standard low-noise estimator).
"""

from __future__ import annotations

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
from repro.runtime import EngineCache, compile_model, reference_forward


@dataclass
class RuntimeStudyConfig:
    """Study budget.

    ``model`` selects a zoo network (``resnet8``, ``resnet18``,
    ``mobilenet``, ``vgg8``, …) instead of the synthetic MLP: it is
    built at ``width_mult`` for ``image_hw``-pixel inputs and deployed
    with batch-norm folding — the graph-plan runtime executes residual
    and grouped-conv models end to end.  ``None`` keeps the MLP.
    """

    in_features: int = 1024
    layer_widths: Sequence[int] = (512, 256)
    num_classes: int = 10
    n_requests: int = 32
    repeats: int = 3
    seed: int = 0
    model: Optional[str] = None
    width_mult: float = 0.25
    image_hw: int = 16


def fast_config() -> RuntimeStudyConfig:
    return RuntimeStudyConfig(
        in_features=256, layer_widths=(128,), n_requests=8, repeats=2
    )


def full_config() -> RuntimeStudyConfig:
    return RuntimeStudyConfig()


@dataclass
class RegimeResult:
    regime: str  # "serving" | "streaming"
    n_calls: int
    n_samples: int
    compiled_ms: float
    reference_ms: float
    bitwise_identical: bool

    @property
    def speedup(self) -> float:
        return self.reference_ms / self.compiled_ms if self.compiled_ms else 0.0


@dataclass
class RuntimeStudyResult:
    compile_ms: float = 0.0
    engines_programmed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    regimes: List[RegimeResult] = field(default_factory=list)

    def regime(self, name: str) -> RegimeResult:
        for entry in self.regimes:
            if entry.regime == name:
                return entry
        raise KeyError(f"no regime {name!r}")

    def rows(self) -> List[Tuple]:
        return [
            (
                r.regime,
                r.n_calls,
                r.n_samples,
                round(r.compiled_ms, 1),
                round(r.reference_ms, 1),
                round(r.speedup, 2),
                r.bitwise_identical,
            )
            for r in self.regimes
        ]


def run(config: RuntimeStudyConfig = None) -> RuntimeStudyResult:
    """Measure compiled vs seed per-call inference on both regimes."""
    config = config if config is not None else fast_config()
    model, runtime_config = study_model(config, mlp_stack)
    requests = study_requests(config)

    cache = EngineCache()
    start = time.perf_counter()
    compiled = compile_model(model, runtime_config, cache=cache)
    compile_ms = (time.perf_counter() - start) * 1000.0
    result = RuntimeStudyResult(
        compile_ms=compile_ms,
        engines_programmed=cache.stats.programmed,
    )

    def compiled_call(x):
        return compiled.run(x)[0]

    def reference_call(x):
        return reference_forward(model, x)[0]

    serving = [requests[i : i + 1] for i in range(config.n_requests)]
    for regime, calls in (("serving", serving), ("streaming", [requests])):
        for x in calls:  # warm both paths (page cache, einsum paths)
            compiled.run(x)
        reference_forward(model, calls[0])
        compiled_ms, outs_c = time_calls(compiled_call, calls, config.repeats)
        reference_ms, outs_r = time_calls(reference_call, calls, config.repeats)
        bitwise = all(
            np.array_equal(a, b) for a, b in zip(outs_c, outs_r)
        )
        result.regimes.append(
            RegimeResult(
                regime=regime,
                n_calls=len(calls),
                n_samples=sum(x.shape[0] for x in calls),
                compiled_ms=compiled_ms,
                reference_ms=reference_ms,
                bitwise_identical=bitwise,
            )
        )
    result.cache_hits = cache.stats.hits
    result.cache_misses = cache.stats.misses
    return result


def format_report(result: RuntimeStudyResult) -> str:
    return "\n".join(
        [
            f"compile: {result.compile_ms:.1f} ms "
            f"({result.engines_programmed} engines programmed once; "
            f"{result.cache_hits} cache hits / {result.cache_misses} misses)",
            format_table(
                result.rows(),
                [
                    "regime",
                    "calls",
                    "samples",
                    "compiled_ms",
                    "reference_ms",
                    "speedup",
                    "bitwise",
                ],
            ),
        ]
    )
