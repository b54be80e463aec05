"""Warm-start study: cold compile vs artifact load, measured end to end.

The deployment question behind the snapshot layer: how much startup
wall clock does a persisted compiled artifact actually buy over
programming from scratch?  For each model in the sweep the study

* **cold-compiles** the model into a fresh :class:`EngineCache`
  (quantize weights, decompose bit planes, place tiles, fuse kernels —
  everything a new process pays on its first registration),
* **saves** the compiled image into a content-addressed
  :class:`~repro.runtime.ArtifactStore`, then
* **warm-starts** by :func:`~repro.runtime.load`-ing the artifact into
  another fresh cache, and
* **verifies** the restored model's outputs are bitwise identical to
  the freshly compiled one (same inputs, same execution RNG).

Timings take the minimum over ``repeats`` passes (the standard
low-noise estimator).  ``benchmarks/test_bench_warmstart.py`` pins why
the load is the faster side — it programs no engine and quantises no
weight — with the bitwise check green.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.experiments.common import format_table, time_calls
from repro.runtime import (
    ArtifactStore,
    EngineCache,
    RuntimeConfig,
    compile_model,
    load,
    save,
)


@dataclass
class WarmstartStudyConfig:
    """Sweep budget.

    ``mlp_widths`` defines the serving-scale classifier (the regime the
    snapshot layer targets: heavy weights, many subarray tiles);
    ``conv_channels`` a small convolutional pipeline; ``image_hw`` its
    input resolution.  ``repeats`` is the min-of-N timing estimator
    width, ``batch`` the verification batch size.
    """

    mlp_widths: Sequence[int] = (2048, 1024, 512, 10)
    conv_channels: Sequence[int] = (16, 32, 32)
    image_hw: int = 16
    repeats: int = 4
    batch: int = 4
    seed: int = 0
    store_dir: Optional[str] = None  # default: a fresh temp directory


def fast_config() -> WarmstartStudyConfig:
    return WarmstartStudyConfig(
        mlp_widths=(256, 128, 10), conv_channels=(8, 8), image_hw=8, repeats=2
    )


def full_config() -> WarmstartStudyConfig:
    return WarmstartStudyConfig()


@dataclass
class WarmstartResult:
    """One model's cold-vs-warm startup comparison."""

    model: str
    n_weight_layers: int
    cold_compile_ms: float
    save_ms: float
    load_ms: float
    artifact_mb: float
    bitwise_identical: bool

    @property
    def speedup(self) -> float:
        return self.cold_compile_ms / self.load_ms if self.load_ms else 0.0


@dataclass
class WarmstartStudyResult:
    results: List[WarmstartResult] = field(default_factory=list)

    def result(self, name: str) -> WarmstartResult:
        for entry in self.results:
            if entry.model == name:
                return entry
        raise KeyError(f"no model {name!r}")

    def rows(self) -> List[Tuple]:
        return [
            (
                r.model,
                r.n_weight_layers,
                round(r.cold_compile_ms, 1),
                round(r.save_ms, 1),
                round(r.load_ms, 1),
                round(r.speedup, 2),
                round(r.artifact_mb, 2),
                r.bitwise_identical,
            )
            for r in self.results
        ]


def _mlp(widths: Sequence[int], rng: np.random.Generator) -> nn.Module:
    layers: List[nn.Module] = []
    for a, b in zip(widths, widths[1:]):
        layers += [nn.Linear(a, b, rng=rng), nn.ReLU()]
    return nn.Sequential(*layers[:-1])


def _conv(channels: Sequence[int], hw: int, rng: np.random.Generator) -> nn.Module:
    layers: List[nn.Module] = []
    previous = 3
    for width in channels:
        layers += [nn.Conv2d(previous, width, 3, padding=1, rng=rng), nn.ReLU()]
        previous = width
    layers += [nn.GlobalAvgPool2d(), nn.Flatten(), nn.Linear(previous, 10, rng=rng)]
    return nn.Sequential(*layers)


def measure(
    name: str,
    model: nn.Module,
    sample: np.ndarray,
    store: ArtifactStore,
    repeats: int,
) -> WarmstartResult:
    """Cold-compile vs save/load one model through ``store``."""
    cold_ms, [compiled] = time_calls(
        lambda m: compile_model(m, RuntimeConfig(), cache=EngineCache()),
        [model],
        repeats,
    )
    save_ms, [key] = time_calls(lambda c: save(c, store), [compiled], 1)
    load_ms, [loaded] = time_calls(
        lambda k: load(store, k, cache=EngineCache()), [key], repeats
    )
    expected, _ = compiled.run(sample, rng=np.random.default_rng(7))
    restored, _ = loaded.run(sample, rng=np.random.default_rng(7))
    return WarmstartResult(
        model=name,
        n_weight_layers=compiled.n_weight_layers,
        cold_compile_ms=cold_ms,
        save_ms=save_ms,
        load_ms=load_ms,
        artifact_mb=store.model_path(key).stat().st_size / 1e6,
        bitwise_identical=bool(np.array_equal(expected, restored)),
    )


def run(config: Optional[WarmstartStudyConfig] = None) -> WarmstartStudyResult:
    """Measure cold vs warm startup for the configured model sweep."""
    config = config if config is not None else fast_config()
    rng = np.random.default_rng(config.seed)
    data_rng = np.random.default_rng(config.seed + 1)
    store_dir = (
        config.store_dir
        if config.store_dir is not None
        else tempfile.mkdtemp(prefix="warmstart-study-")
    )
    store = ArtifactStore(store_dir)
    hw = config.image_hw

    sweep: Dict[str, Tuple[nn.Module, np.ndarray]] = {
        "mlp": (
            _mlp(config.mlp_widths, rng),
            data_rng.normal(size=(config.batch, config.mlp_widths[0])),
        ),
        "conv": (
            _conv(config.conv_channels, hw, rng),
            data_rng.normal(size=(config.batch, 3, hw, hw)),
        ),
    }
    result = WarmstartStudyResult()
    for name, (model, sample) in sweep.items():
        result.results.append(
            measure(name, model, sample, store, config.repeats)
        )
    return result


def format_report(result: WarmstartStudyResult) -> str:
    return format_table(
        result.rows(),
        [
            "model",
            "layers",
            "cold_ms",
            "save_ms",
            "load_ms",
            "speedup",
            "artifact_MB",
            "bitwise",
        ],
    )
