"""End-to-end network accuracy through the functional CiM path.

The integration experiment behind the paper's "almost no accuracy
loss" framing: a classifier trained in float is compiled onto the
functional macro simulation (:func:`repro.runtime.compile`) and
evaluated across the circuit knobs the other studies sweep in
isolation — ADC resolution, word-line encoding, and bit-line noise —
so their MVM-level error numbers get an accuracy column.

The model is programmed once per circuit corner; the word-line
encoding is an execution-time option of :meth:`CompiledModel.run`, so
the encoding sweep reuses each corner's programmed engines instead of
redeploying the network per encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.cim import (
    AdcSpec,
    BitlineModel,
    MacroConfig,
    encoding_by_name,
)
from repro.datasets import classification_suite
from repro.eval.classification import accuracy
from repro.experiments.common import format_table
from repro.rebranch import TrainConfig, TransferTrainer
from repro.runtime import EngineCache, RuntimeConfig, compile_model


@dataclass
class CimAccuracyConfig:
    adc_bits_list: Sequence[int] = (4, 5, 8)
    encodings: Sequence[str] = ("bit-serial", "unary-pulse", "pulse-width")
    noise_sigmas: Sequence[float] = (0.0, 2.0)
    train_epochs: int = 15
    n_train: int = 512
    n_eval: int = 96
    seed: int = 0


def fast_config() -> CimAccuracyConfig:
    return CimAccuracyConfig(
        adc_bits_list=(5, 8),
        encodings=("bit-serial", "pulse-width"),
        noise_sigmas=(0.0,),
        train_epochs=10,
        n_train=320,
        n_eval=64,
    )


def full_config() -> CimAccuracyConfig:
    return CimAccuracyConfig()


@dataclass
class CimAccuracyPoint:
    adc_bits: int
    encoding: str
    noise_sigma: float
    accuracy: float
    energy_per_mac_fj: float
    latency_ns: float


@dataclass
class CimAccuracyResult:
    float_accuracy: float = 0.0
    points: List[CimAccuracyPoint] = field(default_factory=list)

    def at(
        self, adc_bits: int, encoding: str, noise_sigma: float = 0.0
    ) -> CimAccuracyPoint:
        for p in self.points:
            if (
                p.adc_bits == adc_bits
                and p.encoding == encoding
                and p.noise_sigma == noise_sigma
            ):
                return p
        raise KeyError(f"no point ({adc_bits}b, {encoding}, sigma={noise_sigma})")

    def rows(self) -> List[Tuple]:
        return [
            (
                p.adc_bits,
                p.encoding,
                p.noise_sigma,
                p.accuracy,
                p.energy_per_mac_fj,
            )
            for p in self.points
        ]


def _build_and_train(splits, epochs: int, seed: int) -> nn.Module:
    """A deployable chain (no BN, no residual adds) of modest size."""
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 24, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(24, 48, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(48 * 4 * 4, splits.num_classes, rng=rng),
    )
    TransferTrainer(model, TrainConfig(epochs=epochs, lr=2e-3, seed=seed)).fit(
        splits.x_train, splits.y_train
    )
    return model


def _float_logits(model: nn.Module, x: np.ndarray) -> np.ndarray:
    from repro.nn.tensor import Tensor, no_grad

    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def run(config: Optional[CimAccuracyConfig] = None) -> CimAccuracyResult:
    """Train once, deploy at every circuit corner, report accuracy."""
    config = config if config is not None else fast_config()
    suite = classification_suite(seed=config.seed)
    splits = suite.source_splits(n_train=config.n_train, n_test=config.n_eval)
    model = _build_and_train(splits, config.train_epochs, config.seed)

    x_eval = splits.x_test[: config.n_eval]
    y_eval = splits.y_test[: config.n_eval]
    result = CimAccuracyResult(
        float_accuracy=accuracy(_float_logits(model, x_eval), y_eval)
    )
    # Scoped cache: per-corner engines are never reused after the sweep,
    # so do not pin them in the process-wide cache.
    cache = EngineCache()

    for adc_bits in config.adc_bits_list:
        for noise_sigma in config.noise_sigmas:
            macro_config = MacroConfig(
                adc=AdcSpec(bits=adc_bits),
                bitline=BitlineModel(noise_sigma_counts=noise_sigma),
            )
            # Program the macros once per circuit corner; every encoding
            # below streams through the same compiled engines.
            compiled = compile_model(
                model,
                RuntimeConfig(
                    rom_config=macro_config, sram_config=macro_config
                ),
                cache=cache,
            )
            for name in config.encodings:
                encoding = (
                    None if name == "bit-serial" else encoding_by_name(name)
                )
                logits, stats = compiled.run(
                    x_eval,
                    encoding=encoding,
                    rng=np.random.default_rng(config.seed + 1),
                )
                result.points.append(
                    CimAccuracyPoint(
                        adc_bits=adc_bits,
                        encoding=name,
                        noise_sigma=noise_sigma,
                        accuracy=accuracy(logits, y_eval),
                        energy_per_mac_fj=stats.energy_per_mac_fj,
                        latency_ns=stats.latency_ns,
                    )
                )
    return result


def format_report(result: CimAccuracyResult) -> str:
    return "\n".join(
        [
            f"float accuracy: {result.float_accuracy:.3f}",
            format_table(
                result.rows(),
                ["adc_bits", "encoding", "noise", "accuracy", "fJ_per_mac"],
            ),
        ]
    )
