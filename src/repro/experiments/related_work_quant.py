"""Related-work claim check: sub-8-bit quantization on modern networks.

Section 2.3 rejects ultra-scaled quantization as an alternative to
ROM-CiM density: "ultra-scaled networks below 8-bit quantization, such
as TNN [14] and BNN [15], are still difficult to implement on modern
networks like ResNet [11] and MobileNet [16]".

The study post-training-quantizes the weights of a plain CNN (VGG-8)
and a depthwise-separable CNN (MobileNet) at int8 / int4 / ternary /
binary and measures test accuracy on the synthetic source task.  The
reproduced shape: int8 is free for both; ternary/binary cost the
depthwise model far more than the plain one (its per-filter weight
populations are too small to survive a 3-level alphabet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import classification_suite
from repro.nn.tensor import Tensor, no_grad
from repro.eval.classification import accuracy
from repro.experiments.common import format_table, pretrain_classifier
from repro.quant import mean_quantization_error, quantize_weights_
from repro.rebranch import TrainConfig

SCHEMES: Tuple[str, ...] = ("int8", "int4", "ternary", "binary")


@dataclass
class RelatedWorkQuantConfig:
    model_names: Tuple[str, ...] = ("vgg8", "mobilenet")
    schemes: Tuple[str, ...] = SCHEMES
    width_mult: float = 0.125
    pretrain_epochs: int = 10
    n_train: int = 512
    n_test: int = 256
    batch_size: int = 64
    seed: int = 0


def fast_config() -> RelatedWorkQuantConfig:
    return RelatedWorkQuantConfig(pretrain_epochs=6, n_train=256, n_test=160)


def full_config() -> RelatedWorkQuantConfig:
    return RelatedWorkQuantConfig(pretrain_epochs=16, n_train=1024, n_test=512)


@dataclass
class QuantPoint:
    model: str
    scheme: str
    accuracy: float
    accuracy_drop: float
    weight_error: float


@dataclass
class RelatedWorkQuantResult:
    baselines: Dict[str, float] = field(default_factory=dict)
    points: List[QuantPoint] = field(default_factory=list)

    def at(self, model: str, scheme: str) -> QuantPoint:
        for point in self.points:
            if point.model == model and point.scheme == scheme:
                return point
        raise KeyError(f"no point for ({model}, {scheme})")

    def rows(self) -> List[Tuple]:
        return [
            (p.model, p.scheme, p.accuracy, p.accuracy_drop, p.weight_error)
            for p in self.points
        ]


def _evaluate(model, x, y) -> float:
    model.eval()
    logits = []
    for start in range(0, len(x), 128):
        batch = x[start : start + 128]
        with no_grad():
            logits.append(model(Tensor(batch)).data)
    return accuracy(np.concatenate(logits), y)


def run(config: Optional[RelatedWorkQuantConfig] = None) -> RelatedWorkQuantResult:
    """Pretrain both models once; evaluate every quantization scheme."""
    config = config if config is not None else RelatedWorkQuantConfig()
    suite = classification_suite(seed=config.seed)
    src = suite.source_splits(n_train=config.n_train, n_test=config.n_test)

    result = RelatedWorkQuantResult()
    for model_name in config.model_names:
        bundle = pretrain_classifier(
            model_name,
            suite,
            width_mult=config.width_mult,
            train_config=TrainConfig(
                epochs=config.pretrain_epochs,
                lr=2e-3,
                batch_size=config.batch_size,
                seed=config.seed,
            ),
            n_train=config.n_train,
            n_test=config.n_test,
            seed=config.seed,
        )
        baseline = bundle.source_accuracy
        result.baselines[model_name] = baseline
        for scheme in config.schemes:
            model = bundle.fresh(rng_seed=config.seed)
            quantize_weights_(model, scheme)
            acc = _evaluate(model, src.x_test, src.y_test)
            result.points.append(
                QuantPoint(
                    model=model_name,
                    scheme=scheme,
                    accuracy=acc,
                    accuracy_drop=baseline - acc,
                    weight_error=mean_quantization_error(
                        bundle.fresh(rng_seed=config.seed), scheme
                    ),
                )
            )
    return result


def format_report(result: RelatedWorkQuantResult) -> str:
    return f"baselines: {result.baselines}\n" + format_table(
        result.rows(), ["model", "scheme", "accuracy", "drop", "weight_err"]
    )
