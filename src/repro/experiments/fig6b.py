"""Fig. 6(b) — Option II (ATL) transferability decay.

Freezing more and more of the early conv layers and retraining the rest
shows the paper's effect: the first layers transfer well, but accuracy
decays as deeper layers are frozen ("transferability decay when going
deep"), bottoming out at the classifier-only point (~4% loss in the
paper's sketch, much larger on harder migrations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import viz
from repro.datasets import classification_suite
from repro.experiments.common import (
    clone_with_new_head,
    pretrain_classifier,
    transfer_and_evaluate,
)
from repro.rebranch import TrainConfig, apply_atl


@dataclass
class Fig6bConfig:
    model: str = "vgg8"
    target: str = "medium"
    width_mult: float = 0.125
    pretrain_epochs: int = 12
    transfer_epochs: int = 10
    n_train: int = 300
    n_test: int = 300
    seed: int = 0
    #: Numbers of frozen leading conv layers to sweep (None = all counts).
    frozen_counts: Optional[tuple] = None


def fast_config() -> Fig6bConfig:
    return Fig6bConfig(
        width_mult=0.125,
        pretrain_epochs=6,
        transfer_epochs=4,
        n_train=160,
        n_test=128,
        frozen_counts=(0, 3, 6),
    )


def full_config() -> Fig6bConfig:
    return Fig6bConfig()


@dataclass
class AtlPoint:
    n_frozen_convs: int
    accuracy: float
    trainable_params: int


@dataclass
class Fig6bResult:
    source_accuracy: float = 0.0
    points: List[AtlPoint] = field(default_factory=list)

    def accuracies(self) -> List[float]:
        return [p.accuracy for p in self.points]


def run(config: Optional[Fig6bConfig] = None) -> Fig6bResult:
    config = config if config is not None else fast_config()
    suite = classification_suite(seed=config.seed)
    bundle = pretrain_classifier(
        config.model,
        suite,
        width_mult=config.width_mult,
        train_config=TrainConfig(
            epochs=config.pretrain_epochs, lr=2e-3, batch_size=64, seed=config.seed
        ),
        n_train=2 * config.n_train,
        n_test=config.n_test,
        seed=config.seed,
    )
    splits = suite.target_splits(
        config.target, n_train=config.n_train, n_test=config.n_test
    )

    probe = clone_with_new_head(bundle, splits.num_classes)
    from repro import nn  # local import to avoid cycle at module load

    n_convs = sum(1 for m in probe.modules() if isinstance(m, nn.Conv2d))
    counts = (
        config.frozen_counts
        if config.frozen_counts is not None
        else tuple(range(n_convs + 1))
    )

    result = Fig6bResult(source_accuracy=bundle.source_accuracy)
    train_cfg = TrainConfig(
        epochs=config.transfer_epochs, lr=2e-3, batch_size=64, seed=config.seed
    )
    for n_frozen in counts:
        model = clone_with_new_head(bundle, splits.num_classes, seed=config.seed + 1)
        apply_atl(model, min(n_frozen, n_convs))
        accuracy = transfer_and_evaluate(model, splits, train_cfg)
        result.points.append(
            AtlPoint(
                n_frozen_convs=int(min(n_frozen, n_convs)),
                accuracy=accuracy,
                trainable_params=sum(
                    p.size for p in model.parameters() if p.requires_grad
                ),
            )
        )
    return result


def format_report(result: Fig6bResult) -> str:
    return viz.line_plot(
        [p.n_frozen_convs for p in result.points],
        [p.accuracy for p in result.points],
        title="ATL: accuracy vs frozen conv layers",
        y_label="accuracy",
    )
