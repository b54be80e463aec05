"""Fig. 11 — ReBranch hyper-parameter analysis.

(a) Accuracy and normalized area versus the overall branch compression
    ratio D*U in {4, 16, 64} (paper: 16x is the sweet spot — smaller
    ratios pay SRAM area, larger ratios lose accuracy).
(b) Accuracy versus the D-U split at constant D*U = 16:
    (1,16), (2,8), (4,4), (8,2), (16,1) — the paper peaks at D=U=4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets import classification_suite
from repro.experiments.common import (
    Claim,
    check_claims,
    clone_with_new_head,
    format_claims,
    format_table,
    pretrain_classifier,
    transfer_and_evaluate,
)
from repro.rebranch import TrainConfig, apply_rebranch, method_footprint

RATIO_SWEEP: Tuple[Tuple[int, int], ...] = ((2, 2), (4, 4), (8, 8))
SPLIT_SWEEP: Tuple[Tuple[int, int], ...] = ((1, 16), (2, 8), (4, 4), (8, 2), (16, 1))


@dataclass
class Fig11Config:
    models: tuple = ("vgg8", "resnet18")
    target: str = "medium"
    width_mult: float = 0.125
    pretrain_epochs: int = 12
    transfer_epochs: int = 10
    n_train: int = 300
    n_test: int = 300
    seed: int = 0
    ratio_sweep: Tuple[Tuple[int, int], ...] = RATIO_SWEEP
    split_sweep: Tuple[Tuple[int, int], ...] = SPLIT_SWEEP


def fast_config() -> Fig11Config:
    return Fig11Config(
        models=("vgg8",),
        width_mult=0.125,
        pretrain_epochs=8,
        transfer_epochs=6,
        n_train=200,
        n_test=128,
        ratio_sweep=((2, 2), (4, 4)),
        split_sweep=((2, 8), (4, 4), (8, 2)),
    )


def full_config() -> Fig11Config:
    return Fig11Config()


@dataclass
class SweepPoint:
    model: str
    d: int
    u: int
    accuracy: float
    rom_area_mm2: float
    sram_area_mm2: float
    normalized_area: float
    trainable_params: int

    @property
    def du(self) -> int:
        return self.d * self.u


@dataclass
class Fig11Result:
    ratio_points: List[SweepPoint] = field(default_factory=list)
    split_points: List[SweepPoint] = field(default_factory=list)

    def best_split(self, model: str) -> Tuple[int, int]:
        points = [p for p in self.split_points if p.model == model]
        best = max(points, key=lambda p: p.accuracy)
        return best.d, best.u


def _one_point(
    bundle, splits, d: int, u: int, baseline_area: float, train_cfg, seed: int
) -> SweepPoint:
    model = clone_with_new_head(bundle, splits.num_classes, seed=seed)
    apply_rebranch(model, d=d, u=u, rng=np.random.default_rng(seed + 1))
    accuracy = transfer_and_evaluate(model, splits, train_cfg)
    footprint = method_footprint(model)
    return SweepPoint(
        model=bundle.model_name,
        d=d,
        u=u,
        accuracy=accuracy,
        rom_area_mm2=footprint.rom_area_mm2,
        sram_area_mm2=footprint.sram_area_mm2,
        normalized_area=footprint.total_area_mm2 / baseline_area,
        trainable_params=sum(p.size for p in model.parameters() if p.requires_grad),
    )


def run(config: Optional[Fig11Config] = None) -> Fig11Result:
    config = config if config is not None else fast_config()
    suite = classification_suite(seed=config.seed)
    result = Fig11Result()
    train_cfg = TrainConfig(
        epochs=config.transfer_epochs, lr=2e-3, batch_size=64, seed=config.seed
    )
    for model_name in config.models:
        bundle = pretrain_classifier(
            model_name,
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
        # All-SRAM baseline area: the fully trainable model.
        baseline = clone_with_new_head(bundle, splits.num_classes)
        baseline_area = method_footprint(baseline.unfreeze()).total_area_mm2

        for d, u in config.ratio_sweep:
            result.ratio_points.append(
                _one_point(bundle, splits, d, u, baseline_area, train_cfg, config.seed)
            )
        for d, u in config.split_sweep:
            result.split_points.append(
                _one_point(bundle, splits, d, u, baseline_area, train_cfg, config.seed)
            )
    return result


def _by_model(points: List[SweepPoint]) -> Dict[str, List[SweepPoint]]:
    grouped: Dict[str, List[SweepPoint]] = {}
    for point in points:
        grouped.setdefault(point.model, []).append(point)
    return grouped


def _along_du(attr: str):
    """Per model, ``attr`` of the ratio sweep in increasing D*U order."""
    return lambda result: {
        model: [getattr(p, attr) for p in sorted(points, key=lambda p: p.du)]
        for model, points in _by_model(result.ratio_points).items()
    }


def _falling(series: Dict[str, list]) -> bool:
    return bool(series) and all(
        len(values) > 1 and all(a > b for a, b in zip(values, values[1:]))
        for values in series.values()
    )


def _balanced_vs_best(result: Fig11Result) -> Dict[str, tuple]:
    """Per model: the D=U=4 split's accuracy (None if not run), the best's."""
    measured = {}
    for model, points in _by_model(result.split_points).items():
        accuracies = {(p.d, p.u): p.accuracy for p in points}
        measured[model] = (accuracies.get((4, 4)), max(accuracies.values()))
    return measured


CLAIMS = (
    Claim(
        "area_shrinks_with_compression",
        "normalized area falls as D*U grows",
        _along_du("normalized_area"),
        _falling,
    ),
    Claim(
        "trainable_params_shrink_with_compression",
        "trainable weights fall as D*U grows",
        _along_du("trainable_params"),
        _falling,
    ),
    Claim(
        "balanced_split_competitive",
        "D=U=4 is the best split at D*U = 16 (D4-U4 / best, within 0.15)",
        _balanced_vs_best,
        lambda m: bool(m)
        and all(a is not None and a >= best - 0.15 for a, best in m.values()),
    ),
    Claim(
        "all_points_above_chance",
        "every sweep point well above 8-class chance (> 0.18)",
        lambda r: min(p.accuracy for p in r.ratio_points + r.split_points),
        lambda worst: worst > 0.18,
    ),
)


def claims(result):
    return check_claims(CLAIMS, result)


def format_report(result: Fig11Result) -> str:
    rows = [
        ("ratio", f"D{p.d}xU{p.u}", p.accuracy, p.normalized_area)
        for p in result.ratio_points
    ] + [
        ("split", f"D{p.d}-U{p.u}", p.accuracy, p.normalized_area)
        for p in result.split_points
    ]
    table = format_table(rows, ["sweep", "point", "accuracy", "norm_area"])
    return table + format_claims(claims(result))
