"""Fig. 10 — ReBranch generalization analysis.

(a) Test accuracy of All-SRAM / All-ROM / ReBranch when transferring a
    source-pretrained model to each target task.
(b) Accuracy *and normalized memory area* of All-SRAM / All-ROM /
    DeepConv / ReBranch (area normalized to the All-SRAM baseline).

Paper reference points (VGG-8, CIFAR-100 source):
accuracy C100->CIFAR10 = 90.9 (AllSRAM) / 87.3 (AllROM) / 90.2
(ReBranch); ReBranch total area ~= 0.11-0.29x of All-SRAM; orderings
AllSRAM ~= ReBranch > DeepConv-area >> AllROM-accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.datasets import classification_suite
from repro.experiments.common import (
    Claim,
    PretrainedBundle,
    check_claims,
    clone_with_new_head,
    format_claims,
    format_table,
    pretrain_classifier,
    transfer_and_evaluate,
)
from repro.rebranch import (
    METHOD_APPLIERS,
    TrainConfig,
    apply_rebranch,
    method_footprint,
)

METHODS = ("all_sram", "all_rom", "deep_conv", "rebranch")


@dataclass
class Fig10Config:
    """Budget knobs for the Fig. 10 runner."""

    models: tuple = ("vgg8", "resnet18")
    targets: tuple = ("near", "simple", "medium", "far")
    methods: tuple = METHODS
    width_mult: float = 0.125
    d: int = 4
    u: int = 4
    pretrain_epochs: int = 12
    transfer_epochs: int = 10
    n_train: int = 300
    n_test: int = 300
    seed: int = 0


def fast_config() -> Fig10Config:
    """Seconds-scale configuration for tests/benchmarks."""
    return Fig10Config(
        models=("vgg8",),
        targets=("near",),
        methods=("all_sram", "all_rom", "rebranch"),
        width_mult=0.125,
        pretrain_epochs=8,
        transfer_epochs=8,
        n_train=240,
        n_test=128,
    )


def full_config() -> Fig10Config:
    """The paper-scale configuration (scripts/run_full_experiments.py)."""
    return Fig10Config()


@dataclass
class MethodResult:
    model: str
    target: str
    method: str
    accuracy: float
    trainable_params: int
    rom_bits: int
    sram_bits: int
    area_mm2: float
    normalized_area: float


@dataclass
class Fig10Result:
    source_accuracy: Dict[str, float] = field(default_factory=dict)
    rows: List[MethodResult] = field(default_factory=list)

    def accuracy_table(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """model -> target -> method -> accuracy (Fig. 10a)."""
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for row in self.rows:
            table.setdefault(row.model, {}).setdefault(row.target, {})[
                row.method
            ] = row.accuracy
        return table

    def area_table(self) -> Dict[str, Dict[str, float]]:
        """model -> method -> normalized area (Fig. 10b)."""
        table: Dict[str, Dict[str, float]] = {}
        for row in self.rows:
            table.setdefault(row.model, {})[row.method] = row.normalized_area
        return table


def _prepare(method: str, model, config: Fig10Config, seed: int):
    if method == "rebranch":
        return apply_rebranch(
            model, d=config.d, u=config.u, rng=np.random.default_rng(seed)
        )
    return METHOD_APPLIERS[method](model)


def run(config: Optional[Fig10Config] = None) -> Fig10Result:
    """Execute the Fig. 10 protocol and return all rows."""
    config = config if config is not None else fast_config()
    suite = classification_suite(seed=config.seed)
    result = Fig10Result()
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
        result.source_accuracy[model_name] = bundle.source_accuracy

        baselines: Dict[str, float] = {}
        for target in config.targets:
            splits = suite.target_splits(
                target, n_train=config.n_train, n_test=config.n_test
            )
            for method in config.methods:
                model = clone_with_new_head(
                    bundle, splits.num_classes, seed=config.seed + 1
                )
                model = _prepare(method, model, config, seed=config.seed + 2)
                accuracy = transfer_and_evaluate(model, splits, train_cfg)
                footprint = method_footprint(model)
                if method == "all_sram":
                    baselines.setdefault(target, footprint.total_area_mm2)
                base_area = baselines.get(target, footprint.total_area_mm2)
                result.rows.append(
                    MethodResult(
                        model=model_name,
                        target=target,
                        method=method,
                        accuracy=accuracy,
                        trainable_params=sum(
                            p.size for p in model.parameters() if p.requires_grad
                        ),
                        rom_bits=footprint.rom_bits,
                        sram_bits=footprint.sram_bits,
                        area_mm2=footprint.total_area_mm2,
                        normalized_area=footprint.total_area_mm2 / base_area,
                    )
                )
    return result


def _reference_accuracies(result: Fig10Result) -> Dict[str, float]:
    """Method -> accuracy at the paper's reference point: VGG-8 moved to
    the near target (CIFAR-100 -> CIFAR-10)."""
    return result.accuracy_table()["vgg8"]["near"]


CLAIMS = (
    Claim(
        "source_model_learned",
        "the source-pretrained VGG-8 learned its task (> 0.7)",
        lambda r: r.source_accuracy["vgg8"],
        lambda accuracy: accuracy > 0.7,
    ),
    Claim(
        "rebranch_beats_all_rom",
        "VGG-8 C100->C10: ReBranch 90.2 % > All-ROM 87.3 %",
        _reference_accuracies,
        lambda t: t["rebranch"] > t["all_rom"],
    ),
    Claim(
        "rebranch_closes_half_the_gap",
        "ReBranch ~= All-SRAM 90.9 %: >= half the All-ROM gap closed",
        _reference_accuracies,
        lambda t: t["rebranch"] >= t["all_rom"] + 0.5 * (t["all_sram"] - t["all_rom"]),
    ),
    Claim(
        "rebranch_area_saving",
        "ReBranch area 0.11-0.29x of All-SRAM (< 0.35x)",
        lambda r: r.area_table()["vgg8"],
        lambda areas: areas["rebranch"] < 0.35 * areas["all_sram"],
    ),
    Claim(
        "all_rom_smallest_area",
        "All-ROM has the smallest area, below ReBranch",
        lambda r: r.area_table()["vgg8"],
        lambda areas: areas["all_rom"] == min(areas.values())
        and areas["all_rom"] < areas["rebranch"],
    ),
)


def claims(result):
    return check_claims(CLAIMS, result)


def format_report(result: Fig10Result) -> str:
    rows = [
        (r.model, r.target, r.method, r.accuracy, r.normalized_area)
        for r in result.rows
    ]
    table = format_table(rows, ["model", "target", "method", "accuracy", "norm_area"])
    return table + format_claims(claims(result))
