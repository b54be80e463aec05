"""Fig. 6 — head-to-head study of the four flexibility options.

Runs Options I-IV of section 3.2 on the same transfer problem:

* **Option I (ROSL)** — frozen ROM feature extractor + TCAM prototype
  classifier, enrolled from k support shots per class.
* **Option II (ATL)** — freeze a prefix of conv layers, retrain the rest.
* **Option III (SPWD)** — 2-bit trainable SRAM decoration in parallel
  with the frozen 8-bit ROM convs.
* **Option IV (ReBranch)** — the proposed residual branch.

The paper's argument, reproduced here as orderings: ROSL is competitive
only at tiny support sets; ATL's savings are capped by transferability
decay; SPWD's area saving is capped at the bit-ratio (4x); ReBranch
reaches ~10x+ area saving at baseline-level accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import nn
from repro.datasets import classification_suite
from repro.experiments.common import (
    PretrainedBundle,
    clone_with_new_head,
    format_table,
    pretrain_classifier,
    transfer_and_evaluate,
)
from repro.rebranch import (
    RoslClassifier,
    TrainConfig,
    apply_atl,
    apply_rebranch,
    convert_to_spwd,
    method_footprint,
)


@dataclass
class OptionsConfig:
    width_mult: float = 0.125
    target: str = "medium"
    pretrain_epochs: int = 8
    transfer_epochs: int = 6
    n_train: int = 200
    n_test: int = 128
    rosl_shots: int = 5
    atl_frozen_convs: int = 3
    spwd_bits: int = 2
    seed: int = 0


def fast_config() -> OptionsConfig:
    return OptionsConfig(pretrain_epochs=6, transfer_epochs=4, n_train=128, n_test=96)


def full_config() -> OptionsConfig:
    return OptionsConfig(pretrain_epochs=12, transfer_epochs=10, n_train=300, n_test=300)


@dataclass
class OptionRow:
    option: str
    accuracy: float
    sram_bits: int
    rom_bits: int
    normalized_area: float


@dataclass
class OptionsResult:
    source_accuracy: float = 0.0
    rows: List[OptionRow] = field(default_factory=list)

    def by_option(self) -> Dict[str, OptionRow]:
        return {row.option: row for row in self.rows}


def _rosl_row(
    bundle: PretrainedBundle, splits, shots: int, seed: int
) -> OptionRow:
    model = bundle.fresh(rng_seed=seed)
    extractor = nn.Sequential(
        model.feature_extractor(), nn.GlobalAvgPool2d(), nn.Flatten()
    )
    with nn.no_grad():
        probe = extractor(nn.Tensor(splits.x_train[:1]))
    feature_dim = probe.shape[1]
    rosl = RoslClassifier(extractor, feature_dim, splits.num_classes)

    rng = np.random.default_rng(seed)
    support_idx: List[int] = []
    for class_id in range(splits.num_classes):
        candidates = np.nonzero(splits.y_train == class_id)[0]
        take = min(shots, len(candidates))
        support_idx.extend(rng.choice(candidates, size=take, replace=False))
    rosl.fit(splits.x_train[support_idx], splits.y_train[support_idx])
    accuracy = rosl.accuracy(splits.x_test, splits.y_test)

    rom_bits = sum(p.size for p in extractor.parameters()) * 8
    return OptionRow(
        option="rosl",
        accuracy=accuracy,
        sram_bits=rosl.tcam.tcam_bits,
        rom_bits=rom_bits,
        normalized_area=0.0,  # filled by caller
    )


def run(config: Optional[OptionsConfig] = None) -> OptionsResult:
    config = config if config is not None else fast_config()
    suite = classification_suite(seed=config.seed)
    bundle = pretrain_classifier(
        "vgg8",
        suite,
        width_mult=config.width_mult,
        train_config=TrainConfig(
            epochs=config.pretrain_epochs, lr=2e-3, batch_size=64, seed=config.seed
        ),
        n_train=2 * config.n_train,
        n_test=config.n_test,
        seed=config.seed,
    )
    splits = suite.target_splits(config.target, config.n_train, config.n_test)
    train_cfg = TrainConfig(
        epochs=config.transfer_epochs, lr=2e-3, batch_size=64, seed=config.seed
    )
    result = OptionsResult(source_accuracy=bundle.source_accuracy)

    # Baseline: all-SRAM fully trainable (area normalizer).
    baseline = clone_with_new_head(bundle, splits.num_classes, seed=config.seed + 1)
    baseline_acc = transfer_and_evaluate(baseline.unfreeze(), splits, train_cfg)
    baseline_fp = method_footprint(baseline)
    result.rows.append(
        OptionRow(
            "all_sram", baseline_acc, baseline_fp.sram_bits, baseline_fp.rom_bits, 1.0
        )
    )

    # Option I: ROSL (no gradient training; prototype enrolment only).
    rosl_row = _rosl_row(bundle, splits, config.rosl_shots, config.seed + 2)
    rosl_area = (
        rosl_row.rom_bits / 1e6 / baseline_fp.rom_spec.density_mb_mm2
        + rosl_row.sram_bits / 1e6 / baseline_fp.sram_spec.density_mb_mm2
    )
    rosl_row.normalized_area = rosl_area / baseline_fp.total_area_mm2
    result.rows.append(rosl_row)

    # Option II: ATL.
    model = clone_with_new_head(bundle, splits.num_classes, seed=config.seed + 1)
    apply_atl(model, config.atl_frozen_convs)
    acc = transfer_and_evaluate(model, splits, train_cfg)
    fp = method_footprint(model)
    result.rows.append(
        OptionRow("atl", acc, fp.sram_bits, fp.rom_bits, fp.normalized_to(baseline_fp))
    )

    # Option III: SPWD (2-bit parallel decoration, QAT through STE).
    model = clone_with_new_head(bundle, splits.num_classes, seed=config.seed + 1)
    convert_to_spwd(model, bits=config.spwd_bits, rng=np.random.default_rng(config.seed))
    acc = transfer_and_evaluate(model, splits, train_cfg)
    fp = method_footprint(model)
    result.rows.append(
        OptionRow("spwd", acc, fp.sram_bits, fp.rom_bits, fp.normalized_to(baseline_fp))
    )

    # Option IV: ReBranch (proposed).
    model = clone_with_new_head(bundle, splits.num_classes, seed=config.seed + 1)
    apply_rebranch(model, rng=np.random.default_rng(config.seed + 3))
    acc = transfer_and_evaluate(model, splits, train_cfg)
    fp = method_footprint(model)
    result.rows.append(
        OptionRow(
            "rebranch", acc, fp.sram_bits, fp.rom_bits, fp.normalized_to(baseline_fp)
        )
    )
    return result


def format_report(result: OptionsResult) -> str:
    rows = [
        (r.option, r.accuracy, r.normalized_area, r.sram_bits, r.rom_bits)
        for r in result.rows
    ]
    return format_table(
        rows, ["option", "accuracy", "norm_area", "sram_bits", "rom_bits"]
    )
