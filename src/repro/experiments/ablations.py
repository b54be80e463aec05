"""Ablation studies for design choices the paper's text argues about.

Not figures from the paper, but the knobs its text argues about:

* ``adc_resolution_sweep`` — MVM fidelity vs column-ADC bits (the
  "number of ADCs and simultaneously activated rows" trade-off flagged
  for future work in section 4.3.1).
* ``bitline_noise_sweep`` — robustness of the bit-serial MVM to analog
  bit-line noise (the variation concern raised for beyond-CMOS CiM).
* ``branch_init_ablation`` — zero-initialized res-conv (ours/paper:
  start at the pretrained function) vs random init.
* ``projection_ablation`` — frozen random compress/decompress
  projections (deployable in ROM) vs making them trainable (would force
  them into SRAM, defeating the area saving).
* ``packing_ablation`` — the section 4.3.2 subarray co-location
  optimization vs one-layer-per-subarray mapping.
* ``duty_cycle_ablation`` — the non-volatility standby-power advantage
  vs deployment duty cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import models
from repro.arch.packing import compare_packings
from repro.arch.technology import duty_cycle_energy_ratio
from repro.cim import (
    AdcSpec,
    BitlineModel,
    CimTiledMatmul,
    MacroConfig,
    relative_error,
)
from repro.datasets import classification_suite
from repro.experiments.common import (
    clone_with_new_head,
    pretrain_classifier,
    transfer_and_evaluate,
)
from repro.rebranch import TrainConfig, apply_rebranch, rebranch_modules


# ----------------------------------------------------------------------
# Circuit-level ablations (fast, deterministic)
# ----------------------------------------------------------------------
def adc_resolution_sweep(
    bits_list: Sequence[int] = (3, 4, 5, 6, 7, 8),
    matrix_shape: Tuple[int, int] = (256, 32),
    n_vectors: int = 8,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Relative MVM error and energy per MAC for each ADC resolution."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=matrix_shape)
    x = rng.integers(0, 256, size=(matrix_shape[0], n_vectors))
    exact = weights.T @ x
    rows = []
    for bits in bits_list:
        config = MacroConfig(adc=AdcSpec(bits=bits))
        engine = CimTiledMatmul(weights, config, rng=np.random.default_rng(seed + 1))
        approx, stats = engine.matmul(x)
        rows.append(
            {
                "adc_bits": bits,
                "rel_error": relative_error(approx, exact),
                "energy_per_mac_fj": stats.energy_per_mac_fj,
            }
        )
    return rows


def bitline_noise_sweep(
    sigmas: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    seed: int = 0,
) -> List[Dict[str, float]]:
    """MVM error vs Gaussian bit-line noise (in ON-cell count units)."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=(128, 16))
    x = rng.integers(0, 256, size=(128, 8))
    exact = weights.T @ x
    rows = []
    for sigma in sigmas:
        config = MacroConfig(
            adc=AdcSpec(bits=8),
            bitline=BitlineModel(max_rows=128, noise_sigma_counts=sigma),
        )
        engine = CimTiledMatmul(weights, config, rng=np.random.default_rng(seed + 2))
        approx, _ = engine.matmul(x)
        rows.append(
            {
                "noise_sigma": sigma,
                "rel_error": relative_error(approx, exact),
            }
        )
    return rows


def packing_ablation(width_mult: float = 0.125) -> Dict[str, float]:
    """Naive vs first-fit 2-D subarray packing on a VGG-8 variant.

    Fragmentation — and therefore the benefit of co-locating layers —
    is largest when layer matrices are small relative to the 128x32
    subarray (early layers, scaled models, and the ReBranch compress /
    res-conv / decompress layers); at full width most tiles are full
    and the naive mapping is already near-optimal.
    """
    model = models.vgg8(width_mult=width_mult, rng=np.random.default_rng(0))
    profile = models.profile_model(model, (1, 3, 32, 32))
    return compare_packings(profile)


def duty_cycle_ablation(
    duty_cycles: Sequence[float] = (1.0, 0.1, 0.01),
    weight_bits: int = 385_000_000,
    active_energy_j: float = 1.5e-3,
    inference_rate_hz: float = 30.0,
) -> List[Dict[str, float]]:
    """ROM vs SRAM wall-clock energy as the deployment idles more."""
    rows = []
    for duty in duty_cycles:
        entry = duty_cycle_energy_ratio(
            active_energy_j, inference_rate_hz, weight_bits, duty_cycle=duty
        )
        entry["duty_cycle"] = duty
        rows.append(entry)
    return rows


# ----------------------------------------------------------------------
# Training ablations (scaled models)
# ----------------------------------------------------------------------
@dataclass
class TrainAblationConfig:
    width_mult: float = 0.125
    target: str = "medium"
    pretrain_epochs: int = 8
    transfer_epochs: int = 6
    n_train: int = 200
    n_test: int = 128
    seed: int = 0


@dataclass
class TrainAblationResult:
    source_accuracy: float = 0.0
    accuracies: Dict[str, float] = field(default_factory=dict)


def branch_init_ablation(
    config: Optional[TrainAblationConfig] = None,
) -> TrainAblationResult:
    """Zero-init res-conv (paper-faithful) vs random-init res-conv."""
    config = config if config is not None else TrainAblationConfig()
    suite = classification_suite(seed=config.seed)
    bundle = pretrain_classifier(
        "vgg8",
        suite,
        width_mult=config.width_mult,
        train_config=TrainConfig(epochs=config.pretrain_epochs, lr=2e-3, batch_size=64),
        n_train=2 * config.n_train,
        n_test=config.n_test,
        seed=config.seed,
    )
    splits = suite.target_splits(config.target, config.n_train, config.n_test)
    result = TrainAblationResult(source_accuracy=bundle.source_accuracy)
    train_cfg = TrainConfig(epochs=config.transfer_epochs, lr=2e-3, batch_size=64)

    for variant in ("zero_init", "random_init"):
        model = clone_with_new_head(bundle, splits.num_classes, seed=config.seed + 1)
        apply_rebranch(model, rng=np.random.default_rng(config.seed + 2))
        if variant == "random_init":
            rng = np.random.default_rng(config.seed + 3)
            for module in rebranch_modules(model):
                module.res_conv.weight.data = 0.1 * rng.normal(
                    size=module.res_conv.weight.shape
                )
        result.accuracies[variant] = transfer_and_evaluate(model, splits, train_cfg)
    return result


def projection_ablation(
    config: Optional[TrainAblationConfig] = None,
) -> TrainAblationResult:
    """Frozen random projections vs trainable projections.

    Trainable projections can only help accuracy but move the compress/
    decompress weights into SRAM — the result quantifies how much
    accuracy the ROM-deployable frozen choice gives up (paper: little).
    """
    config = config if config is not None else TrainAblationConfig()
    suite = classification_suite(seed=config.seed)
    bundle = pretrain_classifier(
        "vgg8",
        suite,
        width_mult=config.width_mult,
        train_config=TrainConfig(epochs=config.pretrain_epochs, lr=2e-3, batch_size=64),
        n_train=2 * config.n_train,
        n_test=config.n_test,
        seed=config.seed,
    )
    splits = suite.target_splits(config.target, config.n_train, config.n_test)
    result = TrainAblationResult(source_accuracy=bundle.source_accuracy)
    train_cfg = TrainConfig(epochs=config.transfer_epochs, lr=2e-3, batch_size=64)

    for variant in ("frozen_projections", "trainable_projections"):
        model = clone_with_new_head(bundle, splits.num_classes, seed=config.seed + 1)
        apply_rebranch(model, rng=np.random.default_rng(config.seed + 2))
        if variant == "trainable_projections":
            for module in rebranch_modules(model):
                module.compress.unfreeze()
                module.decompress.unfreeze()
        result.accuracies[variant] = transfer_and_evaluate(model, splits, train_cfg)
    return result
