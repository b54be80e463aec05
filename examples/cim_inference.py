#!/usr/bin/env python
"""Run a trained network's convolutions through the bit-serial CiM macro.

Demonstrates the *functional* half of the CiM simulation: after training
a small classifier in float, the whole model is compiled onto CiM macros
(:func:`repro.runtime.compile_model`) and re-executed — 8-bit quantized
weights in subarray tiles, bit-serial activations, bit-line charge
sharing, and the shared column ADC — and the end-to-end classification
accuracy is compared against the float model for several ADC
resolutions.

Run:  python examples/cim_inference.py

Setting ``REPRO_EXAMPLE_SMOKE=1`` shrinks the budgets to a seconds-scale
smoke run (used by ``tests/test_examples.py``).
"""

import os

import numpy as np

from repro import nn, runtime
from repro.cim import AdcSpec, MacroConfig
from repro.datasets import classification_suite
from repro.nn.tensor import Tensor
from repro.rebranch import TrainConfig, TransferTrainer


#: REPRO_EXAMPLE_SMOKE=1 shrinks every budget to a seconds-scale run.
SMOKE = bool(os.environ.get("REPRO_EXAMPLE_SMOKE"))


def build_and_train(splits):
    rng = np.random.default_rng(0)
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
    TransferTrainer(model, TrainConfig(epochs=1 if SMOKE else 15, lr=2e-3)).fit(
        splits.x_train, splits.y_train
    )
    return model


def main() -> None:
    suite = classification_suite(seed=0)
    splits = suite.source_splits(
        n_train=48 if SMOKE else 400, n_test=24 if SMOKE else 200
    )
    model = build_and_train(splits)
    model.eval()

    with nn.no_grad():
        float_logits = model(Tensor(splits.x_test)).data
    float_acc = (float_logits.argmax(1) == splits.y_test).mean()
    print(f"float32 accuracy: {float_acc:.3f}")

    x = splits.x_test
    print(f"\n{'ADC bits':>9} {'CiM accuracy':>13} {'fJ/MAC':>8} {'total uJ':>9}")
    for bits in (5,) if SMOKE else (8, 6, 5, 4, 3):
        config = MacroConfig(adc=AdcSpec(bits=bits))
        compiled = runtime.compile_model(
            model, runtime.RuntimeConfig(rom_config=config, sram_config=config)
        )
        logits, stats = compiled.run(x, rng=np.random.default_rng(1))
        acc = (logits.argmax(1) == splits.y_test).mean()
        print(
            f"{bits:>9} {acc:>13.3f} {stats.energy_per_mac_fj:>8.1f} "
            f"{stats.total_energy_fj / 1e9:>9.3f}"
        )
    print("\n(The paper's design point is the 5-bit column ADC: most of the")
    print(" float accuracy survives because partial sums rarely exercise the")
    print(" full 128-row range; below 5 bits the MVM fidelity collapses.)")


if __name__ == "__main__":
    main()
