#!/usr/bin/env python
"""Design-space exploration: branch compression and macro circuits.

Part 1 sweeps the ReBranch compression/decompression ratios (Fig. 11)
on the synthetic transfer suite and prints the accuracy/area frontier.

Part 2 explores the ROM-CiM macro itself: Table I from the circuit
model, then the accuracy impact of the column ADC resolution on real
matrix-vector products (the "number of ADCs vs activated rows" trade-off
the paper flags for future work).

Run:  python examples/design_space.py

Setting ``REPRO_EXAMPLE_SMOKE=1`` shrinks the budgets to a seconds-scale
smoke run (used by ``tests/test_examples.py``).
"""

import os

import numpy as np

from repro.cim import AdcSpec, CimTiledMatmul, MacroConfig
from repro.experiments import fig11, table1
from repro.experiments.common import format_table

SMOKE = bool(os.environ.get("REPRO_EXAMPLE_SMOKE"))


def branch_sweep() -> None:
    print("=== Part 1: ReBranch D/U sweep (Fig. 11) ===")
    config = fig11.fast_config()
    if SMOKE:
        config.pretrain_epochs = 1
        config.transfer_epochs = 1
        config.n_train = 48
        config.n_test = 32
        config.ratio_sweep = ((4, 4),)
        config.split_sweep = ((4, 4),)
    result = fig11.run(config)
    print(fig11.format_report(result))
    best_d, best_u = result.best_split("vgg8")
    print(f"best split at D*U=16: D={best_d}, U={best_u} (paper: D=U=4)")


def macro_design_space() -> None:
    print("\n=== Part 2: ROM-CiM macro model (Table I) ===")
    print(table1.format_report(table1.run()))

    print("\nADC resolution vs MVM fidelity (128-row subarrays):")
    rng = np.random.default_rng(0)
    size = (128, 8) if SMOKE else (256, 32)
    weights = rng.integers(-128, 128, size=size)
    x = rng.integers(0, 256, size=(size[0], 4 if SMOKE else 16))
    exact = weights.T @ x
    rows = []
    for bits in (5,) if SMOKE else (4, 5, 6, 7, 8):
        config = MacroConfig(adc=AdcSpec(bits=bits))
        engine = CimTiledMatmul(weights, config, rng=np.random.default_rng(1))
        approx, stats = engine.matmul(x)
        rel = float(np.abs(approx - exact).mean() / np.abs(exact).mean())
        rows.append((bits, rel, stats.energy_per_mac_fj, stats.latency_ns))
    print(
        format_table(rows, ["adc_bits", "mean_rel_err", "fJ_per_mac", "latency_ns"])
    )
    print("(5 bits is the paper's design point; error falls to zero once")
    print(" the ADC resolves every activated row.)")


if __name__ == "__main__":
    branch_sweep()
    macro_design_space()
