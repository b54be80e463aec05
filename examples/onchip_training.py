#!/usr/bin/env python
"""On-chip training cost: full model vs ReBranch-only (section 3.3).

The paper notes that YOLoC "provides a chance to greatly reduce the
on-chip training overhead" because only the SRAM-resident branch
weights ever update.  This example:

1. costs one SGD step for the four benchmark models under full-model
   and ReBranch-only training (compute, array writes, optimizer state,
   DRAM spill);
2. shows the ping-pong scheduling result for the models whose *inference*
   weights must stream from DRAM — latency relieved, energy untouched
   (section 4.3.3).

Run:  python examples/onchip_training.py
"""

import numpy as np

from repro import models
from repro.arch import TrainingCostModel
from repro.experiments import pipeline_study
from repro.experiments.common import format_table
from repro.experiments.fig14 import BENCHMARKS


def training_costs() -> None:
    print("=== One SGD step: full-model vs ReBranch-only (section 3.3) ===")
    cost_model = TrainingCostModel()
    rng = np.random.default_rng(0)
    rows = []
    for name, shape in BENCHMARKS:
        profile = models.profile_model(models.build_model(name, rng=rng), shape)
        summary = cost_model.summary(profile)
        rows.append(
            (
                name,
                summary["full_step_uj"],
                summary["rebranch_step_uj"],
                summary["energy_saving"],
                summary["trainable_reduction"],
                summary["full_dram_uj"],
            )
        )
    print(
        format_table(
            rows,
            [
                "model",
                "full_uJ/step",
                "rebranch_uJ/step",
                "saving",
                "trainableX",
                "full_dram_uJ",
            ],
        )
    )


def pingpong() -> None:
    print("\n=== Ping-pong weight reload for inference (section 4.3.3) ===")
    result = pipeline_study.run(pipeline_study.full_config())
    print(pipeline_study.format_report(result))
    print(
        "DRAM energy is identical under both schedules — the overlap\n"
        '"relieve[s] the latency issue, but little could be done to the\n'
        'energy overhead" (section 4.3.3).'
    )


def main() -> None:
    training_costs()
    pingpong()


if __name__ == "__main__":
    main()
