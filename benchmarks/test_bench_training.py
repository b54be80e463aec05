"""Bench: on-chip training overhead, full vs ReBranch (section 3.3).

The paper claims YOLoC "greatly reduce[s] the on-chip training
overhead" because only the SRAM-resident branch weights train.  The
table reports per-SGD-step energy and trainable-weight reduction for
the four benchmark models.
"""

import numpy as np
import pytest

from repro import models
from repro.arch import TrainingCostModel
from repro.experiments.common import format_table
from repro.experiments.fig14 import BENCHMARKS


def _summaries():
    cost_model = TrainingCostModel()
    rng = np.random.default_rng(0)
    rows = []
    for name, shape in BENCHMARKS:
        profile = models.profile_model(models.build_model(name, rng=rng), shape)
        summary = cost_model.summary(profile)
        summary["model"] = name
        rows.append(summary)
    return rows


def test_bench_onchip_training(benchmark):
    rows = benchmark.pedantic(_summaries, rounds=1, iterations=1)
    print()
    print(
        format_table(
            [
                (
                    r["model"],
                    r["full_step_uj"],
                    r["rebranch_step_uj"],
                    r["energy_saving"],
                    r["trainable_reduction"],
                    r["full_dram_uj"],
                )
                for r in rows
            ],
            ["model", "full_uJ", "rebranch_uJ", "saving", "train_reduc", "full_dram_uJ"],
        )
    )
    by_model = {r["model"]: r for r in rows}
    # Every model trains cheaper under ReBranch...
    for row in rows:
        assert row["energy_saving"] > 1.0
    # ...and the big models, whose full training spills to DRAM, win most.
    assert by_model["yolo"]["energy_saving"] > by_model["vgg8"]["energy_saving"]
    assert by_model["yolo"]["rebranch_dram_uj"] == pytest.approx(0.0)
