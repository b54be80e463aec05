"""Bench: ROM-CiM chiplet assembly (section 4.3.3's named future work).

Sweeps the per-die area budget and compares the ROM-chiplet YOLoC
partition against the paper's SRAM-CiM chiplet baseline on the YOLO
(DarkNet-19) model: die count, total silicon, and per-inference energy.
"""

import numpy as np
import pytest

from repro import models
from repro.arch import chiplet_scaling, partition_summary
from repro.experiments.common import format_metrics, format_table


@pytest.fixture(scope="module")
def yolo_profile():
    model = models.build_model("yolo", rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 416, 416))


def test_bench_rom_chiplet_scaling(benchmark, yolo_profile):
    result = benchmark(
        chiplet_scaling, yolo_profile, (25.0, 50.0, 100.0), "yolo"
    )
    print()
    print(format_table(result.rows(), result.HEADERS))
    for point in result.points:
        # Order-of-magnitude fewer dies and silicon at every budget.
        assert point.chip_count_ratio > 5
        assert point.sram_area_cm2 > 5 * point.rom_area_cm2
        # Energy near parity: branch MACs offset the link saving.
        assert point.energy_ratio == pytest.approx(1.0, abs=0.2)


def test_bench_rom_chiplet_partition_summary(benchmark, yolo_profile):
    summary = benchmark(partition_summary, yolo_profile, 25.0)
    print()
    print(format_metrics(sorted(summary.items())))
    assert summary["chip_count_ratio"] > 5
    assert summary["area_ratio"] > 5
