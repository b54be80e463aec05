"""Fig. 12 — detection mAP and chip area across deployment methods.

Paper shape: chip area YOLoC ~9.7x smaller than all-SRAM YOLO and ~2.4x
smaller than all-SRAM Tiny-YOLO; mAP YOLoC ~= all-trainable SRAM-CiM
(-0.5%..+0.2%), DeepConv below, Tiny-YOLO well below.
"""

import pytest

from repro.experiments import fig12
from repro.experiments.common import format_table


@pytest.fixture(scope="module")
def result(fast_result):
    return fast_result(fig12)


def test_bench_fig12_runs(benchmark):
    config = fig12.fast_config()
    config.n_train = 32
    config.n_test = 24
    config.pretrain_epochs = 2
    config.transfer_epochs = 2
    run_result = benchmark.pedantic(fig12.run, args=(config,), rounds=1, iterations=1)
    assert run_result.rows


def test_bench_fig12_chip_area(benchmark, result):
    benchmark(lambda: None)
    print()
    rows = [
        (a.method, a.rom_cim_cm2, a.sram_cim_cm2, a.total_cm2) for a in result.areas
    ]
    print(format_table(rows, ["method", "rom_cm2", "sram_cm2", "total_cm2"]))
    areas = result.area_by_method()
    assert areas["sram_cim"] / areas["yoloc"] > 5      # paper: 9.7x
    assert areas["tiny_yolo"] / areas["yoloc"] > 1.5   # paper: 2.4x
    assert areas["yoloc"] == min(areas.values())


def test_bench_fig12_map_orderings(benchmark, result):
    benchmark(lambda: None)
    print()
    rows = [
        (r.method, r.target, r.map50, r.trainable_params) for r in result.rows
    ]
    print(format_table(rows, ["method", "target", "mAP@0.5", "trainable"]))
    table = result.map_table()["voc"]
    # The smaller backbone trails the transferred big-backbone methods.
    assert table["yoloc"] >= table["tiny_yolo"]
    # ReBranch stays within reach of the fully-trainable baseline.
    assert table["yoloc"] >= table["sram_cim"] - 0.25


def test_bench_fig12_source_detector_learned(benchmark, result):
    benchmark(lambda: None)
    assert result.source_map["yolo"] > 0.05
