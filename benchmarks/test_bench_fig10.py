"""Fig. 10 — ReBranch generalization: accuracy and memory area.

Paper shape: ReBranch ~= All-SRAM accuracy on every migration target
(within ~0.5%at full budget), All-ROM clearly worse, and ReBranch's
memory area ~0.1-0.3x of the All-SRAM baseline (~10x saving).
"""

import pytest

from repro.experiments import fig10
from repro.experiments.common import format_table


@pytest.fixture(scope="module")
def result(fast_result):
    return fast_result(fig10)


def test_bench_fig10_runs(benchmark):
    # Time one tiny end-to-end round (pretrain + one transfer method).
    config = fig10.fast_config()
    config.methods = ("all_rom",)
    config.pretrain_epochs = 2
    config.transfer_epochs = 2
    config.n_train = 64
    run_result = benchmark.pedantic(fig10.run, args=(config,), rounds=1, iterations=1)
    assert run_result.rows


def test_bench_fig10a_accuracy_ordering(benchmark, result):
    benchmark(lambda: None)
    print()
    rows = [
        (r.method, r.accuracy, r.normalized_area, r.trainable_params)
        for r in result.rows
    ]
    print(format_table(rows, ["method", "accuracy", "norm_area", "trainable"]))
    table = result.accuracy_table()["vgg8"]["near"]
    assert table["rebranch"] > table["all_rom"]
    gap = table["all_sram"] - table["all_rom"]
    assert table["rebranch"] >= table["all_rom"] + 0.5 * gap


def test_bench_fig10b_area_saving(benchmark, result):
    benchmark(lambda: None)
    areas = result.area_table()["vgg8"]
    # Paper: ReBranch saves ~10x memory area vs all-SRAM-CiM.
    assert areas["rebranch"] < 0.35 * areas["all_sram"]
    assert areas["all_rom"] < areas["rebranch"]


def test_bench_fig10_source_model_learned(benchmark, result):
    benchmark(lambda: None)
    assert result.source_accuracy["vgg8"] > 0.7
