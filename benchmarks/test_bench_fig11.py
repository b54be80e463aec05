"""Fig. 11 — ReBranch compression-ratio design space.

Paper shape: (a) area shrinks as D*U grows while accuracy degrades at
large ratios (16x is the sweet spot); (b) balanced D=U=4 is at least as
good as the strongly asymmetric splits.
"""

import pytest

from repro.experiments import fig11
from repro.experiments.common import format_table


@pytest.fixture(scope="module")
def result(fast_result):
    return fast_result(fig11)


def test_bench_fig11_runs(benchmark):
    config = fig11.fast_config()
    config.ratio_sweep = ((4, 4),)
    config.split_sweep = ()
    config.pretrain_epochs = 2
    config.transfer_epochs = 2
    config.n_train = 64
    run_result = benchmark.pedantic(fig11.run, args=(config,), rounds=1, iterations=1)
    assert run_result.ratio_points


def test_bench_fig11a_area_vs_ratio(benchmark, result):
    benchmark(lambda: None)
    print()
    rows = [
        (f"D{p.d}xU{p.u}", p.du, p.accuracy, p.normalized_area, p.trainable_params)
        for p in result.ratio_points
    ]
    print(format_table(rows, ["point", "D*U", "accuracy", "norm_area", "trainable"]))
    by_du = {p.du: p for p in result.ratio_points}
    assert by_du[16].normalized_area < by_du[4].normalized_area
    assert by_du[16].trainable_params < by_du[4].trainable_params


def test_bench_fig11b_split_sweep(benchmark, result):
    benchmark(lambda: None)
    print()
    rows = [(f"D{p.d}-U{p.u}", p.accuracy) for p in result.split_points]
    print(format_table(rows, ["split", "accuracy"]))
    accs = {(p.d, p.u): p.accuracy for p in result.split_points}
    # Balanced split is competitive: within noise of the best split.
    assert accs[(4, 4)] >= max(accs.values()) - 0.15
    for p in result.split_points:
        assert p.accuracy > 0.18  # well above 8-class chance


def test_bench_fig11_all_points_above_chance(benchmark, result):
    benchmark(lambda: None)
    for p in result.ratio_points:
        assert p.accuracy > 0.18
