"""Fig. 6(b) — ATL transferability decay.

Paper shape: with everything frozen except the classifier, transfer
accuracy drops relative to training all layers; the decay grows as more
of the depth is frozen ("still 1/2~1/4 weights" trainable is needed).
"""

import pytest

from repro.experiments import fig6b
from repro.experiments.common import format_table


@pytest.fixture(scope="module")
def result(fast_result):
    return fast_result(fig6b)


def test_bench_fig6b_runs(benchmark):
    config = fig6b.fast_config()
    config.frozen_counts = (0, 6)
    config.pretrain_epochs = 2
    config.transfer_epochs = 2
    config.n_train = 64
    run_result = benchmark.pedantic(fig6b.run, args=(config,), rounds=1, iterations=1)
    assert run_result.points


def test_bench_fig6b_decay(benchmark, result):
    benchmark(lambda: None)
    print()
    rows = [(p.n_frozen_convs, p.accuracy, p.trainable_params) for p in result.points]
    print(format_table(rows, ["frozen_convs", "accuracy", "trainable"]))
    accs = result.accuracies()
    # Fully frozen features never beat full fine-tuning.
    assert accs[-1] <= accs[0] + 1e-9
    # Trainable parameter count decays monotonically with freezing.
    params = [p.trainable_params for p in result.points]
    assert params == sorted(params, reverse=True)


def test_bench_fig6b_source_learned(benchmark, result):
    benchmark(lambda: None)
    assert result.source_accuracy > 0.7
