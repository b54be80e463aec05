"""Compile-once runtime speedup benchmark.

The acceptance bar for the deployment runtime: serving 32 single-sample
requests through a compiled classifier must be at least 5x faster than
the seed per-call path (which re-quantizes weights and rebuilds every
subarray tile on each request), with bitwise-identical outputs at the
fixed seed.  The streaming regime (one 32-sample batch per call)
measures the optimized execution kernels alone, since programming cost
amortizes over the batch either way.
"""

import pytest

from repro.experiments import runtime_study


@pytest.fixture(scope="module")
def result():
    return runtime_study.run(runtime_study.full_config())


def test_bench_runtime_runs(benchmark):
    config = runtime_study.fast_config()
    run_result = benchmark.pedantic(
        runtime_study.run, args=(config,), rounds=1, iterations=1
    )
    assert run_result.regimes


def test_bench_runtime_report(benchmark, result):
    benchmark(lambda: None)
    print()
    print(runtime_study.format_report(result))


def test_bench_runtime_bitwise_identical(benchmark, result):
    benchmark(lambda: None)
    for regime in result.regimes:
        assert regime.bitwise_identical, f"{regime.regime} outputs diverged"


def test_bench_runtime_programs_each_layer_once(benchmark, result):
    benchmark(lambda: None)
    # Three weight layers -> three programmed engines, regardless of how
    # many batches were executed afterwards.
    assert result.engines_programmed == 3
    assert result.cache_misses == result.engines_programmed


def test_bench_runtime_serving_speedup(benchmark, result):
    """32-sample repeated inference: >= 5x over the seed per-call path."""
    benchmark(lambda: None)
    serving = result.regime("serving")
    assert serving.n_samples == 32
    assert serving.bitwise_identical
    if serving.speedup < 5.0:
        # Wall-clock ratios are load-sensitive on shared runners; give a
        # transient spike one re-measure before calling it a regression.
        serving = runtime_study.run(runtime_study.full_config()).regime("serving")
    assert serving.speedup >= 5.0, (
        f"compiled serving speedup {serving.speedup:.2f}x below the 5x bar "
        f"({serving.compiled_ms:.0f} ms vs {serving.reference_ms:.0f} ms)"
    )


def test_bench_runtime_streaming_no_slower(benchmark, result):
    """Batched streaming still beats the seed path (kernels only)."""
    benchmark(lambda: None)
    streaming = result.regime("streaming")
    assert streaming.bitwise_identical
    if streaming.speedup < 1.2:
        # Same transient-load allowance as the serving check.
        streaming = runtime_study.run(runtime_study.full_config()).regime(
            "streaming"
        )
    assert streaming.speedup >= 1.2
