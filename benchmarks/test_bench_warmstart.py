"""Warm-start benchmark: an artifact load programs nothing.

The contract of the persistent artifact store: restoring a
serving-scale compiled classifier from a snapshot skips everything
programming does (quantize + bit planes + tile placement + kernel
fusion), with outputs bitwise identical to the freshly compiled model —
checked by the same ``experiments/warmstart_study`` run that times both,
so the numbers the report prints and the identity check come from the
same artifacts.  The wall-clock ratio is a report row and a ledger row
(``bench/``), not an assertion.
"""

import numpy as np
import pytest

from repro.experiments import warmstart_study
from repro.runtime import (
    ArtifactStore,
    EngineCache,
    RuntimeConfig,
    compile_model,
    load,
    save,
)


@pytest.fixture(scope="module")
def result():
    return warmstart_study.run(warmstart_study.full_config())


def test_bench_warmstart_runs(benchmark):
    config = warmstart_study.fast_config()
    run_result = benchmark.pedantic(
        warmstart_study.run, args=(config,), rounds=1, iterations=1
    )
    assert run_result.results


def test_bench_warmstart_report(result):
    print()
    print(warmstart_study.format_report(result))


def test_bench_warmstart_bitwise_identical(result):
    # The same study run that produced the timings verified the loaded
    # models' outputs bit for bit against the freshly compiled ones.
    for entry in result.results:
        assert entry.bitwise_identical, f"{entry.model} outputs diverged"


def test_bench_warmstart_speedup(result, tmp_path, quantize_counts):
    """Serving-scale warm start: load programs nothing.

    The ">= 5x faster than cold compile" bar compared two host wall
    times (the table stays in ``test_bench_warmstart_report``; the
    ledger's ``rebranch_lifecycle`` tracks load against compile).  What
    buys the ratio is counted here: restoring the study's classifier
    quantises no weight, programs no engine, and leaves every slot
    holding the engine the artifact stored.
    """
    entry = result.result("mlp")
    assert entry.bitwise_identical
    config = warmstart_study.full_config()
    model = warmstart_study._mlp(
        config.mlp_widths, np.random.default_rng(config.seed)
    )
    cold = EngineCache()
    compiled = compile_model(model, RuntimeConfig(), cache=cold)
    assert cold.stats.programmed == compiled.n_weight_layers == entry.n_weight_layers
    store = ArtifactStore(tmp_path)
    key = save(compiled, store)

    tallies = quantize_counts()
    warm = EngineCache()
    loaded = load(store, key, cache=warm)
    assert tallies["compiled"] == {"weights": 0, "activations": 0}
    assert warm.stats.programmed == 0
    assert [slot.cache_tier() for slot in loaded._slots] == (
        ["snapshot"] * entry.n_weight_layers
    )
