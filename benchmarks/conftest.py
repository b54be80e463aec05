"""Benchmark-suite configuration.

Each ``test_bench_*`` module regenerates one table or figure of the
paper (the index is in ``src/repro/experiments/__init__.py``).  The
pytest-benchmark fixture
times the regeneration; the assertions check the reproduced *shape*
(orderings and factor magnitudes), and the printed reports show the
actual rows — run with ``pytest benchmarks/ --benchmark-only -s`` to see
them.
"""

import dataclasses

import pytest

from repro.cim import mvm
from repro.runtime import engine, reference_forward


@pytest.fixture
def quantize_counts(monkeypatch):
    """``quantize_counts()`` starts counting quantisations on both
    execution paths and returns the live tallies, ``{"compiled": {...},
    "seed": {...}}``, each split by operand: a spec per output channel
    (axis 0) is a weight tensor; anything else — batch-global, or one
    scale per group along axis 1 in a conv layer pass — an activation
    batch.

    The compile-once bars rest on these counts: after its first run a
    compiled model quantises activations only, while the seed path
    re-quantises every layer's weights on every call.
    """

    def start():
        tallies = {}
        for path, module in (("compiled", engine), ("seed", mvm)):
            tallies[path] = counts = {"weights": 0, "activations": 0}

            def quantize(x, spec, signed=None, counts=counts, real=module.quantize):
                operand = "weights" if spec.per_channel_axis == 0 else "activations"
                counts[operand] += 1
                return real(x, spec, signed=signed)

            monkeypatch.setattr(module, "quantize", quantize)
        return tallies

    return start


@pytest.fixture
def steady_state_counts(quantize_counts):
    """``steady_state_counts(compiled, model, compiled_calls, seed_calls)``
    is the :func:`quantize_counts` tally of running ``compiled_calls``
    through a compiled model *that has already run once* and
    ``seed_calls`` through the seed path — having checked that the
    compiled calls never reached the programming path (the engine
    cache's counters, programmed / hits / misses, do not move)."""

    def measure(compiled, model, compiled_calls, seed_calls):
        stats = compiled.cache.stats
        before = dataclasses.replace(stats)
        assert before.programmed == compiled.n_weight_layers
        tallies = quantize_counts()
        for x in compiled_calls:
            compiled.run(x)
        for x in seed_calls:
            reference_forward(model, x)
        assert stats == before, "a request reached the programming path"
        return tallies

    return measure
