"""Model-zoo serving benchmark: resnet8 through the graph-plan runtime.

The contract for opening the zoo: serving requests against a compiled
`resnet8` — a residual network the runtime could not execute at all
before the DAG plan IR — programs every layer once where the seed
per-call reference path re-quantizes weights and rebuilds every
subarray tile on each request, with bitwise-identical outputs.  The
wall-clock ratios that buys are printed by the report test and tracked
by the ledger (``bench/``, workload ``resnet8_batch``); the tests assert
what they rest on, countably.

Two regimes, mirroring the contract shape of ``test_bench_runtime.py``:

* **serving (coalesced)** — the headline: N single-sample requests
  executed the way ``repro.serve`` executes them, as one coalesced
  ``CompiledModel.run`` batch, against N per-call reference forwards
  (the seed deployment's only option).  This composes the compile-once
  and dynamic-batching wins on the newly-unlocked zoo; the bitwise
  contract is numerics.md clause 4 — the executed batch equals
  ``reference_forward`` over the coalesced inputs, bit for bit.
* **serving (per-call)** — amortization only: the same N requests, one
  ``CompiledModel.run`` per request on both sides.  Programming
  amortizes away but every call still streams all weight bits through
  the macros.
"""

import time

import numpy as np
import pytest

from repro import models
from repro.runtime import (
    EngineCache,
    RuntimeConfig,
    compile_model,
    reference_forward,
)

N_REQUESTS = 16
HW = 4
REPEATS = 2


def _min_time(fn, repeats=REPEATS):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0, value


class ZooServingResult:
    def __init__(self):
        model = models.build_model("resnet8", rng=np.random.default_rng(0))
        model.eval()
        self.compile_ms, self.compiled = _min_time(
            lambda: compile_model(
                model, RuntimeConfig(fold_bn=True), cache=EngineCache()
            ),
            repeats=1,
        )
        self.model = model  # fold_bn mutated it in place during compile
        self.requests = np.random.default_rng(1).normal(
            size=(N_REQUESTS, 3, HW, HW)
        )
        self.measure()

    def measure(self):
        compiled, model, requests = self.compiled, self.model, self.requests
        calls = [requests[i : i + 1] for i in range(N_REQUESTS)]
        # Warm both paths (page cache, einsum dispatch caches).
        compiled.run(requests)
        compiled.run(calls[0])
        reference_forward(model, calls[0])

        self.per_call_ms, per_call_outs = _min_time(
            lambda: [compiled.run(x)[0] for x in calls]
        )
        self.coalesced_ms, coalesced_out = _min_time(
            lambda: compiled.run(requests)[0]
        )
        self.reference_ms, reference_outs = _min_time(
            lambda: [reference_forward(model, x)[0] for x in calls]
        )
        self.per_call_bitwise = all(
            np.array_equal(a, b) for a, b in zip(per_call_outs, reference_outs)
        )
        # Numerics.md clause 4: the executed (coalesced) batch equals the
        # oracle over the coalesced inputs.
        coalesced_reference, _ = reference_forward(model, requests)
        self.coalesced_bitwise = bool(
            np.array_equal(coalesced_out, coalesced_reference)
        )

    @property
    def coalesced_speedup(self):
        return self.reference_ms / self.coalesced_ms if self.coalesced_ms else 0.0

    @property
    def per_call_speedup(self):
        return self.reference_ms / self.per_call_ms if self.per_call_ms else 0.0


@pytest.fixture(scope="module")
def result():
    return ZooServingResult()


def test_bench_zoo_report(result):
    print()
    print(
        f"resnet8 ({result.compiled.n_weight_layers} weight layers, "
        f"compile {result.compile_ms:.0f} ms), {N_REQUESTS} requests:"
    )
    print(
        f"  reference per-call   {result.reference_ms:8.1f} ms"
    )
    print(
        f"  compiled per-call    {result.per_call_ms:8.1f} ms "
        f"({result.per_call_speedup:.2f}x, bitwise={result.per_call_bitwise})"
    )
    print(
        f"  compiled coalesced   {result.coalesced_ms:8.1f} ms "
        f"({result.coalesced_speedup:.2f}x, bitwise={result.coalesced_bitwise})"
    )


def test_bench_zoo_bitwise_identical(result):
    assert result.per_call_bitwise, "per-call outputs diverged from reference"
    assert result.coalesced_bitwise, (
        "coalesced batch diverged from the oracle over the coalesced inputs"
    )


def test_bench_zoo_serving_speedup(result, steady_state_counts):
    """Coalesced zoo serving composes compile-once and batching.

    The ">= 5x over the seed per-call path" bar compared host wall
    times (printed by ``test_bench_zoo_report``).  Counted instead: the
    N requests run as one batch program nothing, quantise no weight and
    execute every layer once, where the seed path quantises every
    layer's weights and activations once per request.
    """
    assert result.coalesced_bitwise
    per_call = [result.requests[i : i + 1] for i in range(N_REQUESTS)]
    tallies = steady_state_counts(
        result.compiled, result.model, [result.requests], per_call
    )
    n_layers = result.compiled.n_weight_layers
    assert tallies["compiled"] == {"weights": 0, "activations": n_layers}
    per_request = N_REQUESTS * n_layers
    assert tallies["seed"] == {"weights": per_request, "activations": per_request}


def test_bench_zoo_per_call_amortization(result, steady_state_counts):
    """Per-call compiled serving: programming amortizes away — one
    ``run`` per request still programs nothing and quantises no weight."""
    assert result.per_call_bitwise
    per_call = [result.requests[i : i + 1] for i in range(N_REQUESTS)]
    tallies = steady_state_counts(result.compiled, result.model, per_call, [])
    per_request = N_REQUESTS * result.compiled.n_weight_layers
    assert tallies["compiled"] == {"weights": 0, "activations": per_request}


def test_bench_zoo_grouped_layers_execute_once(monkeypatch):
    """A depthwise layer is one pass, not one trip per group.

    mobilenet programs 1385 engines — 1376 of them the per-group engines
    of its seven depthwise layers — and a warm run used to make one
    im2col and one kernel call for each.  Counted: one im2col per conv
    layer (15 ``F.sliding_windows`` views of its code map), one stacked
    pass per depthwise layer (7), and no
    per-group engine's own kernel entered; the eight plain convolutions
    and the classifier still make one call each.  The wall-clock this
    buys is the ledger's ``mobilenet_small_engines`` workload.
    """
    from repro.nn import functional as F
    from repro.runtime.backends import TiledBitSerialKernel

    model = models.build_model("mobilenet", rng=np.random.default_rng(0))
    model.eval()
    compiled = compile_model(model, RuntimeConfig(fold_bn=True), cache=EngineCache(4096))
    x = np.random.default_rng(1).normal(size=(2, 3, 8, 8))
    expected, expected_stats = reference_forward(model, x)
    compiled.run(x)  # warm: every grouped layer's stack is built

    engines = compiled.programmed_engines()
    # The stacks were built from the groups' codes: no per-group engine
    # built a kernel of its own (the reads below build them).
    assert not any(
        engine.linear._fast_kernel
        for layer_id, engine in engines.items()
        if "::g" in layer_id
    )
    grouped = {
        id(engine.linear._kernel)
        for layer_id, engine in engines.items()
        if "::g" in layer_id
    }
    assert (len(engines), len(grouped)) == (1385, 1376)

    calls = {"im2col": 0, "kernel": 0, "stack": 0, "grouped_kernel": 0}
    real_windows, real_matmul = F.sliding_windows, TiledBitSerialKernel.matmul

    def windows(*args, **kwargs):
        calls["im2col"] += 1
        return real_windows(*args, **kwargs)

    def matmul(kernel, codes):
        if id(kernel) in grouped:
            calls["grouped_kernel"] += 1
        else:  # a lone engine's kernel is a one-group pass
            calls["stack" if len(kernel._ranges) > 1 else "kernel"] += 1
        return real_matmul(kernel, codes)

    monkeypatch.setattr(F, "sliding_windows", windows)
    monkeypatch.setattr(TiledBitSerialKernel, "matmul", matmul)
    out, stats = compiled.run(x)
    assert calls == {"im2col": 15, "kernel": 9, "stack": 7, "grouped_kernel": 0}
    assert out.tobytes() == expected.tobytes() and stats == expected_stats
