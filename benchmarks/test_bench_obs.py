"""Observability overhead benchmark.

The acceptance bar for the tracing subsystem: with tracing *disabled*
(the default), ``CompiledModel.run`` pays one tracer-guard read per run
and a shared no-op span context per node — asserted by counting, while
the wall-clock ratio against the pre-instrumentation execution path (a
closure that builds the run state and walks the plan in its own literal
bare loop, with no tracer argument and no guard at all, so the source
tree's walk cannot drift with it) is printed by the report test, not
asserted.  And tracing must never touch arithmetic: runs with the
tracer installed are bitwise identical to untraced runs and to
``runtime.reference_forward``.
"""

import time
from typing import List

import numpy as np
import pytest

from repro import nn
from repro.experiments.common import format_table
from repro.obs import trace
from repro.runtime import EngineCache, compile_model, reference_forward
from repro.runtime.compiled import INPUT, _RunState

IN_FEATURES = 128
BATCH = 8
SEED = 0
CALLS = 200
REPEATS = 7


def build_model():
    rng = np.random.default_rng(SEED)
    return nn.Sequential(
        nn.Linear(IN_FEATURES, 64, rng=rng),
        nn.ReLU(),
        nn.Linear(64, 10, rng=rng),
    )


def build_batch():
    return np.random.default_rng(SEED + 1).normal(size=(BATCH, IN_FEATURES))


def _baseline_runner(compiled):
    """The pre-instrumentation hot path: no tracer guard, no branch."""
    nodes = compiled._nodes
    consumers = compiled._consumers
    output = len(nodes) - 1
    encoding = compiled.config.encoding
    rng = compiled._rng

    def run(x):
        state = _RunState(rng=rng, encoding=encoding)
        values = {INPUT: np.asarray(x, dtype=np.float64)}
        remaining = dict(consumers)
        for i, node in enumerate(nodes):
            args = tuple(values[j] for j in node.inputs)
            values[i] = node.op.apply(*args, state)
            for j in node.inputs:
                remaining[j] -= 1
                if remaining[j] == 0:
                    del values[j]
        return values[output], state.stats

    return run


def _time_leg(fn, x) -> float:
    start = time.perf_counter()
    for _ in range(CALLS):
        fn(x)
    return time.perf_counter() - start


def measure_overhead() -> tuple:
    compiled = compile_model(build_model(), cache=EngineCache())
    x = build_batch()
    baseline = _baseline_runner(compiled)
    # Warm both paths (einsum caching, page cache).
    for _ in range(8):
        baseline(x)
        compiled.run(x)
    assert trace.current() is None, "tracing must be off for this benchmark"
    # Interleave the legs so slow drift on a shared runner (thermal,
    # co-running jobs) hits both paths alike; best-of then discards the
    # transient spikes.
    baseline_s = guarded_s = float("inf")
    for _ in range(REPEATS):
        baseline_s = min(baseline_s, _time_leg(baseline, x))
        guarded_s = min(guarded_s, _time_leg(compiled.run, x))
    return baseline_s, guarded_s


@pytest.fixture(scope="module")
def overhead():
    return measure_overhead()


def test_bench_obs_report(benchmark, overhead):
    benchmark(lambda: None)
    baseline_s, guarded_s = overhead
    rows: List[tuple] = [
        ("pre-instrumentation loop", round(baseline_s * 1e3, 2), 1.0),
        (
            "run() with tracer guard",
            round(guarded_s * 1e3, 2),
            round(guarded_s / baseline_s, 4),
        ),
    ]
    print()
    print(format_table(rows, ["path", f"ms / {CALLS} calls", "ratio"]))


def test_bench_obs_disabled_overhead_under_3pct(benchmark, monkeypatch):
    """Tracing off: a run pays one guard read and no-op spans only.

    The "< 3% of a bare loop" bar compares two host wall times a loaded
    runner cannot resolve; the table stays in ``test_bench_obs_report``.
    Asserted here is why the guard is that cheap: ``trace.current()`` is
    resolved once per run, every span context entered is the shared
    ``NULL_SPAN``, and no tracer span is ever built.
    """
    benchmark(lambda: None)
    compiled = compile_model(build_model(), cache=EngineCache())
    x = build_batch()
    expected, expected_stats = compiled.run(x)
    calls = {"current": 0, "null": 0}
    real_current = trace.current

    class CountingNullSpan:
        def __enter__(self):
            calls["null"] += 1

        def __exit__(self, *exc_info):
            return False

    def current():
        calls["current"] += 1
        return real_current()

    def no_span(self, *args, **kwargs):
        raise AssertionError("a tracer span was built with tracing disabled")

    monkeypatch.setattr(trace, "current", current)
    monkeypatch.setattr(trace, "NULL_SPAN", CountingNullSpan())
    monkeypatch.setattr(trace.Tracer, "span", no_span)
    out, stats = compiled.run(x)
    assert calls == {"current": 1, "null": 1 + len(compiled._nodes)}
    assert out.tobytes() == expected.tobytes() and stats == expected_stats


def test_bench_obs_tracing_never_touches_arithmetic(benchmark):
    """Traced, untraced, and reference outputs are bitwise identical."""
    benchmark(lambda: None)
    model = build_model()
    compiled = compile_model(model, cache=EngineCache())
    x = build_batch()
    expected, _ = reference_forward(model, x)
    untraced, _ = compiled.run(x, rng=np.random.default_rng(SEED + 2))
    with trace.tracing() as tracer:
        traced, _ = compiled.run(x, rng=np.random.default_rng(SEED + 2))
    assert len(tracer) > 0, "tracing was enabled but recorded nothing"
    assert np.array_equal(untraced, traced)
    assert np.array_equal(untraced, expected)
