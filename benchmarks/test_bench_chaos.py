"""Chaos runtime acceptance benchmarks.

Two bars from the chaos issue:

* **Zero-fault overhead** — streaming through the chaos executor with
  an *inert* controller (a schedule of zero-magnitude faults) adds no
  work to the uninstrumented ``run_stream`` — no extra plan walks, no
  extra random draws, every query answered "no fault" — and the
  delivered outputs and stats are bitwise identical.  The wall-clock
  ratio (the original "< 3%" bar) is printed by the report test, not
  asserted: two legs of identical kernels differ only by runner noise.
* **Recovery availability** — a 64-micro-batch campaign with a single
  shard death (a few in-flight micro-batches abandoned with the dead
  chiplet's buffers) must still deliver >= 90% of the requested
  micro-batches, and every micro-batch admitted *after* the recovery —
  the post-failover suffix — must be bitwise identical to the clean
  oracle.
"""

import time
from typing import List

import numpy as np
import pytest

from repro import nn
from repro.chaos import (
    ADC_DRIFT,
    BITLINE_NOISE,
    ChaosController,
    FaultEvent,
    FaultSchedule,
    LINK_DEGRADE,
    SHARD_DEATH,
)
from repro.cim import BitlineModel, MacroConfig
from repro.experiments.common import format_table
from repro.runtime import (
    CompiledModel,
    EngineCache,
    RuntimeConfig,
    compile_model,
    shard,
    stream_rng,
)

HW = 8
N_SHARDS = 2
SEED = 0
REPEATS = 7
CAMPAIGN_BATCHES = 64
CAMPAIGN_DROP = 4
AVAILABILITY_BAR = 0.90


def build_model():
    rng = np.random.default_rng(SEED)
    return nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(6, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(8 * (HW // 2) ** 2, 4, rng=rng),
    )


def build_batches(n, batch=2):
    return [
        np.random.default_rng([SEED + 1, i]).normal(size=(batch, 3, HW, HW))
        for i in range(n)
    ]


def inert_controller():
    """Every fault kind represented, every event a strict no-op."""
    return ChaosController(
        FaultSchedule(
            seed=SEED,
            events=(
                FaultEvent(kind=BITLINE_NOISE, at_index=0, magnitude=0.0),
                FaultEvent(
                    kind=ADC_DRIFT, at_index=1, magnitude=0.0, gain_slope=0.0
                ),
                FaultEvent(
                    kind=LINK_DEGRADE,
                    shard=0,
                    at_index=2,
                    latency_factor=1.0,
                    energy_factor=1.0,
                ),
            ),
        )
    )


def _time_leg(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_overhead(n_batches=24) -> tuple:
    compiled = compile_model(build_model(), cache=EngineCache())
    sharded = shard(compiled, N_SHARDS, input_shape=(1, 3, HW, HW))
    batches = build_batches(n_batches)

    def clean():
        return sharded.run_stream(batches, seed=SEED)

    def chaotic():
        return sharded.run_stream(batches, seed=SEED, chaos=inert_controller())

    # Warm both paths, and pin the bitwise witness on the warmup runs.
    clean_result = clean()
    chaos_result = chaotic()
    assert len(chaos_result.outputs) == len(clean_result.outputs)
    for got, want in zip(chaos_result.outputs, clean_result.outputs):
        assert np.array_equal(got, want), (
            "inert chaos stream must be bitwise identical to run_stream"
        )
    # Interleave the legs so slow drift on a shared runner hits both
    # alike; best-of then discards the transient spikes.
    clean_s = chaos_s = float("inf")
    for _ in range(REPEATS):
        clean_s = min(clean_s, _time_leg(clean))
        chaos_s = min(chaos_s, _time_leg(chaotic))
    return clean_s, chaos_s


@pytest.fixture(scope="module")
def overhead():
    return measure_overhead()


def test_bench_chaos_report(overhead):
    clean_s, chaos_s = overhead
    rows: List[tuple] = [
        ("run_stream (clean)", round(clean_s * 1e3, 2), 1.0),
        (
            "run_stream (inert chaos)",
            round(chaos_s * 1e3, 2),
            round(chaos_s / clean_s, 4),
        ),
    ]
    print()
    print(format_table(rows, ["path", "ms / stream", "ratio"]))


def test_bench_chaos_zero_fault_overhead_under_3pct(monkeypatch):
    """No faults firing: chaos instrumentation adds no work.

    The bar this test guards — an inert controller costs < 3% of a
    stream — compares two legs running identical kernels, which a
    loaded runner cannot resolve; the wall-clock table stays in
    ``test_bench_chaos_report``.  Asserted here, deterministically, is
    what makes the overhead nil: the inert controller answers "no
    fault" everywhere, and the instrumented stream walks the plan the
    same number of times, draws the same random numbers and returns the
    same outputs and stats as the clean one.
    """
    controller = inert_controller()
    assert controller.is_inert
    for index in range(8):
        for shard_index in (None, 0, 1):
            chip_ns = 1e6 * index
            assert controller.degradation_at(index, chip_ns, shard_index) is None
            assert controller.check_shard_death(shard_index, index, chip_ns) is None
        assert controller.link_factors(0, index, 1e6 * index) == (1.0, 1.0)

    # A noisy bit line, so every walk really draws from its generator.
    noisy = MacroConfig(bitline=BitlineModel(noise_sigma_counts=0.5))
    compiled = compile_model(
        build_model(),
        RuntimeConfig(rom_config=noisy, sram_config=noisy),
        cache=EngineCache(),
    )
    sharded = shard(compiled, N_SHARDS, input_shape=(1, 3, HW, HW))
    batches = build_batches(6)
    walks = []
    real_walk = CompiledModel._walk

    def counting_walk(self, lo, hi, x, state, tracer=None):
        walks.append((lo, hi))
        return real_walk(self, lo, hi, x, state, tracer)

    monkeypatch.setattr(CompiledModel, "_walk", counting_walk)

    def leg(chaos):
        del walks[:]
        rngs = [stream_rng(SEED, i) for i in range(len(batches))]
        result = sharded.run_stream(batches, rngs=rngs, chaos=chaos)
        return result, sorted(walks), [rng.bit_generator.state for rng in rngs]

    clean, clean_walks, clean_rngs = leg(None)
    chaotic, chaos_walks, chaos_rngs = leg(controller)
    assert chaos_walks == clean_walks and len(clean_walks) == N_SHARDS * len(batches)
    assert chaos_rngs == clean_rngs
    assert clean_rngs[0] != stream_rng(SEED, 0).bit_generator.state  # drew
    assert chaotic.stats == clean.stats
    assert chaotic.per_batch == clean.per_batch
    for got, want in zip(chaotic.outputs, clean.outputs):
        assert got.tobytes() == want.tobytes()


def test_bench_chaos_recovery_availability():
    """64 micro-batches, one shard death, drop=4: availability >= 90%
    and the post-recovery suffix is bitwise identical to the oracle."""
    compiled = compile_model(build_model(), cache=EngineCache())
    sharded = shard(compiled, N_SHARDS, input_shape=(1, 3, HW, HW))
    batches = build_batches(CAMPAIGN_BATCHES, batch=1)
    oracle = [
        compiled.run(b, rng=stream_rng(SEED, i))[0]
        for i, b in enumerate(batches)
    ]
    schedule = FaultSchedule(
        seed=SEED,
        events=(
            FaultEvent(
                kind=SHARD_DEATH,
                shard=1,
                at_index=20,
                drop=CAMPAIGN_DROP,
                label="bench-campaign",
            ),
        ),
    )
    controller = ChaosController(schedule, input_shape=(1, 3, HW, HW))
    result = sharded.run_stream(batches, seed=SEED, chaos=controller)
    assert result.n_requested == CAMPAIGN_BATCHES
    assert result.availability >= AVAILABILITY_BAR, (
        f"availability {result.availability:.3f} under a single shard "
        f"death fell below {AVAILABILITY_BAR:.0%}"
    )
    assert len(result.recoveries) == 1
    recovery = result.recoveries[0]
    assert len(recovery.dropped) == CAMPAIGN_DROP
    # The post-recovery suffix — everything not in flight at the fault —
    # keeps bitwise identity (replays do too; assert the lot).
    suffix = [
        i for i in result.delivered_indexes if i not in set(recovery.displaced)
    ]
    assert suffix, "campaign must exercise micro-batches beyond the fault"
    for i, out in result.outputs_by_index.items():
        assert np.array_equal(out, oracle[i]), (
            f"delivered micro-batch {i} diverged from the clean oracle"
        )
