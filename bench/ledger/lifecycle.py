"""``rebranch_lifecycle``: the paper's deployment shape, start to finish.

One cycle is a fresh ``resnet8`` → ``fold_batchnorm`` →
``convert_to_rebranch(d=4, u=4)`` → ``compile_model`` on an empty cache
→ ``shard(2)`` → first micro-batch out (the cold start), then ``save``
→ ``load`` into an empty cache → first micro-batch out (the warm
start).  The restored model then streams the micro-batches with
``run_stream`` until the time is up.  It uses the engine and plan
layers the other way round from the conv workloads: programming beside
execution, snapshot write beside read, the ``ShardedModel`` stage
walker instead of the plan loop.

Every stream must produce bitwise the same outputs as the first.
Stream ``k`` is followed by one ``reference_forward`` of micro-batch
``k mod n``, which checks that output and its ``MacroStats`` against
the reference walker and pairs a reference wall with a stream wall
taken at the same moment.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List

import numpy as np

from repro import models, runtime
from repro.obs import trace
from repro.rebranch.convert import convert_to_rebranch
from repro.runtime import RuntimeConfig, stream_rng

from . import layers
from .harness import Run, bitwise_equal, median, peak_rss_mb, wall

N_SHARDS = 2
#: Full cold → save → load cycles per end-to-end run (medians reported).
CYCLES = 4


def _micro_batches(run: Run) -> List[np.ndarray]:
    n, batch, hw = (2, 1, 8) if run.smoke else (4, 2, 16)
    rng = run.rng(1)
    return [rng.standard_normal((batch, 3, hw, hw)) for _ in range(n)]


def _build(run: Run, it=None):
    """Fresh weights, BN folded, every conv but the last a ROM trunk
    with an SRAM residual branch."""
    spans = run.spans
    with spans.span("models.build_model", "models", it) as build:
        model = models.build_model(
            "resnet8", rng=run.rng(0), width_mult=0.25 if run.smoke else 1.0
        )
    with spans.span("rebranch.convert", "rebranch", it):
        runtime.fold_batchnorm(model)
        convert_to_rebranch(model, d=4, u=4, rng=run.rng(2))
    return model, wall(build)


def _first_output(run: Run, micro_batches):
    """The first micro-batch through a (restored) sharded model, with
    the generator ``run_stream`` gives micro-batch 0."""
    return lambda sharded: sharded.run(micro_batches[0], rng=stream_rng(run.seed, 0))


def _check_against_reference(run: Run, model, micro_batches, result, i: int) -> float:
    """Streamed output ``i`` and its ``MacroStats`` (the inter-chiplet
    link charges aside, which only a sharded run makes) against the
    reference walker; returns the reference wall."""
    with run.spans.span("reference_forward", "runtime.reference", i) as ref_span:
        ref, ref_stats = runtime.reference_forward(
            model, micro_batches[i], rng=stream_rng(run.seed, i)
        )
    unlinked = dataclasses.replace(
        result.per_batch[i], link_bits=0.0, link_energy_fj=0.0, link_latency_ns=0.0
    )
    run.tally.check(bitwise_equal(result.outputs[i], ref) and unlinked == ref_stats)
    return wall(ref_span)


def end_to_end(run: Run) -> Dict[str, float]:
    spans = run.spans
    micro_batches = _micro_batches(run)
    n = len(micro_batches)
    samples = sum(x.shape[0] for x in micro_batches)
    first_output = _first_output(run, micro_batches)
    colds, warms = [], []
    for it in range(run.reps(CYCLES)):
        with spans.span("cold_start", "bench", it) as cold:
            model, _ = _build(run, it)
            with spans.span("runtime.compile_model", "runtime.compile", it):
                compiled = runtime.compile_model(
                    model, RuntimeConfig(), cache=layers.new_cache()
                )
            with spans.span("runtime.shard", "runtime.sharded", it):
                sharded = runtime.shard(
                    compiled, N_SHARDS, input_shape=micro_batches[0].shape
                )
            with spans.span("ShardedModel.run:first", "runtime.sharded", it):
                first = first_output(sharded)
        restored, snapshot = layers.snapshot_round_trip(
            run, sharded, first_output, first, it
        )
        colds.append(wall(cold))
        warms.append(snapshot["warm_start_s"])

    streams, refs = [], []
    baseline = None
    deadline = run.deadline()
    while len(streams) < run.reps(n) or time.perf_counter() < deadline:
        it = len(streams)
        with spans.span("ShardedModel.run_stream", "runtime.sharded", it) as stream:
            result = restored.run_stream(micro_batches, seed=run.seed)
        if baseline is None:
            baseline = result
        run.tally.check(
            all(bitwise_equal(a, b) for a, b in zip(result.outputs, baseline.outputs))
            and result.per_batch == baseline.per_batch
        )
        refs.append(_check_against_reference(run, model, micro_batches, result, it % n))
        streams.append(wall(stream))
    for i in range(len(streams), n):  # a smoke run streams once
        _check_against_reference(run, model, micro_batches, baseline, i)
    run.series.update(
        {
            "cold_start": colds,
            "warm_start": warms,
            "ShardedModel.run_stream": streams,
            "reference_forward": refs,
        }
    )
    return {
        "setup_s": median(colds),
        "warm_start_ratio": median([warm / cold for cold, warm in zip(colds, warms)]),
        "artifact_bytes": snapshot["artifact_bytes"],
        "speedup_vs_reference": median(
            [n * ref / stream for ref, stream in zip(refs, streams)]
        ),
        "chip_energy_fj_per_sample": baseline.stats.total_energy_fj / samples,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run) -> Dict[str, float]:
    spans = run.spans
    micro_batches = _micro_batches(run)
    n = len(micro_batches)
    samples = sum(x.shape[0] for x in micro_batches)
    first_output = _first_output(run, micro_batches)

    model, build_s = _build(run)
    compiled, metrics = layers.compile_metrics(run, model, RuntimeConfig())
    with spans.span("runtime.shard", "runtime.sharded") as plan:
        sharded = runtime.shard(compiled, N_SHARDS, input_shape=micro_batches[0].shape)
    with spans.span("ShardedModel.run:first", "runtime.sharded") as first_run:
        first = first_output(sharded)
    restored, snapshot = layers.snapshot_round_trip(
        run, sharded, first_output, first, verify=True
    )

    with spans.span("ShardedModel.run_stream", "runtime.sharded") as stream:
        result = restored.run_stream(micro_batches, seed=run.seed)
    with spans.span("ShardedModel.run:serial", "runtime.sharded") as serial:
        for i, x in enumerate(micro_batches):
            out, _ = restored.run(x, rng=stream_rng(run.seed, i))
            run.tally.check(bitwise_equal(out, result.outputs[i]))
    with trace.tracing() as tracer:
        with spans.span("ShardedModel.run_stream:traced", "runtime.sharded") as traced:
            restored.run_stream(micro_batches, seed=run.seed)
    reference_s = sum(
        _check_against_reference(run, model, micro_batches, result, i) for i in range(n)
    )

    plan_nodes = layers.plan_metrics(compiled, micro_batches[0], runs=1)
    plan_nodes.pop("_traced_run_wall_s")
    metrics.update(plan_nodes)
    metrics.update(layers.layer_only(snapshot))
    metrics.update(
        layers.engine_metrics(run, compiled, micro_batches[0].shape, run.deadline(0.2))
    )
    metrics.update(layers.cim_metrics(result.stats, samples, [compiled.report]))
    metrics.update(
        {
            "models.build_s": build_s,
            "runtime.compiled.first_run_s": wall(first_run),
            "runtime.compiled.run_wall_s": wall(serial) / n,
            "runtime.reference.forward_s": reference_s / n,
            "runtime.sharded.plan_s": wall(plan),
            "runtime.sharded.stream_wall_s": wall(stream),
            "runtime.sharded.serial_wall_s": wall(serial),
            "runtime.sharded.host_pipeline_speedup": wall(serial) / wall(stream),
            "runtime.sharded.chip_pipeline_speedup": result.pipeline_speedup,
            "runtime.sharded.plan_balance": sharded.plan.balance,
            "runtime.sharded.link_energy_fj": result.link_energy_fj / samples,
            "obs.trace.overhead_ratio": wall(traced) / wall(stream),
            "obs.trace.spans": len(tracer),
            "obs.trace.dropped": tracer.dropped,
        }
    )
    return metrics
