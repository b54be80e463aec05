"""``resnet8_batch`` and ``mobilenet_small_engines``: a warm
``CompiledModel.run`` loop, each iteration interleaved with one
``reference_forward`` on the same batch.

The interleaving gives two things at once: the bitwise check of every
output and ``MacroStats`` against the reference walker, and a speed-up
ratio whose two sides saw the same machine at the same moment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro import models, runtime
from repro.runtime import RuntimeConfig

from . import layers
from .harness import Run, bitwise_equal, median, peak_rss_mb, wall


@dataclass(frozen=True)
class ConvWorkload:
    model: str
    batch: int
    hw: int = 16
    width_mult: float = 1.0


WORKLOADS = {
    "resnet8_batch": ConvWorkload("resnet8", batch=4),
    "mobilenet_small_engines": ConvWorkload("mobilenet", batch=2),
}

#: Cold and warm starts measured per end-to-end run (median reported).
SETUP_REPS = 5


def _sized(run: Run) -> ConvWorkload:
    spec = WORKLOADS[run.workload]
    if run.smoke:
        return ConvWorkload(spec.model, batch=1, hw=8, width_mult=0.25)
    return spec


def _inputs(run: Run, spec: ConvWorkload) -> np.ndarray:
    return run.rng(1).standard_normal((spec.batch, 3, spec.hw, spec.hw))


def _build(run: Run, spec: ConvWorkload):
    return models.build_model(spec.model, rng=run.rng(0), width_mult=spec.width_mult)


def _pairs(run: Run, model, compiled, x, deadline: float, min_pairs: int):
    """Interleaved (run, reference) pairs until ``deadline``; returns
    the two wall series and the last run's stats."""
    spans = run.spans
    runs, refs = [], []
    stats = None
    while len(runs) < min_pairs or time.perf_counter() < deadline:
        it = len(runs)
        with spans.span("CompiledModel.run", "runtime.compiled", it) as fast:
            out, stats = compiled.run(x)
        with spans.span("reference_forward", "runtime.reference", it) as slow:
            ref, ref_stats = runtime.reference_forward(model, x)
        run.tally.check(bitwise_equal(out, ref) and stats == ref_stats)
        runs.append(wall(fast))
        refs.append(wall(slow))
    run.series["CompiledModel.run"] = runs
    run.series["reference_forward"] = refs
    return runs, refs, stats


def end_to_end(run: Run) -> Dict[str, float]:
    spec = _sized(run)
    spans = run.spans
    x = _inputs(run, spec)
    config = RuntimeConfig(fold_bn=True)
    setups, warms = [], []
    for it in range(run.reps(SETUP_REPS)):
        with spans.span("setup", "bench", it) as setup:
            with spans.span("models.build_model", "models", it):
                model = _build(run, spec)
            with spans.span("runtime.compile_model", "runtime.compile", it):
                compiled = runtime.compile_model(model, config, cache=layers.new_cache())
            with spans.span("CompiledModel.run:first", "runtime.compiled", it):
                first = compiled.run(x)
        setups.append(wall(setup))
        _, snapshot = layers.snapshot_round_trip(
            run, compiled, lambda restored: restored.run(x), first, it
        )
        warms.append(snapshot["warm_start_s"])
    run.series["setup"] = setups
    run.series["warm_start"] = warms

    runs, refs, stats = _pairs(run, model, compiled, x, run.deadline(), run.reps(3))
    return {
        "setup_s": median(setups),
        "warm_start_ratio": median([warm / cold for cold, warm in zip(setups, warms)]),
        "artifact_bytes": snapshot["artifact_bytes"],
        "speedup_vs_reference": median([slow / fast for fast, slow in zip(runs, refs)]),
        "chip_energy_fj_per_sample": stats.total_energy_fj / spec.batch,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run) -> Dict[str, float]:
    spec = _sized(run)
    spans = run.spans
    x = _inputs(run, spec)
    with spans.span("models.build_model", "models") as build:
        model = _build(run, spec)
    compiled, metrics = layers.compile_metrics(run, model, RuntimeConfig(fold_bn=True))
    with spans.span("CompiledModel.run:first", "runtime.compiled") as first_run:
        first = compiled.run(x)

    runs, refs, stats = _pairs(run, model, compiled, x, run.deadline(0.3), run.reps(2))
    plan = layers.plan_metrics(compiled, x, runs=run.reps(2))
    metrics.update(
        {
            "models.build_s": wall(build),
            "runtime.compiled.first_run_s": wall(first_run),
            "runtime.compiled.run_wall_s": median(runs),
            "runtime.reference.forward_s": median(refs),
            "obs.trace.overhead_ratio": plan.pop("_traced_run_wall_s") / median(runs),
        }
    )
    metrics.update(plan)
    metrics.update(layers.engine_metrics(run, compiled, x.shape, run.deadline(0.35)))
    _, snapshot = layers.snapshot_round_trip(
        run, compiled, lambda restored: restored.run(x), first, verify=True
    )
    metrics.update(layers.layer_only(snapshot))
    metrics.update(layers.cim_metrics(stats, spec.batch, [compiled.report]))
    return metrics
