"""Per-layer probes, shared by every workload.

Each probe calls one layer's public functions on its own, under harness
spans, and returns that layer's metrics by their declared names.  The
engine replays run on seeded inputs of the shapes the workload really
feeds each engine, once per *round*; a metric is the median round, so
it is comparable with one ``run`` of the workload's batch.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import runtime
from repro.obs import profiler
from repro.quant.quantizer import QuantSpec, quantize
from repro.runtime import ArtifactStore, EngineCache, get_backend
from repro.runtime.engine import ProgrammedConv, conv_patches

from .harness import Run, bitwise_equal, median, wall

BACKENDS = ("reference-fast", "popcount")

#: Engine-cache capacity of every deployment the harness builds: large
#: enough to hold mobilenet's 1385 per-group engines, so a "cached"
#: second compile really is all hits.
CACHE_CAPACITY = 4096

#: Most rounds of engine replays in one traced pass.
MAX_ENGINE_ROUNDS = 5


def new_cache(store: Optional[ArtifactStore] = None) -> EngineCache:
    return EngineCache(capacity=CACHE_CAPACITY, store=store)


def compile_metrics(run: Run, model, config) -> Tuple[Any, Dict[str, float]]:
    """Compile cold, again on the warm cache, then through the disk tier.

    ``model`` is compiled four times: on an empty cache (the set-up
    path: every engine programmed), on the same cache (all hits), on a
    store-backed cache (programs and writes engines back) and on a
    fresh store-backed cache (every engine restored from disk).
    """
    spans = run.spans
    cache = new_cache()
    with spans.span("runtime.compile_model", "runtime.compile") as cold:
        compiled = runtime.compile_model(model, config, cache=cache)
    with spans.span("runtime.compile_model:cached", "runtime.compile") as warm:
        runtime.compile_model(model, config, cache=cache)
    store = ArtifactStore(run.scratch("engine-tier"))
    with spans.span("runtime.compile_model:disk-write", "runtime.cache"):
        runtime.compile_model(model, config, cache=new_cache(store))
    disk_cache = new_cache(store)
    with spans.span("runtime.compile_model:disk-read", "runtime.cache"):
        runtime.compile_model(model, config, cache=disk_cache)
    return compiled, {
        "runtime.compile.wall_s": wall(cold),
        "runtime.compile.cached_wall_s": wall(warm),
        "runtime.compile.engines_programmed": cache.stats.programmed,
        "runtime.cache.hits": cache.stats.hits,
        "runtime.cache.misses": cache.stats.misses,
        "runtime.cache.disk_hits": disk_cache.stats.disk_hits,
    }


def plan_metrics(compiled, batch: np.ndarray, runs: int) -> Dict[str, float]:
    """Plan-node attribution from the program's own profiler: wall per
    node kind, the plan walk's self time and wall per MAC.  The key
    ``_traced_run_wall_s`` is the traced wall of one run, for the
    caller's overhead ratio."""
    report = profiler.profile(compiled, batch, runs=runs)
    by_kind = {kind: 0.0 for kind in ("conv", "grouped_conv", "linear", "func", "add")}
    for node in report.nodes:
        by_kind[node.kind] = by_kind.get(node.kind, 0.0) + node.wall_s / runs
    ns_per_mac = [
        node.wall_s * 1e9 / node.macs
        for node in report.nodes
        if node.macs and node.kind in ("conv", "grouped_conv", "linear")
    ]
    out = {f"runtime.compiled.node_wall_s.{kind}": s for kind, s in by_kind.items()}
    out.update(
        {
            "_traced_run_wall_s": report.wall_s / runs,
            "runtime.compiled.plan_self_s": (
                report.wall_s - sum(node.wall_s for node in report.nodes)
            )
            / runs,
            "runtime.compiled.wall_ns_per_mac": report.wall_s * 1e9 / report.stats.macs,
            "runtime.compiled.stem_wall_ns_per_mac": ns_per_mac[0],
            "runtime.compiled.node_ns_per_mac_spread": max(ns_per_mac) / min(ns_per_mac),
            "obs.trace.spans": len(report.tracer) / runs,
            "obs.trace.dropped": report.tracer.dropped,
        }
    )
    return out


def _engine_inputs(compiled, input_shape: Sequence[int], rng) -> List[Tuple[Any, np.ndarray]]:
    """``(engine, input)`` per programmed engine: the shape its
    ``LayerProfile`` records (one group's channel slice for a grouped
    conv), non-negative where the engine was programmed unsigned."""
    profiles = {layer.name: layer for layer in compiled.profile(tuple(input_shape)).layers}
    pairs = []
    for layer_id, engine in compiled.programmed_engines().items():
        shape = profiles[layer_id.split("::")[0]].in_shape
        if isinstance(engine, ProgrammedConv):
            shape = (shape[0], engine.in_channels) + tuple(shape[2:])
            signed = engine.linear.signed_inputs
        else:
            signed = engine.signed_inputs
        x = rng.standard_normal(shape)
        pairs.append((engine, x if signed else np.abs(x)))
    return pairs


def _codes(engine, x: np.ndarray) -> np.ndarray:
    """The quantized activation codes ``engine.execute(x)`` feeds its kernel."""
    if isinstance(engine, ProgrammedConv):
        x, _ = conv_patches(x, engine.weight_shape, engine.stride, engine.padding)
        engine = engine.linear
    spec = QuantSpec(bits=engine.activation_bits, signed=engine.signed_inputs)
    return quantize(x, spec)[0]


def engine_metrics(
    run: Run, compiled, input_shape: Sequence[int], deadline: float
) -> Dict[str, float]:
    """Replay every programmed engine and, separately, the pieces of its
    ``execute``: im2col, activation quantization and the kernel
    ``matmul`` through each available backend."""
    spans = run.spans
    pairs = _engine_inputs(compiled, input_shape, run.rng(7))
    kernels: List[Dict[str, Any]] = []
    for engine, _ in pairs:
        linear = engine.linear if isinstance(engine, ProgrammedConv) else engine
        kernels.append(
            {
                name: get_backend(name)(linear.engine)
                for name in BACKENDS
                if get_backend(name).supported(linear.run_config)
            }
        )
    if not run.smoke:
        # A fresh kernel's first call decides its fusion; keep that out
        # of the rounds, as the workload's own warm-up run does.
        for (engine, x), by_backend in zip(pairs, kernels):
            codes = _codes(engine, x)
            for kernel in by_backend.values():
                kernel.matmul(codes.T)

    rounds: Dict[str, List[float]] = {
        key: [] for key in ("execute", "im2col", "quantize") + BACKENDS
    }
    macs = bytes_moved = 0
    it = 0
    while it < 1 or (it < MAX_ENGINE_ROUNDS and time.perf_counter() < deadline):
        total = {key: 0.0 for key in rounds}
        macs = bytes_moved = 0
        for (engine, x), by_backend in zip(pairs, kernels):
            with spans.span("engine.execute", "runtime.engine", it) as s:
                engine.execute(x)
            total["execute"] += wall(s)
            if isinstance(engine, ProgrammedConv):
                linear = engine.linear
                with spans.span("engine.conv_patches", "runtime.engine", it) as s:
                    codes_in, _ = conv_patches(
                        x, engine.weight_shape, engine.stride, engine.padding
                    )
                total["im2col"] += wall(s)
            else:
                linear, codes_in = engine, x
            spec = QuantSpec(bits=linear.activation_bits, signed=linear.signed_inputs)
            with spans.span("quantizer.quantize", "quant", it) as s:
                codes, _ = quantize(codes_in, spec)
            total["quantize"] += wall(s)
            outputs = []
            for name, kernel in by_backend.items():
                with spans.span(f"{name}.matmul", "runtime.backends", it) as s:
                    y, _ = kernel.matmul(codes.T)
                total[name] += wall(s)
                outputs.append(y)
            run.tally.check(all(bitwise_equal(outputs[0], y) for y in outputs[1:]))
            macs += linear.in_features * linear.out_features * codes.shape[0]
            # Computed from tensor sizes, not measured: activation codes
            # in, weight codes read, integer partial sums out.
            bytes_moved += codes.nbytes + linear.w_codes.nbytes + outputs[0].nbytes
        for key, value in total.items():
            rounds[key].append(value)
        it += 1

    execute, im2col, quant = (median(rounds[k]) for k in ("execute", "im2col", "quantize"))
    matmul = median(rounds["reference-fast"])
    return {
        "runtime.engine.execute_s": execute,
        "runtime.engine.quantize_s": quant,
        "runtime.engine.im2col_s": im2col,
        "runtime.engine.rescale_self_s": execute - quant - im2col - matmul,
        "runtime.engine.calls": len(pairs),
        "runtime.backends.reference-fast.matmul_s": matmul,
        "runtime.backends.popcount.matmul_s": median(rounds["popcount"]),
        "runtime.backends.matmul_calls": len(pairs),
        "runtime.backends.matmul_us_per_call": matmul * 1e6 / len(pairs),
        "runtime.backends.kernel_macs": macs,
        "runtime.backends.kernel_bytes_moved": bytes_moved,
    }


def snapshot_round_trip(
    run: Run,
    deployed,
    first_output: Callable[[Any], Tuple[np.ndarray, Any]],
    expect: Tuple[np.ndarray, Any],
    it: Optional[int] = None,
    verify: bool = False,
) -> Tuple[Any, Dict[str, float]]:
    """Save ``deployed``, restore it into an empty cache and take its
    first output (``first_output(restored) -> (out, stats)``), which
    must equal ``expect`` bitwise.  The warm start is load plus that
    first output; ``verify`` adds the checksumming audit load."""
    spans = run.spans
    store = ArtifactStore(run.scratch("artifacts"))
    with spans.span("runtime.save", "runtime.snapshot", it) as save:
        key = runtime.save(deployed, store, created_at=0.0)
    with spans.span("warm_start", "bench", it) as warm:
        with spans.span("runtime.load", "runtime.snapshot", it) as load:
            restored = runtime.load(store, key, cache=new_cache())
        with spans.span("run:first-after-load", "runtime.snapshot", it) as first:
            out, stats = first_output(restored)
    run.tally.check(bitwise_equal(out, expect[0]) and stats == expect[1])
    metrics = {
        "warm_start_s": wall(warm),
        "artifact_bytes": store.model_path(key).stat().st_size,
        "runtime.snapshot.save_s": wall(save),
        "runtime.snapshot.load_s": wall(load),
        "runtime.snapshot.first_run_after_load_s": wall(first),
    }
    if verify:
        with spans.span("runtime.load:verify", "runtime.snapshot", it) as audit:
            runtime.load(store, key, cache=new_cache(), verify=True)
        metrics["runtime.snapshot.load_verify_s"] = wall(audit)
    return restored, metrics


def layer_only(metrics: Dict[str, float]) -> Dict[str, float]:
    """The ``<module>.<metric>`` entries of a probe's result, without
    the end-to-end names it also carries."""
    return {name: value for name, value in metrics.items() if "." in name}


def cim_metrics(stats, samples: int, reports: Sequence[Any]) -> Dict[str, float]:
    """The simulated chip's counters per sample and the weight bits of
    the deployments (``DeploymentReport``s) that produced them — exact,
    and identical across any change that only speeds the host up."""
    return {
        "cim.macs": stats.macs / samples,
        "cim.cycles": stats.cycles / samples,
        "cim.adc_conversions": stats.adc_conversions / samples,
        "cim.row_activations": stats.row_activations / samples,
        "cim.energy_fj.wl": stats.wl_energy_fj / samples,
        "cim.energy_fj.bitline": stats.bitline_energy_fj / samples,
        "cim.energy_fj.adc": stats.adc_energy_fj / samples,
        "cim.energy_fj.peripheral": stats.peripheral_energy_fj / samples,
        "cim.energy_fj.link": stats.link_energy_fj / samples,
        "cim.latency_ns_per_sample": (stats.latency_ns + stats.link_latency_ns) / samples,
        "cim.rom_weight_bits": sum(r.rom_weight_bits for r in reports),
        "cim.sram_weight_bits": sum(r.sram_weight_bits for r in reports),
    }
