"""``serve_tenants``: the dynamic-batching server under two tenants.

Two single-layer ``Linear(32, 10)`` models are served to tenants
``alice:bob = 3:1`` by one worker.  The kernel is about half of an
executed batch here, so admission, per-tenant round-robin, coalescing,
output slicing and metrics are the other half of what is measured.

* **Bursts** (throughput): 8000 single-sample requests are admitted
  into a server whose worker has not started, then the worker starts
  and drains them; completed ÷ (admit wall + drain wall).  Admission
  and draining are timed one after the other because under the GIL a
  submitting thread and the worker only take turns, and how they take
  turns moved the overlapped figure by ±30% from run to run; the sum
  is the server's whole per-request work and repeats.  Each burst is
  followed by a few per-request ``reference_forward`` calls, which
  gives the speed-up over calling the oracle per request with both
  sides timed at the same moment.  Every executed batch of the last
  burst (``record_batches=True``) is afterwards re-run through
  ``reference_forward`` on its exact coalesced inputs, outside the
  timed region, and must match bitwise in outputs and ``MacroStats``;
  every request must have been handed its own rows of its batch.
* **Open loop** (latency): Poisson arrivals at a fixed rate from
  ``LoadGenerator.schedule()``, submitted to a running server by one
  harness thread on schedule whatever the server does.  A request is
  timed from when it was *due*, not from when the harness got round to
  submitting it, and how late the harness ran is reported.  A
  rejected, failed or timed-out request is given the time-out as its
  latency.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np

from repro import nn, runtime
from repro.obs import trace
from repro.obs.stats import percentile
from repro.runtime import ArtifactStore
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    LoadGenerator,
    LoadSpec,
    ModelRegistry,
)

from . import layers
from .harness import Run, bitwise_equal, median, peak_rss_mb, wall

MODELS = ("ranker-a", "ranker-b")
TENANTS = {"alice": 3.0, "bob": 1.0}
POLICY = BatchPolicy(max_batch_size=16, max_wait_s=0.002, max_queue_depth=16384)
IN_FEATURES, OUT_FEATURES, POOL = 32, 10, 256
BURST = 8000
LOW_RPS, HIGH_RPS = 500.0, 2000.0
#: Oracle calls timed after each burst.
REFERENCE_CALLS = 400
#: Cold and warm deployments measured per end-to-end run; each takes
#: milliseconds, so many are affordable.
SETUP_REPS = 15
RESULT_TIMEOUT_S = 30.0

Plan = List[Tuple[float, str, str, np.ndarray]]


def _models(run: Run) -> Dict[str, nn.Module]:
    return {
        name: nn.Linear(IN_FEATURES, OUT_FEATURES, rng=run.rng(0, i))
        for i, name in enumerate(MODELS)
    }


def _pools(run: Run) -> Dict[str, np.ndarray]:
    return {
        name: run.rng(1, i).standard_normal((POOL, IN_FEATURES))
        for i, name in enumerate(MODELS)
    }


def _register(models, store=None) -> ModelRegistry:
    registry = ModelRegistry(cache=layers.new_cache())
    for name, model in models.items():
        registry.register(name, model, store=store)
    return registry


def _server(registry: ModelRegistry, **kwargs) -> InferenceServer:
    return InferenceServer(registry, POLICY, n_workers=1, **kwargs)


def _plan(run: Run, server, pools, n: int, rate, stream: int) -> Plan:
    spec = LoadSpec(
        n_requests=n,
        rate_rps=rate,
        tenant_weights=TENANTS,
        seed=int(run.rng(3, stream).integers(2**31)),
    )
    with run.spans.span("LoadGenerator.schedule", "serve.loadgen"):
        return LoadGenerator(server, spec, pools).schedule()


def _await(run: Run, handles) -> List:
    """Every handle's result; a time-out counts as a failed request."""
    results = []
    for handle in handles:
        try:
            result = handle.result(timeout=RESULT_TIMEOUT_S)
        except TimeoutError:
            result = None
        run.tally.check(result is not None and result.ok)
        results.append(result)
    return results


def _first_request(run: Run, server, pools):
    name = MODELS[0]
    return _await(run, [server.submit(name, pools[name][:1], tenant="alice")])[0]


def _starts(run: Run, models, pools) -> Tuple[List[float], List[float], int]:
    """Cold deployments (registry → compile → server → first reply) and
    warm ones (the same from a populated artifact store)."""
    spans = run.spans
    colds, warms = [], []
    size = 0
    for it in range(run.reps(SETUP_REPS)):
        store = ArtifactStore(run.scratch("serve-store"))
        with spans.span("setup", "bench", it) as cold:
            server = _server(_register(models, store)).start()
            first = _first_request(run, server, pools)
        server.stop()
        with spans.span("warm_start", "bench", it) as warm:
            server = _server(_register(models, store)).start()
            again = _first_request(run, server, pools)
        entries = [server.registry.entry(name) for name in MODELS]
        server.stop()
        run.tally.check(
            all(entry.warm_start for entry in entries)
            and first is not None
            and again is not None
            and bitwise_equal(first.output, again.output)
            and first.stats == again.stats
        )
        size = sum(store.model_path(e.artifact_key).stat().st_size for e in entries)
        colds.append(wall(cold))
        warms.append(wall(warm))
    run.series["setup"] = colds
    run.series["warm_start"] = warms
    return colds, warms, size


class Bursts:
    """Queue-then-drain bursts of one plan, each on a fresh server over
    a shared registry, with what the traced pass reads off them."""

    def __init__(self, run: Run, registry: ModelRegistry, models, plan: Plan):
        self.run, self.registry, self.models, self.plan = run, registry, models, plan
        self.rates: List[float] = []
        self.speedups: List[float] = []
        self.submit_s: List[float] = []
        self.execute_shares: List[float] = []
        self._last: Tuple[InferenceServer, Dict[int, object]] = (None, {})

    def burst(self, it: int) -> float:
        """One burst; returns its requests per second."""
        run, plan = self.run, self.plan
        server = _server(self.registry, record_batches=True)
        with run.spans.span("InferenceServer.submit", "serve.server", it) as admit:
            handles = [server.submit(model, x, tenant=tenant) for _, tenant, model, x in plan]
        with run.spans.span("drain", "serve.server", it) as drain:
            server.start()
            results = _await(run, handles)
        server.stop()
        completed = sum(1 for result in results if result is not None and result.ok)
        self.submit_s.append(wall(admit) / len(plan))
        self.execute_shares.append(
            sum(batch.execute_s for batch in server.executed_batches) / wall(drain)
        )
        self._last = (server, {h.request.request_id: r for h, r in zip(handles, results)})
        return completed / (wall(admit) + wall(drain))

    def measure(self, deadline: float, min_bursts: int) -> None:
        """Bursts until ``deadline``, each paired with oracle calls."""
        run = self.run
        calls = self.plan[:REFERENCE_CALLS]
        while len(self.rates) < min_bursts or time.perf_counter() < deadline:
            it = len(self.rates)
            rate = self.burst(it)
            with run.spans.span("reference_forward", "runtime.reference", it) as ref:
                for _, _, model, x in calls:
                    runtime.reference_forward(self.models[model], x)
            self.rates.append(rate)
            self.speedups.append(rate * wall(ref) / len(calls))
        run.series["burst req/s"] = self.rates

    def check(self) -> None:
        """Every executed batch of the last burst against the reference
        walker (untimed)."""
        server, by_id = self._last
        for batch in server.executed_batches:
            ref, ref_stats = runtime.reference_forward(self.models[batch.model], batch.inputs)
            served = [by_id[request_id] for request_id in batch.request_ids]
            self.run.tally.check(
                bitwise_equal(batch.outputs, ref)
                and batch.stats == ref_stats
                and all(r is not None and r.ok for r in served)
                and bitwise_equal(np.concatenate([r.output for r in served]), ref)
            )


def _open_loop(run: Run, server, plan: Plan, name: str) -> Dict[str, float]:
    """Submit ``plan`` on schedule from this one thread; latencies are
    from each request's due time."""
    handles = []
    depth = 0
    batches_before = server.snapshot().batches
    with run.spans.span(f"open_loop:{name}", "serve.loadgen"):
        start = time.monotonic()
        for i, (offset, tenant, model, x) in enumerate(plan):
            delay = start + offset - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            handles.append(server.submit(model, x, tenant=tenant))
            if i % 64 == 0:
                depth = max(depth, server.queue.depth)
        results = _await(run, handles)
    latencies, lateness = [], []
    for (offset, _, _, _), handle, result in zip(plan, handles, results):
        due = start + offset
        # An unknown-model rejection carries no request; it was refused
        # at its submit, so it ran exactly as late as the latency it misses.
        submitted = handle.request.submitted_at if handle.request else due
        lateness.append(submitted - due)
        if result is not None and result.ok:
            latencies.append(submitted + result.latency_s - due)
        else:
            latencies.append(RESULT_TIMEOUT_S)
    run.series[f"latency@{name}"] = latencies
    latencies, lateness = np.asarray(latencies), np.asarray(lateness)
    return {
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p95_ms": percentile(latencies, 95) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "lateness_ms_p95": percentile(lateness, 95) * 1e3,
        "max_queue_depth": depth,
        "batches": server.snapshot().batches - batches_before,
    }


def _direct_batches(run: Run, registry, models, pools, reps: int):
    """One ``max_batch_size`` batch per model straight through its
    compiled image and through the reference walker: the simulated cost
    of a served sample (exact — what the server coalesces depends on
    timing) and the uncontended wall of one executed batch."""
    total = None
    run_walls, ref_walls = [], []
    for name in MODELS:
        x = pools[name][: POLICY.max_batch_size]
        compiled = registry.get(name)
        for it in range(reps):
            with run.spans.span("CompiledModel.run", "runtime.compiled", it) as fast:
                out, stats = compiled.run(x)
            with run.spans.span("reference_forward", "runtime.reference", it) as slow:
                ref, ref_stats = runtime.reference_forward(models[name], x)
            run.tally.check(bitwise_equal(out, ref) and stats == ref_stats)
            run_walls.append(wall(fast))
            ref_walls.append(wall(slow))
        total = stats if total is None else total + stats
    return total, len(MODELS) * POLICY.max_batch_size, run_walls, ref_walls


def end_to_end(run: Run) -> Dict[str, float]:
    models, pools = _models(run), _pools(run)
    colds, warms, artifact_bytes = _starts(run, models, pools)

    registry = _register(models)
    burst_plan = _plan(run, _server(registry), pools, 200 if run.smoke else BURST, None, 0)
    bursts = Bursts(run, registry, models, burst_plan)
    bursts.burst(-1)  # warm-up, not counted
    bursts.measure(run.deadline(), run.reps(3))
    stats, samples, _, _ = _direct_batches(run, registry, models, pools, 1)
    bursts.check()
    return {
        "setup_s": median(colds),
        "warm_start_ratio": median([warm / cold for cold, warm in zip(colds, warms)]),
        "artifact_bytes": artifact_bytes,
        "speedup_vs_reference": median(bursts.speedups),
        "chip_energy_fj_per_sample": stats.total_energy_fj / samples,
        "peak_rss_mb": peak_rss_mb(),
    }


def _span_ms(tracer) -> Dict[str, float]:
    """Mean duration of the program's own request-lifecycle spans."""
    totals: Dict[str, List[float]] = {}
    for span in tracer.spans():
        if span.category == "serve":
            totals.setdefault(span.name.split(":")[0], []).append(span.wall_s)
    return {
        f"serve.server.span_ms.{name}": 1e3 * sum(totals[name]) / len(totals[name])
        for name in ("admit", "queued", "coalesce", "execute", "respond")
        if name in totals
    }


def per_layer(run: Run) -> Dict[str, float]:
    spans = run.spans
    with spans.span("models.build_model", "models") as build:
        models = _models(run)
    pools = _pools(run)
    with spans.span("ModelRegistry.register", "runtime.compile") as compile_span:
        registry = _register(models)
    cache_stats = registry.cache.stats
    server = _server(registry).start()

    burst_plan = _plan(run, server, pools, 200 if run.smoke else BURST, None, 0)
    low_s, high_s = (0.2, 0.2) if run.smoke else (run.seconds * 0.25, run.seconds * 0.3)
    low_plan = _plan(run, server, pools, int(LOW_RPS * low_s), LOW_RPS, 2)
    high_plan = _plan(run, server, pools, int(HIGH_RPS * high_s), HIGH_RPS, 1)
    traced_plan = high_plan[: len(high_plan) // 3]

    bursts = Bursts(run, registry, models, burst_plan)
    bursts.burst(-1)
    bursts.measure(run.deadline(0.1), run.reps(2))
    untraced = slice(1, 1 + len(bursts.rates))
    with trace.tracing() as burst_tracer:
        traced_rates = [bursts.burst(it) for it in range(run.reps(2))]
    low = _open_loop(run, server, low_plan, "500rps")
    high = _open_loop(run, server, high_plan, "2000rps")
    with trace.tracing() as tracer:
        _open_loop(run, server, traced_plan, "2000rps-traced")
    snapshot = server.snapshot()
    server.stop()
    stats, samples, run_walls, ref_walls = _direct_batches(
        run, registry, models, pools, run.reps(50)
    )
    bursts.check()

    metrics = {
        "models.build_s": wall(build),
        "runtime.compile.wall_s": wall(compile_span),
        "runtime.compile.engines_programmed": cache_stats.programmed,
        "runtime.cache.hits": cache_stats.hits,
        "runtime.cache.misses": cache_stats.misses,
        "runtime.compiled.run_wall_s": median(run_walls),
        "runtime.reference.forward_s": median(ref_walls),
        "serve.server.submit_us": median(bursts.submit_s[untraced]) * 1e6,
        "serve.scheduler.mean_batch_size": len(high_plan) / high["batches"],
        "serve.scheduler.batches": high["batches"],
        "serve.scheduler.max_queue_depth": max(
            low["max_queue_depth"], high["max_queue_depth"]
        ),
        "serve.server.execute_share": median(bursts.execute_shares[untraced]),
        "serve.server.burst_req_per_s": median(bursts.rates),
        "serve.server.p50_ms": high["p50_ms"],
        "serve.server.p95_ms": high["p95_ms"],
        "serve.server.p99_ms": high["p99_ms"],
        "serve.server.p50_ms_at_500rps": low["p50_ms"],
        "serve.server.p95_ms_at_500rps": low["p95_ms"],
        "serve.server.rejected": snapshot.total_rejected,
        "serve.server.failed": snapshot.failed,
        "serve.loadgen.lateness_ms_p95": high["lateness_ms_p95"],
        "obs.trace.overhead_ratio": median(bursts.rates) / median(traced_rates),
        "obs.trace.spans": len(burst_tracer) + len(tracer),
        "obs.trace.dropped": burst_tracer.dropped + tracer.dropped,
    }
    metrics.update(_span_ms(tracer))
    reports = [registry.get(name).report for name in MODELS]
    metrics.update(layers.cim_metrics(stats, samples, reports))
    return metrics
