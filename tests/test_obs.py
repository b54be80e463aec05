"""Tests for the observability subsystem (repro.obs).

The load-bearing guarantees:

* spans nest per thread and collect thread-safely into one tracer;
* tracing is off by default, and a disabled tracer changes nothing —
  ``CompiledModel.run`` outputs are bitwise identical traced or not;
* the Chrome exporter emits schema-valid trace-event JSON with one
  wall track per thread plus the synthetic simulated-chip track;
* the metrics registry renders parseable Prometheus text exposition
  with correct cumulative-histogram semantics;
* ``fraction_of_stats`` enumerates ``dataclasses.fields(MacroStats)``,
  so a newly added field scales (or is explicitly shared) — the drift
  guard here fails if one is silently dropped;
* the profiler's per-node energy column sums exactly to the run's
  ``MacroStats.total_energy_fj``.
"""

import dataclasses
import json
import logging
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.cim.macro import MacroStats
from repro.obs import (
    LatencySummary,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    collect_cache,
    collect_server,
    export_chrome,
    export_prometheus,
    percentile,
    trace,
)
from repro.obs import log as obs_log
from repro.obs import profiler
from repro.obs.chrome import CHIP_PID, WALL_PID
from repro.runtime import EngineCache, compile_model
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    ModelRegistry,
    RequestStatus,
    ServerMetrics,
    fraction_of_stats,
)
from repro.serve.metrics import SHARED_STAT_FIELDS

from .helpers import (
    DEADLINE,
    assert_one_metrics_model,
    await_results,
    immediate_results,
    registry_samples,
)

IN_FEATURES = 32


def mlp(seed=0, hidden=16, num_classes=4):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(IN_FEATURES, hidden, rng=rng),
        nn.ReLU(),
        nn.Linear(hidden, num_classes, rng=rng),
    )


def batch(n=4, seed=1):
    return np.random.default_rng(seed).normal(size=(n, IN_FEATURES))


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_interval_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", "test", layer="fc") as span:
            span.set("n", 3)
        (record,) = tracer.spans()
        assert record.name == "work"
        assert record.category == "test"
        assert record.attrs == {"layer": "fc", "n": 3}
        assert record.t1 >= record.t0
        assert record.parent_id is None

    def test_nesting_sets_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        inner, sibling, outer = tracer.spans()
        assert inner.parent_id == outer.span_id
        assert sibling.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_retroactive_record(self):
        tracer = Tracer()
        record = tracer.record("queued", 1.0, 1.5, "serve", tenant="a")
        assert record.wall_s == pytest.approx(0.5)
        assert record.parent_id is None
        assert tracer.spans() == [record]

    def test_record_thread_name_override(self):
        tracer = Tracer()
        record = tracer.record("q", 0.0, 1.0, thread_name="virtual")
        assert record.thread_name == "virtual"

    def test_max_spans_bounds_memory(self):
        tracer = Tracer(max_spans=2)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 2
        assert tracer.dropped == 3

    def test_clear_resets(self):
        tracer = Tracer(max_spans=1)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_invalid_max_spans(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_chip_ns_property(self):
        tracer = Tracer()
        with tracer.span("a", chip_ns=125.0):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.chip_ns == 125.0
        assert b.chip_ns == 0.0

    def test_threads_trace_concurrently(self):
        """N threads x M nested pairs each: all spans land, and every
        thread's parentage chain stays within its own thread."""
        tracer = Tracer()
        n_threads, n_spans = 8, 50

        def work(t):
            for i in range(n_spans):
                with tracer.span(f"outer-{t}-{i}"):
                    with tracer.span(f"inner-{t}-{i}"):
                        pass

        threads = [
            threading.Thread(target=work, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = tracer.spans()
        assert len(spans) == n_threads * n_spans * 2
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            if span.parent_id is not None:
                assert by_id[span.parent_id].thread_id == span.thread_id


class TestInstall:
    def test_disabled_by_default(self):
        assert trace.current() is None
        assert not trace.enabled()

    def test_tracing_scope_restores(self):
        with trace.tracing() as tracer:
            assert trace.current() is tracer
            assert trace.enabled()
        assert trace.current() is None

    def test_tracing_restores_previous(self):
        outer = trace.install()
        try:
            with trace.tracing() as inner:
                assert trace.current() is inner
            assert trace.current() is outer
        finally:
            trace.uninstall()

    def test_install_uninstall(self):
        tracer = trace.install()
        assert trace.current() is tracer
        assert trace.uninstall() is tracer
        assert trace.current() is None

    def test_maybe_span_noop_when_disabled(self):
        with trace.maybe_span("x") as span:
            assert span is None

    def test_maybe_span_records_when_enabled(self):
        with trace.tracing() as tracer:
            with trace.maybe_span("x", "cat") as span:
                assert span is not None
                span.set("k", 1)
        (record,) = tracer.spans()
        assert record.name == "x"
        assert record.attrs["k"] == 1


# ----------------------------------------------------------------------
# Chrome exporter
# ----------------------------------------------------------------------
class TestChromeExport:
    def trace_with_spans(self):
        tracer = Tracer()
        with tracer.span("run", "runtime", chip_total_ns=100.0):
            with tracer.span("conv", "plan", chip_ns=60.0):
                pass
            with tracer.span("fc", "plan", chip_ns=40.0):
                pass
        return tracer

    def test_schema(self):
        doc = chrome_trace(self.trace_with_spans())
        assert set(doc) == {"traceEvents"}
        for event in doc["traceEvents"]:
            assert event["ph"] in ("X", "M")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert "name" in event
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_process_and_thread_metadata(self):
        doc = chrome_trace(self.trace_with_spans())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {
            (e["pid"], e["args"]["name"])
            for e in meta
            if e["name"] == "process_name"
        }
        assert (WALL_PID, "wall clock") in names
        assert (CHIP_PID, "simulated chip") in names
        threads = [e for e in meta if e["name"] == "thread_name"]
        assert any(e["pid"] == WALL_PID for e in threads)
        assert any(
            e["pid"] == CHIP_PID and e["args"]["name"].endswith("(chip)")
            for e in threads
        )

    def test_chip_track_lays_spans_end_to_end(self):
        doc = chrome_trace(self.trace_with_spans())
        chip = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == CHIP_PID
        ]
        # Only the leaf spans carry chip_ns (the parent carries
        # chip_total_ns precisely so the chip track does not double count).
        assert [e["name"] for e in chip] == ["conv", "fc"]
        assert chip[0]["ts"] == 0.0
        assert chip[0]["dur"] == pytest.approx(0.06)  # 60 ns -> 0.06 us
        assert chip[1]["ts"] == pytest.approx(chip[0]["dur"])
        total_us = sum(e["dur"] for e in chip)
        assert total_us == pytest.approx(0.1)

    def test_wall_ts_relative_to_first_span(self):
        doc = chrome_trace(self.trace_with_spans())
        wall = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["pid"] == WALL_PID
        ]
        assert min(e["ts"] for e in wall) == 0.0
        args = {e["name"]: e["args"] for e in wall}
        assert args["conv"]["parent_id"] == args["run"]["span_id"]

    def test_empty_tracer(self):
        doc = chrome_trace(Tracer())
        assert all(e["ph"] == "M" for e in doc["traceEvents"])

    def test_dropped_spans_noted(self):
        tracer = Tracer(max_spans=1)
        with tracer.span("kept"):
            pass
        with tracer.span("dropped"):
            pass
        doc = chrome_trace(tracer)
        labels = [
            e for e in doc["traceEvents"] if e["name"] == "process_labels"
        ]
        assert labels and "1 spans dropped" in labels[0]["args"]["labels"]

    def test_non_jsonable_attrs_coerced(self):
        tracer = Tracer()
        with tracer.span("s", n=np.int64(3), arr=(1, 2)):
            pass
        doc = chrome_trace(tracer)
        json.dumps(doc)
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["n"] == 3
        assert event["args"]["arr"] == "(1, 2)"

    def test_export_to_path_and_file(self, tmp_path):
        tracer = self.trace_with_spans()
        path = tmp_path / "trace.json"
        export_chrome(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(chrome_trace(tracer)))
        with open(tmp_path / "trace2.json", "w") as fh:
            export_chrome(tracer, fh)
        assert json.loads((tmp_path / "trace2.json").read_text()) == loaded


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsPrimitives:
    def test_counter_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total").labels()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("g").labels()
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5.0

    def test_histogram_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("h", buckets=(1, 2, 4)).labels()
        for value in (0.5, 1.0, 3.0, 9.0):
            hist.observe(value)
        hist.observe(2.0, count=2)
        cumulative, total, count = hist.snapshot()
        assert cumulative == [2, 4, 5]  # <=1: 2, <=2: +2, <=4: +1
        assert count == 6  # 9.0 only lands in +Inf
        assert total == pytest.approx(0.5 + 1.0 + 3.0 + 9.0 + 2 * 2.0)

    def test_histogram_needs_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())


class TestMetricsRegistry:
    def test_redeclare_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", label_names=("k",))
        b = registry.counter("x_total", label_names=("k",))
        assert a is b

    def test_redeclare_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.counter("x", label_names=("k",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name")
        with pytest.raises(ValueError):
            registry.counter("ok", label_names=("bad-label",))
        with pytest.raises(ValueError):
            registry.counter("ok", label_names=("__reserved",))

    def test_labels_must_match_declaration(self):
        family = MetricsRegistry().counter("x", label_names=("tenant",))
        with pytest.raises(ValueError):
            family.labels(other="a")

    def test_prometheus_text_parses_back(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", ("code",)).labels(
            code="200"
        ).inc(3)
        registry.gauge("depth", "Queue depth.").labels().set(1.5)
        registry.histogram("lat", buckets=(1, 2)).labels().observe(1.5)
        text = registry.to_prometheus()
        assert text.endswith("\n")
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 3' in text
        assert "depth 1.5" in text
        # Cumulative buckets with the implicit +Inf == _count.
        assert 'lat_bucket{le="1"} 0' in text
        assert 'lat_bucket{le="2"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 1.5" in text
        assert "lat_count 1" in text
        # Every sample line is "name{labels} value" with a float value.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)
            assert name_part[0].isalpha() or name_part[0] == "_"

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("x", label_names=("k",)).labels(k='a"b\\c\nd').inc()
        text = registry.to_prometheus()
        assert r'x{k="a\"b\\c\nd"} 1' in text

    def test_to_json(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help").labels().inc(2)
        registry.histogram("h", buckets=(1,)).labels().observe(0.5)
        doc = registry.to_json()
        json.dumps(doc)
        by_name = {f["name"]: f for f in doc["metrics"]}
        assert by_name["c_total"]["samples"][0]["value"] == 2.0
        sample = by_name["h"]["samples"][0]
        assert sample["buckets"] == {"1": 1}
        assert sample["count"] == 1

    def test_export_prometheus_writes_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").labels().inc()
        path = tmp_path / "out.prom"
        export_prometheus(registry, str(path))
        assert path.read_text() == registry.to_prometheus()

    def test_collect_cache_covers_every_stat_field(self):
        cache = EngineCache()
        compile_model(mlp(), cache=cache)
        registry = MetricsRegistry()
        collect_cache(cache, registry)
        text = registry.to_prometheus()
        for field in dataclasses.fields(cache.stats):
            assert f'event="{field.name}"' in text
        assert "repro_engine_cache_entries" in text

    def test_collect_cache_twice_equals_once(self):
        cache = EngineCache()
        compile_model(mlp(), cache=cache)
        registry = MetricsRegistry()
        collect_cache(cache, registry)
        once = registry_samples(registry)
        assert once[("repro_engine_cache_events_total", (("event", "programmed"),))] == 2
        collect_cache(cache, registry)
        assert registry_samples(registry) == once
        # ...and a later collection advances by exactly the new activity.
        compile_model(mlp(seed=1), cache=cache)
        collect_cache(cache, registry)
        events = {
            dict(labels)["event"]: value
            for (name, labels), value in registry_samples(registry).items()
            if name == "repro_engine_cache_events_total"
        }
        assert events == dataclasses.asdict(cache.stats)


# ----------------------------------------------------------------------
# Shared stats helpers
# ----------------------------------------------------------------------
class TestStatsHelpers:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 0) == 1.0
        assert percentile([], 50) == 0.0

    def test_latency_summary(self):
        summary = LatencySummary.of([3.0, 1.0, 2.0])
        assert summary.count == 3
        assert summary.mean_s == pytest.approx(2.0)
        assert summary.p50_s == 2.0
        assert summary.p99_s == 3.0

    def test_latency_summary_empty(self):
        summary = LatencySummary.of([])
        assert summary.count == 0
        assert summary.mean_s == 0.0
        assert summary.p95_s == 0.0

    def test_serve_reexports_shared_helper(self):
        # serve.metrics and loadgen dedupe onto the obs implementation.
        from repro.serve import metrics as serve_metrics

        assert serve_metrics.percentile is percentile
        assert serve_metrics.LatencySummary is LatencySummary


class TestFractionOfStats:
    def make_stats(self):
        # Distinct nonzero value per field, assigned generically so a
        # newly added MacroStats field is automatically exercised.
        values = {
            f.name: float(i + 1)
            for i, f in enumerate(dataclasses.fields(MacroStats))
        }
        return MacroStats(**values), values

    def test_every_field_scales_or_is_shared(self):
        stats, values = self.make_stats()
        half = fraction_of_stats(stats, 1, 2)
        for name, value in values.items():
            got = getattr(half, name)
            if name in SHARED_STAT_FIELDS:
                assert got == value, f"{name} is shared and must not scale"
            else:
                assert got == pytest.approx(value / 2), (
                    f"{name} must scale with the sample share"
                )

    def test_shared_fields_exist_on_macrostats(self):
        names = {f.name for f in dataclasses.fields(MacroStats)}
        assert SHARED_STAT_FIELDS <= names

    def test_full_share_is_identity(self):
        stats, values = self.make_stats()
        whole = fraction_of_stats(stats, 3, 3)
        for name, value in values.items():
            assert getattr(whole, name) == pytest.approx(value)

    def test_invalid_denominator(self):
        with pytest.raises(ValueError):
            fraction_of_stats(MacroStats(), 1, 0)


class TestSnapshotSelfDescribes:
    def test_rows_carry_uptime_and_window(self):
        metrics = ServerMetrics(window_s=12.0)
        snapshot = metrics.snapshot()
        rows = dict(snapshot.rows())
        assert rows["window_s"] == 12.0
        assert rows["uptime_s"] >= 0.0
        assert snapshot.window_s == 12.0


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------
class TestLogging:
    def test_hierarchy_and_null_handler(self):
        logger = obs_log.get_logger("runtime.cache")
        assert logger.name == "repro.runtime.cache"
        assert any(
            isinstance(h, logging.NullHandler) for h in obs_log.ROOT.handlers
        )

    def test_configure_levels(self):
        previous = obs_log.ROOT.level
        try:
            obs_log.configure(0)
            obs_log.configure(1)
            assert obs_log.ROOT.level == logging.INFO
            obs_log.configure(2)
            assert obs_log.ROOT.level == logging.DEBUG
        finally:
            obs_log.ROOT.setLevel(previous)

    def test_debug_logs_flow_through_hierarchy(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            compile_model(mlp(), cache=EngineCache())
        assert any(
            record.name.startswith("repro.runtime") for record in caplog.records
        )


# ----------------------------------------------------------------------
# Traced runtime execution
# ----------------------------------------------------------------------
class TestTracedRuntime:
    def test_traced_run_bitwise_identical(self):
        compiled = compile_model(mlp(), cache=EngineCache())
        x = batch()
        baseline, base_stats = compiled.run(x, rng=np.random.default_rng(7))
        with trace.tracing():
            traced, traced_stats = compiled.run(x, rng=np.random.default_rng(7))
        assert np.array_equal(baseline, traced)
        assert base_stats.total_energy_fj == traced_stats.total_energy_fj

    def test_run_emits_plan_spans(self):
        compiled = compile_model(mlp(), cache=EngineCache())
        with trace.tracing() as tracer:
            _, stats = compiled.run(batch())
        spans = tracer.spans()
        run_spans = [s for s in spans if s.category == "runtime"]
        plan_spans = [s for s in spans if s.category == "plan"]
        assert len(run_spans) == 1
        assert len(plan_spans) == len(compiled._nodes)
        run = run_spans[0]
        assert all(s.parent_id == run.span_id for s in plan_spans)
        # Telescoping deltas: node energy sums exactly to the run total;
        # the parent carries chip_total_ns so the chip track of the
        # Chrome export never double counts.
        assert sum(
            s.attrs.get("energy_fj", 0.0) for s in plan_spans
        ) == pytest.approx(stats.total_energy_fj, rel=1e-9)
        assert run.attrs["chip_total_ns"] == pytest.approx(stats.latency_ns)
        assert "chip_ns" not in run.attrs
        assert {s.attrs["node_index"] for s in plan_spans} == set(
            range(len(compiled._nodes))
        )

    def test_compile_emits_phase_spans(self):
        with trace.tracing() as tracer:
            compile_model(mlp(), cache=EngineCache())
        names = {s.name for s in tracer.spans() if s.category == "compile"}
        assert {"compile", "build_plan", "validate_deployable"} <= names
        cache_spans = [s for s in tracer.spans() if s.category == "cache"]
        assert any(s.name == "engine_program" for s in cache_spans)

    def test_cache_tier_provenance(self):
        from repro.runtime.sharded import _node_slots

        cache = EngineCache()
        compiled = compile_model(mlp(), cache=cache)
        tiers = {
            slot.cache_tier()
            for node in compiled._nodes
            for slot in _node_slots(node)
        }
        assert tiers == {"programmed"}


def test_sharded_stream_traces_per_shard():
    from repro.runtime import shard

    compiled = compile_model(mlp(), cache=EngineCache())
    sharded = shard(compiled, 2)
    batches = [batch(2, seed=i) for i in range(3)]
    with trace.tracing() as tracer:
        result = sharded.run_stream(
            batches, rngs=[np.random.default_rng(i) for i in range(3)]
        )
    spans = tracer.spans()
    shard_spans = [s for s in spans if s.category == "shard"]
    assert {s.thread_name for s in shard_spans} == {"shard-0", "shard-1"}
    chip_total = sum(s.chip_ns for s in shard_spans)
    link_total = sum(s.chip_ns for s in spans if s.category == "link")
    assert chip_total == pytest.approx(result.stats.latency_ns)
    assert link_total == pytest.approx(result.stats.link_latency_ns)
    doc = chrome_trace(tracer)
    chip_threads = {
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == CHIP_PID
    }
    assert {"shard-0 (chip)", "shard-1 (chip)"} <= chip_threads


# ----------------------------------------------------------------------
# Server tracing + collection
# ----------------------------------------------------------------------
class TestServerObservability:
    def run_server(self):
        registry = ModelRegistry(cache=EngineCache())
        registry.register("m", mlp())
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=8, max_wait_s=0.005)
        )
        x = batch(6)
        with trace.tracing() as tracer:
            with server:
                handles = [
                    server.submit("m", x[i : i + 1], tenant="t") for i in range(6)
                ]
                results = await_results(handles)
        assert all(r.ok for r in results)
        return server, tracer

    def test_request_lifecycle_spans(self):
        _, tracer = self.run_server()
        by_category = {}
        for span in tracer.spans():
            by_category.setdefault(span.category, []).append(span)
        names = {s.name for s in by_category["serve"]}
        assert "admit" in {s.name for s in by_category["serve"]}
        assert any(name.startswith("queued:r") for name in names)
        assert "execute" in names
        assert "respond" in names
        execute = [s for s in by_category["serve"] if s.name == "execute"]
        assert sum(s.attrs["requests"] for s in execute) == 6
        assert all(s.attrs["chip_total_ns"] > 0 for s in execute)

    def test_collect_server_round_trip(self):
        server, _ = self.run_server()
        registry = collect_server(server)
        text = registry.to_prometheus()
        assert "repro_requests_submitted_total 6" in text
        assert "repro_requests_completed_total 6" in text
        assert 'repro_tenant_completed_total{tenant="t"} 6' in text
        assert "repro_batch_size_bucket" in text
        assert "repro_engine_cache_events_total" in text
        doc = registry.to_json()
        by_name = {f["name"]: f for f in doc["metrics"]}
        assert by_name["repro_requests_completed_total"]["samples"][0][
            "value"
        ] == 6.0


#: The exposition surface: every ``(family, kind, label names)`` that
#: ``collect_server(server)`` renders.  The first 27 are what the
#: hand-copied collector exported; ``repro_tenant_cancelled_total`` is
#: the one it forgot.
EXPOSITION = {
    ("repro_batch_size", "histogram", ()),
    ("repro_batches_executed_total", "counter", ()),
    ("repro_chaos_faults_total", "counter", ("kind",)),
    ("repro_chaos_recoveries_total", "counter", ()),
    ("repro_chaos_recovery_dropped_total", "counter", ()),
    ("repro_chaos_recovery_replayed_total", "counter", ()),
    ("repro_chaos_recovery_seconds_mean", "gauge", ()),
    ("repro_engine_cache_entries", "gauge", ()),
    ("repro_engine_cache_events_total", "counter", ("event",)),
    ("repro_metrics_window_seconds", "gauge", ()),
    ("repro_queue_depth", "gauge", ()),
    ("repro_queued_seconds_mean", "gauge", ()),
    ("repro_request_latency_seconds", "gauge", ("quantile",)),
    ("repro_requests_cancelled_total", "counter", ()),
    ("repro_requests_completed_total", "counter", ()),
    ("repro_requests_failed_total", "counter", ()),
    ("repro_requests_rejected_total", "counter", ("reason",)),
    ("repro_requests_submitted_total", "counter", ()),
    ("repro_tenant_completed_total", "counter", ("tenant",)),
    ("repro_tenant_energy_per_sample_fj", "gauge", ("tenant",)),
    ("repro_tenant_failed_total", "counter", ("tenant",)),
    ("repro_tenant_macs_per_sample", "gauge", ("tenant",)),
    ("repro_tenant_rejected_total", "counter", ("tenant",)),
    ("repro_tenant_samples_total", "counter", ("tenant",)),
    ("repro_throughput_rps", "gauge", ()),
    ("repro_throughput_sps", "gauge", ()),
    ("repro_uptime_seconds", "gauge", ()),
    ("repro_tenant_cancelled_total", "counter", ("tenant",)),
}


class TestOneMetricsModel:
    """A server number is counted once — in a registry instrument — and
    ``MetricsSnapshot`` and the exposition both read it from there."""

    def make_server(self, policy=None, **kwargs):
        registry = ModelRegistry(cache=EngineCache())
        registry.register("m", mlp())
        return InferenceServer(registry, policy, **kwargs)

    def test_cancelled_at_shutdown_is_exported_per_tenant(self):
        server = self.make_server()
        handle = server.submit("m", batch(1), tenant="c")
        server.stop()  # never started: the pending request cancels
        assert handle.result(timeout=0).status is RequestStatus.CANCELLED
        registry = collect_server(server)
        text = registry.to_prometheus()
        assert "repro_requests_cancelled_total 1" in text
        assert 'repro_tenant_cancelled_total{tenant="c"} 1' in text
        by_name = {f["name"]: f for f in registry.to_json()["metrics"]}
        assert by_name["repro_tenant_cancelled_total"]["samples"] == [
            {"labels": {"tenant": "c"}, "value": 1.0}
        ]

    def test_exposition_surface_is_pinned(self):
        server = self.make_server()
        server.stop()
        registry = collect_server(server)
        assert registry is server.metrics.registry
        assert {
            (f.name, f.kind, f.label_names) for f in registry.families()
        } == EXPOSITION

    def test_collecting_twice_equals_collecting_once(self):
        server = self.make_server(BatchPolicy(max_batch_size=4, max_wait_s=0.005))
        x = batch(6)
        with server:
            await_results(
                [server.submit("m", x[i : i + 1], tenant="t") for i in range(6)]
            )
        monotone = ("counter", "histogram")  # uptime and friends may move
        registry = collect_server(server)
        once = registry_samples(registry, monotone)
        assert once[("repro_requests_completed_total", ())] == 6
        assert once[("repro_tenant_samples_total", (("tenant", "t"),))] == 6
        # A scrape loop collects into the same registry every time.
        assert collect_server(server) is registry
        assert registry_samples(registry, monotone) == once

    def test_counters_never_decrease_between_collections(self):
        server = self.make_server(BatchPolicy(max_batch_size=4, max_wait_s=0.0))
        x = batch(8)
        with server:
            await_results([server.submit("m", x[i : i + 1]) for i in range(4)])
            before = registry_samples(collect_server(server), ("counter",))
            handles = [server.submit("m", x[i : i + 1]) for i in range(4, 8)]
            handles.append(server.submit("nope", x[:1]))
            during = registry_samples(collect_server(server), ("counter",))
            await_results(handles)
        after = registry_samples(collect_server(server), ("counter",))
        for earlier, later in ((before, during), (during, after)):
            for key, value in earlier.items():
                assert later[key] >= value, key
        assert after[("repro_requests_completed_total", ())] == 8

    def test_every_terminal_state_is_counted_once(self):
        # A full 4-sample batch releases at once; a lone request waits
        # out max_wait_s for mates, so it is still queued at stop().
        server = self.make_server(
            BatchPolicy(
                max_batch_size=4,
                max_wait_s=10 * DEADLINE,
                max_queue_depth=4,
                max_pending_per_tenant=2,
            )
        )
        x = batch(4)
        admitted = [
            server.submit("m", x[0:1], tenant="a"),
            server.submit("m", x[1:2], tenant="a"),
        ]
        refused = [server.submit("m", x[3:4], tenant="a")]  # a has 2 pending
        admitted += [
            server.submit("m", np.ones((1, IN_FEATURES + 1)), tenant="bad"),
            server.submit("m", x[2:3], tenant="b"),
        ]
        refused += [
            server.submit("m", x[3:4], tenant="b"),  # queue holds 4 samples
            server.submit("nope", x[3:4], tenant="b"),
        ]
        server.start()
        results = await_results(admitted)
        straggler = server.submit("m", x[3:4], tenant="c")
        server.stop(drain=False)
        refused.append(server.submit("m", x[3:4], tenant="c"))

        assert [r.status for r in results] == [
            RequestStatus.COMPLETED,
            RequestStatus.COMPLETED,
            RequestStatus.FAILED,
            RequestStatus.COMPLETED,
        ]
        assert straggler.result(timeout=0).status is RequestStatus.CANCELLED
        assert [r.status for r in immediate_results(refused)] == [
            RequestStatus.REJECTED_TENANT_LIMIT,
            RequestStatus.REJECTED_QUEUE_FULL,
            RequestStatus.REJECTED_UNKNOWN_MODEL,
            RequestStatus.REJECTED_SHUTTING_DOWN,
        ]
        snap, samples = assert_one_metrics_model(server)
        assert (snap.submitted, snap.completed, snap.failed, snap.cancelled) == (
            9, 3, 1, 1,
        )
        assert snap.total_rejected == 4 and len(snap.rejected) == 4
        assert samples[("repro_tenant_cancelled_total", (("tenant", "c"),))] == 1
        assert samples[("repro_tenant_failed_total", (("tenant", "bad"),))] == 1

    def test_snapshot_from_a_second_thread_never_overcounts(self):
        # The server counts a submission before the request can reach a
        # worker and observes a batch before completing its handles, and
        # snapshot() reads every instrument under the collector's one
        # lock — so no view may show more ended than submitted.
        server = self.make_server(
            BatchPolicy(max_batch_size=4, max_wait_s=0.0), n_workers=3
        )
        x = batch(4)
        watching, done = threading.Event(), threading.Event()
        views = []

        def watch():
            while not done.is_set():
                views.append(server.snapshot())
                watching.set()

        watcher = threading.Thread(target=watch, name="snapshot-watcher")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            watcher.start()
            assert watching.wait(DEADLINE)
            with server:
                handles = []
                for i in range(240):
                    if i % 40 == 7:
                        handles.append(server.submit("nope", x[:1], tenant="u"))
                    elif i % 40 == 23:
                        bad = np.ones((1, IN_FEATURES + 1))
                        handles.append(server.submit("m", bad, tenant="bad"))
                    else:
                        handles.append(
                            server.submit("m", x[i % 4 : i % 4 + 1], tenant=f"t{i % 3}")
                        )
                await_results(handles)
        finally:
            done.set()
            watcher.join(DEADLINE)
            sys.setswitchinterval(interval)
        assert not watcher.is_alive()
        assert views
        for view in views:
            ended = (
                view.completed + view.total_rejected + view.failed + view.cancelled
            )
            assert ended <= view.submitted
        snap, _ = assert_one_metrics_model(server)
        assert (snap.submitted, snap.failed, snap.total_rejected) == (240, 6, 6)


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_energy_column_sums_to_run_total(self):
        compiled = compile_model(mlp(), cache=EngineCache())
        report = profiler.profile(compiled, batch(), runs=2)
        assert report.runs == 2
        assert report.total_energy_fj == pytest.approx(
            report.stats.total_energy_fj, rel=1e-6
        )
        assert report.total_chip_ns == pytest.approx(report.stats.latency_ns)

    def test_nodes_in_plan_order_with_tiers(self):
        compiled = compile_model(mlp(), cache=EngineCache())
        report = profiler.profile(compiled, batch())
        assert [n.name for n in report.nodes] == [
            node.name for node in compiled._nodes
        ]
        weight_nodes = [n for n in report.nodes if n.kind == "linear"]
        assert weight_nodes and all(
            n.tier == "programmed" for n in weight_nodes
        )
        rows = report.rows()
        assert len(rows) == len(report.nodes)
        assert all(len(row) == 9 for row in rows)

    def test_profile_matches_plain_run_bitwise(self):
        compiled = compile_model(mlp(), cache=EngineCache())
        x = batch()
        expected, _ = compiled.run(x, rng=np.random.default_rng(3))
        profiler.profile(compiled, x, rng_seed=3)
        again, _ = compiled.run(x, rng=np.random.default_rng(3))
        assert np.array_equal(expected, again)

    def test_profile_unwraps_sharded(self):
        from repro.runtime import shard

        compiled = compile_model(mlp(), cache=EngineCache())
        report = profiler.profile(shard(compiled, 2), batch())
        assert len(report.nodes) == len(compiled._nodes)

    def test_invalid_runs(self):
        compiled = compile_model(mlp(), cache=EngineCache())
        with pytest.raises(ValueError):
            profiler.profile(compiled, batch(), runs=0)

    def test_collapsed_stacks(self):
        compiled = compile_model(mlp(), cache=EngineCache())
        report = profiler.profile(compiled, batch())
        lines = profiler.collapsed_stacks(report.tracer, metric="chip_ns")
        assert lines, "no collapsed stacks emitted"
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) > 0
            assert stack.split(";")[0] == "run"
        with pytest.raises(ValueError):
            profiler.collapsed_stacks(report.tracer, metric="parsecs")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestProfileCLI:
    def test_profile_resnet8_smoke(self, tmp_path, capsys):
        from repro.cli import main

        folded = tmp_path / "resnet8.folded"
        rc = main(
            ["profile", "resnet8", "--batch", "1", "--collapsed", str(folded)]
        )
        captured = capsys.readouterr().out
        assert rc == 0
        assert "plan nodes" in captured
        assert "tier" in captured
        # The acceptance invariant: node sum == run total, printed.
        energy_line = next(
            line for line in captured.splitlines() if line.startswith("energy:")
        )
        node_sum = float(energy_line.split("node sum ")[1].split(" fJ")[0])
        run_total = float(energy_line.split("run total ")[1].split(" fJ")[0])
        assert node_sum == pytest.approx(run_total, rel=1e-6)
        stacks = folded.read_text().strip().splitlines()
        assert stacks and all(" " in line for line in stacks)

    def test_serve_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main

        trace_out = tmp_path / "serve.json"
        prom_out = tmp_path / "serve.prom"
        rc = main(
            [
                "serve",
                "--requests", "16",
                "--rate", "0",
                "--trace", str(trace_out),
                "--metrics", str(prom_out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(trace_out.read_text())
        assert doc["traceEvents"], "serve --trace wrote an empty trace"
        assert any(
            e.get("name") == "execute" for e in doc["traceEvents"]
        )
        text = prom_out.read_text()
        assert "repro_requests_submitted_total 16" in text
        # The CLI uninstalls its tracer even on success.
        assert trace.current() is None

    def test_shard_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        trace_out = tmp_path / "shard.json"
        rc = main(
            ["shard", "--shards", "2", "--batches", "2", "--trace", str(trace_out)]
        )
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(trace_out.read_text())
        shard_threads = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"shard-0", "shard-1"} <= shard_threads
        assert trace.current() is None

    def test_verbose_flag_configures_logging(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["-vv", "table1"])
        assert args.verbosity == 2
        # The info subcommand keeps its own --verbose untouched.
        args = build_parser().parse_args(["info", "--verbose"])
        assert args.verbose is True
        assert args.verbosity == 0
