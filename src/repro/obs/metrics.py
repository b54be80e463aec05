"""Metrics registry with Prometheus and JSON exposition.

:class:`MetricsRegistry` holds the three standard instrument kinds
(counter, gauge, histogram) with optional labels, and renders the whole
registry as:

* **Prometheus text exposition** (:meth:`MetricsRegistry.to_prometheus`)
  — ``# HELP`` / ``# TYPE`` headers, ``name{label="value"} value``
  samples, cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count``
  histogram triples — scrapeable by any Prometheus-compatible agent;
* **JSON** (:meth:`MetricsRegistry.to_json`) — the same families as a
  plain dict for programmatic consumers.

There is one metrics model: a server's
:class:`~repro.serve.metrics.ServerMetrics` owns a registry and counts
every request, batch, rejection and fault *in* its instruments, so
those families are always live.  :func:`collect_server` only refreshes,
on that same registry, the families whose source of truth lives
elsewhere — point-in-time gauges (queue depth, latency quantiles,
throughput, per-tenant energy) and the two counters mirrored from the
tenants' sessions and the engine cache's ``CacheStats`` — and returns
it: the implementation behind ``repro serve --metrics OUT.prom``.
"""

from __future__ import annotations

import dataclasses
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (upper bounds); chosen for batch sizes and
#: sub-second latencies alike.  ``+Inf`` is implicit.
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    f = float(value)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def _label_str(label_names: Sequence[str], label_values: Tuple[str, ...]) -> str:
    if not label_names:
        return ""
    pairs = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in zip(label_names, label_values)
    )
    return "{" + pairs + "}"


class Counter:
    """Monotone counter child (one label combination).

    ``inc`` and ``advance_to`` are safe from any thread.  An owner that
    already serialises every writer of a child under a lock of its own
    (``ServerMetrics`` on its hot path) may add to ``value`` directly
    instead of paying for a second lock and a call per increment.
    """

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += amount

    def advance_to(self, total: float) -> None:
        """Advance by the delta up to ``total``, a monotone count kept
        elsewhere — so collecting it twice equals collecting it once."""
        with self._lock:
            self.value += max(0.0, total - self.value)


class Gauge:
    """Set-to-current-value instrument child."""

    __slots__ = ("_value", "_lock")

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram child (Prometheus semantics)."""

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(self, buckets: Sequence[float]):
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` (``count`` times, for pre-binned input)."""
        with self._lock:
            self._sum += value * count
            self._count += count
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += count
                    break

    def snapshot(self) -> Tuple[List[int], float, int]:
        """(cumulative bucket counts, sum, count)."""
        with self._lock:
            cumulative: List[int] = []
            running = 0
            for c in self._counts:
                running += c
                cumulative.append(running)
            return cumulative, self._sum, self._count


class _Family:
    """One named metric family: type + help + children per label set."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self._buckets = buckets
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child for this label combination (created on first use)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self._buckets or DEFAULT_BUCKETS)

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label values, child)`` pairs, sorted by label values so the
        exposition does not depend on which label was seen first."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """Named families of counters / gauges / histograms.

    Re-declaring a family with the same name and kind returns the
    existing one, and every collector below either sets a gauge or
    advances a counter by its delta, so collectors are idempotent;
    re-declaring with a different kind or labels is a hard error.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _declare(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != tuple(label_names):
                    raise ValueError(
                        f"metric {name!r} already declared as {family.kind}"
                        f"{family.label_names}, not {kind}{tuple(label_names)}"
                    )
                return family
            family = _Family(name, kind, help, label_names, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> _Family:
        return self._declare(name, "counter", help, label_names)

    def gauge(
        self, name: str, help: str = "", label_names: Sequence[str] = ()
    ) -> _Family:
        return self._declare(name, "gauge", help, label_names)

    def histogram(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> _Family:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        return self._declare(name, "histogram", help, label_names, buckets)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- exposition ----------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition format, version 0.0.4."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.children():
                labels = _label_str(family.label_names, values)
                if isinstance(child, Histogram):
                    cumulative, total, count = child.snapshot()
                    for bound, n in zip(child.buckets, cumulative):
                        le = _merge_le(family.label_names, values, bound)
                        lines.append(f"{family.name}_bucket{le} {n}")
                    le = _merge_le(family.label_names, values, float("inf"))
                    lines.append(f"{family.name}_bucket{le} {count}")
                    lines.append(
                        f"{family.name}_sum{labels} {_format_value(total)}"
                    )
                    lines.append(f"{family.name}_count{labels} {count}")
                else:
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_json(self) -> Dict[str, object]:
        """The same families as a JSON-ready dict."""
        out: List[Dict[str, object]] = []
        for family in self.families():
            samples: List[Dict[str, object]] = []
            for values, child in family.children():
                labels = dict(zip(family.label_names, values))
                if isinstance(child, Histogram):
                    cumulative, total, count = child.snapshot()
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": {
                                _format_value(b): n
                                for b, n in zip(child.buckets, cumulative)
                            },
                            "sum": total,
                            "count": count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out.append(
                {
                    "name": family.name,
                    "type": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return {"metrics": out}


def _merge_le(
    label_names: Sequence[str], values: Tuple[str, ...], bound: float
) -> str:
    names = tuple(label_names) + ("le",)
    vals = values + (_format_value(bound),)
    return _label_str(names, vals)


# -- collectors --------------------------------------------------------


def collect_cache(cache, registry: MetricsRegistry) -> None:
    """Fold an :class:`~repro.runtime.cache.EngineCache`'s counters in.

    Iterates ``dataclasses.fields(CacheStats)`` so a newly added counter
    shows up here without an edit (the same drift-proofing as
    ``fraction_of_stats``).
    """
    stats = cache.stats
    family = registry.counter(
        "repro_engine_cache_events_total",
        "Engine-cache activity by event (memory and disk tiers).",
        ("event",),
    )
    for f in dataclasses.fields(stats):
        family.labels(event=f.name).advance_to(getattr(stats, f.name))
    registry.gauge(
        "repro_engine_cache_entries",
        "Programmed engines currently resident in the memory tier.",
    ).labels().set(len(cache))


def collect_server(server) -> MetricsRegistry:
    """Refresh a live :class:`InferenceServer`'s registry and return it.

    The request / batch / rejection / fault counters and the batch-size
    histogram are live instruments ``server.metrics`` increments as it
    observes; this only brings the families counted elsewhere up to
    date on the same registry: gauges from one ``server.snapshot()``,
    the shared engine cache, and per-tenant session samples / energy.
    """
    registry = server.metrics.registry
    snap = server.snapshot()

    for name, help, value in (
        ("queue_depth", "Requests waiting in the scheduler queue.", snap.queue_depth),
        (
            "throughput_rps",
            "Completed requests/s over the rolling window.",
            snap.throughput_rps,
        ),
        (
            "throughput_sps",
            "Completed samples/s over the rolling window.",
            snap.throughput_sps,
        ),
        (
            "uptime_seconds",
            "Seconds since the metrics collector was born.",
            snap.uptime_s,
        ),
        ("metrics_window_seconds", "Rolling-throughput window size.", snap.window_s),
        ("queued_seconds_mean", "Mean time requests spent queued.", snap.mean_queued_s),
        (
            "chaos_recovery_seconds_mean",
            "Mean wall-clock failover recovery time.",
            snap.mean_recovery_s,
        ),
    ):
        registry.gauge(f"repro_{name}", help).labels().set(value)
    latency = registry.gauge(
        "repro_request_latency_seconds",
        "End-to-end request latency, nearest-rank quantiles.",
        ("quantile",),
    )
    latency.labels(quantile="0.5").set(snap.p50_latency_s)
    latency.labels(quantile="0.95").set(snap.p95_latency_s)
    latency.labels(quantile="0.99").set(snap.p99_latency_s)

    collect_cache(server.registry.cache, registry)

    samples = registry.counter(
        "repro_tenant_samples_total", "Executed samples per tenant.", ("tenant",)
    )
    energy = registry.gauge(
        "repro_tenant_energy_per_sample_fj",
        "Session energy per executed sample (fJ) per tenant.",
        ("tenant",),
    )
    macs = registry.gauge(
        "repro_tenant_macs_per_sample",
        "MAC operations per executed sample per tenant.",
        ("tenant",),
    )
    for t in snap.tenants:
        samples.labels(tenant=t.tenant).advance_to(t.samples)
        energy.labels(tenant=t.tenant).set(t.energy_per_sample_fj)
        macs.labels(tenant=t.tenant).set(t.macs_per_sample)
    return registry


def export_prometheus(registry: MetricsRegistry, path: str) -> None:
    """Write the registry's text exposition to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(registry.to_prometheus())
