"""Serving metrics: throughput, latency percentiles, batching, energy.

:class:`ServerMetrics` owns the server's
:class:`~repro.obs.metrics.MetricsRegistry` and is the one place a
server number is counted: every monotone count (requests by terminal
state, typed rejections, batches, chaos faults and recoveries, the
per-tenant request counters) is a registry instrument incremented here,
so the Prometheus / JSON exposition and :class:`MetricsSnapshot` read
the same values.  A request is counted twice in its life: once at
submission (:meth:`ServerMetrics.observe_submitted`) and once at its
terminal state (:meth:`ServerMetrics.observe`, which the server's one
terminal path calls for every rejection, failure, cancellation and
executed batch).  Everything is O(1) per observation on the worker hot
path — a counter bump, a ring buffer for latencies, a timestamp deque
for the rolling-throughput window — with aggregation deferred to
:meth:`ServerMetrics.snapshot`.  Energy per sample per
tenant comes from the tenants' :class:`~repro.runtime.ExecutionSession`
accumulators, which the server feeds with each tenant's proportional
share of its executed batch's :class:`~repro.cim.macro.MacroStats`
(computed by :func:`fraction_of_stats`, once per distinct sample count
in the batch).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cim.macro import MacroStats
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.stats import LatencySummary, percentile  # noqa: F401  (re-export)
from repro.serve.requests import InferenceResult

#: MacroStats fields that describe the batch's *shared* critical path —
#: every request coalesced into a batch experiences the full latency, so
#: these are carried through :func:`fraction_of_stats` unscaled.  Every
#: other field is additive activity and scales with the sample share;
#: a newly added field therefore scales by default and must be listed
#: here explicitly to opt out (``tests/test_obs.py`` guards the drift).
SHARED_STAT_FIELDS = frozenset({"latency_ns", "link_latency_ns"})

#: ``(name, shared)`` per MacroStats field, decided once at import.
_STAT_FIELDS = tuple(
    (fld.name, fld.name in SHARED_STAT_FIELDS) for fld in dataclasses.fields(MacroStats)
)


def fraction_of_stats(stats: MacroStats, numerator: int, denominator: int) -> MacroStats:
    """``numerator / denominator`` of a batch's stats, field by field.

    Used to attribute one executed batch's activity to the requests (and
    tenants) coalesced into it, proportionally to their sample counts.
    The server calls it once per distinct ``numerator`` in a batch and
    hands the (immutable) result to every request and tenant with that
    count, so equal counts get bitwise-equal — indeed the same — shares.
    Count fields become fractional in general; they are accounting
    quantities, and per-tenant sums over a full batch stay exact.

    Fields are enumerated via ``dataclasses.fields(MacroStats)`` at import
    so a newly added field cannot be silently dropped: it either scales
    (the additive default) or sits in :data:`SHARED_STAT_FIELDS`.
    """
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    f = numerator / denominator
    return MacroStats(
        **{
            name: getattr(stats, name) if shared else getattr(stats, name) * f
            for name, shared in _STAT_FIELDS
        }
    )


@dataclass
class TenantMetrics:
    """Per-tenant aggregate of one snapshot."""

    tenant: str
    completed: int
    samples: int
    rejected: int
    failed: int
    cancelled: int
    energy_per_sample_fj: float
    macs_per_sample: float


@dataclass
class MetricsSnapshot:
    """Consistent point-in-time view of server activity."""

    submitted: int
    completed: int
    failed: int
    cancelled: int
    rejected: Dict[str, int]
    queue_depth: int
    batches: int
    batch_size_hist: Dict[int, int]
    throughput_rps: float
    throughput_sps: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_queued_s: float
    uptime_s: float = 0.0
    window_s: float = 0.0
    tenants: List[TenantMetrics] = field(default_factory=list)
    # Chaos / failover accounting.
    faults: Dict[str, int] = field(default_factory=dict)
    recoveries: int = 0
    recovery_dropped: int = 0
    recovery_replayed: int = 0
    mean_recovery_s: float = 0.0

    @property
    def mean_batch_size(self) -> float:
        total = sum(size * n for size, n in self.batch_size_hist.items())
        n_batches = sum(self.batch_size_hist.values())
        return total / n_batches if n_batches else 0.0

    @property
    def total_rejected(self) -> int:
        return sum(self.rejected.values())

    def rows(self) -> List[Tuple]:
        """``(metric, value)`` rows for ``experiments.common.format_table``."""
        return [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("rejected", self.total_rejected),
            ("failed", self.failed),
            ("cancelled", self.cancelled),
            ("queue_depth", self.queue_depth),
            ("batches", self.batches),
            ("mean_batch", round(self.mean_batch_size, 2)),
            ("throughput_rps", round(self.throughput_rps, 1)),
            ("throughput_sps", round(self.throughput_sps, 1)),
            ("p50_ms", round(self.p50_latency_s * 1e3, 3)),
            ("p95_ms", round(self.p95_latency_s * 1e3, 3)),
            ("p99_ms", round(self.p99_latency_s * 1e3, 3)),
            ("mean_queued_ms", round(self.mean_queued_s * 1e3, 3)),
            # Self-describing: a snapshot read in isolation states the
            # horizon its rates were computed over.
            ("uptime_s", round(self.uptime_s, 1)),
            ("window_s", round(self.window_s, 1)),
            ("faults", sum(self.faults.values())),
            ("recoveries", self.recoveries),
            ("recovery_dropped", self.recovery_dropped),
            ("recovery_replayed", self.recovery_replayed),
            ("mean_recovery_ms", round(self.mean_recovery_s * 1e3, 3)),
        ]

    def tenant_rows(self) -> List[Tuple]:
        return [
            (
                t.tenant,
                t.completed,
                t.samples,
                t.rejected,
                t.failed,
                t.cancelled,
                round(t.energy_per_sample_fj / 1e6, 3),  # nJ
                round(t.macs_per_sample / 1e6, 3),  # M MACs
            )
            for t in self.tenants
        ]


#: Latency / queued ring-buffer length the percentiles are computed over.
_HISTORY = 4096


class _TenantCounters(NamedTuple):
    """One tenant's children of the ``repro_tenant_*_total`` families."""

    completed: Counter
    rejected: Counter
    failed: Counter
    cancelled: Counter


class _Children(dict):
    """``label value -> bound child``, created on first use, so the hot
    path pays a dict lookup rather than ``_Family.labels``' validation."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        child = self[key] = self._make(key)
        return child


class ServerMetrics:
    """Thread-safe serving metrics over registry instruments.

    Counts live in :attr:`registry` (unlabelled children bound here,
    labelled ones on first use) and every increment happens under this
    collector's one lock — which is what lets the hot path add to a
    counter child's ``value`` directly — so :meth:`snapshot`, which
    reads the same instruments plus the windowed state no instrument
    can hold (latency and queued rings, the completion window, exact
    batch sizes), stays a consistent cross-family view.  ``window_s``
    bounds the rolling-throughput horizon.
    """

    def __init__(self, window_s: float = 60.0):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        self._born = time.monotonic()
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=_HISTORY)
        self._queued: Deque[float] = deque(maxlen=_HISTORY)
        self._completions: Deque[Tuple[float, int, int]] = deque()  # (t, requests, samples)
        self._batch_sizes: Dict[int, int] = {}
        self._recovery_wall_s: List[float] = []

        self.registry = registry = MetricsRegistry()

        def counter(name: str, help: str) -> Counter:
            return registry.counter(f"repro_{name}_total", help).labels()

        self._submitted = counter(
            "requests_submitted", "Requests admitted to submit()."
        )
        self._states = {  # by status value; rejections count by reason
            "completed": counter("requests_completed", "Requests completed successfully."),
            "failed": counter("requests_failed", "Requests failed during execution."),
            "cancelled": counter("requests_cancelled", "Requests cancelled at shutdown."),
        }
        self._batches = counter("batches_executed", "Dynamic batches executed.")
        self._recoveries = counter("chaos_recoveries", "Completed shard failovers.")
        self._recovery_dropped = counter(
            "chaos_recovery_dropped", "Requests dropped (cancelled) by failovers."
        )
        self._recovery_replayed = counter(
            "chaos_recovery_replayed",
            "Requests requeued for exactly-once replay by failovers.",
        )
        self._batch_size = registry.histogram(
            "repro_batch_size", "Samples per executed dynamic batch."
        ).labels()
        rejected = registry.counter(
            "repro_requests_rejected_total", "Typed admission rejections.", ("reason",)
        )
        self._rejected = _Children(lambda reason: rejected.labels(reason=reason))
        faults = registry.counter(
            "repro_chaos_faults_total",
            "Chaos faults fired against the server, by fault kind.",
            ("kind",),
        )
        self._faults = _Children(lambda kind: faults.labels(kind=kind))
        per_tenant = [
            registry.counter(
                f"repro_tenant_{state}_total",
                f"{state.capitalize()} requests per tenant.",
                ("tenant",),
            )
            for state in _TenantCounters._fields
        ]
        # A tenant's four children are born together, so every
        # per-tenant family lists every tenant the server has seen.
        self._tenants = _Children(
            lambda tenant: _TenantCounters(
                *(family.labels(tenant=tenant) for family in per_tenant)
            )
        )

    # -- hot-path observations ----------------------------------------
    def observe_submitted(self) -> None:
        with self._lock:
            self._submitted.value += 1

    def observe(
        self,
        results: Sequence[InferenceResult],
        batch_samples: int = 0,
        now: Optional[float] = None,
    ) -> None:
        """Count terminal ``results``, each under its status and tenant.

        ``batch_samples > 0`` marks ``results`` as one executed batch of
        that many samples: its size, the requests' latencies and queued
        times and its completion-window entry are recorded under the
        same lock acquisition.  (The submission itself is counted by
        ``observe_submitted``, which runs first for every request.)
        """
        with self._lock:
            for result in results:
                state = result.status.value
                counter = self._states.get(state)
                if counter is None:  # a typed rejection, counted by reason
                    counter = self._rejected[state]
                    state = "rejected"
                counter.value += 1
                getattr(self._tenants[result.tenant], state).value += 1
            if batch_samples:
                now = time.monotonic() if now is None else now
                self._batches.value += 1
                self._batch_size.observe(batch_samples)
                self._batch_sizes[batch_samples] = (
                    self._batch_sizes.get(batch_samples, 0) + 1
                )
                self._latencies.extend([r.latency_s for r in results])
                self._queued.extend([r.queued_s for r in results])
                self._completions.append((now, len(results), batch_samples))
                self._trim(now)

    def observe_fault(self, kind: str) -> None:
        """Record one chaos fault firing (by fault kind)."""
        with self._lock:
            self._faults[kind].value += 1

    def observe_recovery(
        self, wall_s: float, *, dropped: int = 0, replayed: int = 0
    ) -> None:
        """Record one completed failover: wall time and batch accounting."""
        with self._lock:
            self._recoveries.value += 1
            self._recovery_wall_s.append(float(wall_s))
            self._recovery_dropped.value += dropped
            self._recovery_replayed.value += replayed

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        while self._completions and self._completions[0][0] < horizon:
            self._completions.popleft()

    # -- aggregation ---------------------------------------------------
    def snapshot(self, queue_depth: int = 0, sessions=None) -> MetricsSnapshot:
        """Aggregate a consistent snapshot.

        ``sessions`` is an optional ``{tenant: ExecutionSession}`` map
        (the server passes its own) feeding per-tenant energy rows.
        """
        now = time.monotonic()
        with self._lock:
            self._trim(now)
            lat = np.asarray(self._latencies, dtype=np.float64)
            queued = np.asarray(self._queued, dtype=np.float64)
            window_requests = sum(r for _, r, _ in self._completions)
            window_samples = sum(n for _, _, n in self._completions)
            # Rate over the collector's actual horizon, not the gap to
            # the first in-window completion: a lone recent completion
            # in a sparse window must not read as hundreds of req/s.
            span = min(self.window_s, max(now - self._born, 1e-9))
            summary = LatencySummary.of(lat)
            snapshot = MetricsSnapshot(
                submitted=int(self._submitted.value),
                completed=int(self._states["completed"].value),
                failed=int(self._states["failed"].value),
                cancelled=int(self._states["cancelled"].value),
                rejected={k: int(c.value) for k, c in self._rejected.items()},
                queue_depth=queue_depth,
                batches=int(self._batches.value),
                batch_size_hist=dict(self._batch_sizes),
                throughput_rps=window_requests / span,
                throughput_sps=window_samples / span,
                p50_latency_s=summary.p50_s,
                p95_latency_s=summary.p95_s,
                p99_latency_s=summary.p99_s,
                mean_queued_s=float(queued.mean()) if queued.size else 0.0,
                uptime_s=now - self._born,
                window_s=self.window_s,
                faults={k: int(c.value) for k, c in self._faults.items()},
                recoveries=int(self._recoveries.value),
                recovery_dropped=int(self._recovery_dropped.value),
                recovery_replayed=int(self._recovery_replayed.value),
                mean_recovery_s=(
                    float(np.mean(self._recovery_wall_s))
                    if self._recovery_wall_s
                    else 0.0
                ),
            )
            tenants = {
                tenant: [int(c.value) for c in counters]
                for tenant, counters in self._tenants.items()
            }
        if sessions is not None:
            for tenant in sorted(tenants):
                session = sessions.get(tenant)
                stats, _, samples = (
                    session.snapshot() if session is not None else (None, 0, 0)
                )
                completed, rejected, failed, cancelled = tenants[tenant]
                snapshot.tenants.append(
                    TenantMetrics(
                        tenant=tenant,
                        completed=completed,
                        samples=samples,
                        rejected=rejected,
                        failed=failed,
                        cancelled=cancelled,
                        energy_per_sample_fj=(
                            stats.total_energy_fj / samples if samples else 0.0
                        ),
                        macs_per_sample=stats.macs / samples if samples else 0.0,
                    )
                )
        return snapshot
