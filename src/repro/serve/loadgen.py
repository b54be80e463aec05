"""Synthetic serving traffic: Poisson arrivals over mixed tenants/models.

The north-star workload is many independent clients firing small
requests at shared models.  :class:`LoadGenerator` reproduces that
shape synthetically: exponential inter-arrival times at ``rate_rps``
(``None`` degenerates to a back-to-back burst — the throughput-limit
regime benchmarks use), tenants and models drawn from weighted mixes,
and inputs drawn from per-model sample pools.  Everything is seeded,
so a load run is reproducible arrival-for-arrival.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.stats import LatencySummary
from repro.serve.requests import RequestHandle
from repro.serve.server import InferenceServer


@dataclass(frozen=True)
class LoadSpec:
    """Shape of one synthetic load run.

    ``rate_rps=None`` submits with no pacing (closed burst); otherwise
    arrivals are Poisson at the given offered rate.  ``tenant_weights``
    and ``model_weights`` are relative draw probabilities.
    """

    n_requests: int = 64
    rate_rps: Optional[float] = None
    tenant_weights: Dict[str, float] = field(
        default_factory=lambda: {"default": 1.0}
    )
    model_weights: Optional[Dict[str, float]] = None  # None: uniform over pools
    samples_per_request: int = 1
    seed: int = 0
    result_timeout_s: float = 60.0

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {self.rate_rps}")
        if self.samples_per_request < 1:
            raise ValueError(
                f"samples_per_request must be >= 1, got {self.samples_per_request}"
            )
        if not self.tenant_weights:
            raise ValueError("tenant_weights cannot be empty")


@dataclass
class TenantLoadReport:
    tenant: str
    submitted: int
    completed: int
    rejected: int
    failed: int
    cancelled: int


@dataclass
class LoadReport:
    """Outcome of one load run (client-side view)."""

    n_requests: int
    wall_s: float
    completed: int
    rejected: int
    failed: int
    cancelled: int
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    tenants: List[TenantLoadReport] = field(default_factory=list)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    def rows(self) -> List[Tuple]:
        return [
            (t.tenant, t.submitted, t.completed, t.rejected, t.failed, t.cancelled)
            for t in self.tenants
        ]


class LoadGenerator:
    """Drives an :class:`InferenceServer` with seeded synthetic traffic.

    ``inputs`` maps model name -> a sample pool array ``(pool, ...)``;
    each request draws ``samples_per_request`` consecutive samples from
    the named model's pool (wrapping), so the full request stream is a
    pure function of the spec seed.
    """

    def __init__(
        self,
        server: InferenceServer,
        spec: LoadSpec,
        inputs: Dict[str, np.ndarray],
    ):
        if not inputs:
            raise ValueError("inputs cannot be empty")
        if spec.model_weights is not None:
            missing = sorted(set(spec.model_weights) - set(inputs))
            if missing:
                raise ValueError(
                    f"model_weights name models with no input pool: {missing}"
                )
        for name, pool in inputs.items():
            if pool.ndim < 2 or pool.shape[0] < spec.samples_per_request:
                raise ValueError(
                    f"input pool for {name!r} must hold at least "
                    f"{spec.samples_per_request} samples with a batch axis"
                )
        self.server = server
        self.spec = spec
        self.inputs = inputs

    def schedule(self) -> List[Tuple[float, str, str, np.ndarray]]:
        """The seeded arrival plan: ``(offset_s, tenant, model, x)``."""
        spec = self.spec
        rng = np.random.default_rng(spec.seed)
        tenants = sorted(spec.tenant_weights)
        t_weights = np.asarray([spec.tenant_weights[t] for t in tenants], dtype=float)
        t_weights = t_weights / t_weights.sum()
        if spec.model_weights is not None:
            models = sorted(spec.model_weights)
            m_weights = np.asarray(
                [spec.model_weights[m] for m in models], dtype=float
            )
        else:
            models = sorted(self.inputs)
            m_weights = np.ones(len(models))
        m_weights = m_weights / m_weights.sum()

        offset = 0.0
        plan = []
        for index in range(spec.n_requests):
            if spec.rate_rps is not None:
                offset += float(rng.exponential(1.0 / spec.rate_rps))
            tenant = tenants[int(rng.choice(len(tenants), p=t_weights))]
            model = models[int(rng.choice(len(models), p=m_weights))]
            pool = self.inputs[model]
            start = (index * spec.samples_per_request) % pool.shape[0]
            stop = start + spec.samples_per_request
            if stop <= pool.shape[0]:
                x = pool[start:stop]
            else:  # wrap around the pool
                x = np.concatenate([pool[start:], pool[: stop - pool.shape[0]]])
            plan.append((offset, tenant, model, x))
        return plan

    def run(self) -> LoadReport:
        """Submit the full plan (paced when ``rate_rps``), await results."""
        spec = self.spec
        plan = self.schedule()
        handles: List[Tuple[str, RequestHandle]] = []
        start = time.monotonic()
        for offset, tenant, model, x in plan:
            if spec.rate_rps is not None:
                delay = offset - (time.monotonic() - start)
                if delay > 0:
                    time.sleep(delay)
            handles.append((tenant, self.server.submit(model, x, tenant=tenant)))
        results = [
            (tenant, handle.result(timeout=spec.result_timeout_s))
            for tenant, handle in handles
        ]
        wall = time.monotonic() - start

        per_tenant: Dict[str, TenantLoadReport] = {}
        latencies = []
        for tenant, result in results:
            report = per_tenant.get(tenant)
            if report is None:
                report = per_tenant[tenant] = TenantLoadReport(tenant, 0, 0, 0, 0, 0)
            report.submitted += 1
            # The server's terminal states: completed / failed /
            # cancelled by name, every typed rejection as ``rejected``.
            state = "rejected" if result.status.rejected else result.status.value
            setattr(report, state, getattr(report, state) + 1)
            if result.ok:
                latencies.append(result.latency_s)
        tenants = [per_tenant[t] for t in sorted(per_tenant)]
        summary = LatencySummary.of(latencies)
        return LoadReport(
            n_requests=spec.n_requests,
            wall_s=wall,
            completed=sum(t.completed for t in tenants),
            rejected=sum(t.rejected for t in tenants),
            failed=sum(t.failed for t in tenants),
            cancelled=sum(t.cancelled for t in tenants),
            p50_latency_s=summary.p50_s,
            p95_latency_s=summary.p95_s,
            p99_latency_s=summary.p99_s,
            tenants=tenants,
        )
