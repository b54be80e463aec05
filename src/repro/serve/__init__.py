"""Multi-tenant dynamic-batching inference serving over ``repro.runtime``.

The YOLoC chip's economics are amortization: weights are programmed
once (at mask time; in software, :func:`repro.runtime.compile`) and
every inference afterwards only streams activations.  This package is
the traffic layer that completes the picture — it takes many
independent, differently-sized requests from many tenants and turns
them into efficient batched execution on compiled models:

* :class:`ModelRegistry` — compile-and-cache named models (sharing the
  runtime's :class:`~repro.runtime.EngineCache`), hot registration,
  hot swap, eviction; ``register(..., shards=n)`` serves a
  chiplet-sharded deployment (:mod:`repro.runtime.sharded`) with link
  energy folded into tenant accounting.
* :class:`BatchPolicy` / :class:`RequestQueue` — bounded admission
  (typed rejects for backpressure), per-tenant round-robin fairness,
  and dynamic micro-batching under ``max_batch_size`` / ``max_wait_s``.
* :class:`InferenceServer` — a thread worker pool draining the queue
  into :meth:`CompiledModel.run` (the numpy kernels release the GIL),
  with one lock-guarded :class:`~repro.runtime.ExecutionSession` per
  tenant.
* :class:`ServerMetrics` — owns the server's
  :class:`~repro.obs.MetricsRegistry` and counts requests, rejections,
  batches and faults in its instruments; its snapshot adds rolling
  throughput, p50/p95/p99 latency, queue depth, batch-size histogram
  and per-tenant energy per sample.
* :class:`LoadGenerator` — seeded Poisson traffic over mixed
  tenants/models, driving the ``repro serve`` CLI command and the
  serving benchmarks.

Numerics contract: each executed batch is one ``CompiledModel.run``
call, bitwise-identical to ``runtime.reference_forward`` over the same
coalesced inputs.  Activation quantization is batch-global (seed
semantics), so the executed batch is the unit of numerical identity;
run with ``max_batch_size=1`` when per-request numerics must be pinned.
"""

from repro.serve.requests import (
    InferenceRequest,
    InferenceResult,
    RequestHandle,
    RequestStatus,
)
from repro.serve.registry import ModelRegistry, RegisteredModel, UnknownModelError
from repro.serve.scheduler import BatchPolicy, RequestQueue
from repro.serve.metrics import (
    MetricsSnapshot,
    ServerMetrics,
    TenantMetrics,
    fraction_of_stats,
    percentile,
)
from repro.serve.server import ExecutedBatch, InferenceServer
from repro.serve.loadgen import LoadGenerator, LoadReport, LoadSpec, TenantLoadReport

__all__ = [
    "InferenceRequest",
    "InferenceResult",
    "RequestHandle",
    "RequestStatus",
    "ModelRegistry",
    "RegisteredModel",
    "UnknownModelError",
    "BatchPolicy",
    "RequestQueue",
    "MetricsSnapshot",
    "ServerMetrics",
    "TenantMetrics",
    "fraction_of_stats",
    "percentile",
    "ExecutedBatch",
    "InferenceServer",
    "LoadGenerator",
    "LoadReport",
    "LoadSpec",
    "TenantLoadReport",
]
