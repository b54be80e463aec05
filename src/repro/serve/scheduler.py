"""Dynamic micro-batching: turn request traffic into batched execution.

The ROM-CiM macros amortize over batch extent (one bit-plane
extraction, one fused count GEMM and one ADC gather per call, whatever
the batch size), so a server that executes every request alone wastes
most of what the compile-once runtime bought.  The
:class:`RequestQueue` here coalesces admitted requests into dynamic
batches under a :class:`BatchPolicy`:

* a batch closes as soon as ``max_batch_size`` samples are pending for
  one model, or once the oldest pending request has waited
  ``max_wait_s`` — latency-bounded batching;
* requests are drawn round-robin across tenants, so a flooding tenant
  cannot starve a light one out of the next batch (weighted fair
  queuing degenerates to this for equal weights);
* admission is bounded: ``max_queue_depth`` samples overall and
  optionally ``max_pending_per_tenant``, with rejects surfaced as typed
  results by the server — backpressure, not unbounded buffering.

Batches never mix models (they execute on one compiled image), but they
freely mix tenants; the server splits the executed batch's stats back
per tenant.  A request enters the queue through one insertion,
``RequestQueue._enqueue`` — at the back of its lane when offered, at
the front when a failover requeues it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.obs import trace
from repro.serve.requests import InferenceRequest


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing and admission-control policy of one server.

    Sample-counting: ``max_batch_size`` and ``max_queue_depth`` count
    *samples* (a multi-sample request occupies its ``x.shape[0]``), so
    the policy bounds actual work, not request objects.

    Fields
    ------
    ``max_batch_size``
        Close a model's batch as soon as this many samples are pending
        for it.  ``1`` disables coalescing — the per-request baseline
        regime, which also pins per-request numerics exactly (see
        docs/numerics.md).  A single request larger than the budget
        still executes, alone.
    ``max_wait_s``
        Latency bound on batching: a batch also closes once its oldest
        request has waited this long, whatever has arrived by then.
        ``0`` releases immediately (batching only coalesces what is
        simultaneously pending).
    ``max_queue_depth``
        Bounded admission across all models, in samples.  A full queue
        refuses with ``REJECTED_QUEUE_FULL`` (typed backpressure), never
        buffers without bound.
    ``max_pending_per_tenant``
        Optional per-tenant admission cap, in samples
        (``REJECTED_TENANT_LIMIT``): one tenant cannot occupy the whole
        queue.  ``None`` disables the cap.
    """

    max_batch_size: int = 16
    max_wait_s: float = 0.002
    max_queue_depth: int = 256
    max_pending_per_tenant: Optional[int] = None

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.max_wait_s < 0:
            raise ValueError(f"max_wait_s cannot be negative, got {self.max_wait_s}")


class _ModelLane:
    """Pending requests of one model, fair-queued across tenants."""

    __slots__ = ("model", "tenants", "rotation", "samples", "head_seq")

    def __init__(self, model: str):
        self.model = model
        self.tenants: Dict[str, Deque[InferenceRequest]] = {}
        self.rotation: Deque[str] = deque()
        self.samples = 0
        self.head_seq = 0  # arrival seq of the oldest pending request

    def push(self, request: InferenceRequest, front: bool = False) -> None:
        """Queue ``request`` behind its tenant's pending requests — or,
        ``front``, ahead of them (a new tenant then leads the rotation)
        — keeping ``head_seq`` at the oldest pending seq."""
        if not self.tenants or request.seq < self.head_seq:
            self.head_seq = request.seq
        pending = self.tenants.get(request.tenant)
        if pending is None:
            pending = self.tenants[request.tenant] = deque()
            (self.rotation.appendleft if front else self.rotation.append)(
                request.tenant
            )
        (pending.appendleft if front else pending.append)(request)
        self.samples += request.n_samples

    def oldest(self) -> InferenceRequest:
        return min(
            (pending[0] for pending in self.tenants.values() if pending),
            key=lambda r: r.seq,
        )

    def draw(self, max_samples: int) -> List[InferenceRequest]:
        """Round-robin across tenants until the sample budget is filled.

        Always yields at least one request, so a single request larger
        than ``max_samples`` still executes (alone) rather than starving.
        """
        batch: List[InferenceRequest] = []
        drawn = 0
        while self.rotation:
            tenant = self.rotation[0]
            pending = self.tenants[tenant]
            request = pending[0]
            if batch and drawn + request.n_samples > max_samples:
                break
            pending.popleft()
            batch.append(request)
            drawn += request.n_samples
            self.samples -= request.n_samples
            # Rotate: next tenant gets the next slot.  Drop drained lanes.
            self.rotation.popleft()
            if pending:
                self.rotation.append(tenant)
            else:
                del self.tenants[tenant]
            if drawn >= max_samples:
                break
        return batch

    @property
    def empty(self) -> bool:
        return not self.tenants


class RequestQueue:
    """Bounded, tenant-fair request queue with dynamic batch formation.

    ``offer`` is the admission side (non-blocking, returns an admission
    verdict); ``next_batch`` is the worker side (blocks until a batch is
    ready under the policy, or the queue closes).
    """

    OK = "ok"
    FULL = "full"
    TENANT_LIMIT = "tenant_limit"
    CLOSED = "closed"

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._lanes: "OrderedDict[str, _ModelLane]" = OrderedDict()
        self._depth = 0  # admitted samples not yet drawn into a batch
        self._tenant_pending: Dict[str, int] = {}
        self._seq = 0
        self._closed = False
        self._flush_on_close = True

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`close` has run (event-based, no polling).

        ``close`` notifies the queue's condition variable, so this is a
        real synchronization point — used by shutdown tests that must
        order "the queue is closed" against a blocked worker without
        sleeping.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while not self._closed:
                wait = None
                if deadline is not None:
                    wait = deadline - time.monotonic()
                    if wait <= 0:
                        return False
                self._ready.wait(wait)
            return True

    def offer(self, request: InferenceRequest) -> str:
        """Admit ``request`` or return a typed refusal reason."""
        policy = self.policy
        with self._lock:
            if self._closed:
                return self.CLOSED
            if self._depth + request.n_samples > policy.max_queue_depth:
                return self.FULL
            if policy.max_pending_per_tenant is not None:
                pending = self._tenant_pending.get(request.tenant, 0)
                if pending + request.n_samples > policy.max_pending_per_tenant:
                    return self.TENANT_LIMIT
            request.seq = self._seq
            self._seq += 1
            self._enqueue(request)
            self._ready.notify()
            return self.OK

    def _enqueue(self, request: InferenceRequest, front: bool = False) -> None:
        """The one insertion (lock held): the request's lane, the queue
        depth and its tenant's pending count move together."""
        lane = self._lanes.get(request.model)
        if lane is None:
            lane = self._lanes[request.model] = _ModelLane(request.model)
        lane.push(request, front)
        self._depth += request.n_samples
        self._tenant_pending[request.tenant] = (
            self._tenant_pending.get(request.tenant, 0) + request.n_samples
        )

    def _pick_lane(self) -> Optional[_ModelLane]:
        """The non-empty lane holding the globally oldest request."""
        best = None
        for lane in self._lanes.values():
            if lane.empty:
                continue
            if best is None or lane.head_seq < best.head_seq:
                best = lane
        return best

    def _pick_releasable(self, now: float) -> Optional[_ModelLane]:
        """The oldest lane whose batch can close *now* — full, aged past
        ``max_wait_s``, or flushing a closed queue.  Checked across every
        lane so one model's young partial lane cannot head-of-line block
        another model's already-full batch."""
        policy = self.policy
        flushing = self._closed and self._flush_on_close
        best = None
        for lane in self._lanes.values():
            if lane.empty:
                continue
            if not (
                flushing
                or lane.samples >= policy.max_batch_size
                or now - lane.oldest().submitted_at >= policy.max_wait_s
            ):
                continue
            if best is None or lane.head_seq < best.head_seq:
                best = lane
        return best

    def next_batch(self, timeout: Optional[float] = None) -> Optional[List[InferenceRequest]]:
        """Block until a dynamic batch is ready; None on close/timeout.

        A batch is released when its lane holds ``max_batch_size``
        pending samples, or when the lane's oldest request has aged past
        ``max_wait_s`` (whatever has arrived by then executes together).
        """
        policy = self.policy
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while True:
                if self._closed and not self._flush_on_close:
                    # Cancelling shutdown: leave pending work for
                    # drain_remaining instead of executing it.
                    return None
                now = time.monotonic()
                lane = self._pick_releasable(now)
                if lane is not None:
                    return self._draw(lane)
                oldest_lane = self._pick_lane()
                if oldest_lane is not None:
                    # The globally oldest request's deadline expires
                    # first, so it bounds the sleep for every lane.
                    age = now - oldest_lane.oldest().submitted_at
                    wait = policy.max_wait_s - age
                elif self._closed:
                    return None
                else:
                    wait = None
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                self._ready.wait(wait)

    def _draw(self, lane: _ModelLane) -> List[InferenceRequest]:
        batch = lane.draw(self.policy.max_batch_size)
        for request in batch:
            pending = self._tenant_pending.get(request.tenant, 0) - request.n_samples
            if pending > 0:
                self._tenant_pending[request.tenant] = pending
            else:
                self._tenant_pending.pop(request.tenant, None)
        self._depth -= sum(r.n_samples for r in batch)
        if lane.empty:
            # Drop drained lanes: model-name churn (versioned hot
            # registrations) must not grow the scan set forever.
            self._lanes.pop(lane.model, None)
        else:
            lane.head_seq = lane.oldest().seq
        # Wake another worker: more batches may already be formable.
        if self._depth:
            self._ready.notify()
        tracer = trace.current()
        if tracer is not None and batch:
            # Retroactive, duration-anchored: the coalescing window ran
            # on the monotonic clock (request.submitted_at), so anchor
            # its *duration* onto the tracer's perf_counter timeline
            # ending now — the two clocks share no epoch.
            window = time.monotonic() - min(r.submitted_at for r in batch)
            now = time.perf_counter()
            tracer.record(
                "coalesce",
                now - max(window, 0.0),
                now,
                "serve",
                model=batch[0].model,
                requests=len(batch),
                samples=sum(r.n_samples for r in batch),
            )
        return batch

    def requeue(self, batch: List[InferenceRequest]) -> bool:
        """Re-admit a drawn batch at the *front* of its lanes.

        Used by failover: a batch displaced by a shard death goes back
        to the head of the queue (original ``seq`` values are kept, so
        age ordering and ``head_seq`` bookkeeping stay consistent) and
        re-executes exactly once on the recovered model.

        Returns ``False`` during a cancelling shutdown
        (``close(flush=False)``): the caller must complete the batch as
        cancelled itself, because ``drain_remaining`` may already have
        run and anything re-inserted here would be stranded.
        """
        if not batch:
            return True
        with self._ready:
            if self._closed and not self._flush_on_close:
                return False
            for request in reversed(batch):
                self._enqueue(request, front=True)
            self._ready.notify()
            return True

    def drain_remaining(self) -> List[InferenceRequest]:
        """Pop everything still pending (used at shutdown to cancel)."""
        with self._lock:
            remaining: List[InferenceRequest] = []
            for lane in self._lanes.values():
                while not lane.empty:
                    remaining.extend(lane.draw(self.policy.max_batch_size))
            self._lanes.clear()
            self._depth = 0
            self._tenant_pending.clear()
            remaining.sort(key=lambda r: r.seq)
            return remaining

    def close(self, flush: bool = True) -> None:
        """Stop admitting; wake every waiting worker.

        ``flush=True`` (draining shutdown) lets workers keep drawing
        until pending work is gone; ``flush=False`` (cancelling
        shutdown) makes ``next_batch`` return None immediately so
        everything pending is left for :meth:`drain_remaining`.
        """
        with self._ready:
            self._closed = True
            self._flush_on_close = self._flush_on_close and flush
            self._ready.notify_all()
