"""The inference server: worker pool over the dynamic-batching queue.

``submit`` is the admission side: it validates the model name, stamps
the request and offers it to the bounded queue — returning an
already-completed handle with a typed rejection when admission fails.
Worker threads drain the queue through
:meth:`~repro.serve.scheduler.RequestQueue.next_batch`, execute each
coalesced batch with one :meth:`CompiledModel.run` call, then fan the
outputs, timings and proportional stats back out to the requests.

Numerics: one executed batch is one ``CompiledModel.run`` call, so its
outputs are bitwise-identical to ``runtime.reference_forward`` over the
same coalesced batch — the serving layer adds scheduling, never
arithmetic.  Activation quantization scales are batch-global (seed
semantics), so the executed batch is the unit of numerical identity;
``BatchPolicy(max_batch_size=1)`` pins per-request numerics exactly.

Threads are the right worker model here: the numpy kernels under
``CompiledModel.run`` release the GIL for their GEMM/gather work, and
per-tenant :class:`~repro.runtime.ExecutionSession` accounting is
internally locked, so tenants' counters survive concurrent workers.
A wide kernel call also splits its vectors over the kernel's one
process-wide pool, one chunk per core the process may use; each worker
runs its own call's first chunk and takes back any the pool has not
started, so workers never queue behind one another's chunks.  Small
models' batches stay below the split floor and run inline (a
``Linear(32, 10)`` needs ~800 vectors to reach it).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cim.macro import MacroStats
from repro.obs import trace
from repro.obs.log import get_logger
from repro.runtime import ExecutionSession, ShardedModel
from repro.serve.metrics import ServerMetrics, MetricsSnapshot, fraction_of_stats
from repro.serve.registry import ModelRegistry
from repro.serve.requests import (
    InferenceRequest,
    InferenceResult,
    RequestHandle,
    RequestStatus,
)
from repro.serve.scheduler import BatchPolicy, RequestQueue

_log = get_logger("serve.server")


@dataclass
class ExecutedBatch:
    """Record of one executed dynamic batch (kept when ``record_batches``).

    ``inputs`` is the exact concatenated array the compiled model ran,
    so a test can replay it through ``runtime.reference_forward`` and
    pin the server's outputs bitwise.
    """

    batch_seq: int
    model: str
    request_ids: List[int]
    tenants: List[str]
    inputs: np.ndarray
    outputs: np.ndarray
    stats: MacroStats
    execute_s: float


class InferenceServer:
    """Multi-tenant dynamic-batching server over a :class:`ModelRegistry`.

    Usage::

        registry = ModelRegistry()
        registry.register("mlp", model)
        with InferenceServer(registry, BatchPolicy(max_batch_size=16)) as server:
            handle = server.submit("mlp", x, tenant="alice")
            result = handle.result(timeout=5.0)

    ``submit`` is legal before ``start`` (requests queue up and execute
    once workers run) and after ``stop`` (typed rejection).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        policy: Optional[BatchPolicy] = None,
        *,
        n_workers: int = 1,
        record_batches: bool = False,
        rng_seed: int = 0,
        chaos=None,
    ):
        """``chaos`` is an optional :class:`repro.chaos.ChaosController`:
        each executed batch consumes one chaos index (the server-side
        analogue of a stream micro-batch index), degradation windows
        route the batch through the degraded engine paths, and a fired
        shard death triggers failover — the deployment is re-planned
        around the casualty (warm from the controller's artifact store
        when possible), hot-swapped into the registry, and the displaced
        batch requeued at the head of its lane to re-execute exactly
        once.  Chaos indexes are allocated at execution start, so with
        ``n_workers > 1`` the batch → index mapping depends on worker
        interleaving; deterministic campaigns use ``n_workers=1``.
        """
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.registry = registry
        self.policy = policy if policy is not None else BatchPolicy()
        self.queue = RequestQueue(self.policy)
        self.metrics = ServerMetrics()
        self.record_batches = record_batches
        self.executed_batches: List[ExecutedBatch] = []
        self.chaos = chaos
        self.recoveries: List = []
        self._chaos_seq = 0
        self._chaos_chip_ns = 0.0
        self._n_workers = n_workers
        self._rng_seed = rng_seed
        self._workers: List[threading.Thread] = []
        self._handles: Dict[int, RequestHandle] = {}
        self._sessions: Dict[str, ExecutionSession] = {}
        self._state_lock = threading.Lock()
        self._batch_seq = 0
        self._next_id = 0
        self._stopping = False
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "InferenceServer":
        with self._state_lock:
            if self._started:
                raise RuntimeError("server already started")
            self._started = True
        for index in range(self._n_workers):
            worker = threading.Thread(
                target=self._worker_loop,
                args=(np.random.default_rng(self._rng_seed + index),),
                name=f"serve-worker-{index}",
                daemon=True,
            )
            self._workers.append(worker)
            worker.start()
        _log.debug("server started with %d workers", self._n_workers)
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = 30.0) -> None:
        """Shut down: optionally drain pending work first.

        With ``drain=True`` (default) everything already admitted
        executes before workers exit; with ``drain=False`` pending
        requests complete as ``CANCELLED``.  A server that never
        started has no workers to drain through, so its pending
        requests cancel either way rather than stranding their handles.
        """
        with self._state_lock:
            if self._stopping:
                return
            self._stopping = True
            started = self._started
        if not drain or not started:
            # Close before draining: a submit racing this stop either
            # lands before the close (drained and cancelled here) or
            # gets the typed queue-full rejection — never stranded.
            # flush=False parks the workers immediately so they cannot
            # race this drain into executing work marked for cancel.
            self.queue.close(flush=False)
            for request in self.queue.drain_remaining():
                self.metrics.observe_cancelled(request.tenant)
                self._complete_request(
                    request,
                    InferenceResult(
                        status=RequestStatus.CANCELLED,
                        request_id=request.request_id,
                        tenant=request.tenant,
                        model=request.model,
                    ),
                )
        else:
            self.queue.close()
        for worker in self._workers:
            worker.join(timeout)
        self._workers = []
        _log.debug("server stopped (drain=%s)", drain)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=not any(exc_info))

    # -- admission -----------------------------------------------------
    def submit(
        self, model: str, x: np.ndarray, tenant: str = "default"
    ) -> RequestHandle:
        """Admit one request; always returns a :class:`RequestHandle`.

        ``x`` keeps its leading batch dimension (``(1, ...)`` for a
        single sample).  Rejections (unknown model, full queue, tenant
        cap, stopped server) come back as already-completed handles with
        a typed :class:`RequestStatus`.
        """
        tracer = trace.current()
        if tracer is None:
            return self._submit_inner(model, x, tenant)
        with tracer.span("admit", "serve", model=model, tenant=tenant) as sp:
            handle = self._submit_inner(model, x, tenant)
            if handle.request is not None:
                sp.set("request_id", handle.request.request_id)
            return handle

    def _submit_inner(
        self, model: str, x: np.ndarray, tenant: str
    ) -> RequestHandle:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[0] < 1:
            raise ValueError(
                f"request input must carry at least one sample in its "
                f"batch dimension, got shape {x.shape}"
            )
        if x.shape[0] > self.policy.max_queue_depth:
            # Larger than the whole admission bound: no amount of
            # backoff would ever admit it, so fail loudly instead of
            # returning a misleading transient rejection forever.
            raise ValueError(
                f"request carries {x.shape[0]} samples but the queue "
                f"admits at most {self.policy.max_queue_depth}"
            )
        # Count the submission before the request can reach a worker, so
        # a snapshot can never observe completed > submitted.
        self.metrics.observe_submitted()
        if model not in self.registry:
            self.metrics.observe_rejected(
                RequestStatus.REJECTED_UNKNOWN_MODEL.value, tenant
            )
            with self._state_lock:
                request_id = self._next_id
                self._next_id += 1
            return RequestHandle.completed(
                InferenceResult(
                    status=RequestStatus.REJECTED_UNKNOWN_MODEL,
                    request_id=request_id,
                    tenant=tenant,
                    model=model,
                    error=f"model {model!r} is not registered",
                )
            )
        request = InferenceRequest(
            request_id=-1,
            tenant=tenant,
            model=model,
            x=x,
            submitted_at=time.monotonic(),
        )
        handle = RequestHandle(request)
        with self._state_lock:
            request_id = self._next_id
            self._next_id += 1
            request.request_id = request_id
            stopping = self._stopping
            if not stopping:
                self._handles[request_id] = handle
        if stopping:
            # Terminal, not transient: retry-on-backpressure clients
            # must be able to tell shutdown from a momentarily full queue.
            self.metrics.observe_rejected(
                RequestStatus.REJECTED_SHUTTING_DOWN.value, tenant
            )
            handle._complete(
                self._rejection(request, RequestStatus.REJECTED_SHUTTING_DOWN)
            )
            return handle
        verdict = self.queue.offer(request)
        if verdict == RequestQueue.OK:
            return handle
        if verdict == RequestQueue.TENANT_LIMIT:
            status = RequestStatus.REJECTED_TENANT_LIMIT
        elif verdict == RequestQueue.CLOSED:
            # A submit that raced stop() past the _stopping check still
            # reports the terminal status, not transient backpressure.
            status = RequestStatus.REJECTED_SHUTTING_DOWN
        else:
            status = RequestStatus.REJECTED_QUEUE_FULL
        with self._state_lock:
            self._handles.pop(request_id, None)
        self.metrics.observe_rejected(status.value, tenant)
        handle._complete(self._rejection(request, status))
        return handle

    def submit_many(
        self, model: str, batches: Sequence[np.ndarray], tenant: str = "default"
    ) -> List[RequestHandle]:
        return [self.submit(model, x, tenant=tenant) for x in batches]

    @staticmethod
    def _rejection(request: InferenceRequest, status: RequestStatus) -> InferenceResult:
        return InferenceResult(
            status=status,
            request_id=request.request_id,
            tenant=request.tenant,
            model=request.model,
            error=status.value,
        )

    # -- tenants -------------------------------------------------------
    def session(self, tenant: str) -> ExecutionSession:
        """The tenant's (lazily created) shared execution session."""
        with self._state_lock:
            session = self._sessions.get(tenant)
            if session is None:
                session = self._sessions[tenant] = ExecutionSession()
            return session

    def sessions(self) -> Dict[str, ExecutionSession]:
        with self._state_lock:
            return dict(self._sessions)

    # -- observability -------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot(
            queue_depth=self.queue.depth, sessions=self.sessions()
        )

    # -- execution -----------------------------------------------------
    def _worker_loop(self, rng: np.random.Generator) -> None:
        while True:
            batch = self.queue.next_batch()
            if batch is None:
                return
            try:
                self._execute_batch(batch, rng)
            except Exception:  # pragma: no cover - defensive: keep draining
                self._fail_batch(batch, traceback.format_exc())

    def _execute_batch(
        self, batch: List[InferenceRequest], rng: np.random.Generator
    ) -> None:
        model = batch[0].model
        try:
            compiled = self.registry.get(model)
        except KeyError:
            # Evicted between admission and execution.
            self._fail_batch(batch, f"model {model!r} was evicted before execution")
            return
        tracer = trace.current()
        degrade = None
        if self.chaos is not None:
            with self._state_lock:
                chaos_seq = self._chaos_seq
                self._chaos_seq += 1
                chip_ns = self._chaos_chip_ns
            event = self.chaos.check_shard_death(
                shard=None, index=chaos_seq, chip_ns=chip_ns
            )
            if event is not None:
                self._chaos_failover(model, batch, event)
                return
            degrade = self.chaos.degradation_at(chaos_seq, chip_ns=chip_ns)
        try:
            inputs = (
                np.concatenate([request.x for request in batch])
                if len(batch) > 1
                else batch[0].x
            )
            started = time.monotonic()
            exec_t0 = time.perf_counter() if tracer is not None else 0.0
            outputs, stats = compiled.run(inputs, rng=rng, degrade=degrade)
            exec_t1 = time.perf_counter() if tracer is not None else 0.0
        except Exception as error:
            if len(batch) > 1:
                # Isolate the offender: one malformed request must not
                # fail the innocent requests coalesced around it.
                for request in batch:
                    self._execute_batch([request], rng)
            else:
                self._fail_batch(batch, f"{type(error).__name__}: {error}")
            return
        finished = time.monotonic()
        n_samples = int(inputs.shape[0])

        with self._state_lock:
            batch_seq = self._batch_seq
            self._batch_seq += 1
            if self.chaos is not None:
                # Advance the simulated chip clock chip-time-fired chaos
                # events are judged against.
                self._chaos_chip_ns += stats.latency_ns + stats.link_latency_ns

        # Per-tenant accounting: one locked record per tenant present.
        tenant_samples: Dict[str, int] = {}
        for request in batch:
            tenant_samples[request.tenant] = (
                tenant_samples.get(request.tenant, 0) + request.n_samples
            )
        for tenant, samples in tenant_samples.items():
            self.session(tenant).record(
                fraction_of_stats(stats, samples, n_samples), samples=samples
            )

        results: List[InferenceResult] = []
        offset = 0
        for request in batch:
            stop = offset + request.n_samples
            results.append(
                InferenceResult(
                    status=RequestStatus.COMPLETED,
                    request_id=request.request_id,
                    tenant=request.tenant,
                    model=model,
                    output=outputs[offset:stop],
                    stats=fraction_of_stats(stats, request.n_samples, n_samples),
                    batch_seq=batch_seq,
                    batch_samples=n_samples,
                    queued_s=started - request.submitted_at,
                    latency_s=finished - request.submitted_at,
                )
            )
            offset = stop

        if self.record_batches:
            record = ExecutedBatch(
                batch_seq=batch_seq,
                model=model,
                request_ids=[r.request_id for r in batch],
                tenants=[r.tenant for r in batch],
                inputs=inputs,
                outputs=outputs,
                stats=stats,
                execute_s=finished - started,
            )
            with self._state_lock:
                self.executed_batches.append(record)
        if tracer is not None:
            # Queue spans are retroactive, duration-anchored: queued_s
            # was measured on the monotonic clock (submitted_at), so lay
            # it out on the tracer's perf_counter timeline ending where
            # execution began — the two clocks share no epoch.
            for request, result in zip(batch, results):
                tracer.record(
                    f"queued:r{request.request_id}",
                    exec_t0 - max(result.queued_s, 0.0),
                    exec_t0,
                    "serve",
                    model=model,
                    tenant=request.tenant,
                )
            tracer.record(
                "execute",
                exec_t0,
                exec_t1,
                "serve",
                model=model,
                requests=len(batch),
                samples=n_samples,
                batch_seq=batch_seq,
                chip_total_ns=stats.latency_ns,
                energy_fj=stats.total_energy_fj,
            )
        # Observe before completing the handles: a client that wakes on
        # handle.result() and immediately snapshots must see this batch.
        self.metrics.observe_batch(
            n_samples,
            [r.latency_s for r in results],
            [r.queued_s for r in results],
            [r.tenant for r in batch],
            now=finished,
        )
        if tracer is None:
            for request, result in zip(batch, results):
                self._complete_request(request, result)
        else:
            with tracer.span(
                "respond", "serve", model=model, requests=len(batch)
            ):
                for request, result in zip(batch, results):
                    self._complete_request(request, result)

    def _chaos_failover(self, model, batch, event) -> None:
        """Recover from a fired shard death before executing ``batch``.

        Re-plans the entry's deployment around the casualty (warm from
        the controller's artifact store when it holds the surviving
        topology), hot-swaps it into the registry, then requeues the
        displaced batch at the head of its lane so it re-executes
        exactly once on the recovered model.  ``requeue`` refuses during
        a cancelling shutdown — the batch then completes as CANCELLED
        here instead of being stranded behind ``drain_remaining``.

        An unrecoverable deployment (monolithic, or no shard left)
        drops the batch as CANCELLED; the record still lands in
        ``recoveries`` with ``n_shards_after`` at the floor.
        """
        import dataclasses

        from repro.chaos.stream import RecoveryRecord, recover

        chaos = self.chaos
        self.metrics.observe_fault(event.kind)
        tracer = trace.current()
        t_start = time.perf_counter()
        try:
            entry = self.registry.entry(model)
        except KeyError:
            self._fail_batch(batch, f"model {model!r} was evicted before execution")
            return
        current = entry.compiled
        n_before = current.n_shards if isinstance(current, ShardedModel) else 1
        dead = (
            event.shard
            if event.shard is not None and event.shard < n_before
            else n_before - 1
        )
        recovered, warm, replan_s, restore_s = recover(current, chaos, n_before - 1)
        if recovered is not None:
            self.registry.swap_compiled(model, recovered)

        displaced = tuple(request.request_id for request in batch)
        record = RecoveryRecord(
            events=(event,),
            dead_shards=(dead,),
            n_shards_before=n_before,
            n_shards_after=recovered.n_shards if recovered is not None else 0,
            displaced=displaced,
            dropped=() if recovered is not None else displaced,
            replayed=displaced if recovered is not None else (),
            resume_nodes=(0,) * len(displaced) if recovered is not None else (),
            warm_restored=warm,
            wall_s=time.perf_counter() - t_start,
            replan_s=replan_s,
            restore_s=restore_s,
        )
        if tracer is not None:
            with tracer.span(
                "chaos:recovery",
                "chaos",
                model=model,
                dead_shard=dead,
                n_shards_after=record.n_shards_after,
                warm_restored=warm,
            ):
                pass
        # Test seam, before the displaced batch is requeued — mirrors
        # the stream contract ("after failover, before replay").
        if chaos.recovery_hook is not None:
            chaos.recovery_hook(record)
        requeued = recovered is not None and self.queue.requeue(batch)
        if not requeued:
            # Unrecoverable, or a cancelling shutdown closed the queue
            # mid-recovery: complete the batch here, never strand it.
            record = dataclasses.replace(
                record, dropped=displaced, replayed=(), resume_nodes=()
            )
            for request in batch:
                self.metrics.observe_cancelled(request.tenant)
                self._complete_request(
                    request,
                    InferenceResult(
                        status=RequestStatus.CANCELLED,
                        request_id=request.request_id,
                        tenant=request.tenant,
                        model=request.model,
                        error=f"displaced by {event.kind} and not requeued",
                    ),
                )
        self.metrics.observe_recovery(
            record.wall_s,
            dropped=len(record.dropped),
            replayed=len(record.replayed),
        )
        with self._state_lock:
            self.recoveries.append(record)
        chaos.recoveries.append(record)

    def _fail_batch(self, batch: List[InferenceRequest], error: str) -> None:
        # Observe before completing, like the success path: a client
        # waking on handle.result() must see the failure in a snapshot.
        self.metrics.observe_failed([request.tenant for request in batch])
        for request in batch:
            self._complete_request(
                request,
                InferenceResult(
                    status=RequestStatus.FAILED,
                    request_id=request.request_id,
                    tenant=request.tenant,
                    model=request.model,
                    error=error,
                ),
            )

    def _complete_request(
        self, request: InferenceRequest, result: InferenceResult
    ) -> None:
        with self._state_lock:
            handle = self._handles.pop(request.request_id, None)
        if handle is not None:
            handle._complete(result)
