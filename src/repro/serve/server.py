"""The inference server: worker pool over the dynamic-batching queue.

``submit`` is the admission side: it validates the model name, stamps
the request and offers it to the bounded queue — returning an
already-completed handle with a typed rejection when admission fails.
Worker threads drain the queue through
:meth:`~repro.serve.scheduler.RequestQueue.next_batch`, execute each
coalesced batch with one :meth:`CompiledModel.run` call, then fan the
outputs, timings and proportional stats back out to the requests.

The fan-out's stats cost per distinct share, not per request: one
:func:`~repro.serve.metrics.fraction_of_stats` call per distinct sample
count (requests' and tenant totals') yields an immutable share that
every result and session with that count holds, and the batch sequence
number, chaos chip clock and session lookup take one ``_state_lock``
acquisition.

Every request ends through :meth:`InferenceServer._finish` — rejection,
failure, cancellation and completion alike — which counts the results
(:meth:`ServerMetrics.observe`) before it completes their handles.

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
from typing import Dict, List, Optional

import numpy as np

from repro.cim.macro import MacroStats
from repro.obs import trace
from repro.obs.log import get_logger
from repro.runtime import ExecutionSession, ShardedModel
from repro.runtime.reference import check_batch
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
            # gets the typed shutting-down rejection — never stranded.
            # flush=False parks the workers immediately so they cannot
            # race this drain into executing work marked for cancel.
            self.queue.close(flush=False)
            self._finish(
                [
                    _result(request, RequestStatus.CANCELLED)
                    for request in self.queue.drain_remaining()
                ]
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
        a typed :class:`RequestStatus`.  A request that is not a batch of
        finite real numbers raises :class:`~repro.runtime.InvalidBatchError`.
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
        x = np.asarray(x)
        if x.ndim < 2 or x.shape[0] < 1:
            raise ValueError(
                f"request input must carry at least one sample in its "
                f"batch dimension, got shape {x.shape}"
            )
        x = check_batch(x, None)  # before a bad request fails its batch-mates
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
        known = model in self.registry
        request = InferenceRequest(
            request_id=-1,
            tenant=tenant,
            model=model,
            x=x,
            submitted_at=time.monotonic(),
        )
        # An unknown-model rejection carries no request: nothing was queued.
        handle = RequestHandle(request if known else None)
        with self._state_lock:
            request.request_id = self._next_id
            self._next_id += 1
            self._handles[request.request_id] = handle
            stopping = self._stopping
        if not known:
            status = RequestStatus.REJECTED_UNKNOWN_MODEL
            error = f"model {model!r} is not registered"
        else:
            # Shutdown is terminal, not transient: retry-on-backpressure
            # clients must be able to tell it from a momentarily full queue.
            status = (
                RequestStatus.REJECTED_SHUTTING_DOWN
                if stopping
                else _VERDICTS[self.queue.offer(request)]
            )
            if status is None:
                return handle
            error = status.value
        self._finish([_result(request, status, error)])
        return handle

    # -- tenants -------------------------------------------------------
    def session(self, tenant: str) -> ExecutionSession:
        """The tenant's (lazily created) shared execution session."""
        with self._state_lock:
            return self._session(tenant)

    def _session(self, tenant: str) -> ExecutionSession:
        session = self._sessions.get(tenant)  # _state_lock held
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

        # Per-tenant sample totals, then one stats share per distinct
        # sample count — requests' and tenant totals' — each handed to
        # every holder of that count.
        samples: Dict[str, int] = {}
        for request in batch:
            samples[request.tenant] = samples.get(request.tenant, 0) + request.n_samples
        counts = {request.n_samples for request in batch}
        counts.update(samples.values())
        shares = {k: fraction_of_stats(stats, k, n_samples) for k in counts}

        with self._state_lock:
            batch_seq = self._batch_seq
            self._batch_seq += 1
            if self.chaos is not None:
                # Advance the simulated chip clock chip-time-fired chaos
                # events are judged against.
                self._chaos_chip_ns += stats.latency_ns + stats.link_latency_ns
            sessions = [(self._session(tenant), k) for tenant, k in samples.items()]
        for session, k in sessions:
            session.record(shares[k], samples=k)

        results: List[InferenceResult] = []
        offset = 0
        for request in batch:
            k = request.n_samples
            results.append(
                InferenceResult(
                    status=RequestStatus.COMPLETED,
                    request_id=request.request_id,
                    tenant=request.tenant,
                    model=model,
                    output=outputs[offset : offset + k],
                    stats=shares[k],
                    batch_seq=batch_seq,
                    batch_samples=n_samples,
                    queued_s=started - request.submitted_at,
                    latency_s=finished - request.submitted_at,
                )
            )
            offset += k

        if self.record_batches:
            # Built outside the lock and appended after the sessions are
            # recorded, so a listed batch is already in its tenants' totals.
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
        with (
            trace.NULL_SPAN
            if tracer is None
            else tracer.span("respond", "serve", model=model, requests=len(batch))
        ):
            self._finish(results, n_samples, finished)

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
            error = f"displaced by {event.kind} and not requeued"
            self._finish([_result(r, RequestStatus.CANCELLED, error) for r in batch])
        self.metrics.observe_recovery(
            record.wall_s,
            dropped=len(record.dropped),
            replayed=len(record.replayed),
        )
        with self._state_lock:
            self.recoveries.append(record)
        chaos.recoveries.append(record)

    def _fail_batch(self, batch: List[InferenceRequest], error: str) -> None:
        self._finish([_result(r, RequestStatus.FAILED, error) for r in batch])

    def _finish(
        self,
        results: List[InferenceResult],
        batch_samples: int = 0,
        now: Optional[float] = None,
    ) -> None:
        """The one terminal path: every request ends here, exactly once.

        Observed first, so a client that wakes on ``handle.result()``
        and immediately snapshots sees its own request counted; then
        every handle is popped under one lock acquisition and completed.
        ``batch_samples`` / ``now`` mark ``results`` as one executed
        batch (see :meth:`ServerMetrics.observe`).
        """
        self.metrics.observe(results, batch_samples, now)
        with self._state_lock:
            handles = [self._handles.pop(r.request_id, None) for r in results]
        for handle, result in zip(handles, results):
            if handle is not None:
                handle._complete(result)


#: Admission verdict -> the typed rejection it completes with (``None``:
#: admitted).  A submit that raced ``stop()`` past the ``_stopping``
#: check reads CLOSED and still reports the terminal status.
_VERDICTS = {
    RequestQueue.OK: None,
    RequestQueue.FULL: RequestStatus.REJECTED_QUEUE_FULL,
    RequestQueue.TENANT_LIMIT: RequestStatus.REJECTED_TENANT_LIMIT,
    RequestQueue.CLOSED: RequestStatus.REJECTED_SHUTTING_DOWN,
}


def _result(
    request: InferenceRequest, status: RequestStatus, error: Optional[str] = None
) -> InferenceResult:
    """The result of a request that ended without executing."""
    return InferenceResult(
        status=status,
        request_id=request.request_id,
        tenant=request.tenant,
        model=request.model,
        error=error,
    )
