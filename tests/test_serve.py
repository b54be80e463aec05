"""Tests for the dynamic-batching inference serving layer.

The load-bearing guarantees:

* the scheduler coalesces single-sample requests into dynamic batches
  under ``max_batch_size`` / ``max_wait_s``, drawing round-robin across
  tenants (fairness) and never mixing models in one batch;
* admission is bounded: a full queue or an over-cap tenant gets a
  *typed* rejection result, never an exception or a silent drop;
* an executed batch is one ``CompiledModel.run`` call, so server
  outputs are bitwise-identical to ``runtime.reference_forward`` over
  the coalesced inputs, and per-request outputs are exact slices;
* per-tenant ``ExecutionSession`` accounting survives concurrent
  workers and concurrent submitters (the session lock);
* the registry hot-registers, hot-swaps and evicts while serving, and
  shares programmed engines through the runtime's cache.
"""

import threading
import time

import numpy as np
import pytest

from repro import nn
from repro.chaos import SHARD_DEATH, ChaosController, FaultEvent, FaultSchedule
from repro.cim.macro import MacroStats
from repro.runtime import (
    EngineCache,
    ExecutionSession,
    RuntimeConfig,
    reference_forward,
)
from repro.serve import (
    BatchPolicy,
    InferenceRequest,
    InferenceResult,
    InferenceServer,
    LoadGenerator,
    LoadSpec,
    ModelRegistry,
    RequestHandle,
    RequestQueue,
    RequestStatus,
    ServerMetrics,
    UnknownModelError,
    fraction_of_stats,
    percentile,
)

from .helpers import (
    DEADLINE,
    audit_stopped_servers,
    await_results,
    immediate_results,
    next_batch_or_fail,
)

IN_FEATURES = 32


def mlp(seed=0, hidden=16, num_classes=4):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(IN_FEATURES, hidden, rng=rng),
        nn.ReLU(),
        nn.Linear(hidden, num_classes, rng=rng),
    )


def requests_pool(n, seed=1):
    return np.random.default_rng(seed).normal(size=(n, IN_FEATURES))


def make_registry(**models):
    registry = ModelRegistry(cache=EngineCache())
    for name, model in models.items():
        registry.register(name, model)
    return registry


def queued_request(request_id, tenant, model="m", n_samples=1, submitted_at=None):
    return InferenceRequest(
        request_id=request_id,
        tenant=tenant,
        model=model,
        x=np.zeros((n_samples, IN_FEATURES)),
        submitted_at=time.monotonic() if submitted_at is None else submitted_at,
    )


def served(tenant, latency_s, queued_s=0.0):
    """A completed request's result, as an executed batch reports it."""
    return InferenceResult(
        RequestStatus.COMPLETED, 0, tenant, "m", latency_s=latency_s, queued_s=queued_s
    )


@pytest.fixture(autouse=True)
def one_metrics_model(monkeypatch):
    """Every server a test stops keeps the one-metrics-model identity."""
    yield from audit_stopped_servers(monkeypatch)


class TestRequestQueue:
    def test_coalesces_up_to_max_batch_size(self):
        queue = RequestQueue(BatchPolicy(max_batch_size=4, max_wait_s=10.0))
        for i in range(10):
            assert queue.offer(queued_request(i, "t")) == RequestQueue.OK
        batch = queue.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == [0, 1, 2, 3]
        assert queue.next_batch(timeout=1.0) is not None
        assert queue.depth == 2

    def test_max_wait_releases_partial_batch(self):
        # Event-based: the batch is far below max_batch_size, so the
        # only thing that can release it before the (generous) deadline
        # is the max_wait timer — a non-None return proves it fired.
        queue = RequestQueue(BatchPolicy(max_batch_size=64, max_wait_s=0.01))
        queue.offer(queued_request(0, "t"))
        batch = next_batch_or_fail(queue)
        assert [r.request_id for r in batch] == [0]

    def test_round_robin_across_tenants(self):
        queue = RequestQueue(BatchPolicy(max_batch_size=4, max_wait_s=10.0))
        # Tenant a floods before b shows up at all.
        for i in range(6):
            queue.offer(queued_request(i, "a"))
        queue.offer(queued_request(6, "b"))
        queue.offer(queued_request(7, "b"))
        batch = queue.next_batch(timeout=1.0)
        tenants = [r.tenant for r in batch]
        # Fairness: b is interleaved into the first batch despite arriving last.
        assert tenants == ["a", "b", "a", "b"]

    def test_batches_never_mix_models(self):
        queue = RequestQueue(BatchPolicy(max_batch_size=8, max_wait_s=0.0))
        queue.offer(queued_request(0, "t", model="m1"))
        queue.offer(queued_request(1, "t", model="m2"))
        queue.offer(queued_request(2, "t", model="m1"))
        first = queue.next_batch(timeout=1.0)
        second = queue.next_batch(timeout=1.0)
        assert [r.request_id for r in first] == [0, 2]
        assert [r.request_id for r in second] == [1]

    def test_oldest_model_lane_goes_first(self):
        queue = RequestQueue(BatchPolicy(max_batch_size=8, max_wait_s=0.0))
        queue.offer(queued_request(0, "t", model="m2"))
        queue.offer(queued_request(1, "t", model="m1"))
        batch = queue.next_batch(timeout=1.0)
        assert batch[0].model == "m2"

    def test_full_lane_not_blocked_by_other_models_partial_lane(self):
        # A lone young request for m1 must not head-of-line block m2's
        # already-full batch behind m1's max_wait deadline.  Event-based
        # proof: m1's lane cannot release before its 60 s max_wait and
        # the deadline is far shorter, so the only batch the queue can
        # hand out is m2's full one — released immediately.
        queue = RequestQueue(BatchPolicy(max_batch_size=4, max_wait_s=60.0))
        queue.offer(queued_request(0, "t", model="m1"))
        for i in range(1, 5):
            queue.offer(queued_request(i, "t", model="m2"))
        batch = next_batch_or_fail(queue)
        assert {r.model for r in batch} == {"m2"}
        assert len(batch) == 4

    def test_bounded_depth_counts_samples(self):
        queue = RequestQueue(BatchPolicy(max_batch_size=4, max_queue_depth=4))
        assert queue.offer(queued_request(0, "t", n_samples=3)) == RequestQueue.OK
        assert queue.offer(queued_request(1, "t", n_samples=2)) == RequestQueue.FULL
        assert queue.offer(queued_request(2, "t", n_samples=1)) == RequestQueue.OK
        assert queue.offer(queued_request(3, "t")) == RequestQueue.FULL

    def test_per_tenant_cap(self):
        policy = BatchPolicy(max_batch_size=4, max_pending_per_tenant=2)
        queue = RequestQueue(policy)
        assert queue.offer(queued_request(0, "a")) == RequestQueue.OK
        assert queue.offer(queued_request(1, "a")) == RequestQueue.OK
        assert queue.offer(queued_request(2, "a")) == RequestQueue.TENANT_LIMIT
        assert queue.offer(queued_request(3, "b")) == RequestQueue.OK

    def test_oversized_request_executes_alone(self):
        queue = RequestQueue(BatchPolicy(max_batch_size=2, max_queue_depth=64))
        queue.offer(queued_request(0, "t", n_samples=5))
        queue.offer(queued_request(1, "t"))
        batch = queue.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == [0]

    def test_close_flushes_pending_then_returns_none(self):
        queue = RequestQueue(BatchPolicy(max_batch_size=64, max_wait_s=60.0))
        queue.offer(queued_request(0, "t"))
        queue.close()
        batch = queue.next_batch(timeout=1.0)
        assert [r.request_id for r in batch] == [0]
        assert queue.next_batch(timeout=1.0) is None
        assert queue.offer(queued_request(1, "t")) == RequestQueue.CLOSED

    def test_requeue_goes_first_in_drawn_order(self):
        """A failover's requeue puts the drawn batch back exactly: first
        out again, same seqs, same tenant rotation, its lane ahead of a
        newer model's, and counted again against depth and tenant caps."""
        queue = RequestQueue(
            BatchPolicy(max_batch_size=4, max_wait_s=0.0, max_pending_per_tenant=3)
        )
        for seq, tenant in enumerate("aabb"):
            assert queue.offer(queued_request(seq, tenant, model="m1")) == RequestQueue.OK
        batch = next_batch_or_fail(queue)  # drains m1's lane entirely
        drawn = [(r.request_id, r.seq, r.tenant) for r in batch]
        assert drawn == [(0, 0, "a"), (2, 2, "b"), (1, 1, "a"), (3, 3, "b")]
        # Newer traffic, m2's first: only the requeue moving m1's head
        # back to seq 0 can put m1's lane ahead of m2's again.
        assert queue.offer(queued_request(4, "a", model="m2")) == RequestQueue.OK
        assert queue.offer(queued_request(5, "b", model="m1")) == RequestQueue.OK
        assert queue.depth == 2
        assert queue.requeue(batch)
        assert queue.depth == 6
        # a and b each hold three pending samples again: both at the cap.
        assert queue.offer(queued_request(6, "a", model="m2")) == RequestQueue.TENANT_LIMIT
        assert queue.offer(queued_request(7, "b", model="m1")) == RequestQueue.TENANT_LIMIT
        again = next_batch_or_fail(queue)
        assert [(r.request_id, r.seq, r.tenant) for r in again] == drawn
        assert [r.request_id for r in next_batch_or_fail(queue)] == [4]
        assert [r.request_id for r in next_batch_or_fail(queue)] == [5]
        assert queue.depth == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=-1.0)


class TestServerExecution:
    def test_burst_coalesces_and_outputs_are_bitwise_to_reference(self):
        model = mlp()
        registry = make_registry(m=model)
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=8, max_wait_s=0.005),
            record_batches=True,
        )
        pool = requests_pool(24)
        handles = [server.submit("m", pool[i : i + 1]) for i in range(24)]
        server.start()
        results = [h.result(timeout=30.0) for h in handles]
        server.stop()
        assert all(r.ok for r in results)
        assert [b.inputs.shape[0] for b in server.executed_batches] == [8, 8, 8]
        by_id = {r.request_id: r for r in results}
        for batch in server.executed_batches:
            expected, _ = reference_forward(model, batch.inputs)
            assert np.array_equal(batch.outputs, expected)
            offset = 0
            for request_id in batch.request_ids:
                result = by_id[request_id]
                stop = offset + result.output.shape[0]
                assert np.array_equal(result.output, expected[offset:stop])
                assert result.batch_samples == batch.inputs.shape[0]
                offset = stop

    def test_batch1_policy_is_bitwise_per_request(self):
        model = mlp()
        registry = make_registry(m=model)
        pool = requests_pool(6)
        with InferenceServer(registry, BatchPolicy(max_batch_size=1)) as server:
            handles = [server.submit("m", pool[i : i + 1]) for i in range(6)]
            results = [h.result(timeout=30.0) for h in handles]
        for i, result in enumerate(results):
            expected, _ = reference_forward(model, pool[i : i + 1])
            assert np.array_equal(result.output, expected)
            assert result.batch_samples == 1

    def test_multi_sample_requests_slice_back_correctly(self):
        model = mlp()
        registry = make_registry(m=model)
        pool = requests_pool(9)
        sizes = [1, 3, 2, 3]
        chunks, start = [], 0
        for size in sizes:
            chunks.append(pool[start : start + size])
            start += size
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=16, max_wait_s=0.005),
            record_batches=True,
        )
        handles = [server.submit("m", chunk) for chunk in chunks]
        server.start()
        results = [h.result(timeout=30.0) for h in handles]
        server.stop()
        [batch] = server.executed_batches
        assert batch.inputs.shape[0] == 9
        expected, _ = reference_forward(model, batch.inputs)
        offset = 0
        for size, result in zip(sizes, results):
            assert result.output.shape[0] == size
            assert np.array_equal(result.output, expected[offset : offset + size])
            offset += size

    def test_unknown_model_is_typed_rejection(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(registry)
        result = server.submit("missing", requests_pool(1)).result(timeout=1.0)
        assert result.status is RequestStatus.REJECTED_UNKNOWN_MODEL
        assert not result.ok
        assert "missing" in result.error

    def test_queue_full_is_typed_rejection(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=4, max_queue_depth=4)
        )
        pool = requests_pool(6)
        handles = [server.submit("m", pool[i : i + 1]) for i in range(6)]
        statuses = [r.status for r in immediate_results(handles)]
        assert statuses == [RequestStatus.REJECTED_QUEUE_FULL] * 2
        server.start()
        completed = await_results(handles[:4])
        server.stop()
        assert all(r.ok for r in completed)
        snapshot = server.snapshot()
        assert snapshot.rejected == {RequestStatus.REJECTED_QUEUE_FULL.value: 2}
        assert snapshot.completed == 4

    def test_tenant_cap_is_typed_rejection(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=4, max_pending_per_tenant=1),
        )
        pool = requests_pool(3)
        first = server.submit("m", pool[:1], tenant="a")
        second = server.submit("m", pool[1:2], tenant="a")
        other = server.submit("m", pool[2:3], tenant="b")
        assert second.result(timeout=1.0).status is RequestStatus.REJECTED_TENANT_LIMIT
        server.start()
        assert first.result(timeout=30.0).ok
        assert other.result(timeout=30.0).ok
        server.stop()

    def test_submit_after_stop_rejected(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(registry).start()
        server.stop()
        result = server.submit("m", requests_pool(1)).result(timeout=1.0)
        assert result.status is RequestStatus.REJECTED_SHUTTING_DOWN
        assert result.status.rejected

    def test_empty_request_rejected_at_submit(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(registry)
        with pytest.raises(ValueError, match="at least one sample"):
            server.submit("m", np.empty((0, IN_FEATURES)))
        with pytest.raises(ValueError):
            LoadSpec(samples_per_request=0)

    def test_non_finite_or_non_numeric_request_rejected_at_submit(self):
        """Raised before the request is counted or queued, so it cannot
        fail the batch a good request is coalesced into."""
        from repro.runtime import InvalidBatchError

        model = mlp()
        server = InferenceServer(
            make_registry(m=model),
            BatchPolicy(max_batch_size=4, max_wait_s=0.005),
            record_batches=True,
        )
        pool = requests_pool(2)
        first = server.submit("m", pool[:1])
        submitted = server.snapshot().submitted
        nan = pool[1:2].copy()
        nan[0, 3] = np.nan
        with pytest.raises(InvalidBatchError, match="NaN"):
            server.submit("m", nan)
        with pytest.raises(InvalidBatchError, match="not numeric"):
            server.submit("m", pool[1:2].astype(object))
        assert server.snapshot().submitted == submitted
        second = server.submit("m", pool[1:2])
        server.start()
        results = [handle.result(timeout=30.0) for handle in (first, second)]
        server.stop()
        assert all(result.ok for result in results)
        [batch] = server.executed_batches
        assert batch.request_ids == [result.request_id for result in results]
        expected, _ = reference_forward(model, pool)
        assert batch.outputs.tobytes() == expected.tobytes()
        for i, result in enumerate(results):
            assert result.output.tobytes() == expected[i : i + 1].tobytes()

    def test_unadmittable_oversized_request_fails_loudly(self):
        # Bigger than the whole admission bound: no backoff would ever
        # admit it, so it must not masquerade as transient backpressure.
        registry = make_registry(m=mlp())
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=4, max_queue_depth=8)
        )
        with pytest.raises(ValueError, match="admits at most"):
            server.submit("m", requests_pool(9))

    def test_stop_without_drain_cancels_pending(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(registry, BatchPolicy(max_batch_size=4))
        handles = [server.submit("m", requests_pool(1)) for _ in range(3)]
        server.stop(drain=False)  # never started: everything pending cancels
        statuses = {h.result(timeout=1.0).status for h in handles}
        assert statuses == {RequestStatus.CANCELLED}
        assert server.snapshot().cancelled == 3

    def test_stop_with_drain_on_never_started_server_cancels(self):
        # drain=True has no workers to drain through on a never-started
        # server; pending handles must cancel, not strand forever.
        registry = make_registry(m=mlp())
        server = InferenceServer(registry, BatchPolicy(max_batch_size=4))
        handle = server.submit("m", requests_pool(1))
        server.stop()  # default drain=True
        assert handle.result(timeout=1.0).status is RequestStatus.CANCELLED

    def test_cancelling_close_parks_workers(self):
        # close(flush=False) must not let next_batch draw pending work.
        queue = RequestQueue(BatchPolicy(max_batch_size=1, max_wait_s=0.0))
        queue.offer(queued_request(0, "t"))
        queue.close(flush=False)
        assert queue.next_batch(timeout=0.5) is None
        assert [r.request_id for r in queue.drain_remaining()] == [0]

    def test_drained_lanes_are_dropped(self):
        # Model-name churn must not grow the lane scan set forever.
        queue = RequestQueue(BatchPolicy(max_batch_size=1, max_wait_s=0.0))
        for i in range(5):
            queue.offer(queued_request(i, "t", model=f"m-v{i}"))
            assert queue.next_batch(timeout=1.0) is not None
        assert len(queue._lanes) == 0

    def test_failed_batch_produces_typed_results(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(registry, BatchPolicy(max_batch_size=4))
        bad = np.ones((1, IN_FEATURES + 1))  # wrong feature width
        handle = server.submit("m", bad)
        server.start()
        result = handle.result(timeout=30.0)
        assert result.status is RequestStatus.FAILED
        assert result.error
        # The worker survives a failing batch and keeps serving.
        good = server.submit("m", requests_pool(1)).result(timeout=30.0)
        server.stop()
        assert good.ok
        tenants = {t.tenant: t for t in server.snapshot().tenants}
        assert tenants["default"].failed == 1

    def test_malformed_request_does_not_fail_batch_mates(self):
        # A bad request coalesced with good ones fails alone: the batch
        # retries per request, isolating the offender.
        model = mlp()
        registry = make_registry(m=model)
        server = InferenceServer(registry, BatchPolicy(max_batch_size=4))
        pool = requests_pool(3)
        good_before = server.submit("m", pool[:1], tenant="good")
        bad = server.submit("m", np.ones((1, IN_FEATURES + 1)), tenant="bad")
        good_after = server.submit("m", pool[1:2], tenant="good")
        server.start()
        results = [h.result(timeout=30.0) for h in (good_before, bad, good_after)]
        server.stop()
        assert results[0].ok and results[2].ok
        assert results[1].status is RequestStatus.FAILED
        # Isolated re-execution is still the exact per-request path.
        expected, _ = reference_forward(model, pool[:1])
        assert np.array_equal(results[0].output, expected)

    def test_eviction_between_admission_and_execution_fails_typed(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(registry, BatchPolicy(max_batch_size=4))
        handle = server.submit("m", requests_pool(1))
        registry.evict("m")
        server.start()
        result = handle.result(timeout=30.0)
        server.stop()
        assert result.status is RequestStatus.FAILED
        assert "evicted" in result.error

    def test_every_outcome_is_counted_before_its_handle_completes(self, monkeypatch):
        """A client that wakes on ``handle.result()`` and snapshots sees
        its own request: when a handle completes, the server has already
        counted it under its status and tenant — for all eight ways a
        request ends.  Every request's tenant counts one request per
        state, so the tenant count reads exactly 1."""
        ended = []  # (status, error, counted)
        servers = []
        complete = RequestHandle._complete

        def spy(handle, result):
            snapshot = servers[-1].snapshot()
            status = result.status
            state = "rejected" if status.rejected else status.value
            total = (
                snapshot.rejected.get(status.value, 0)
                if status.rejected
                else getattr(snapshot, state)
            )
            tenants = {t.tenant: getattr(t, state) for t in snapshot.tenants}
            ended.append((status, result.error, total >= 1 and tenants[result.tenant] == 1))
            complete(handle, result)

        monkeypatch.setattr(RequestHandle, "_complete", spy)
        pool = requests_pool(1)

        # Admission verdicts and a cancelling stop, on a server never started.
        servers.append(
            InferenceServer(
                make_registry(m=mlp()),
                BatchPolicy(max_batch_size=1, max_queue_depth=2, max_pending_per_tenant=1),
            )
        )
        server = servers[-1]
        server.submit("missing", pool, tenant="unknown")
        server.submit("m", pool, tenant="kept")
        server.submit("m", pool, tenant="kept")  # over the tenant cap
        server.submit("m", pool, tenant="kept-too")
        server.submit("m", pool, tenant="full")  # over the queue depth
        server.stop(drain=False)  # cancels both kept requests
        server.submit("m", pool, tenant="late")

        # Execution outcomes: an unrecoverable failover, an eviction, a success.
        registry = make_registry(m=mlp(), gone=mlp(seed=1))
        chaos = ChaosController(
            FaultSchedule(
                seed=0, events=(FaultEvent(kind=SHARD_DEATH, shard=0, at_index=0),)
            )
        )
        servers.append(
            InferenceServer(registry, BatchPolicy(max_batch_size=1, max_wait_s=0.0), chaos=chaos)
        )
        server = servers[-1]
        handles = [
            server.submit("m", pool, tenant="displaced"),
            server.submit("gone", pool, tenant="evicted"),
            server.submit("m", pool, tenant="served"),
        ]
        registry.evict("gone")
        server.start()
        statuses = [result.status for result in await_results(handles)]
        server.stop()

        assert statuses == [
            RequestStatus.CANCELLED,
            RequestStatus.FAILED,
            RequestStatus.COMPLETED,
        ]
        assert all(counted for _, _, counted in ended), ended
        outcomes = {
            (status, error if status is RequestStatus.CANCELLED else None)
            for status, error, _ in ended
        }
        assert (len(ended), len(outcomes)) == (9, 8)  # stop cancelled two
        assert {status for status, _ in outcomes} == set(RequestStatus)

    def test_timings_populated(self):
        registry = make_registry(m=mlp())
        with InferenceServer(registry, BatchPolicy(max_batch_size=1)) as server:
            result = server.submit("m", requests_pool(1)).result(timeout=30.0)
        assert result.latency_s >= result.queued_s >= 0.0
        assert result.batch_seq >= 0


class TestRequestHandle:
    def test_every_waiter_receives_the_result(self):
        """Two threads blocked on one pending handle both wake on its one
        completion.  A spy on the handle's lock tells the test when each
        waiter has entered its blocking acquire — no sleeps."""
        handle = RequestHandle(queued_request(5, "t"))
        real = handle._pending
        entered = [threading.Event(), threading.Event()]

        class Spy:
            def acquire(self, *args, **kwargs):
                entered[int(threading.current_thread().name)].set()
                return real.acquire(*args, **kwargs)

            def release(self):
                real.release()

        handle._pending = Spy()
        got = [None, None]

        def wait(index):
            got[index] = handle.result(timeout=DEADLINE)

        threads = [threading.Thread(target=wait, args=(i,), name=str(i)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        assert all(event.wait(DEADLINE) for event in entered)
        result = served("t", 0.1)
        handle._complete(result)
        for thread in threads:
            thread.join(DEADLINE)
            assert not thread.is_alive()
        assert got == [result, result] and got[0] is result

    def test_waiters_and_completer_race_under_short_switch_interval(self):
        """More waiter threads than cores, each blocking on every handle
        while another thread completes them, with thread switches forced
        at every opportunity: every waiter sees every result."""
        import sys

        handles = [RequestHandle(queued_request(i, "t")) for i in range(64)]
        results = [served("t", float(i)) for i in range(64)]
        seen = [[] for _ in range(6)]

        def wait(index):
            seen[index] = [h.result(timeout=DEADLINE) for h in handles]

        def complete():
            for handle, result in zip(handles, results):
                handle._complete(result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=wait, args=(i,)) for i in range(6)]
            threads.append(threading.Thread(target=complete))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(DEADLINE)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(got == results for got in seen)
        assert all(h.done() for h in handles)

    def test_pending_result_with_zero_timeout_names_the_request(self):
        handle = RequestHandle(queued_request(42, "t"))
        with pytest.raises(TimeoutError, match="request 42 "):
            handle.result(timeout=0)

    def test_done_flips_only_on_complete(self):
        handle = RequestHandle(queued_request(1, "t"))
        assert not handle.done()
        result = served("t", 0.1)
        handle._complete(result)
        assert handle.done()
        assert handle.result(timeout=0) is result

    def test_second_complete_raises(self):
        handle = RequestHandle(queued_request(3, "t"))
        first = served("t", 0.1)
        handle._complete(first)
        with pytest.raises(RuntimeError, match="request 3 completed twice"):
            handle._complete(served("t", 0.2))
        assert handle.result(timeout=0) is first


class TestSessionsAndAccounting:
    def test_per_tenant_sessions_sum_to_batch_stats(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=8, max_wait_s=0.005),
            record_batches=True,
        )
        pool = requests_pool(8)
        tenants = ["a", "a", "b", "a", "b", "c", "a", "b"]
        handles = [
            server.submit("m", pool[i : i + 1], tenant=tenants[i]) for i in range(8)
        ]
        server.start()
        results = [h.result(timeout=30.0) for h in handles]
        server.stop()
        assert all(r.ok for r in results)
        [batch] = server.executed_batches
        sessions = server.sessions()
        assert sessions["a"].samples == 4
        assert sessions["b"].samples == 3
        assert sessions["c"].samples == 1
        total_energy = sum(
            s.snapshot()[0].total_energy_fj for s in sessions.values()
        )
        assert total_energy == pytest.approx(batch.stats.total_energy_fj, rel=1e-12)
        total_macs = sum(s.snapshot()[0].macs for s in sessions.values())
        assert total_macs == pytest.approx(batch.stats.macs, rel=1e-12)

    def test_batch_is_listed_after_its_sessions_record_it(self, monkeypatch):
        """A reader that finds a batch in ``executed_batches`` finds it
        in its tenants' session totals too."""
        server = InferenceServer(
            make_registry(m=mlp()),
            BatchPolicy(max_batch_size=4, max_wait_s=1.0),
            record_batches=True,
        )
        listed_at_record = []
        real = ExecutionSession.record

        def spy(session, stats, samples):
            listed_at_record.append(len(server.executed_batches))
            return real(session, stats, samples=samples)

        monkeypatch.setattr(ExecutionSession, "record", spy)
        pool = requests_pool(4)
        handles = [
            server.submit("m", pool[i : i + 1], tenant=t) for i, t in enumerate("abab")
        ]
        server.start()
        await_results(handles)
        server.stop()
        assert len(server.executed_batches) == 1
        assert listed_at_record == [0, 0]

    def test_shares_computed_once_per_distinct_sample_count(self, monkeypatch):
        """Requests and tenant totals with equal sample counts get one
        shared share, computed by one ``fraction_of_stats`` call with the
        same arguments as a per-holder call — so bitwise equal to it."""
        import repro.serve.server as server_module

        calls = []
        real = server_module.fraction_of_stats

        def spy(stats, numerator, denominator):
            calls.append((numerator, denominator))
            return real(stats, numerator, denominator)

        monkeypatch.setattr(server_module, "fraction_of_stats", spy)
        registry = make_registry(m=mlp())
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=8, max_wait_s=1.0), record_batches=True
        )
        pool = requests_pool(8)
        plan = [("a", 1), ("b", 1), ("a", 2), ("c", 3), ("a", 1)]
        handles, start = [], 0
        for tenant, k in plan:
            handles.append(server.submit("m", pool[start : start + k], tenant=tenant))
            start += k
        server.start()
        results = await_results(handles)
        server.stop()

        [batch] = server.executed_batches
        n = batch.inputs.shape[0]
        assert n == 8 and all(r.ok and r.batch_samples == n for r in results)
        for (_, k), result in zip(plan, results):
            assert result.stats == real(batch.stats, k, n)
        totals = {"a": 4, "b": 1, "c": 3}
        sessions = server.sessions()
        for tenant, k in totals.items():
            assert sessions[tenant].snapshot()[0] == real(batch.stats, k, n), tenant
        singles = [r.stats for (_, k), r in zip(plan, results) if k == 1]
        assert all(s is singles[0] for s in singles)
        # One call per distinct count among requests {1, 2, 3} and
        # tenant totals {4, 1, 3}.
        assert sorted(calls) == [(1, n), (2, n), (3, n), (4, n)]

    def test_concurrent_submitters_lose_no_session_updates(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=8, max_wait_s=0.001, max_queue_depth=4096),
            n_workers=2,
        ).start()
        pool = requests_pool(4)
        n_threads, per_thread = 4, 25
        all_handles = []
        handle_lock = threading.Lock()

        def flood(tenant):
            handles = [
                server.submit("m", pool[:1], tenant=tenant)
                for _ in range(per_thread)
            ]
            with handle_lock:
                all_handles.extend(handles)

        threads = [
            threading.Thread(target=flood, args=(f"tenant-{i % 2}",))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = [h.result(timeout=60.0) for h in all_handles]
        server.stop()
        assert all(r.ok for r in results)
        sessions = server.sessions()
        assert sessions["tenant-0"].samples == 50
        assert sessions["tenant-1"].samples == 50
        assert server.snapshot().completed == n_threads * per_thread

    def test_execution_session_record_is_thread_safe(self):
        # The satellite fix: unguarded += lost updates under contention.
        session = ExecutionSession()
        stats = MacroStats(cycles=1, macs=2, wl_energy_fj=0.5)
        n_threads, per_thread = 8, 200

        def hammer():
            for _ in range(per_thread):
                session.record(stats, samples=1)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = n_threads * per_thread
        assert session.batches == expected
        assert session.samples == expected
        assert session.stats.cycles == expected
        assert session.stats.macs == 2 * expected
        assert session.stats.wl_energy_fj == pytest.approx(0.5 * expected)

    def test_fraction_of_stats_partitions_exactly(self):
        stats = MacroStats(
            cycles=100, adc_conversions=40, row_activations=30, macs=1000,
            wl_energy_fj=5.0, bitline_energy_fj=7.0, adc_energy_fj=11.0,
            peripheral_energy_fj=13.0, latency_ns=42.0,
        )
        parts = [fraction_of_stats(stats, n, 8) for n in (1, 3, 4)]
        assert sum(p.macs for p in parts) == pytest.approx(stats.macs)
        assert sum(p.total_energy_fj for p in parts) == pytest.approx(
            stats.total_energy_fj
        )
        # The batch's critical path is shared, not divided.
        assert all(p.latency_ns == stats.latency_ns for p in parts)
        with pytest.raises(ValueError):
            fraction_of_stats(stats, 1, 0)


class TestRegistry:
    def test_register_get_evict(self):
        registry = make_registry(m=mlp())
        assert "m" in registry and len(registry) == 1
        assert registry.get("m").n_weight_layers == 2
        entry = registry.evict("m")
        assert entry.name == "m"
        assert "m" not in registry
        with pytest.raises(UnknownModelError):
            registry.get("m")
        with pytest.raises(UnknownModelError):
            registry.evict("m")

    def test_duplicate_name_requires_replace(self):
        registry = make_registry(m=mlp())
        with pytest.raises(ValueError):
            registry.register("m", mlp(seed=9))
        entry = registry.register("m", mlp(seed=9), replace=True)
        assert entry.generation == 1

    def test_concurrent_register_same_name_one_winner(self):
        # The duplicate-name check must hold across the unlocked compile:
        # exactly one racer wins, every loser gets the promised ValueError.
        registry = ModelRegistry(cache=EngineCache())
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        outcomes = [None] * n_threads

        def race(index):
            barrier.wait()
            try:
                registry.register("m", mlp(seed=index))
                outcomes[index] = "won"
            except ValueError:
                outcomes[index] = "raised"

        threads = [
            threading.Thread(target=race, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count("won") == 1
        assert outcomes.count("raised") == n_threads - 1
        assert registry.entry("m").generation == 0

    def test_same_weights_share_programmed_engines(self):
        registry = ModelRegistry(cache=EngineCache())
        model = mlp()
        registry.register("first", model)
        programmed = registry.cache.stats.programmed
        registry.register("second", model)
        assert registry.cache.stats.programmed == programmed
        assert registry.cache.stats.hits > 0

    def test_hot_swap_while_serving(self):
        model_a, model_b = mlp(seed=0), mlp(seed=9)
        registry = make_registry(m=model_a)
        pool = requests_pool(4)
        with InferenceServer(registry, BatchPolicy(max_batch_size=1)) as server:
            before = server.submit("m", pool[:1]).result(timeout=30.0)
            registry.register("m", model_b, replace=True)
            after = server.submit("m", pool[:1]).result(timeout=30.0)
        expected_a, _ = reference_forward(model_a, pool[:1])
        expected_b, _ = reference_forward(model_b, pool[:1])
        assert np.array_equal(before.output, expected_a)
        assert np.array_equal(after.output, expected_b)

    def test_runtime_config_respected(self):
        registry = ModelRegistry(cache=EngineCache())
        registry.register("m", mlp(), RuntimeConfig(activation_bits=6))
        assert registry.get("m").config.activation_bits == 6

    def test_rows_report(self):
        registry = make_registry(m=mlp())
        [(name, layers, generation, compile_ms)] = registry.rows()
        assert (name, layers, generation) == ("m", 2, 0)
        assert compile_ms >= 0.0


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = np.asarray([10.0, 20.0, 30.0, 40.0], dtype=float)
        assert percentile(values, 50) == 20.0
        assert percentile(values, 95) == 40.0
        assert percentile(np.asarray([], dtype=float), 50) == 0.0

    def test_batch_histogram_and_counts(self):
        metrics = ServerMetrics()
        metrics.observe(
            [served(tenant, 0.1, 0.05) for tenant in ("a", "a", "b")], 4
        )
        metrics.observe([served("b", 0.2, 0.1)], 1)
        metrics.observe(
            [InferenceResult(RequestStatus.REJECTED_QUEUE_FULL, 0, "c", "m")]
        )
        snapshot = metrics.snapshot(
            queue_depth=2, sessions={"a": ExecutionSession(), "b": ExecutionSession()}
        )
        assert snapshot.batch_size_hist == {4: 1, 1: 1}
        assert snapshot.completed == 4
        assert snapshot.batches == 2
        assert snapshot.queue_depth == 2
        assert snapshot.mean_batch_size == 2.5
        assert snapshot.total_rejected == 1
        assert snapshot.p50_latency_s == pytest.approx(0.1)
        assert snapshot.p99_latency_s == pytest.approx(0.2)
        tenants = {t.tenant: t for t in snapshot.tenants}
        assert tenants["a"].completed == 2
        assert tenants["b"].completed == 2
        assert tenants["c"].rejected == 1

    def test_rolling_window_trims_old_completions(self):
        metrics = ServerMetrics(window_s=0.5)
        old = time.monotonic() - 10.0
        metrics.observe([served("a", 0.1)], 1, now=old)
        metrics.observe([served("a", 0.1)], 1)
        snapshot = metrics.snapshot()
        # Totals keep history; the rolling throughput window does not.
        assert snapshot.completed == 2
        assert snapshot.throughput_rps > 0
        window = sum(r for _, r, _ in metrics._completions)
        assert window == 1


class TestLoadGenerator:
    def test_schedule_is_deterministic(self):
        registry = make_registry(m=mlp())
        server = InferenceServer(registry)
        spec = LoadSpec(
            n_requests=16,
            rate_rps=500.0,
            tenant_weights={"a": 2.0, "b": 1.0},
            seed=3,
        )
        pools = {"m": requests_pool(8)}
        plan_a = LoadGenerator(server, spec, pools).schedule()
        plan_b = LoadGenerator(server, spec, pools).schedule()
        assert [(o, t, m) for o, t, m, _ in plan_a] == [
            (o, t, m) for o, t, m, _ in plan_b
        ]
        for (_, _, _, xa), (_, _, _, xb) in zip(plan_a, plan_b):
            assert np.array_equal(xa, xb)
        offsets = [offset for offset, _, _, _ in plan_a]
        assert offsets == sorted(offsets)
        assert {tenant for _, tenant, _, _ in plan_a} == {"a", "b"}

    def test_burst_run_completes_all(self):
        registry = make_registry(m=mlp(), m2=mlp(seed=5))
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=8, max_wait_s=0.002), n_workers=2
        ).start()
        spec = LoadSpec(
            n_requests=32, tenant_weights={"a": 1.0, "b": 1.0}, seed=11
        )
        report = LoadGenerator(
            server, spec, {"m": requests_pool(8), "m2": requests_pool(8, seed=2)}
        ).run()
        server.stop()
        assert report.completed == 32
        assert report.rejected == 0 and report.failed == 0
        assert report.throughput_rps > 0
        assert sum(t.submitted for t in report.tenants) == 32
        assert {t.tenant for t in report.tenants} == {"a", "b"}
        assert report.p99_latency_s >= report.p50_latency_s > 0

    def test_rejections_are_counted_not_raised(self):
        registry = make_registry(m=mlp())
        # Tiny queue, no workers running: everything past the bound rejects.
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=4, max_queue_depth=4)
        )
        spec = LoadSpec(n_requests=10, seed=0)
        generator = LoadGenerator(server, spec, {"m": requests_pool(8)})
        plan = generator.schedule()
        handles = [
            (tenant, server.submit(model, x, tenant=tenant))
            for _, tenant, model, x in plan
        ]
        rejected = [
            r
            for r in immediate_results([h for _, h in handles])
            if r.status is RequestStatus.REJECTED_QUEUE_FULL
        ]
        assert len(rejected) == 6
        server.start()
        server.stop()  # drains the 4 admitted requests

    def test_report_counts_cancelled_apart_from_failed(self):
        """A failover that cannot recover cancels its batch; the client
        report must say cancelled, as the server does, not failed."""
        registry = make_registry(m=nn.Linear(8, 4, rng=np.random.default_rng(0)))
        chaos = ChaosController(
            FaultSchedule(
                seed=0, events=(FaultEvent(kind=SHARD_DEATH, shard=0, at_index=0),)
            )
        )
        server = InferenceServer(
            registry, BatchPolicy(max_batch_size=4), chaos=chaos
        ).start()
        pool = np.random.default_rng(1).normal(size=(8, 8))
        report = LoadGenerator(server, LoadSpec(n_requests=8, seed=0), {"m": pool}).run()
        server.stop()
        snapshot = server.snapshot()
        assert report.cancelled > 0
        assert (report.completed, report.failed, report.cancelled) == (
            snapshot.completed,
            snapshot.failed,
            snapshot.cancelled,
        )
        [tenant] = report.tenants
        assert (tenant.failed, tenant.cancelled) == (0, report.cancelled)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(n_requests=0)
        with pytest.raises(ValueError):
            LoadSpec(rate_rps=0.0)
        with pytest.raises(ValueError):
            LoadSpec(tenant_weights={})
        registry = make_registry(m=mlp())
        server = InferenceServer(registry)
        with pytest.raises(ValueError):
            LoadGenerator(server, LoadSpec(), {})
        with pytest.raises(ValueError):
            LoadGenerator(
                server,
                LoadSpec(samples_per_request=4),
                {"m": requests_pool(2)},
            )
        with pytest.raises(ValueError, match="no input pool"):
            LoadGenerator(
                server,
                LoadSpec(model_weights={"typo-model": 1.0}),
                {"m": requests_pool(4)},
            )
