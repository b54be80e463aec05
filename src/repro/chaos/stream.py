"""Failover coordination for chaos-instrumented pipelined streams.

:func:`run_chaos_stream` is the attempt → failover → replay coordinator
over the shared shard pipeline of :class:`repro.runtime.ShardedModel`
(the one ``run_stream`` drives too), handed a
:class:`~repro.chaos.inject.ChaosController` as its fault source:

* **Degraded-mode execution** — before a shard executes a micro-batch
  it asks the controller for the open degradation window; engines then
  route through the live analog fault paths (see
  :mod:`repro.chaos.inject`).  Link-degradation windows scale the
  simulated transfer latency/energy of the hop leaving the shard.
* **Shard death + failover** — a fired death diverts that micro-batch
  and everything behind it into a displaced list (micro-batches already
  past the dead shard complete normally).  The coordinator then
  re-plans the DAG around the dead shard (``plan_shards`` over the
  surviving count, the same single-edge-frontier legality), restores
  the engines — warm from the ``.rcma`` artifact store when the
  controller carries one, else the in-memory engines — and replays the
  displaced micro-batches through the recovered pipeline, resuming each
  at the exact plan node where it was displaced.
* **Exactly-once accounting** — every requested micro-batch index ends
  the campaign either *delivered* (exactly one output) or *dropped*
  (recorded, counted against availability); a replayed micro-batch is
  never re-executed over nodes it already completed.

Determinism: firing points are micro-batch indexes or simulated chip
time, each micro-batch owns its ``stream_rng``, and every displaced
micro-batch resumes with its own carried RNG state — so outputs *and*
recovery traces replay exactly across processes
(:meth:`ChaosStreamResult.deterministic_trace`).  Wall-clock recovery
times are measured and reported but excluded from the trace digest.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.inject import ChaosController
from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.obs import trace
from repro.runtime.compiled import _USE_DEFAULT
from repro.runtime.sharded import ShardedModel, StreamResult, _StreamItem, shard


@dataclass(frozen=True)
class RecoveryRecord:
    """One completed failover: what died, what it cost, what survived."""

    events: Tuple[FaultEvent, ...]
    dead_shards: Tuple[int, ...]
    n_shards_before: int
    n_shards_after: int
    displaced: Tuple[int, ...]
    dropped: Tuple[int, ...]
    replayed: Tuple[int, ...]
    #: plan node each replayed micro-batch resumed at (aligned with
    #: ``replayed``).
    resume_nodes: Tuple[int, ...]
    warm_restored: bool
    #: wall-clock seconds: total recovery, re-plan, engine restore.
    #: Measured, reported, and *excluded* from the deterministic trace.
    wall_s: float = 0.0
    replan_s: float = 0.0
    restore_s: float = 0.0

    def structural_meta(self) -> Dict[str, Any]:
        """The deterministic (wall-time-free) projection of the record."""
        return {
            "events": [event.to_meta() for event in self.events],
            "dead_shards": list(self.dead_shards),
            "n_shards_before": self.n_shards_before,
            "n_shards_after": self.n_shards_after,
            "displaced": list(self.displaced),
            "dropped": list(self.dropped),
            "replayed": list(self.replayed),
            "resume_nodes": list(self.resume_nodes),
            "warm_restored": self.warm_restored,
        }


@dataclass
class ChaosStreamResult(StreamResult):
    """A :class:`StreamResult` plus the campaign's fault/recovery story.

    ``outputs`` / ``per_batch`` / ``compute_ns`` / ``link_ns`` cover the
    *delivered* micro-batches, sorted by index (``delivered_indexes``
    maps row → original index).  ``compute_ns`` columns are sized to the
    starting topology; replayed micro-batches charge the stages they
    re-ran in the recovered topology, so post-failover makespans are
    approximate (documented in docs/chaos.md).
    """

    schedule: Optional[FaultSchedule] = None
    fired: List[Dict[str, Any]] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    delivered_indexes: Tuple[int, ...] = ()
    dropped_indexes: Tuple[int, ...] = ()
    n_requested: int = 0

    @property
    def n_delivered(self) -> int:
        return len(self.delivered_indexes)

    @property
    def availability(self) -> float:
        """Fraction of requested micro-batches delivered."""
        if not self.n_requested:
            return 1.0
        return self.n_delivered / self.n_requested

    @property
    def outputs_by_index(self) -> Dict[int, np.ndarray]:
        return dict(zip(self.delivered_indexes, self.outputs))

    def deterministic_trace(self) -> Dict[str, Any]:
        """JSON-serializable digest pinned across processes.

        Covers the schedule, every fired fault, every recovery's
        structural fields, the delivered/dropped index sets, and a
        SHA-256 over each delivered output's exact bytes.  Two runs of
        the same ``(seed, schedule, model, batches)`` produce equal
        digests regardless of host, thread interleaving, or wall-clock
        behaviour.
        """
        return {
            "schedule": self.schedule.to_meta() if self.schedule else None,
            "fired": self.fired,
            "recoveries": [r.structural_meta() for r in self.recoveries],
            "delivered": list(self.delivered_indexes),
            "dropped": list(self.dropped_indexes),
            "output_sha256": {
                int(i): hashlib.sha256(
                    np.ascontiguousarray(out).tobytes()
                ).hexdigest()
                for i, out in zip(self.delivered_indexes, self.outputs)
            },
        }


def recover(
    current: Any, controller: ChaosController, n_after: int
) -> Tuple[Optional[ShardedModel], bool, float, float]:
    """The one failover ladder: bring ``current`` back on ``n_after`` shards.

    Warm first — when the controller carries ``store`` +
    ``artifact_key_fn`` and the stored artifact is a
    :class:`ShardedModel` of exactly ``n_after`` shards, it is loaded
    into the dead deployment's own engine cache.  Any
    :class:`~repro.runtime.snapshot.SnapshotError` (absent key, corrupt
    or stale artifact) or a wrong-topology artifact falls through to
    the cold path: re-plan the surviving count over the in-memory
    engines.  No shard left, or a monolithic deployment, is
    unrecoverable.

    Returns ``(model, warm, replan_s, restore_s)``: the recovered model
    (``None`` when unrecoverable), whether it came from the store, and
    the wall-clock seconds of the cold re-plan and of the restore
    attempt (both non-zero when a restore fell through).
    """
    if n_after < 1 or not isinstance(current, ShardedModel):
        return None, False, 0.0, 0.0
    recovered: Optional[ShardedModel] = None
    replan_s = restore_s = 0.0
    if controller.store is not None and controller.artifact_key_fn is not None:
        from repro.runtime import snapshot

        t0 = time.perf_counter()
        try:
            restored = snapshot.load(
                controller.store,
                controller.artifact_key_fn(n_after),
                cache=current.compiled.cache,
            )
            if isinstance(restored, ShardedModel) and restored.n_shards == n_after:
                recovered = restored
        except snapshot.SnapshotError:
            pass  # cold re-plan below
        restore_s = time.perf_counter() - t0
    warm = recovered is not None
    if not warm:
        t0 = time.perf_counter()
        recovered = shard(
            current.compiled,
            n_after,
            link=current.link,
            input_shape=controller.input_shape,
        )
        replan_s = time.perf_counter() - t0
    return recovered, warm, replan_s, restore_s


def _failover(
    current: ShardedModel,
    controller: ChaosController,
    displaced_at: Dict[int, List[_StreamItem]],
    deaths: Sequence[Tuple[FaultEvent, int, int]],
) -> Tuple[Optional[ShardedModel], RecoveryRecord, List[_StreamItem]]:
    """Re-plan around the dead shard(s) and stage the replay.

    Returns ``(recovered model or None, recovery record, items to
    replay)``.  ``None`` means the fleet is unrecoverable (no shard
    left); every displaced micro-batch is then dropped.
    """
    t_start = time.perf_counter()
    dead_shards = tuple(sorted(displaced_at))
    events = tuple(event for event, _, _ in deaths)
    n_before = current.n_shards
    n_after = n_before - len(dead_shards)

    displaced = sorted(
        (item for s in dead_shards for item in displaced_at[s]),
        key=lambda item: item.index,
    )
    recovered, warm, replan_s, restore_s = recover(current, controller, n_after)
    # Each death event abandons its first `drop` displaced micro-batches
    # (simulating in-flight state lost with the chiplet's buffers); an
    # unrecoverable fleet abandons them all.
    n_drop = len(displaced)
    if recovered is not None:
        n_drop = min(sum(e.drop for e in events), n_drop)
    dropped = displaced[:n_drop]
    replay = displaced[n_drop:]

    record = RecoveryRecord(
        events=events,
        dead_shards=dead_shards,
        n_shards_before=n_before,
        n_shards_after=max(n_after, 0),
        displaced=tuple(item.index for item in displaced),
        dropped=tuple(item.index for item in dropped),
        replayed=tuple(item.index for item in replay),
        resume_nodes=tuple(item.start_node for item in replay),
        warm_restored=warm,
        wall_s=time.perf_counter() - t_start,
        replan_s=replan_s,
        restore_s=restore_s,
    )
    return recovered, record, replay


def run_chaos_stream(
    model: ShardedModel,
    batches: Sequence[np.ndarray],
    controller: ChaosController,
    *,
    seed: int = 0,
    rngs: Optional[Sequence[np.random.Generator]] = None,
    encoding: Any = _USE_DEFAULT,
    session: Any = None,
    queue_depth: int = 2,
) -> ChaosStreamResult:
    """Pipelined stream execution under a fault schedule.

    The entry point behind ``ShardedModel.run_stream(..., chaos=...)``.
    With an inert controller (no events, or all zero-magnitude) the
    delivered outputs and stats are bitwise identical to the clean
    ``run_stream`` — the differential witness every chaos test builds
    on.
    """
    items = model._stream_items(batches, seed, rngs, encoding, queue_depth)
    tracer = trace.current()
    started = time.perf_counter()
    current = model
    pending: List[_StreamItem] = items
    delivered: Dict[int, _StreamItem] = {}
    dropped: List[int] = []
    recoveries: List[RecoveryRecord] = []

    while pending:
        completed, displaced_at, deaths = current._pipeline(
            pending, queue_depth, tracer, controller
        )
        for item in completed:
            if item.index in delivered:
                raise RuntimeError(
                    f"micro-batch {item.index} delivered twice — "
                    "exactly-once accounting broken"
                )
            delivered[item.index] = item
        if not deaths:
            break
        recovered, record, replay = _failover(
            current, controller, displaced_at, deaths
        )
        recoveries.append(record)
        controller.recoveries.append(record)
        dropped.extend(record.dropped)
        if tracer is not None:
            with tracer.span(
                "chaos:recovery",
                "chaos",
                dead_shards=",".join(map(str, record.dead_shards)),
                n_shards_after=record.n_shards_after,
                replayed=len(record.replayed),
                dropped=len(record.dropped),
                warm_restored=record.warm_restored,
            ):
                pass
        if controller.recovery_hook is not None:
            controller.recovery_hook(record)
        if recovered is None:
            break
        current = recovered
        pending = replay

    return ChaosStreamResult._from_items(
        delivered.values(),
        model.n_shards,
        time.perf_counter() - started,
        session,
        schedule=controller.schedule,
        fired=controller.fired_records(),
        recoveries=recoveries,
        delivered_indexes=tuple(sorted(delivered)),
        dropped_indexes=tuple(sorted(dropped)),
        n_requested=len(items),
    )
