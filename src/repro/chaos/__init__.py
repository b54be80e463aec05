"""Deterministic chaos runtime: fault injection, failover, degradation.

The paper's reliability argument for ROM-CiM (section 2: read-disturb
immunity versus the device variation of RRAM/MRAM/FeFET) lived offline
in :mod:`repro.cim.variation` accuracy studies, while the serving stack
assumed every shard, link and engine stays healthy forever.  This
package brings that reliability machinery *online*:

* :class:`FaultSchedule` — a seeded, serializable list of typed
  :class:`FaultEvent`\\ s (shard death, SIMBA-link degradation, ADC
  drift ramps, transient bit-line noise spikes) whose firing points are
  expressed in **micro-batch index** or **simulated chip time** — never
  wall time — so a chaos run replays exactly, same discipline as
  :func:`repro.runtime.stream_rng`.
* :class:`ChaosController` — the injection layer threaded through
  :meth:`repro.runtime.ShardedModel.run_stream` and
  :class:`repro.serve.InferenceServer`.  Degradation faults route
  through the *existing* analog paths per engine (the
  :class:`~repro.cim.bitline.BitlineModel` observation and the
  ADC-count error model of :mod:`repro.cim.variation`); a shard death
  triggers failover — re-plan around the dead shard, warm-restore from
  the artifact store when one is attached, replay the displaced
  micro-batches — with the recovery recorded and traced.
* :func:`run_chaos_stream` / :class:`ChaosStreamResult` — the
  attempt → failover → replay coordinator over the runtime's one shard
  pipeline, returning availability, recovery records and a
  deterministic trace digest.

Determinism contract (docs/chaos.md): zero-magnitude schedules are
bitwise identical to clean runs, and the same ``(seed, schedule)``
produces identical recovery traces and outputs across processes.
"""

from repro.chaos.schedule import (
    ADC_DRIFT,
    BITLINE_NOISE,
    FAULT_KINDS,
    LINK_DEGRADE,
    SHARD_DEATH,
    FaultEvent,
    FaultSchedule,
    generate_schedule,
)
from repro.chaos.inject import ChaosController, Degradation
from repro.chaos.stream import (
    ChaosStreamResult,
    RecoveryRecord,
    run_chaos_stream,
)

__all__ = [
    "ADC_DRIFT",
    "BITLINE_NOISE",
    "FAULT_KINDS",
    "LINK_DEGRADE",
    "SHARD_DEATH",
    "FaultEvent",
    "FaultSchedule",
    "generate_schedule",
    "ChaosController",
    "Degradation",
    "ChaosStreamResult",
    "RecoveryRecord",
    "run_chaos_stream",
]
