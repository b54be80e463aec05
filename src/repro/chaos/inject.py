"""The injection layer: live degradation and fault firing decisions.

Two halves:

* :class:`Degradation` — the analog degradation of **one run**:
  :meth:`Degradation.apply` makes a degraded *copy* of an engine's run
  configuration (the bit-line comparator noise of
  :meth:`repro.cim.bitline.BitlineModel.observe` raised in quadrature,
  the ADC wrapped in the count-domain offset/gain error model of
  :func:`repro.cim.variation.apply_adc_errors`), and
  :meth:`repro.runtime.engine.ProgrammedLinear.execute` runs the
  **existing** reference macro path over a per-call view of its tiles
  bound to that copy.  The exact LUT kernel is noise-free by
  construction; the macro path is bitwise identical to it when nothing
  is degraded, so zero-magnitude faults cannot change an output bit.
* :class:`ChaosController` — owns a normalized
  :class:`~repro.chaos.schedule.FaultSchedule` and answers the hot-path
  questions (*is this shard dead yet? what degradation window is open
  at this micro-batch? how slow is this link right now?*) in O(events)
  per micro-batch with no RNG of its own: all noise draws come from the
  micro-batch's ``stream_rng``, so firing and effects replay exactly.

Thread-safety: engines are shared across shard workers, servers and
models through the engine cache, and a degraded execution never
modifies one — the degraded parameters live on a configuration copy
only the degraded call's tile views reference.  Clean and degraded
runs of the same engine may therefore overlap freely, with no lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.chaos.schedule import (
    ADC_DRIFT,
    BITLINE_NOISE,
    DEGRADATION_KINDS,
    LINK_DEGRADE,
    SHARD_DEATH,
    FaultEvent,
    FaultSchedule,
)
from repro.cim.adc import AdcSpec
from repro.cim.variation import apply_adc_errors


@dataclass(frozen=True)
class Degradation:
    """The combined analog degradation active for one engine execution.

    ``noise_sigma_counts`` adds to the bit line's own sigma in
    quadrature (independent noise sources); ``adc_offset`` /
    ``adc_gain`` apply at the count level before rail-clipping, exactly
    like the static Monte-Carlo's per-die errors.
    """

    noise_sigma_counts: float = 0.0
    adc_offset: float = 0.0
    adc_gain: float = 1.0

    @property
    def is_noop(self) -> bool:
        return (
            self.noise_sigma_counts == 0.0
            and self.adc_offset == 0.0
            and self.adc_gain == 1.0
        )

    def apply(self, run_config: Any) -> Any:
        """A degraded copy of ``run_config`` (which is left untouched):
        the ADC becomes a :class:`_DriftedAdc` and the bit-line noise
        sigma is raised in quadrature."""
        bitline = run_config.bitline
        if self.noise_sigma_counts > 0.0:
            bitline = replace(
                bitline,
                noise_sigma_counts=float(
                    np.hypot(bitline.noise_sigma_counts, self.noise_sigma_counts)
                ),
            )
        return replace(
            run_config,
            adc=_DriftedAdc(run_config.adc, self.adc_offset, self.adc_gain),
            bitline=bitline,
        )


class _DriftedAdc:
    """An ADC spec whose conversions see a count offset and gain error.

    Wraps the engine's real :class:`~repro.cim.adc.AdcSpec`; every
    attribute (resolution, energy, area) delegates to it, and only the
    conversion differs: the observed counts are passed through
    :func:`repro.cim.variation.apply_adc_errors` first — the same
    gain → offset → rail-clip pipeline the static variation study uses.
    """

    def __init__(self, adc: Any, offset: float, gain: float):
        self._adc = adc
        self._offset = offset
        self._gain = gain

    def __getattr__(self, name: str) -> Any:
        return getattr(self._adc, name)

    def convert(self, counts: np.ndarray, max_counts: float) -> Tuple[np.ndarray, float]:
        counts = apply_adc_errors(
            counts,
            gain=self._gain,
            offset=self._offset,
            max_counts=float(max_counts),
        )
        return self._adc.convert(counts, max_counts)

    #: ``codes * step`` on top of :meth:`convert` — the one definition.
    quantize_counts = AdcSpec.quantize_counts


class ChaosController:
    """Deterministic firing engine for one chaos campaign.

    Built once per campaign from a :class:`FaultSchedule`; threaded
    through :func:`repro.chaos.stream.run_chaos_stream` and
    :class:`repro.serve.InferenceServer`.  No-op events (zero-magnitude
    degradations, unit-factor link windows) are filtered at
    construction, so a zero-magnitude schedule leaves the controller
    *inert*: every hot-path query answers "no fault" and the
    instrumented run is bitwise identical to a clean one.

    ``store`` + ``artifact_key_fn(n_shards)`` enable warm failover
    restores from the ``.rcma`` artifact store; ``input_shape`` feeds
    the failover re-plan's MAC balancing; ``recovery_hook(record)`` is
    a test seam invoked after each completed failover, before displaced
    work is replayed or requeued.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        *,
        store: Any = None,
        artifact_key_fn: Optional[Callable[[int], str]] = None,
        input_shape: Optional[Tuple[int, ...]] = None,
        recovery_hook: Optional[Callable[[Any], None]] = None,
    ):
        self.schedule = schedule.normalized()
        self.store = store
        self.artifact_key_fn = artifact_key_fn
        self.input_shape = input_shape
        self.recovery_hook = recovery_hook
        # Positions index into the normalized schedule; duplicate events
        # stay distinct (each fires independently).
        active = tuple(
            (pos, e)
            for pos, e in enumerate(self.schedule.events)
            if not e.is_noop
        )
        self._deaths: Tuple[Tuple[int, FaultEvent], ...] = tuple(
            (pos, e) for pos, e in active if e.kind == SHARD_DEATH
        )
        self._degradations: Tuple[Tuple[int, FaultEvent], ...] = tuple(
            (pos, e) for pos, e in active if e.kind in DEGRADATION_KINDS
        )
        self._links: Tuple[Tuple[int, FaultEvent], ...] = tuple(
            (pos, e) for pos, e in active if e.kind == LINK_DEGRADE
        )
        self._lock = threading.Lock()
        #: (event position, shard key) -> index the window opened at
        #: (memo for chip-time-fired windows; index-fired windows need none).
        self._opened_at: Dict[Tuple[int, Optional[int]], int] = {}
        #: event position -> (shard, index) a death fired at.
        self._death_fired: Dict[int, Tuple[Optional[int], int]] = {}
        self.recoveries: List[Any] = []

    @property
    def is_inert(self) -> bool:
        return not (self._deaths or self._degradations or self._links)

    # -- window bookkeeping --------------------------------------------
    def _window_start(
        self,
        pos: int,
        event: FaultEvent,
        shard: Optional[int],
        index: int,
        chip_ns: float,
    ) -> Optional[int]:
        """Index the event's window opened at for this shard, or None.

        Index-fired windows open at ``at_index`` unconditionally.
        Chip-time windows open at the first micro-batch whose
        pre-execution cumulative shard chip time reaches ``at_chip_ns``
        — memoized per (event, shard) so the window start is stable for
        the rest of the run.  Shards consume micro-batches in index
        order, so the memo is deterministic.
        """
        if event.at_index is not None:
            return event.at_index if index >= event.at_index else None
        key = (pos, shard)
        start = self._opened_at.get(key)
        if start is not None:
            return start
        if chip_ns >= event.at_chip_ns:
            with self._lock:
                start = self._opened_at.setdefault(key, index)
            return start
        return None

    @staticmethod
    def _targets(event: FaultEvent, shard: Optional[int]) -> bool:
        """Does the event apply at this shard key?

        ``shard=None`` is the server-side query (the whole model runs
        as one unit): every degradation matches.  In the stream, an
        event with ``shard=None`` degrades every shard.
        """
        return shard is None or event.shard is None or event.shard == shard

    # -- hot-path queries ----------------------------------------------
    def check_shard_death(
        self, shard: Optional[int], index: int, chip_ns: float
    ) -> Optional[FaultEvent]:
        """First unfired death due at this point, marking it fired.

        In the stream each shard asks for itself (``shard=s`` in the
        current topology; events naming a shard outside it are held
        until a topology where they fit).  The server asks with
        ``shard=None``: any pending death fires, and the event's shard
        names the casualty for the re-plan.
        """
        if not self._deaths:
            return None
        for pos, event in self._deaths:
            if shard is not None and event.shard != shard:
                continue
            due = (
                index >= event.at_index
                if event.at_index is not None
                else chip_ns >= event.at_chip_ns
            )
            if not due:
                continue
            with self._lock:
                if pos in self._death_fired:
                    continue
                self._death_fired[pos] = (shard, index)
            return event
        return None

    def degradation_at(
        self, index: int, chip_ns: float = 0.0, shard: Optional[int] = None
    ) -> Optional[Degradation]:
        """Combined analog degradation open at this micro-batch.

        Drift offsets add, gains compound, noise sigmas combine in
        quadrature across overlapping windows.  Drift ramps scale with
        window *age* (micro-batches since the window opened, starting
        at 1), the live analogue of a slowly drifting ADC corner.
        """
        if not self._degradations:
            return None
        offset = 0.0
        gain = 1.0
        var = 0.0
        for pos, event in self._degradations:
            if not self._targets(event, shard):
                continue
            start = self._window_start(pos, event, shard, index, chip_ns)
            if start is None:
                continue
            if event.duration is not None and index >= start + event.duration:
                continue
            age = index - start + 1
            if event.kind == ADC_DRIFT:
                offset += event.magnitude * age
                gain *= 1.0 + event.gain_slope * age
            else:  # BITLINE_NOISE
                var += event.magnitude**2
        if offset == 0.0 and gain == 1.0 and var == 0.0:
            return None
        return Degradation(
            noise_sigma_counts=float(np.sqrt(var)), adc_offset=offset, adc_gain=gain
        )

    def link_factors(
        self, shard: int, index: int, chip_ns: float = 0.0
    ) -> Tuple[float, float]:
        """(latency, energy) multipliers on the link leaving ``shard``."""
        if not self._links:
            return (1.0, 1.0)
        latency = 1.0
        energy = 1.0
        for pos, event in self._links:
            if event.shard != shard:
                continue
            start = self._window_start(pos, event, shard, index, chip_ns)
            if start is None:
                continue
            if event.duration is not None and index >= start + event.duration:
                continue
            latency *= event.latency_factor
            energy *= event.energy_factor
        return (latency, energy)

    # -- trace ----------------------------------------------------------
    def fired_records(self) -> List[Dict[str, Any]]:
        """Deterministically ordered record of every fired death.

        Sorted by (index, event position) — independent of thread
        interleaving, so it belongs in the deterministic trace digest.
        """
        with self._lock:
            records = [
                {
                    "event": self.schedule.events[pos].to_meta(),
                    "shard": shard,
                    "index": index,
                }
                for pos, (shard, index) in self._death_fired.items()
            ]
        records.sort(key=lambda r: (r["index"], r["event"].get("at_index", -1)))
        return records
