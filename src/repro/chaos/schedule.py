"""Typed, seeded, serializable fault schedules.

A :class:`FaultSchedule` is the unit of replay for the chaos runtime:
a seed plus a tuple of :class:`FaultEvent` records whose firing points
are expressed in **micro-batch index** (``at_index``) or **simulated
chip time** (``at_chip_ns``) — never wall time.  Two runs given the
same schedule fire the same faults at the same logical points, which
is what makes the differential witnesses in ``tests/test_chaos.py``
possible at all.

Fault taxonomy (docs/chaos.md):

``shard_death``
    The chiplet group backing one pipeline shard goes dark.  The
    runtime fails over: re-plan around the dead shard, warm-restore
    from the artifact store, replay displaced micro-batches.
``link_degrade``
    The SIMBA-style package link leaving a shard runs slow and hot:
    per-hop latency and energy are scaled by ``latency_factor`` /
    ``energy_factor`` while the window is open.
``adc_drift``
    SAR-ADC offset/gain drift ramps linearly with micro-batch age —
    the live analogue of :class:`repro.cim.variation.VariationModel`'s
    ``adc_offset_sigma``/``adc_gain_sigma`` corners.
``bitline_noise``
    A transient thermal/supply event raises the bit-line comparator
    noise sigma (in counts) for the window — routed through the
    existing :meth:`repro.cim.bitline.BitlineModel.observe` path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

SHARD_DEATH = "shard_death"
LINK_DEGRADE = "link_degrade"
ADC_DRIFT = "adc_drift"
BITLINE_NOISE = "bitline_noise"

FAULT_KINDS: Tuple[str, ...] = (
    SHARD_DEATH,
    LINK_DEGRADE,
    ADC_DRIFT,
    BITLINE_NOISE,
)

#: Kinds that perturb arithmetic rather than topology.
DEGRADATION_KINDS: Tuple[str, ...] = (ADC_DRIFT, BITLINE_NOISE)

_SCHEDULE_VERSION = 1


class ScheduleError(ValueError):
    """A fault event or schedule failed validation."""


@dataclass(frozen=True)
class FaultEvent:
    """One typed fault with a deterministic firing point.

    Exactly one of ``at_index`` (micro-batch index) or ``at_chip_ns``
    (cumulative simulated chip time on the target shard) must be set.
    ``duration`` bounds degradation windows in micro-batches; ``None``
    leaves the window open until the stream ends.  ``shard`` names the
    target pipeline shard; for degradations ``None`` means every shard.
    """

    kind: str
    shard: Optional[int] = None
    at_index: Optional[int] = None
    at_chip_ns: Optional[float] = None
    duration: Optional[int] = None
    #: bitline_noise: added noise sigma in counts (quadrature).
    #: adc_drift: offset-count ramp slope per micro-batch of age.
    magnitude: float = 0.0
    #: adc_drift only: relative gain ramp slope per micro-batch of age.
    gain_slope: float = 0.0
    #: link_degrade only: multipliers on per-hop link latency / energy.
    latency_factor: float = 1.0
    energy_factor: float = 1.0
    #: shard_death only: displaced micro-batches abandoned (not replayed).
    drop: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScheduleError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        has_index = self.at_index is not None
        has_chip = self.at_chip_ns is not None
        if has_index == has_chip:
            raise ScheduleError(
                f"{self.kind}: exactly one of at_index/at_chip_ns must be set"
            )
        if has_index and self.at_index < 0:
            raise ScheduleError(f"{self.kind}: at_index must be >= 0")
        if has_chip and not self.at_chip_ns >= 0.0:
            raise ScheduleError(f"{self.kind}: at_chip_ns must be >= 0")
        if self.duration is not None and self.duration < 1:
            raise ScheduleError(f"{self.kind}: duration must be >= 1")
        if self.magnitude < 0.0:
            raise ScheduleError(f"{self.kind}: magnitude must be >= 0")
        if self.latency_factor <= 0.0 or self.energy_factor <= 0.0:
            raise ScheduleError(f"{self.kind}: link factors must be > 0")
        if self.drop < 0:
            raise ScheduleError(f"{self.kind}: drop must be >= 0")
        if self.kind in (SHARD_DEATH, LINK_DEGRADE) and self.shard is None:
            raise ScheduleError(f"{self.kind}: shard is required")
        if self.kind != SHARD_DEATH and self.drop:
            raise ScheduleError(f"{self.kind}: drop applies only to shard_death")
        if self.shard is not None and self.shard < 0:
            raise ScheduleError(f"{self.kind}: shard must be >= 0")

    @property
    def is_noop(self) -> bool:
        """True when firing this event cannot change any output bit."""
        if self.kind == SHARD_DEATH:
            return False
        if self.kind == LINK_DEGRADE:
            # Link degradation rescales simulated latency/energy stats but
            # never arithmetic; a unit-factor window is a strict no-op.
            return self.latency_factor == 1.0 and self.energy_factor == 1.0
        if self.kind == ADC_DRIFT:
            return self.magnitude == 0.0 and self.gain_slope == 0.0
        return self.magnitude == 0.0  # BITLINE_NOISE

    def firing_key(self) -> Tuple[int, float]:
        """Deterministic sort key: index-fired events before chip-time ones."""
        if self.at_index is not None:
            return (0, float(self.at_index))
        return (1, float(self.at_chip_ns))

    def to_meta(self) -> Dict[str, Any]:
        meta: Dict[str, Any] = {"kind": self.kind}
        for name in (
            "shard",
            "at_index",
            "at_chip_ns",
            "duration",
            "magnitude",
            "gain_slope",
            "latency_factor",
            "energy_factor",
            "drop",
            "label",
        ):
            value = getattr(self, name)
            default = type(self).__dataclass_fields__[name].default
            if value != default:
                meta[name] = value
        return meta

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "FaultEvent":
        known = set(cls.__dataclass_fields__)
        unknown = set(meta) - known
        if unknown:
            raise ScheduleError(f"unknown fault event fields: {sorted(unknown)}")
        return cls(**meta)


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, replayable campaign: what fails, where, and when.

    ``seed`` feeds every stochastic degradation draw (bit-line noise
    samples) through the same indexed-seed discipline as
    :func:`repro.runtime.stream_rng`, so chaos runs are bitwise
    replayable regardless of thread interleaving.
    """

    seed: int = 0
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def is_noop(self) -> bool:
        return all(event.is_noop for event in self.events)

    def normalized(self) -> "FaultSchedule":
        """Events stably sorted by firing point.

        The sort is *stable*: events sharing a firing key keep their
        original relative order, so normalization is idempotent and
        insertion-order ties are preserved (a property-tested
        invariant).
        """
        ordered = tuple(sorted(self.events, key=FaultEvent.firing_key))
        if ordered == self.events:
            return self
        return replace(self, events=ordered)

    def to_meta(self) -> Dict[str, Any]:
        return {
            "version": _SCHEDULE_VERSION,
            "seed": self.seed,
            "events": [event.to_meta() for event in self.events],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_meta(), indent=indent, sort_keys=True)

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "FaultSchedule":
        version = meta.get("version", _SCHEDULE_VERSION)
        if version != _SCHEDULE_VERSION:
            raise ScheduleError(
                f"unsupported schedule version {version!r} "
                f"(this runtime reads version {_SCHEDULE_VERSION})"
            )
        events = tuple(FaultEvent.from_meta(e) for e in meta.get("events", []))
        return cls(seed=int(meta.get("seed", 0)), events=events)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        try:
            meta = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"schedule is not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise ScheduleError("schedule JSON must be an object")
        return cls.from_meta(meta)


def generate_schedule(
    seed: int,
    *,
    n_batches: int,
    n_shards: int,
    n_events: int = 4,
    kinds: Sequence[str] = DEGRADATION_KINDS,
    max_magnitude: float = 2.0,
) -> FaultSchedule:
    """Draw a random, already-normalized schedule from a seed.

    Firing points are drawn sorted, so generated schedules are
    monotone in ``at_index`` — the property pinned in
    ``tests/test_properties.py``.  Only index-fired events are
    generated (chip-time events are written by hand or by campaigns
    that know the latency profile).
    """
    if n_batches < 1 or n_shards < 1:
        raise ScheduleError("n_batches and n_shards must be >= 1")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ScheduleError(f"unknown fault kind {kind!r}")
    rng = np.random.default_rng([seed, n_batches, n_shards])
    indexes = np.sort(rng.integers(0, n_batches, size=n_events))
    events = []
    for at_index in indexes:
        kind = str(rng.choice(list(kinds)))
        duration = int(rng.integers(1, max(2, n_batches // 2)))
        magnitude = float(rng.uniform(0.0, max_magnitude))
        if kind == SHARD_DEATH:
            events.append(
                FaultEvent(
                    kind=kind,
                    shard=int(rng.integers(0, n_shards)),
                    at_index=int(at_index),
                    drop=int(rng.integers(0, 3)),
                )
            )
        elif kind == LINK_DEGRADE:
            events.append(
                FaultEvent(
                    kind=kind,
                    shard=int(rng.integers(0, n_shards)),
                    at_index=int(at_index),
                    duration=duration,
                    latency_factor=float(rng.uniform(1.0, 4.0)),
                    energy_factor=float(rng.uniform(1.0, 2.0)),
                )
            )
        elif kind == ADC_DRIFT:
            events.append(
                FaultEvent(
                    kind=kind,
                    shard=None if rng.integers(0, 2) else int(rng.integers(0, n_shards)),
                    at_index=int(at_index),
                    duration=duration,
                    magnitude=magnitude,
                    gain_slope=float(rng.uniform(0.0, 0.05)),
                )
            )
        else:  # BITLINE_NOISE
            events.append(
                FaultEvent(
                    kind=kind,
                    shard=None if rng.integers(0, 2) else int(rng.integers(0, n_shards)),
                    at_index=int(at_index),
                    duration=duration,
                    magnitude=magnitude,
                )
            )
    return FaultSchedule(seed=seed, events=tuple(events)).normalized()
