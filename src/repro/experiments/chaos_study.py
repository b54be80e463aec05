"""Chaos campaign study: availability, recovery time, degraded accuracy.

The chaos runtime (:mod:`repro.chaos`) makes faults a first-class,
replayable input to the sharded stream executor.  This study drives it
as an experiment, answering the three questions an operator of a
chiplet fleet would ask:

* **Availability under shard death** — a sweep of single-shard-death
  campaigns (death point and casualty rotate deterministically with the
  campaign index) measures the fraction of requested micro-batches
  delivered, how many were replayed vs dropped, and the wall-clock
  recovery split (re-plan vs engine restore).  Every campaign also
  checks the differential witness: each *delivered* micro-batch is
  bitwise identical to the clean unsharded oracle.
* **Recovery-time distribution** — the per-campaign recovery walls are
  aggregated into min/mean/max rows (warm restores from an artifact
  store, when a ``store`` is configured, separate from cold re-plans).
* **Accuracy vs fault corner** — degradation schedules (bit-line noise
  sigma, ADC drift ramps) open a window over the whole stream, and the
  delivered outputs are scored against the clean oracle: mean relative
  error and argmax agreement (the label-free accuracy proxy every other
  study here uses).  The zero-magnitude corner doubles as the bitwise
  identity witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos import ADC_DRIFT, BITLINE_NOISE, ChaosController, FaultEvent, FaultSchedule, SHARD_DEATH
from repro.experiments.common import (
    conv_stack,
    format_metrics,
    format_table,
    study_model,
    study_stream,
)
from repro.runtime import compile_model, shard


@dataclass
class ChaosStudyConfig:
    """Campaign budget.

    ``model`` selects a zoo network (``resnet8``, ``mobilenet``, …)
    instead of the synthetic conv stack, exactly like the shard study.
    ``corners`` are ``(kind, magnitude)`` degradation corners for the
    accuracy table; magnitude is a count-domain noise sigma for
    ``bitline_noise`` and a count-domain offset step per micro-batch of
    window age for ``adc_drift``.
    """

    image_hw: int = 16
    channels: Sequence[int] = (8, 12, 12, 16)
    num_classes: int = 10
    n_batches: int = 8
    batch_size: int = 4
    n_shards: int = 2
    queue_depth: int = 2
    seed: int = 0
    n_campaigns: int = 3
    drop: int = 0
    corners: Sequence[Tuple[str, float]] = (
        (BITLINE_NOISE, 0.0),
        (BITLINE_NOISE, 0.5),
        (BITLINE_NOISE, 2.0),
        (ADC_DRIFT, 0.5),
        (ADC_DRIFT, 2.0),
    )
    model: Optional[str] = None
    width_mult: float = 0.25


def fast_config() -> ChaosStudyConfig:
    return ChaosStudyConfig(
        image_hw=12, channels=(6, 8, 8), n_batches=6, batch_size=2,
        n_campaigns=2,
    )


def full_config() -> ChaosStudyConfig:
    return ChaosStudyConfig(
        image_hw=20, channels=(12, 16, 16, 24), n_batches=64, batch_size=4,
        n_campaigns=6, drop=2,
        corners=(
            (BITLINE_NOISE, 0.0),
            (BITLINE_NOISE, 0.25),
            (BITLINE_NOISE, 0.5),
            (BITLINE_NOISE, 1.0),
            (BITLINE_NOISE, 2.0),
            (ADC_DRIFT, 0.25),
            (ADC_DRIFT, 0.5),
            (ADC_DRIFT, 1.0),
            (ADC_DRIFT, 2.0),
        ),
    )


@dataclass
class CampaignPoint:
    """One shard-death campaign."""

    campaign: int
    death_at: int
    dead_shard: int
    availability: float
    delivered: int
    dropped: int
    replayed: int
    replan_ms: float
    restore_ms: float
    recovery_ms: float
    warm_restored: bool
    delivered_bitwise: bool


@dataclass
class CornerPoint:
    """One degradation corner scored against the clean oracle."""

    kind: str
    magnitude: float
    mean_rel_err: float
    argmax_agreement: float
    bitwise_identical: bool


@dataclass
class ChaosStudyResult:
    n_batches: int = 0
    batch_samples: int = 0
    n_shards: int = 0
    campaigns: List[CampaignPoint] = field(default_factory=list)
    corners: List[CornerPoint] = field(default_factory=list)

    def campaign_rows(self) -> List[Tuple]:
        return [
            (
                p.campaign,
                p.death_at,
                p.dead_shard,
                round(p.availability, 3),
                p.dropped,
                p.replayed,
                round(p.replan_ms, 1),
                round(p.recovery_ms, 1),
                p.delivered_bitwise,
            )
            for p in self.campaigns
        ]

    def corner_rows(self) -> List[Tuple]:
        return [
            (
                p.kind,
                p.magnitude,
                f"{p.mean_rel_err:.2e}",
                round(p.argmax_agreement, 3),
                p.bitwise_identical,
            )
            for p in self.corners
        ]

    def recovery_summary(self) -> List[Tuple]:
        """min/mean/max recovery wall times over the campaign sweep."""
        walls = [p.recovery_ms for p in self.campaigns]
        if not walls:
            return []
        return [
            ("recovery_ms_min", round(min(walls), 1)),
            ("recovery_ms_mean", round(float(np.mean(walls)), 1)),
            ("recovery_ms_max", round(max(walls), 1)),
            (
                "availability_mean",
                round(float(np.mean([p.availability for p in self.campaigns])), 3),
            ),
        ]


def run(config: ChaosStudyConfig = None) -> ChaosStudyResult:
    """Execute the campaign sweep and the degradation-corner table."""
    config = config if config is not None else fast_config()
    model, runtime_config = study_model(config, conv_stack)
    compiled = compile_model(model, runtime_config)
    input_shape, batches, oracle = study_stream(config, compiled)
    sharded = shard(compiled, config.n_shards, input_shape=input_shape)

    result = ChaosStudyResult(
        n_batches=config.n_batches,
        batch_samples=config.batch_size,
        n_shards=config.n_shards,
    )

    # -- shard-death campaigns ----------------------------------------
    for c in range(config.n_campaigns):
        death_at = 1 + c % max(config.n_batches - 1, 1)
        dead_shard = c % config.n_shards
        schedule = FaultSchedule(
            seed=config.seed + c,
            events=(
                FaultEvent(
                    kind=SHARD_DEATH,
                    shard=dead_shard,
                    at_index=death_at,
                    drop=config.drop,
                    label=f"campaign-{c}",
                ),
            ),
        )
        controller = ChaosController(schedule, input_shape=input_shape)
        stream = sharded.run_stream(
            batches,
            seed=config.seed,
            queue_depth=config.queue_depth,
            chaos=controller,
        )
        bitwise = all(
            np.array_equal(out, oracle[i])
            for i, out in stream.outputs_by_index.items()
        )
        recovery = stream.recoveries[0] if stream.recoveries else None
        result.campaigns.append(
            CampaignPoint(
                campaign=c,
                death_at=death_at,
                dead_shard=dead_shard,
                availability=stream.availability,
                delivered=stream.n_delivered,
                dropped=len(stream.dropped_indexes),
                replayed=len(recovery.replayed) if recovery else 0,
                replan_ms=(recovery.replan_s if recovery else 0.0) * 1e3,
                restore_ms=(recovery.restore_s if recovery else 0.0) * 1e3,
                recovery_ms=(recovery.wall_s if recovery else 0.0) * 1e3,
                warm_restored=bool(recovery and recovery.warm_restored),
                delivered_bitwise=bitwise,
            )
        )

    # -- degradation corners ------------------------------------------
    for kind, magnitude in config.corners:
        schedule = FaultSchedule(
            seed=config.seed,
            events=(
                FaultEvent(kind=kind, at_index=0, magnitude=magnitude),
            ),
        )
        controller = ChaosController(schedule)
        stream = sharded.run_stream(
            batches,
            seed=config.seed,
            queue_depth=config.queue_depth,
            chaos=controller,
        )
        rel_errs = []
        agree = 0
        total = 0
        bitwise = True
        for i, out in stream.outputs_by_index.items():
            ref = oracle[i]
            bitwise = bitwise and np.array_equal(out, ref)
            scale = np.abs(ref).max()
            rel_errs.append(
                float(np.abs(out - ref).max() / scale) if scale else 0.0
            )
            agree += int((out.argmax(axis=1) == ref.argmax(axis=1)).sum())
            total += ref.shape[0]
        result.corners.append(
            CornerPoint(
                kind=kind,
                magnitude=magnitude,
                mean_rel_err=float(np.mean(rel_errs)) if rel_errs else 0.0,
                argmax_agreement=agree / total if total else 1.0,
                bitwise_identical=bitwise,
            )
        )
    return result


def format_report(result: ChaosStudyResult) -> str:
    return "\n".join(
        [
            f"chaos: {result.n_batches} micro-batches x {result.batch_samples} "
            f"samples across {result.n_shards} shards",
            "\nshard-death campaigns:",
            format_table(
                result.campaign_rows(),
                [
                    "campaign",
                    "death_at",
                    "shard",
                    "availability",
                    "dropped",
                    "replayed",
                    "replan_ms",
                    "recovery_ms",
                    "bitwise",
                ],
            ),
            "\nrecovery distribution:",
            format_metrics(result.recovery_summary()),
            "\ndegradation corners (vs clean oracle):",
            format_table(
                result.corner_rows(),
                ["kind", "magnitude", "mean_rel_err", "argmax_agree", "bitwise"],
            ),
        ]
    )
