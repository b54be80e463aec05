"""Sharded pipeline-parallel makespan study on executed traffic.

Section 4.3.3 analyses serial-vs-pipelined schedules analytically
(``arch/pipeline.py``); this study reproduces the comparison on *real
executed traffic*: a conv stack is compiled once, cut across 1..N
simulated chiplets (:func:`repro.runtime.shard`), and a stream of
micro-batches is executed pipeline-parallel through the shards.  The
per-stage macro latencies and SIMBA-link transfer times measured from
that execution drive the makespan comparison:

* **serial** — the monolithic single-chip execution of the stream (sum
  of all per-batch compute latencies; no links);
* **pipelined** — shard ``s`` starts micro-batch ``i`` once it arrived
  over the serial link and shard ``s`` retired micro-batch ``i - 1``.

Every sharded output is verified bitwise against the unsharded
compiled model — sharding is scheduling, never arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.common import (
    conv_stack,
    format_table,
    study_model,
    study_stream,
)
from repro.runtime import compile_model, shard


@dataclass
class ShardStudyConfig:
    """Study budget.

    ``model`` selects a zoo network (``resnet8``, ``resnet18``,
    ``mobilenet``, …) instead of the synthetic conv stack: it is built
    at ``width_mult``, deployed with batch-norm folding, and cut across
    the shard sweep like any other plan — residual diamonds stay whole
    (single-edge-frontier cuts).  ``None`` keeps the conv stack.
    """

    image_hw: int = 16
    channels: Sequence[int] = (8, 12, 12, 16)
    num_classes: int = 10
    n_batches: int = 8
    batch_size: int = 4
    shard_counts: Sequence[int] = (1, 2, 4)
    queue_depth: int = 2
    seed: int = 0
    model: Optional[str] = None
    width_mult: float = 0.25


def fast_config() -> ShardStudyConfig:
    return ShardStudyConfig(
        image_hw=12, channels=(6, 8, 8), n_batches=6, batch_size=2,
        shard_counts=(1, 2, 4),
    )


def full_config() -> ShardStudyConfig:
    return ShardStudyConfig(
        image_hw=20, channels=(12, 16, 16, 24, 24), n_batches=16,
        batch_size=8, shard_counts=(1, 2, 4, 6),
    )


@dataclass
class ShardPoint:
    """Measured stream execution at one shard count."""

    n_shards: int
    serial_ms: float
    pipelined_ms: float
    link_bits: float
    link_energy_fj: float
    bitwise_identical: bool
    balance: float
    wall_s: float

    @property
    def speedup(self) -> float:
        return self.serial_ms / self.pipelined_ms if self.pipelined_ms else 1.0


@dataclass
class ShardStudyResult:
    n_batches: int = 0
    batch_samples: int = 0
    points: List[ShardPoint] = field(default_factory=list)

    def point(self, n_shards: int) -> ShardPoint:
        for p in self.points:
            if p.n_shards == n_shards:
                return p
        raise KeyError(f"no point at {n_shards} shards")

    def rows(self) -> List[Tuple]:
        return [
            (
                p.n_shards,
                round(p.serial_ms, 3),
                round(p.pipelined_ms, 3),
                round(p.speedup, 2),
                round(p.link_energy_fj / 1e6, 2),
                round(p.balance, 2),
                p.bitwise_identical,
            )
            for p in self.points
        ]


def run(config: ShardStudyConfig = None) -> ShardStudyResult:
    """Execute the micro-batch stream at every shard count and compare
    the serial and pipelined makespans measured from it."""
    config = config if config is not None else fast_config()
    model, runtime_config = study_model(config, conv_stack)
    compiled = compile_model(model, runtime_config)
    input_shape, batches, expected = study_stream(config, compiled)

    result = ShardStudyResult(
        n_batches=config.n_batches, batch_samples=config.batch_size
    )
    for n in config.shard_counts:
        sharded = shard(compiled, n, input_shape=input_shape)
        stream = sharded.run_stream(
            batches, seed=config.seed, queue_depth=config.queue_depth
        )
        bitwise = all(
            np.array_equal(out, ref) for out, ref in zip(stream.outputs, expected)
        )
        result.points.append(
            ShardPoint(
                n_shards=n,
                serial_ms=stream.serial_makespan_ns / 1e6,
                pipelined_ms=stream.pipelined_makespan_ns / 1e6,
                link_bits=stream.stats.link_bits,
                link_energy_fj=stream.stats.link_energy_fj,
                bitwise_identical=bitwise,
                balance=sharded.plan.balance,
                wall_s=stream.wall_s,
            )
        )
    return result


def format_report(result: ShardStudyResult) -> str:
    return "\n".join(
        [
            f"stream: {result.n_batches} micro-batches x "
            f"{result.batch_samples} samples (makespans in simulated chip time)",
            format_table(
                result.rows(),
                [
                    "shards",
                    "serial_ms",
                    "pipelined_ms",
                    "speedup",
                    "link_nJ",
                    "balance",
                    "bitwise",
                ],
            ),
        ]
    )
