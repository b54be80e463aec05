"""Ping-pong / pipelined weight reload (section 4.3.3).

"Ping-Pong and pipelining techniques can relieve the latency issue, but
little could be done to the energy overhead while designing an SRAM-CiM
macro."  This module quantifies both halves of that sentence for the
single-chip SRAM-CiM baseline (Fig. 13b):

* :func:`serial_schedule` — each layer waits for its DRAM weight load,
  then computes: the makespan the paper's latency numbers assume.
* :func:`double_buffered_schedule` — ping-pong CiM in the style of [9]:
  while one bank computes layer ``l``, the DRAM channel fills the other
  bank with layer ``l+1``'s weights.  The makespan approaches
  ``max(total_compute, total_load)`` instead of their sum.

The energy side needs no scheduler: the same weight bits cross the DRAM
interface either way, so :func:`relief_summary` reports identical
energy for both schedules — the paper's "little could be done" —
alongside the latency relief the overlap buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.arch.memory import DramSpec
from repro.models.profile import ModelProfile


@dataclass(frozen=True)
class LayerTask:
    """One layer's pipeline workload."""

    name: str
    compute_ns: float
    load_bits: float
    load_ns: float

    def __post_init__(self):
        if self.compute_ns < 0 or self.load_bits < 0 or self.load_ns < 0:
            raise ValueError(f"negative workload in task {self.name!r}")


@dataclass
class ScheduleEntry:
    """Realized timing of one task."""

    name: str
    load_start_ns: float
    load_end_ns: float
    compute_start_ns: float
    compute_end_ns: float


@dataclass
class Schedule:
    """A complete timeline for one inference."""

    policy: str
    entries: List[ScheduleEntry] = field(default_factory=list)

    @property
    def makespan_ns(self) -> float:
        return max((e.compute_end_ns for e in self.entries), default=0.0)

    @property
    def compute_busy_ns(self) -> float:
        return sum(e.compute_end_ns - e.compute_start_ns for e in self.entries)

    @property
    def compute_utilization(self) -> float:
        span = self.makespan_ns
        return self.compute_busy_ns / span if span else 0.0

    def validate(self) -> None:
        """Check the physical constraints every legal timeline obeys."""
        prev_load_end = 0.0
        prev_compute_end = 0.0
        for entry in self.entries:
            if entry.load_start_ns < prev_load_end - 1e-9:
                raise AssertionError(
                    f"{entry.name}: DRAM channel double-booked"
                )
            if entry.compute_start_ns < entry.load_end_ns - 1e-9:
                raise AssertionError(
                    f"{entry.name}: compute started before weights arrived"
                )
            if entry.compute_start_ns < prev_compute_end - 1e-9:
                raise AssertionError(
                    f"{entry.name}: two layers computing at once"
                )
            prev_load_end = entry.load_end_ns
            prev_compute_end = entry.compute_end_ns


def serial_schedule(tasks: Sequence[LayerTask]) -> Schedule:
    """Load-then-compute, one layer at a time (no overlap)."""
    schedule = Schedule(policy="serial")
    clock = 0.0
    for task in tasks:
        load_start = clock
        load_end = load_start + task.load_ns
        compute_end = load_end + task.compute_ns
        schedule.entries.append(
            ScheduleEntry(task.name, load_start, load_end, load_end, compute_end)
        )
        clock = compute_end
    return schedule


def double_buffered_schedule(
    tasks: Sequence[LayerTask],
    compute_slowdown: float = 1.0,
) -> Schedule:
    """Ping-pong banks: load layer ``l+1`` while layer ``l`` computes.

    With two banks, the bank receiving layer ``l``'s weights is the one
    layer ``l-2`` computed from, so a load may not begin before that
    compute retires.  ``compute_slowdown`` models bank-switched macros
    that give up part of their compute parallelism to the write port
    (1.0 = a dedicated shadow bank, the [9] organization).
    """
    if compute_slowdown < 1.0:
        raise ValueError("compute_slowdown cannot be < 1 (that would be a speedup)")
    schedule = Schedule(policy="ping-pong")
    load_free = 0.0  # DRAM channel availability
    compute_free = 0.0  # the single compute resource
    bank_free = [0.0, 0.0]  # when each bank's previous contents retire
    for index, task in enumerate(tasks):
        bank = index % 2
        load_start = max(load_free, bank_free[bank])
        load_end = load_start + task.load_ns
        compute_start = max(load_end, compute_free)
        compute_end = compute_start + task.compute_ns * compute_slowdown
        schedule.entries.append(
            ScheduleEntry(task.name, load_start, load_end, compute_start, compute_end)
        )
        load_free = load_end
        compute_free = compute_end
        bank_free[bank] = compute_end
    return schedule


def tasks_for_single_chip(
    profile: ModelProfile,
    chip_capacity_bits: float,
    chip_gops: float,
    dram: Optional[DramSpec] = None,
    weight_bits: int = 8,
    reload_factor: int = 1,
) -> List[LayerTask]:
    """Per-layer load/compute workloads for the Fig. 13(b) baseline.

    Weights stay resident in layer order until the chip's CiM capacity
    is exhausted; every later layer streams from DRAM each inference
    (``reload_factor`` times when activation tiling forces re-fetch).
    """
    if chip_gops <= 0:
        raise ValueError("chip throughput must be positive")
    if chip_capacity_bits < 0:
        raise ValueError("chip capacity cannot be negative")
    dram = dram if dram is not None else DramSpec()
    tasks = []
    resident_budget = float(chip_capacity_bits)
    for layer in profile.weight_layers():
        bits = layer.params * weight_bits
        if bits <= resident_budget:
            resident_budget -= bits
            load_bits = 0.0
        else:
            load_bits = float(bits * reload_factor)
        tasks.append(
            LayerTask(
                name=layer.name,
                compute_ns=layer.macs / chip_gops,
                load_bits=load_bits,
                load_ns=dram.transfer_time_ns(load_bits),
            )
        )
    return tasks


def relief_summary(
    tasks: Sequence[LayerTask],
    dram: Optional[DramSpec] = None,
    compute_slowdown: float = 1.0,
) -> Dict[str, float]:
    """Latency relief and (unchanged) DRAM energy of the overlap.

    The keys spell out the paper's sentence: ``latency_relief`` is what
    ping-pong buys; ``serial_dram_pj == pingpong_dram_pj`` is the
    energy that "little could be done" about.
    """
    dram = dram if dram is not None else DramSpec()
    serial = serial_schedule(tasks)
    pingpong = double_buffered_schedule(tasks, compute_slowdown=compute_slowdown)
    serial.validate()
    pingpong.validate()
    total_load_bits = sum(t.load_bits for t in tasks)
    dram_pj = dram.access_energy_pj(total_load_bits)
    return {
        "serial_ns": serial.makespan_ns,
        "pingpong_ns": pingpong.makespan_ns,
        "latency_relief": (
            serial.makespan_ns / pingpong.makespan_ns
            if pingpong.makespan_ns
            else 1.0
        ),
        "serial_dram_pj": dram_pj,
        "pingpong_dram_pj": dram_pj,
        "compute_utilization_serial": serial.compute_utilization,
        "compute_utilization_pingpong": pingpong.compute_utilization,
        "total_load_bits": total_load_bits,
    }
