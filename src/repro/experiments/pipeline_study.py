"""Ping-pong scheduling study (section 4.3.3's perspectives paragraph).

Applies the :mod:`repro.arch.pipeline` scheduler to the Fig. 14
single-chip SRAM-CiM baseline: the chip is sized so VGG-8 fits (the
Fig. 14 protocol), larger models stream weights from DRAM, and the
study measures how much of that streaming latency double-buffered
ping-pong execution hides — and that it hides none of the energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import models
from repro.arch.memory import DramSpec
from repro.arch.pipeline import relief_summary, tasks_for_single_chip
from repro.arch.mapping import weight_reload_factor
from repro.arch.system import SramSingleChipSystem, macros_for
from repro.cim.spec import sram_macro_spec
from repro.experiments.common import format_table
from repro.experiments.fig14 import BENCHMARKS

@dataclass
class PipelineStudyConfig:
    benchmarks: Tuple[Tuple[str, Tuple[int, int, int, int]], ...] = BENCHMARKS
    fit_margin: float = 1.25
    compute_slowdown: float = 1.0
    seed: int = 0


def fast_config() -> PipelineStudyConfig:
    return PipelineStudyConfig(benchmarks=BENCHMARKS[:2])


def full_config() -> PipelineStudyConfig:
    return PipelineStudyConfig()


@dataclass
class PipelineStudyResult:
    chip_capacity_bits: int = 0
    chip_gops: float = 0.0
    rows: List[Dict[str, float]] = field(default_factory=list)

    def by_model(self) -> Dict[str, Dict[str, float]]:
        return {row["model"]: row for row in self.rows}


def run(config: Optional[PipelineStudyConfig] = None) -> PipelineStudyResult:
    """Relief summary for every benchmark on the shared Fig. 14 chip."""
    config = config if config is not None else PipelineStudyConfig()
    rng = np.random.default_rng(config.seed)
    dram = DramSpec()

    profiles = {}
    for name, shape in config.benchmarks:
        model = models.build_model(name, rng=rng)
        profiles[name] = models.profile_model(model, shape)

    smallest_bits = min(p.total_params * 8 for p in profiles.values())
    chip = SramSingleChipSystem()
    spec = chip.sram_spec
    chip_area = chip.area_for_capacity(int(smallest_bits * config.fit_margin))
    n_macros = chip._macros_in(chip_area, spec)
    capacity_bits = n_macros * spec.capacity_bits
    chip_gops = n_macros * spec.throughput_gops

    result = PipelineStudyResult(
        chip_capacity_bits=capacity_bits, chip_gops=chip_gops
    )
    for name, profile in profiles.items():
        reload_factor = weight_reload_factor(profile, chip.cache.capacity_bits)
        tasks = tasks_for_single_chip(
            profile,
            capacity_bits,
            chip_gops,
            dram=dram,
            reload_factor=reload_factor,
        )
        summary = relief_summary(
            tasks, dram=dram, compute_slowdown=config.compute_slowdown
        )
        summary["model"] = name
        summary["resident_fraction"] = (
            min(1.0, capacity_bits / (profile.total_params * 8))
        )
        result.rows.append(summary)
    return result


def slowdown_sensitivity(
    slowdowns: Tuple[float, ...] = (1.0, 1.25, 1.5, 2.0),
    model_name: str = "yolo",
    seed: int = 0,
) -> List[Dict[str, float]]:
    """How much bank-switching compute loss the overlap can absorb."""
    rng = np.random.default_rng(seed)
    model = models.build_model(model_name, rng=rng)
    profile = models.profile_model(model, models.INPUT_SHAPES[model_name])
    spec = sram_macro_spec()
    # A deliberately small chip so the model is reload-dominated.
    capacity_bits = int(profile.total_params * 8 * 0.25)
    tasks = tasks_for_single_chip(
        profile, capacity_bits, macros_for(capacity_bits, spec) * spec.throughput_gops
    )
    rows = []
    for slowdown in slowdowns:
        summary = relief_summary(tasks, compute_slowdown=slowdown)
        rows.append(
            {
                "compute_slowdown": slowdown,
                "latency_relief": summary["latency_relief"],
            }
        )
    return rows


def format_report(result: PipelineStudyResult) -> str:
    rows = [
        (
            r["model"],
            r["resident_fraction"],
            r["serial_ns"] / 1e6,
            r["pingpong_ns"] / 1e6,
            r["latency_relief"],
        )
        for r in result.rows
    ]
    return format_table(
        rows, ["model", "resident", "serial_ms", "pingpong_ms", "relief"]
    )
