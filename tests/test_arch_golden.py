"""Golden pin of every number the chip cost model reports.

Fig. 14's three systems, Table I, Fig. 12's area rows, the ping-pong
study, the duty-cycle ablation, the training cost model and the ROM
chiplet studies are all derived from the same few formulas in
``repro.arch`` and ``repro.cim.spec``.  This file pins their outputs
exactly (``==``, not approximately), so a refactor of those formulas
that moves any number fails here and names the first key that moved.

A deliberate change of a number is a declared revision of the pin:
regenerate ``arch_golden.json`` with

    PYTHONPATH=src python tests/test_arch_golden.py > tests/arch_golden.json

and say which keys moved, and why, in the change's notes.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro import models
from repro.arch import (
    RomChipletSystem,
    SramChipletSystem,
    SramSingleChipSystem,
    TrainingCostModel,
    YolocSystem,
    chiplet_scaling,
    partition_summary,
)
from repro.cim.spec import rom_macro_spec, sram_macro_spec
from repro.experiments import ablations, fig12, fig14, pipeline_study, table1

GOLDEN_PATH = Path(__file__).with_name("arch_golden.json")

#: The models the system, chiplet and training entries are pinned on.
PINNED_MODELS = ("vgg8", "resnet18", "yolo")


@functools.lru_cache(maxsize=None)
def _profile(name: str):
    model = models.build_model(name, rng=np.random.default_rng(0))
    return models.profile_model(model, models.INPUT_SHAPES[name])


def _report(prefix: str, report) -> Dict[str, object]:
    numbers = {
        "latency_ns": report.latency_ns,
        "macs": report.macs,
        "n_chips": report.n_chips,
        "dram_traffic_bits": report.dram_traffic_bits,
        "interconnect_traffic_bits": report.interconnect_traffic_bits,
        "fits_on_chip": report.fits_on_chip,
        "tops_per_w": report.tops_per_w,
        "throughput_gops": report.throughput_gops,
        "area.total_mm2": report.area.total_mm2,
        "energy.total_pj": report.energy.total_pj,
        "mapping.rom_weight_bits": report.mapping.rom_weight_bits,
        "mapping.sram_weight_bits": report.mapping.sram_weight_bits,
        "mapping.rom_macs": report.mapping.rom_macs,
        "mapping.sram_macs": report.mapping.sram_macs,
    }
    for part in ("array", "adc", "rw", "buffer", "ctrl", "rom_cim", "sram_cim"):
        numbers[f"area.{part}_mm2"] = getattr(report.area, f"{part}_mm2")
    for part in ("cim", "peripheral", "buffer", "dram", "interconnect"):
        numbers[f"energy.{part}_pj"] = getattr(report.energy, f"{part}_pj")
    return {f"{prefix}.{key}": value for key, value in numbers.items()}


def _fig14() -> Dict[str, object]:
    result = fig14.run(fig14.fast_config())
    numbers: Dict[str, object] = {"chip_area_mm2": result.chip_area_mm2}
    for c in result.comparisons:
        numbers.update(_report(f"{c.model}.yoloc", c.yoloc))
        numbers.update(_report(f"{c.model}.single_chip", c.single_chip))
        numbers.update(_report(f"{c.model}.chiplet", c.chiplet))
        numbers[f"{c.model}.improvement_vs_single"] = c.improvement_vs_single
        numbers[f"{c.model}.latency_overhead"] = result.latency_overheads[c.model]
    return numbers


def _table1() -> Dict[str, object]:
    result = table1.run()
    numbers: Dict[str, object] = {}
    for key, (paper, model) in result.rows.items():
        numbers[f"rows.{key}.paper"] = paper
        numbers[f"rows.{key}.model"] = model
    for name, area, ratio in result.cell_comparison:
        numbers[f"cells.{name}.area_um2"] = area
        numbers[f"cells.{name}.ratio"] = ratio
    numbers["sram_density_ratio"] = result.sram_density_ratio
    for spec in (rom_macro_spec(), sram_macro_spec()):
        for key, value in spec.table().items():
            numbers[f"{spec.name}.{key}"] = value
        numbers[f"{spec.name}.energy_per_inference_pj"] = spec.energy_per_inference_pj
    return numbers


def _fig12() -> Dict[str, object]:
    numbers: Dict[str, object] = {}
    for row in fig12.area_rows(4, 4):
        for key in ("rom_cim_cm2", "sram_cim_cm2", "cache_cm2", "peripheral_cm2"):
            numbers[f"{row.method}.{key}"] = getattr(row, key)
    return numbers


def _pipeline() -> Dict[str, object]:
    result = pipeline_study.run(pipeline_study.fast_config())
    numbers: Dict[str, object] = {
        "chip_capacity_bits": result.chip_capacity_bits,
        "chip_gops": result.chip_gops,
    }
    for row in result.rows:
        for key, value in row.items():
            if key != "model":
                numbers[f"{row['model']}.{key}"] = value
    return numbers


def _duty_cycle() -> Dict[str, object]:
    return {
        f"{row['duty_cycle']}.{key}": value
        for row in ablations.duty_cycle_ablation()
        for key, value in row.items()
    }


def _training() -> Dict[str, object]:
    return {
        f"{name}.{key}": value
        for name in PINNED_MODELS
        for key, value in TrainingCostModel().summary(_profile(name)).items()
    }


def _chiplets() -> Dict[str, object]:
    numbers: Dict[str, object] = {}
    for name in PINNED_MODELS:
        profile = _profile(name)
        for point in chiplet_scaling(profile).points:
            prefix = f"{name}.scaling.{point.die_area_mm2}"
            for key, value in vars(point).items():
                numbers[f"{prefix}.{key}"] = value
        for key, value in partition_summary(profile).items():
            numbers[f"{name}.partition.{key}"] = value
    return numbers


def _systems() -> Dict[str, object]:
    """Each system at its defaults (the SRAM chips sized iso-area with
    YOLoC) and at 4-bit weights."""
    numbers: Dict[str, object] = {}
    for name in PINNED_MODELS:
        for weight_bits in (8, 4):
            for system in (
                YolocSystem(weight_bits=weight_bits),
                SramSingleChipSystem(weight_bits=weight_bits),
                SramChipletSystem(weight_bits=weight_bits),
                RomChipletSystem(weight_bits=weight_bits),
            ):
                prefix = f"{name}.w{weight_bits}.{system.name}"
                numbers.update(_report(prefix, system.evaluate(_profile(name))))
    return numbers


SECTIONS = {
    "fig14": _fig14,
    "table1": _table1,
    "fig12": _fig12,
    "pipeline_study": _pipeline,
    "duty_cycle_ablation": _duty_cycle,
    "training": _training,
    "chiplets": _chiplets,
    "systems": _systems,
}


def observed() -> Dict[str, Dict[str, object]]:
    return {section: numbers() for section, numbers in SECTIONS.items()}


@functools.lru_cache(maxsize=None)
def _golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("section", list(SECTIONS))
def test_numbers_match_the_pin(section):
    pinned = _golden()[section]
    numbers = SECTIONS[section]()
    assert list(numbers) == list(pinned), "the pinned keys changed"
    moved = [key for key in pinned if numbers[key] != pinned[key]]
    if moved:
        first = moved[0]
        pytest.fail(
            f"{section}.{first} moved: {pinned[first]!r} -> {numbers[first]!r} "
            f"({len(moved)} of {len(pinned)} keys moved)"
        )


if __name__ == "__main__":
    print(json.dumps(observed(), indent=1))
