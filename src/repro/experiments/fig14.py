"""Fig. 14 — chip-level comparison of YOLoC vs SRAM-CiM systems.

(a) Energy efficiency and area of YOLoC vs the iso-capacity single-chip
    SRAM-CiM and the SRAM-CiM chiplet assembly (paper: YOLoC wins
    1x / 4.8x / 10.2x / 14.8x on VGG-8 / ResNet-18 / Tiny-YOLO / YOLO
    against the single chip, ~2% against chiplets at ~10x less area).
(b) YOLoC chip area breakdown (array / buffer / ADC / R-W / peripheral).
(c) Per-model energy breakdown of the single-chip SRAM-CiM baseline
    (CiM / peripheral / DRAM) with the improvement ratio overlay.

Protocol: one shared chip design sized so the smallest benchmark
(VGG-8) fits entirely in SRAM-CiM (the paper's Fig. 14c shows VGG-8
with no DRAM traffic); classification models run at CIFAR resolution,
detectors at 416x416.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import models
from repro.arch.system import (
    SramChipletSystem,
    SramSingleChipSystem,
    SystemReport,
    YolocSystem,
)
from repro.experiments.common import Claim, check_claims, format_claims

#: (model, input shape) pairs of the paper's benchmark set.
BENCHMARKS: Tuple[Tuple[str, Tuple[int, int, int, int]], ...] = tuple(
    (name, models.INPUT_SHAPES[name])
    for name in ("vgg8", "resnet18", "tiny_yolo", "yolo")
)

#: The paper's improvement ratios, for side-by-side comparison.
PAPER_IMPROVEMENTS = {"vgg8": 1.0, "resnet18": 4.8, "tiny_yolo": 10.2, "yolo": 14.8}


@dataclass
class Fig14Config:
    benchmarks: Tuple[Tuple[str, Tuple[int, int, int, int]], ...] = BENCHMARKS
    #: Chip capacity margin over the smallest model (sizes the shared chip).
    fit_margin: float = 1.25
    d: int = 4
    u: int = 4
    seed: int = 0


def fast_config() -> Fig14Config:
    return Fig14Config()


def full_config() -> Fig14Config:
    return Fig14Config()


@dataclass
class ModelComparison:
    model: str
    yoloc: SystemReport
    single_chip: SystemReport
    chiplet: SystemReport

    @property
    def improvement_vs_single(self) -> float:
        return self.single_chip.energy.total_pj / self.yoloc.energy.total_pj

    @property
    def improvement_vs_chiplet(self) -> float:
        return self.chiplet.energy.total_pj / self.yoloc.energy.total_pj

    @property
    def area_saving_vs_chiplet(self) -> float:
        return self.chiplet.area.total_mm2 / self.yoloc.area.total_mm2


@dataclass
class Fig14Result:
    chip_area_mm2: float = 0.0
    comparisons: List[ModelComparison] = field(default_factory=list)
    latency_overheads: Dict[str, float] = field(default_factory=dict)

    def improvements(self) -> Dict[str, float]:
        return {c.model: c.improvement_vs_single for c in self.comparisons}

    def comparison(self, model: str) -> ModelComparison:
        for comparison in self.comparisons:
            if comparison.model == model:
                return comparison
        raise KeyError(model)

    def yoloc_area_breakdown(self, model: str) -> Dict[str, float]:
        return self.comparison(model).yoloc.area.fractions()

    def energy_breakdown(self, model: str) -> Dict[str, float]:
        return self.comparison(model).single_chip.energy.fractions()


def run(config: Optional[Fig14Config] = None) -> Fig14Result:
    config = config if config is not None else fast_config()
    rng = np.random.default_rng(config.seed)

    profiles = {}
    for name, shape in config.benchmarks:
        model = models.build_model(name, rng=rng)
        profiles[name] = models.profile_model(model, shape)

    smallest_bits = min(p.total_params * 8 for p in profiles.values())
    single = SramSingleChipSystem()
    chip_area = single.area_for_capacity(int(smallest_bits * config.fit_margin))

    result = Fig14Result(chip_area_mm2=chip_area)
    yoloc = YolocSystem(d=config.d, u=config.u)
    for name, profile in profiles.items():
        comparison = ModelComparison(
            model=name,
            yoloc=yoloc.evaluate(profile),
            single_chip=SramSingleChipSystem(chip_area_mm2=chip_area).evaluate(profile),
            chiplet=SramChipletSystem(chiplet_area_mm2=chip_area).evaluate(profile),
        )
        result.comparisons.append(comparison)
        result.latency_overheads[name] = yoloc.latency_overhead(profile)
    return result


#: The benchmarks in the paper's order of improvement (= of model size),
#: and those of them that overflow the shared chip into DRAM.
_BY_PAPER_IMPROVEMENT = sorted(PAPER_IMPROVEMENTS, key=PAPER_IMPROVEMENTS.get)
_DRAM_BOUND = [m for m in _BY_PAPER_IMPROVEMENT if PAPER_IMPROVEMENTS[m] > 1.0]


def _paper_ratios(models, separator):
    return separator.join(f"{PAPER_IMPROVEMENTS[m]}x" for m in models)


CLAIMS = (
    Claim(
        "vgg8_parity",
        "VGG-8 fits on chip: 1x (0.7-1.3x)",
        lambda r: r.improvements()["vgg8"],
        lambda x: 0.7 < x < 1.3,
    ),
    Claim(
        "dram_bound_models_win",
        f"{' / '.join(_DRAM_BOUND)}: {_paper_ratios(_DRAM_BOUND, ' / ')} (each > 4x)",
        lambda r: [r.improvements()[m] for m in _DRAM_BOUND],
        lambda xs: all(x > 4 for x in xs),
    ),
    Claim(
        "improvement_grows_with_model_size",
        _paper_ratios(_BY_PAPER_IMPROVEMENT, " < "),
        lambda r: [r.improvements()[m] for m in _BY_PAPER_IMPROVEMENT],
        lambda xs: all(a < b for a, b in zip(xs, xs[1:])),
    ),
    Claim(
        "chiplet_energy_parity",
        "YOLO: ~2 % better than SRAM-CiM chiplets (0.9-1.3x)",
        lambda r: r.comparison("yolo").improvement_vs_chiplet,
        lambda x: 0.9 < x < 1.3,
    ),
    Claim(
        "chiplet_area_saving",
        "YOLO: ~10x less area than 10 chiplets (> 7x, >= 5 chips)",
        lambda r: {
            "saving": r.comparison("yolo").area_saving_vs_chiplet,
            "chips": r.comparison("yolo").chiplet.n_chips,
        },
        lambda m: m["saving"] > 7 and m["chips"] >= 5,
    ),
    Claim(
        "latency_overhead_below_8pct",
        "branch latency overhead < 8 % on every model",
        lambda r: r.latency_overheads,
        lambda overheads: all(0 <= o < 0.08 for o in overheads.values()),
    ),
    Claim(
        "dram_share_grows_with_model_size",
        "DRAM energy share: VGG-8 none, ResNet-18 < YOLO, YOLO > 50 %",
        lambda r: {m: r.energy_breakdown(m)["dram"] for m in ("vgg8", "resnet18", "yolo")},
        lambda d: d["vgg8"] == 0.0 and d["resnet18"] < d["yolo"] and d["yolo"] > 0.5,
    ),
    Claim(
        "yolo_area_breakdown",
        "YOLoC area: array 37 % (largest), ADC 21 % (> 10 %), R/W 20 % (< array)",
        lambda r: r.yoloc_area_breakdown("yolo"),
        lambda f: math.isclose(sum(f.values()), 1.0)
        and f["array"] == max(f.values())
        and f["adc"] > 0.1
        and 0 < f["rw"] < f["array"],
    ),
)


def claims(result):
    return check_claims(CLAIMS, result)


def format_report(result: Fig14Result) -> str:
    lines = [
        f"Shared SRAM-CiM chip area: {result.chip_area_mm2:.0f} mm^2",
        f"{'model':<10}{'E_yoloc(uJ)':>12}{'E_single(uJ)':>14}{'improve':>9}"
        f"{'vs paper':>9}{'chiplet x':>10}{'areaX':>7}{'lat ovh':>8}",
    ]
    for c in result.comparisons:
        paper = PAPER_IMPROVEMENTS.get(c.model, float("nan"))
        lines.append(
            f"{c.model:<10}{c.yoloc.energy_per_inference_uj:>12.1f}"
            f"{c.single_chip.energy_per_inference_uj:>14.1f}"
            f"{c.improvement_vs_single:>8.1f}x{paper:>8.1f}x"
            f"{c.improvement_vs_chiplet:>9.2f}x"
            f"{c.area_saving_vs_chiplet:>6.1f}x"
            f"{result.latency_overheads[c.model] * 100:>7.1f}%"
        )
    return "\n".join(lines) + format_claims(claims(result))
