"""ROM-CiM chiplets — the paper's named future work (section 4.3.3).

"Future works that thoroughly exploit the ROM-CiM design space and
cross-layer co-optimizations (including ROM-CiM chiplets) are
promising."  This module builds that system: the YOLoC organization
(ROM-CiM trunk + SRAM-CiM branch + cache per die) partitioned across as
many chiplets as a per-die area budget requires, connected by the same
SIMBA-class serial link the SRAM-CiM chiplet baseline uses.

The expected shape: because ROM-CiM is ~19x denser, a ROM chiplet
assembly needs roughly an order of magnitude fewer dies and total
silicon than the SRAM chiplet assembly for the same model, and it
lifts the single-chip YOLoC's reticle ceiling.  Per-inference energy
lands near parity: the ReBranch layers add ~15% extra MACs, which eats
the interconnect saving from cutting the network in fewer places — the
assembly's win is area and cost, not energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Sequence, Tuple

from repro.arch.mapping import activation_traffic_bits
from repro.arch.system import SramChipletSystem, YolocSystem
from repro.models.profile import ModelProfile


class RomChipletSystem(YolocSystem):
    """YOLoC partitioned over multiple dies of at most ``die_area_mm2``.

    Each die carries its share of ROM-CiM trunk macros, the SRAM-CiM
    macros for the ReBranch layers mapped to it, and a local cache.
    Layer boundaries that land on die boundaries ship activations over
    the chiplet link; ``boundary_activation_fraction`` is the share of
    total activation traffic that crosses (same convention as the
    SRAM-CiM chiplet baseline, scaled by how many cut points the
    partition actually has).  Everything else is :class:`YolocSystem`'s
    cost model, which is this one on a single die.
    """

    name = "rom-chiplet"

    def __init__(
        self,
        die_area_mm2: float = 50.0,
        d: int = 4,
        u: int = 4,
        boundary_activation_fraction: float = 0.5,
        **kwargs,
    ):
        super().__init__(d=d, u=u, **kwargs)
        if die_area_mm2 <= 0:
            raise ValueError(f"die area must be positive, got {die_area_mm2}")
        if not 0 <= boundary_activation_fraction <= 1:
            raise ValueError("boundary fraction must be in [0, 1]")
        self.die_area_mm2 = die_area_mm2
        self.boundary_activation_fraction = boundary_activation_fraction

    def _n_dies(self, macro_area_mm2: float) -> int:
        budget = self._macro_budget_mm2(self.die_area_mm2, self.rom_spec)
        return max(1, math.ceil(macro_area_mm2 / budget))

    def _crossing_bits(self, profile: ModelProfile, n_dies: int) -> float:
        act_bits = activation_traffic_bits(profile, self.activation_bits)
        # With k dies the network is cut k-1 times; normalize against the
        # SRAM-chiplet convention (flat fraction once more than one die).
        cut_scale = (n_dies - 1) / n_dies if n_dies > 1 else 0.0
        return act_bits * self.boundary_activation_fraction * cut_scale


@dataclass
class ChipletScalingPoint:
    """ROM vs SRAM chiplet assemblies at one die-area budget."""

    die_area_mm2: float
    rom_chips: int
    sram_chips: int
    rom_energy_uj: float
    sram_energy_uj: float
    rom_area_cm2: float
    sram_area_cm2: float

    @property
    def chip_count_ratio(self) -> float:
        return self.sram_chips / self.rom_chips

    @property
    def energy_ratio(self) -> float:
        return self.sram_energy_uj / self.rom_energy_uj


@dataclass
class ChipletScalingResult:
    model: str
    points: List[ChipletScalingPoint] = field(default_factory=list)

    #: Column names of :meth:`rows`.
    HEADERS: ClassVar[Tuple[str, ...]] = (
        "die_mm2",
        "rom_chips",
        "sram_chips",
        "rom_cm2",
        "sram_cm2",
        "rom_uJ",
        "sram_uJ",
    )

    def rows(self) -> List[Tuple]:
        return [
            (
                p.die_area_mm2,
                p.rom_chips,
                p.sram_chips,
                p.rom_area_cm2,
                p.sram_area_cm2,
                p.rom_energy_uj,
                p.sram_energy_uj,
            )
            for p in self.points
        ]


def chiplet_scaling(
    profile: ModelProfile,
    die_areas_mm2: Sequence[float] = (25.0, 50.0, 100.0),
    model_name: str = "model",
    **kwargs,
) -> ChipletScalingResult:
    """Sweep the die-area budget for ROM vs SRAM chiplet assemblies."""
    result = ChipletScalingResult(model=model_name)
    for die_area in die_areas_mm2:
        rom = RomChipletSystem(die_area_mm2=die_area, **kwargs).evaluate(profile)
        sram = SramChipletSystem(chiplet_area_mm2=die_area, **kwargs).evaluate(profile)
        result.points.append(
            ChipletScalingPoint(
                die_area_mm2=die_area,
                rom_chips=rom.n_chips,
                sram_chips=sram.n_chips,
                rom_energy_uj=rom.energy_per_inference_uj,
                sram_energy_uj=sram.energy_per_inference_uj,
                rom_area_cm2=rom.area.total_cm2,
                sram_area_cm2=sram.area.total_cm2,
            )
        )
    return result


def reticle_escape_area_mm2(
    profile: ModelProfile, d: int = 4, u: int = 4, **kwargs
) -> float:
    """Single-die YOLoC area for the model — what chiplets must beat.

    When this exceeds the reticle limit (~858 mm^2 at 26x33 mm), a
    monolithic YOLoC cannot be manufactured and the ROM-chiplet
    assembly is the only DRAM-free deployment left.
    """
    report = YolocSystem(d=d, u=u, **kwargs).evaluate(profile)
    return report.area.total_mm2


#: Standard full-field reticle, 26 mm x 33 mm.
RETICLE_LIMIT_MM2 = 858.0


def partition_summary(
    profile: ModelProfile, die_area_mm2: float = 50.0, **kwargs
) -> Dict[str, float]:
    """One-line comparison used by the example script and the bench."""
    rom = RomChipletSystem(die_area_mm2=die_area_mm2, **kwargs).evaluate(profile)
    sram = SramChipletSystem(chiplet_area_mm2=die_area_mm2, **kwargs).evaluate(profile)
    monolithic = reticle_escape_area_mm2(profile, **kwargs)
    return {
        "die_area_mm2": die_area_mm2,
        "rom_chips": rom.n_chips,
        "sram_chips": sram.n_chips,
        "chip_count_ratio": sram.n_chips / rom.n_chips,
        "energy_ratio": sram.energy.total_pj / rom.energy.total_pj,
        "area_ratio": sram.area.total_mm2 / rom.area.total_mm2,
        "monolithic_area_mm2": monolithic,
        "needs_chiplets": float(monolithic > RETICLE_LIMIT_MM2),
    }
