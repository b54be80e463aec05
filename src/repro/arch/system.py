"""The three system configurations of Fig. 13 and their evaluation.

Every system consumes a full-size :class:`~repro.models.profile.ModelProfile`
and produces a :class:`SystemReport` with the quantities the paper
plots: chip area and its breakdown (Figs. 12, 14b), per-inference energy
and its breakdown (Fig. 14c), latency, and energy efficiency (Fig. 14a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.arch.chiplet import SIMBA_LINK, ChipletLinkSpec
from repro.arch.mapping import (
    WeightMapping,
    activation_traffic_bits,
    map_model,
    weight_reload_factor,
)
from repro.arch.memory import DramSpec, SramBufferModel
from repro.cim.spec import MacroSpec, rom_macro_spec, sram_macro_spec
from repro.models.profile import ModelProfile

#: Macro area decomposition used for the Fig. 14(b)-style breakdown.
#: ROM macros have no write path; SRAM-CiM macros spend ~25% on the
#: read/write interface (the paper: "ROM-CiM is more compact than
#: SRAM-CiM with a simplified R/W interface").
ROM_MACRO_AREA_SPLIT = {"array": 0.50, "adc": 0.30, "ctrl": 0.20, "rw": 0.0}
SRAM_MACRO_AREA_SPLIT = {"array": 0.35, "adc": 0.25, "ctrl": 0.15, "rw": 0.25}

#: Share of macro compute energy on the analog CiM path (word lines,
#: bit lines, ADC) vs digital peripherals (control, shift-and-add): the
#: analog share of the ROM macro's Table I pass
#: (``rom_macro_spec().pass_stats``), 0.6377, rounded.  The SRAM-CiM
#: pass's share is 0.6475; both systems are charged the one constant.
CIM_ENERGY_FRACTION = 0.64

#: Control area of a die beyond the macros' own, as a share of what the
#: die holds (its macros and its cache), added on top of them.
CTRL_AREA_SHARE = 0.05

#: Energy to write one bit into an SRAM-CiM array during weight reload.
SRAM_CIM_WRITE_PJ_PER_BIT = 0.05

#: Power-on weight loads amortized across this many inferences.
INFERENCES_PER_BOOT = 10_000


def macros_for(bits: float, spec: MacroSpec) -> int:
    """Macros of ``spec`` that hold ``bits`` weight bits."""
    return math.ceil(bits / spec.capacity_bits)


@dataclass
class EnergyBreakdown:
    """Per-inference energy, picojoules."""

    cim_pj: float = 0.0
    peripheral_pj: float = 0.0
    buffer_pj: float = 0.0
    dram_pj: float = 0.0
    interconnect_pj: float = 0.0

    @property
    def compute_pj(self) -> float:
        """What the macro passes cost: analog path plus peripherals."""
        return self.cim_pj + self.peripheral_pj

    @property
    def total_pj(self) -> float:
        return (
            self.cim_pj
            + self.peripheral_pj
            + self.buffer_pj
            + self.dram_pj
            + self.interconnect_pj
        )

    def fractions(self) -> Dict[str, float]:
        total = self.total_pj
        if total <= 0:
            return {}
        return {
            "cim": self.cim_pj / total,
            "peripheral": (self.peripheral_pj + self.buffer_pj) / total,
            "dram": self.dram_pj / total,
            "interconnect": self.interconnect_pj / total,
        }


@dataclass
class AreaBreakdown:
    """Chip area, mm^2, in both of the paper's groupings."""

    # Fig. 14(b) categories
    array_mm2: float = 0.0
    adc_mm2: float = 0.0
    rw_mm2: float = 0.0
    buffer_mm2: float = 0.0
    ctrl_mm2: float = 0.0
    # Fig. 12 categories
    rom_cim_mm2: float = 0.0
    sram_cim_mm2: float = 0.0

    @property
    def total_mm2(self) -> float:
        return (
            self.array_mm2
            + self.adc_mm2
            + self.rw_mm2
            + self.buffer_mm2
            + self.ctrl_mm2
        )

    @property
    def total_cm2(self) -> float:
        return self.total_mm2 / 100.0

    def fractions(self) -> Dict[str, float]:
        total = self.total_mm2
        if total <= 0:
            return {}
        return {
            "array": self.array_mm2 / total,
            "adc": self.adc_mm2 / total,
            "rw": self.rw_mm2 / total,
            "buffer": self.buffer_mm2 / total,
            "peripheral": self.ctrl_mm2 / total,
        }


@dataclass
class SystemReport:
    """Evaluation result of one (system, model) pair."""

    system: str
    area: AreaBreakdown
    energy: EnergyBreakdown
    latency_ns: float
    macs: int
    n_chips: int = 1
    dram_traffic_bits: int = 0
    interconnect_traffic_bits: int = 0
    fits_on_chip: bool = True
    mapping: Optional[WeightMapping] = None

    @property
    def energy_per_inference_uj(self) -> float:
        return self.energy.total_pj / 1e6

    @property
    def tops_per_w(self) -> float:
        """Ops per picojoule == TOPS/W (1 op = one 8b MAC)."""
        return self.macs / self.energy.total_pj if self.energy.total_pj else 0.0

    @property
    def throughput_gops(self) -> float:
        return self.macs / self.latency_ns if self.latency_ns else 0.0


def _macro_area_breakdown(
    n_macros: int, spec: MacroSpec, split: Dict[str, float]
) -> Dict[str, float]:
    area = n_macros * spec.area_mm2
    return {key: area * fraction for key, fraction in split.items()}


class BaseSystem:
    """Shared plumbing for the three Fig. 13 configurations."""

    name = "base"

    def __init__(
        self,
        rom_spec: Optional[MacroSpec] = None,
        sram_spec: Optional[MacroSpec] = None,
        cache: Optional[SramBufferModel] = None,
        dram: Optional[DramSpec] = None,
        link: ChipletLinkSpec = SIMBA_LINK,
        activation_bits: int = 8,
        weight_bits: int = 8,
    ):
        self.rom_spec = rom_spec if rom_spec is not None else rom_macro_spec()
        self.sram_spec = sram_spec if sram_spec is not None else sram_macro_spec()
        self.cache = cache if cache is not None else SramBufferModel()
        self.dram = dram if dram is not None else DramSpec()
        self.link = link
        self.activation_bits = activation_bits
        self.weight_bits = weight_bits

    # -- shared cost helpers ----------------------------------------------
    def _iso_area_mm2(self, profile: ModelProfile) -> float:
        """Area of the YOLoC chip for ``profile`` built on this system's
        specs, memories and widths (the paper's iso-area protocol)."""
        yoloc = YolocSystem(
            rom_spec=self.rom_spec,
            sram_spec=self.sram_spec,
            cache=self.cache,
            dram=self.dram,
            link=self.link,
            activation_bits=self.activation_bits,
            weight_bits=self.weight_bits,
        )
        return yoloc.evaluate(profile).area.total_mm2

    def _macro_budget_mm2(self, die_area_mm2: float, spec: MacroSpec) -> float:
        """Macro area a die can host beside its cache and control — the
        inverse of :meth:`_layout`, and the one die-budget check of every
        system: a die with no room there for one ``spec`` macro is
        refused, not clamped to one."""
        budget = die_area_mm2 / (1 + CTRL_AREA_SHARE) - self.cache.area_mm2
        if budget < spec.area_mm2:
            raise ValueError(
                f"a {die_area_mm2} mm^2 die cannot fit one {spec.area_mm2:.2f} "
                f"mm^2 macro beside its {self.cache.area_mm2:.1f} mm^2 cache "
                f"and {CTRL_AREA_SHARE:.0%} control share"
            )
        return budget

    def _macros_in(self, die_area_mm2: float, spec: MacroSpec) -> int:
        """Macros of ``spec`` that fit a die beside its cache and control.

        A die :meth:`_layout` sized for ``n`` macros holds ``n``: the
        slack absorbs the rounding of the layout's sum and its inverse.
        """
        budget = self._macro_budget_mm2(die_area_mm2, spec)
        return math.floor(budget / spec.area_mm2 + 1e-9)

    def _layout(self, rom_macros: int, sram_macros: int, n_dies: int) -> AreaBreakdown:
        """Area of ``n_dies`` dies holding the macros and a cache each,
        plus :data:`CTRL_AREA_SHARE` of that for control — the one die
        convention, which :meth:`_macro_budget_mm2` inverts."""
        rom = _macro_area_breakdown(rom_macros, self.rom_spec, ROM_MACRO_AREA_SPLIT)
        sram = _macro_area_breakdown(sram_macros, self.sram_spec, SRAM_MACRO_AREA_SPLIT)
        rom_mm2 = rom_macros * self.rom_spec.area_mm2
        sram_mm2 = sram_macros * self.sram_spec.area_mm2
        buffer_mm2 = n_dies * self.cache.area_mm2
        return AreaBreakdown(
            array_mm2=rom["array"] + sram["array"],
            adc_mm2=rom["adc"] + sram["adc"],
            rw_mm2=rom["rw"] + sram["rw"],
            buffer_mm2=buffer_mm2,
            ctrl_mm2=rom["ctrl"]
            + sram["ctrl"]
            + CTRL_AREA_SHARE * (rom_mm2 + sram_mm2 + buffer_mm2),
            rom_cim_mm2=rom_mm2,
            sram_cim_mm2=sram_mm2,
        )

    def _energy(
        self,
        profile: ModelProfile,
        rom_macs: int,
        sram_macs: int,
        dram_pj: float = 0.0,
        interconnect_pj: float = 0.0,
    ) -> EnergyBreakdown:
        """Per-inference energy of the given MACs, the activation traffic
        through the cache, and ``dram_pj`` / ``interconnect_pj``."""
        compute = self.rom_spec.mac_energy_pj(rom_macs) + self.sram_spec.mac_energy_pj(
            sram_macs
        )
        traffic = activation_traffic_bits(profile, self.activation_bits)
        return EnergyBreakdown(
            cim_pj=compute * CIM_ENERGY_FRACTION,
            peripheral_pj=compute * (1.0 - CIM_ENERGY_FRACTION),
            # Each activation is written once and read once on average.
            buffer_pj=self.cache.access_energy_pj(2 * traffic),
            dram_pj=dram_pj,
            interconnect_pj=interconnect_pj,
        )

    def evaluate(self, profile: ModelProfile) -> SystemReport:
        raise NotImplementedError


class YolocSystem(BaseSystem):
    """Fig. 13(a): ROM-CiM backbone + SRAM-CiM ReBranch and prediction,
    on one die."""

    name = "yoloc"

    def __init__(self, d: int = 4, u: int = 4, **kwargs):
        super().__init__(**kwargs)
        self.d = d
        self.u = u

    def _n_dies(self, macro_area_mm2: float) -> int:
        """Dies the macros are cut across: one, on a monolithic chip."""
        return 1

    def _crossing_bits(self, profile: ModelProfile, n_dies: int) -> float:
        """Activation bits crossing a die boundary per inference."""
        return 0.0

    def die_layout(
        self, rom_bits: float, sram_bits: float
    ) -> Tuple[AreaBreakdown, int]:
        """Area of the dies holding ``rom_bits`` in ROM-CiM and
        ``sram_bits`` in SRAM-CiM macros, a cache each and the control
        share, and how many dies that is."""
        rom_macros = macros_for(rom_bits, self.rom_spec)
        sram_macros = macros_for(sram_bits, self.sram_spec)
        macro_area = (
            rom_macros * self.rom_spec.area_mm2 + sram_macros * self.sram_spec.area_mm2
        )
        n_dies = self._n_dies(macro_area)
        return self._layout(rom_macros, sram_macros, n_dies), n_dies

    def evaluate(self, profile: ModelProfile) -> SystemReport:
        mapping = map_model(
            profile, "yoloc", d=self.d, u=self.u, weight_bits=self.weight_bits
        )
        area, n_dies = self.die_layout(
            mapping.rom_weight_bits, mapping.sram_weight_bits
        )

        crossing = self._crossing_bits(profile, n_dies)
        boot_pj = (
            self.dram.access_energy_pj(mapping.sram_weight_bits) / INFERENCES_PER_BOOT
        )
        energy = self._energy(
            profile,
            mapping.rom_macs,
            mapping.sram_macs,
            dram_pj=boot_pj,
            interconnect_pj=self.link.transfer_energy_pj(crossing),
        )

        rom_macros = macros_for(mapping.rom_weight_bits, self.rom_spec)
        sram_macros = macros_for(mapping.sram_weight_bits, self.sram_spec)
        rom_gops = rom_macros * self.rom_spec.throughput_gops
        sram_gops = sram_macros * self.sram_spec.throughput_gops
        # A model whose one weight layer is its SRAM tail has no ROM macro.
        rom_latency = mapping.rom_macs / rom_gops if rom_macros else 0.0
        compute_latency = max(rom_latency, mapping.sram_macs / sram_gops)
        return SystemReport(
            system=self.name,
            area=area,
            energy=energy,
            latency_ns=compute_latency + self.link.transfer_time_ns(crossing),
            macs=mapping.total_macs,
            n_chips=n_dies,
            interconnect_traffic_bits=int(crossing),
            mapping=mapping,
        )

    def latency_overhead(self, profile: ModelProfile) -> float:
        """Fractional latency cost of the residual branch (paper: <8%)."""
        report = self.evaluate(profile)
        trunk_bits = sum(
            p.layer.params * self.weight_bits for p in report.mapping.placements
        )
        trunk_macros = macros_for(trunk_bits, self.rom_spec)
        trunk_latency = profile.total_macs / (
            trunk_macros * self.rom_spec.throughput_gops
        )
        return report.latency_ns / trunk_latency - 1.0


class SramSingleChipSystem(BaseSystem):
    """Fig. 13(b): iso-area all-SRAM-CiM chip backed by DRAM."""

    name = "sram-single-chip"

    def __init__(self, chip_area_mm2: Optional[float] = None, **kwargs):
        super().__init__(**kwargs)
        self.chip_area_mm2 = chip_area_mm2

    def area_for_capacity(self, capacity_bits: int) -> float:
        """Chip area (mm^2) whose macro array holds ``capacity_bits``.

        Used by the Fig. 14 protocol: the shared chip is sized so the
        smallest benchmark (VGG-8) fits entirely on chip.
        """
        return self._layout(0, macros_for(capacity_bits, self.sram_spec), 1).total_mm2

    def evaluate(self, profile: ModelProfile) -> SystemReport:
        chip_area = self.chip_area_mm2
        if chip_area is None:
            chip_area = self._iso_area_mm2(profile)
        mapping = map_model(profile, "all_sram", weight_bits=self.weight_bits)
        n_macros = self._macros_in(chip_area, self.sram_spec)
        capacity_bits = n_macros * self.sram_spec.capacity_bits

        total_bits = mapping.total_weight_bits
        resident = min(total_bits, capacity_bits)
        missing = total_bits - resident
        reload_factor = weight_reload_factor(
            profile, self.cache.capacity_bits, self.activation_bits
        )
        traffic = missing * reload_factor

        area = self._layout(0, n_macros, 1)
        dram_pj = self.dram.access_energy_pj(traffic) + traffic * SRAM_CIM_WRITE_PJ_PER_BIT
        energy = self._energy(profile, 0, mapping.total_macs, dram_pj=dram_pj)

        compute_latency = mapping.total_macs / (
            n_macros * self.sram_spec.throughput_gops
        )
        dram_latency = self.dram.transfer_time_ns(traffic)
        return SystemReport(
            system=self.name,
            area=area,
            energy=energy,
            latency_ns=max(compute_latency, dram_latency),
            macs=mapping.total_macs,
            dram_traffic_bits=int(traffic),
            fits_on_chip=missing == 0,
            mapping=mapping,
        )


class SramChipletSystem(BaseSystem):
    """Fig. 13(c): enough SRAM-CiM chiplets to hold every weight."""

    name = "sram-chiplet"

    def __init__(
        self,
        chiplet_area_mm2: Optional[float] = None,
        boundary_activation_fraction: float = 0.5,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.chiplet_area_mm2 = chiplet_area_mm2
        if not 0 <= boundary_activation_fraction <= 1:
            raise ValueError("boundary fraction must be in [0, 1]")
        self.boundary_activation_fraction = boundary_activation_fraction

    def evaluate(self, profile: ModelProfile) -> SystemReport:
        mapping = map_model(profile, "all_sram", weight_bits=self.weight_bits)
        chiplet_area = self.chiplet_area_mm2
        if chiplet_area is None:
            chiplet_area = self._iso_area_mm2(profile)
        macros_per_chip = self._macros_in(chiplet_area, self.sram_spec)
        capacity_per_chip = macros_per_chip * self.sram_spec.capacity_bits
        n_chips = max(1, math.ceil(mapping.total_weight_bits / capacity_per_chip))

        area = self._layout(0, n_chips * macros_per_chip, n_chips)

        act_bits = activation_traffic_bits(profile, self.activation_bits)
        crossing = (
            act_bits * self.boundary_activation_fraction if n_chips > 1 else 0.0
        )
        energy = self._energy(
            profile,
            0,
            mapping.total_macs,
            interconnect_pj=self.link.transfer_energy_pj(crossing),
        )

        compute_latency = mapping.total_macs / (
            n_chips * macros_per_chip * self.sram_spec.throughput_gops
        )
        link_latency = self.link.transfer_time_ns(crossing)
        return SystemReport(
            system=self.name,
            area=area,
            energy=energy,
            latency_ns=compute_latency + link_latency,
            macs=mapping.total_macs,
            n_chips=n_chips,
            interconnect_traffic_bits=int(crossing),
            mapping=mapping,
        )
