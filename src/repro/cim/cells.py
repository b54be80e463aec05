"""Memory cell models (Fig. 2 and Fig. 4 of the paper).

Areas are 28 nm layout numbers anchored on the paper's headline figures:
the proposed 1T ROM cell occupies 0.014 um^2/bit; a compact-rule 6T SRAM
is 16x larger; the SRAM-CiM cell of [3] (ISSCC'21) is 18.5x larger; the
other published CiM cells of Fig. 4 span 14.5x-29.5x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class CellSpec:
    """Static properties of one memory/CiM bit cell."""

    name: str
    area_um2: float
    volatile: bool
    #: Energy to discharge the bitline through one ON cell, femtojoules.
    read_energy_fj: float
    #: Standby leakage power per cell, picowatts (0 for ROM: non-volatile
    #: and unpowered when idle).
    standby_leakage_pw: float

    @property
    def density_mb_per_mm2(self) -> float:
        """Raw cell-array density in Mb/mm^2 (no peripherals)."""
        return 1e6 / (self.area_um2 * 1e6) * 1.0  # bits/um^2 -> Mb/mm^2

    def relative_area(self, other: "CellSpec") -> float:
        """Area of ``self`` relative to ``other`` (>1 means bigger)."""
        return self.area_um2 / other.area_um2


#: The proposed 1T/cell ROM-CiM cell (Fig. 4a): gate fused to WL ('1')
#: or grounded ('0').  0.014 um^2/bit — denser than 5-7nm SRAM.
ROM_1T = CellSpec(
    name="rom-1t",
    area_um2=0.014,
    volatile=False,
    read_energy_fj=0.45,
    standby_leakage_pw=0.0,
)

#: Compact-rule 6T SRAM in the same 28nm process (16x the ROM cell): a
#: storage cell, with no in-array multiply-accumulate.
SRAM_6T = CellSpec(
    name="sram-6t",
    area_um2=0.014 * 16.0,
    volatile=True,
    read_energy_fj=0.55,
    standby_leakage_pw=1.2,
)

#: The 6T SRAM-CiM cell of ISSCC'21 [3] (18.5x the ROM cell).
SRAM_CIM_6T = CellSpec(
    name="sram-cim-6t",
    area_um2=0.014 * 18.5,
    volatile=True,
    read_energy_fj=0.60,
    standby_leakage_pw=1.2,
)

#: 8T read-decoupled CiM cell (Fig. 4c).
SRAM_CIM_8T = CellSpec(
    name="sram-cim-8t",
    area_um2=0.014 * 22.0,
    volatile=True,
    read_energy_fj=0.58,
    standby_leakage_pw=1.6,
)

#: Twin-8T multibit CiM cell (Fig. 4d, JSSC'20 [19]).
SRAM_CIM_TWIN8T = CellSpec(
    name="sram-cim-twin8t",
    area_um2=0.014 * 25.9,
    volatile=True,
    read_energy_fj=0.62,
    standby_leakage_pw=3.0,
)

#: 10T dot-product cell (Fig. 4e, CONV-SRAM [20]).
SRAM_CIM_10T = CellSpec(
    name="sram-cim-10t",
    area_um2=0.014 * 29.5,
    volatile=True,
    read_energy_fj=0.65,
    standby_leakage_pw=2.0,
)

#: Dual-split LCC-6T cell (Fig. 4f, TCAS-I'19 [21]) — the densest
#: published CiM cell in the comparison, still 14.5x the ROM cell.
SRAM_CIM_LCC6T = CellSpec(
    name="sram-cim-lcc6t",
    area_um2=0.014 * 14.5,
    volatile=True,
    read_energy_fj=0.60,
    standby_leakage_pw=1.2,
)


def all_cim_cells() -> List[CellSpec]:
    """Every compute-capable cell of the Fig. 4 comparison."""
    return [
        ROM_1T,
        SRAM_CIM_6T,
        SRAM_CIM_8T,
        SRAM_CIM_TWIN8T,
        SRAM_CIM_10T,
        SRAM_CIM_LCC6T,
    ]
