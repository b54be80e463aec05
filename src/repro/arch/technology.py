"""Technology-scaling model (Fig. 1a) and standby-power analysis.

Fig. 1(a) motivates the whole paper: shrinking the process node raises
SRAM density but tape-out cost soars, so "buy density with a newer
node" stops being economical — while a 28nm ROM-CiM cell is already
denser than SRAM at 5-7nm.  This module embeds the industry-standard
scaling curves behind that figure so the cross-over can be computed
rather than eyeballed.

It also quantifies the paper's standby-power claim: ROM is non-volatile
(zero retention power), SRAM arrays leak continuously, so at low duty
cycles the energy gap widens far beyond the per-inference numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.arch.system import macros_for
from repro.cim.cells import ROM_1T
from repro.cim.spec import rom_macro_spec, sram_macro_spec


@dataclass(frozen=True)
class ProcessNode:
    """One CMOS process generation.

    ``sram_density_mb_mm2`` is high-density 6T macro density;
    ``tapeout_cost_musd`` the typical full-mask-set design+NRE cost in
    millions of USD (the exploding curve of Fig. 1a).
    """

    node_nm: int
    sram_density_mb_mm2: float
    tapeout_cost_musd: float


#: Published-magnitude numbers for the nodes on Fig. 1(a)'s x-axis.
PROCESS_NODES: Tuple[ProcessNode, ...] = (
    ProcessNode(130, 0.35, 1.5),
    ProcessNode(90, 0.65, 2.5),
    ProcessNode(65, 1.1, 4.0),
    ProcessNode(45, 1.9, 8.0),
    ProcessNode(40, 2.2, 10.0),
    ProcessNode(28, 3.1, 15.0),
    ProcessNode(20, 4.4, 30.0),
    ProcessNode(16, 6.4, 70.0),
    ProcessNode(10, 10.5, 170.0),
    ProcessNode(7, 17.0, 300.0),
    ProcessNode(5, 25.0, 540.0),
)


def node_table() -> List[ProcessNode]:
    """All modelled process nodes, newest last."""
    return sorted(PROCESS_NODES, key=lambda n: -n.node_nm)


def get_node(node_nm: int) -> ProcessNode:
    for node in PROCESS_NODES:
        if node.node_nm == node_nm:
            return node
    raise KeyError(f"no model for {node_nm} nm; available: "
                   f"{sorted(n.node_nm for n in PROCESS_NODES)}")


def rom28_density_mb_mm2() -> float:
    """Raw cell density of the proposed 28nm ROM (bits only)."""
    return ROM_1T.density_mb_per_mm2


def nodes_beaten_by_rom28(include_macro_overhead: bool = False) -> List[int]:
    """Process nodes whose SRAM density the 28nm ROM cell already beats.

    The paper: the ROM cell "is even denser than the commercial SRAM at
    the 5-7nm node".  With ``include_macro_overhead`` the comparison is
    at the macro level (peripheral-laden 5 Mb/mm^2) instead.
    """
    rom = (
        rom_macro_spec().density_mb_mm2
        if include_macro_overhead
        else rom28_density_mb_mm2()
    )
    return sorted(
        node.node_nm for node in PROCESS_NODES if rom > node.sram_density_mb_mm2
    )


def scaling_curve() -> Dict[int, Tuple[float, float]]:
    """node -> (normalized density, normalized tape-out cost), 130nm = 1."""
    base = get_node(130)
    return {
        node.node_nm: (
            node.sram_density_mb_mm2 / base.sram_density_mb_mm2,
            node.tapeout_cost_musd / base.tapeout_cost_musd,
        )
        for node in node_table()
    }


# ----------------------------------------------------------------------
# Standby power (the non-volatility claim)
# ----------------------------------------------------------------------
def duty_cycle_energy_ratio(
    active_energy_j: float,
    inference_rate_hz: float,
    weight_bits: int,
    duty_cycle: float = 1.0,
) -> Dict[str, float]:
    """Energy per wall-clock second of a ROM vs SRAM deployment.

    ``active_energy_j`` is the per-inference compute energy (equal for
    both, same peripherals); the SRAM deployment additionally leaks over
    its whole array whenever powered.  Returns per-second energy for
    both and the ROM advantage — which diverges as ``duty_cycle`` drops
    (the always-on edge-camera regime the paper targets).
    """
    if not 0 < duty_cycle <= 1:
        raise ValueError("duty cycle must be in (0, 1]")
    if inference_rate_hz < 0:
        raise ValueError("inference rate cannot be negative")
    rom = rom_macro_spec()
    sram = sram_macro_spec()
    compute_per_s = active_energy_j * inference_rate_hz * duty_cycle
    rom_total = compute_per_s + rom.standby_power_w * macros_for(weight_bits, rom)
    sram_total = compute_per_s + sram.standby_power_w * macros_for(weight_bits, sram)
    return {
        "rom_j_per_s": rom_total,
        "sram_j_per_s": sram_total,
        "rom_advantage": sram_total / rom_total if rom_total > 0 else float("inf"),
    }
