"""Analytic macro specifications — the Table I envelope.

The system simulator never bit-simulates full networks; it consumes the
macro-level figures this module derives from the circuit parameters:
density, throughput, area efficiency, energy efficiency.

The derivation follows the paper's accounting:

* One macro *inference* streams the 8 serial input bits (8 cycles of
  ~1.1 ns = 8.9 ns) while the 16 shared ADCs resolve 16 physical columns
  per cycle, i.e. 16 / 8 = 2 logical 8-bit output columns of a 128-row
  dot product per inference -> 128 x 2 = **256 operations** (Table I).
* A *macro* is ``capacity_bits`` of cells behind one ADC bank; only one
  subarray of a macro is active at a time (different macros on the chip
  run in parallel).
* Density includes peripherals via ``array_efficiency`` (cell area /
  macro area), calibrated to the published 5 Mb/mm^2 (ROM) and
  19x-lower SRAM-CiM figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from repro.cim.cells import ROM_1T, SRAM_CIM_6T
from repro.cim.macro import MacroConfig, MacroStats, macro_pass_stats

#: Table I as printed in the paper, for paper-vs-measured reporting.
TABLE1_PAPER: Dict[str, float] = {
    "process_nm": 28,
    "macro_size_mb": 1.2,
    "macro_area_mm2": 0.24,
    "macro_density_mb_mm2": 5.0,
    "cell_area_um2": 0.014,
    "input_bits": 8,
    "weight_bits": 8,
    "inference_time_ns": 8.9,
    "operation_number": 256,
    "throughput_gops": 28.8,
    "area_efficiency_gops_mm2": 119.4,
    "energy_efficiency_tops_w": 11.5,
    "standby_power_w": 0.0,
}

#: Table I's activities: each input bit drives half the word lines, and
#: a selected cell is ON with probability 1/4 (random input and weight
#: bits).
WL_ACTIVITY = 0.5
ON_FRACTION = 0.25


def _spans(extent: int, tile: int) -> List[Tuple[int, int]]:
    """``(span, count)`` of the tiles cutting ``extent`` at ``tile``: the
    full tiles, then the remainder."""
    full, rest = divmod(extent, tile)
    spans = [(tile, full)] if full else []
    if rest:
        spans.append((rest, 1))
    return spans


@dataclass
class MacroSpec:
    """Analytic model of one CiM macro (array + ADC bank + peripherals)."""

    name: str
    config: MacroConfig = field(default_factory=MacroConfig)
    #: Total storage behind one ADC bank (bits).
    capacity_bits: int = 1_200_000
    #: Cell-array area divided by total macro area.  CiM macros are
    #: peripheral-dominated; ~7% reproduces the published densities.
    array_efficiency: float = 0.0707

    def __post_init__(self):
        if not 0 < self.array_efficiency <= 1:
            raise ValueError("array efficiency must be in (0, 1]")
        if self.capacity_bits < self.config.capacity_bits:
            raise ValueError("macro capacity below a single subarray")
        if self.config.n_adcs < self.config.weight_bits:
            raise ValueError("the ADC bank resolves less than one weight per cycle")

    # -- geometry --------------------------------------------------------
    @property
    def n_subarrays(self) -> int:
        return self.capacity_bits // self.config.capacity_bits

    @property
    def cell_array_area_mm2(self) -> float:
        return self.capacity_bits * self.config.cell.area_um2 * 1e-6

    @property
    def area_mm2(self) -> float:
        return self.cell_array_area_mm2 / self.array_efficiency

    @property
    def density_mb_mm2(self) -> float:
        return self.capacity_bits / 1e6 / self.area_mm2

    # -- pricing ---------------------------------------------------------
    def matrix_stats(self, rows: int, cols: int, vectors: int) -> MacroStats:
        """``vectors`` input vectors through a ``rows x cols`` weight
        matrix, tiled at ``config.rows x config.logical_columns`` as the
        runtime tiles it, each tile pass priced by
        :func:`macro_pass_stats` at Table I's activities
        (:data:`WL_ACTIVITY`, :data:`ON_FRACTION`).

        Latency follows :class:`MacroStats`: the matrix's tiles run side
        by side, so it is the slowest tile's.
        """
        cfg = self.config
        total = MacroStats()
        latency = 0.0
        for r, row_tiles in _spans(rows, cfg.rows):
            for c, col_tiles in _spans(cols, cfg.logical_columns):
                tiles = row_tiles * col_tiles
                # Every count is linear in the vectors: equal tiles price
                # as one pass over all their vectors.
                n = tiles * vectors
                selected = r * cfg.input_bits * n  # (row, input bit) pairs
                stats = macro_pass_stats(
                    cfg,
                    rows_used=r,
                    cols_used=c,
                    n_vectors=n,
                    row_activations=selected * WL_ACTIVITY,
                    counts_total=c * cfg.weight_bits * selected * ON_FRACTION,
                )
                total += stats
                latency = max(latency, stats.latency_ns / tiles)
        return replace(total, latency_ns=latency)

    @property
    def pass_stats(self) -> MacroStats:
        """One Table I inference pass: one vector over all ``rows`` rows
        and the ``n_adcs`` physical columns the ADC bank resolves at
        once."""
        cfg = self.config
        return self.matrix_stats(cfg.rows, cfg.n_adcs // cfg.weight_bits, 1)

    # -- throughput ------------------------------------------------------
    @property
    def ops_per_inference(self) -> int:
        """MACs resolved per inference pass (Table I 'operation number')."""
        return self.pass_stats.macs

    @property
    def inference_time_ns(self) -> float:
        return self.pass_stats.latency_ns

    @property
    def throughput_gops(self) -> float:
        return self.ops_per_inference / self.inference_time_ns

    @property
    def area_efficiency_gops_mm2(self) -> float:
        return self.throughput_gops / self.area_mm2

    # -- energy ----------------------------------------------------------
    @property
    def energy_per_inference_pj(self) -> float:
        """Energy of one inference pass (:attr:`pass_stats`)."""
        return self.pass_stats.total_energy_fj / 1000.0

    @property
    def energy_per_op_fj(self) -> float:
        return self.energy_per_inference_pj * 1000.0 / self.ops_per_inference

    def mac_energy_pj(self, macs: float) -> float:
        """Compute energy of ``macs`` MACs at this macro's per-op cost."""
        return macs * self.energy_per_op_fj / 1000.0

    @property
    def tops_per_watt(self) -> float:
        return 1e3 / self.energy_per_op_fj / 1.0  # fJ/op -> TOPS/W

    @property
    def standby_power_w(self) -> float:
        leak_pw = self.config.cell.standby_leakage_pw
        return leak_pw * 1e-12 * self.capacity_bits

    # -- reporting -------------------------------------------------------
    def table(self) -> Dict[str, float]:
        """Table I rows as computed by this model."""
        return {
            "process_nm": 28,
            "macro_size_mb": self.capacity_bits / 1e6,
            "macro_area_mm2": self.area_mm2,
            "macro_density_mb_mm2": self.density_mb_mm2,
            "cell_area_um2": self.config.cell.area_um2,
            "input_bits": self.config.input_bits,
            "weight_bits": self.config.weight_bits,
            "inference_time_ns": self.inference_time_ns,
            "operation_number": self.ops_per_inference,
            "throughput_gops": self.throughput_gops,
            "area_efficiency_gops_mm2": self.area_efficiency_gops_mm2,
            "energy_efficiency_tops_w": self.tops_per_watt,
            "standby_power_w": self.standby_power_w,
        }


def rom_macro_spec() -> MacroSpec:
    """The proposed 1.2 Mb ROM-CiM macro (Table I)."""
    return MacroSpec(
        name="rom-cim",
        config=MacroConfig(cell=ROM_1T),
        capacity_bits=1_200_000,
        array_efficiency=0.0707,
    )


def sram_macro_spec() -> MacroSpec:
    """The 384 kb SRAM-CiM macro of [3] (ISSCC'21) used as the baseline.

    Same readout peripherals as the ROM macro (the paper reuses [3]'s),
    so compute energy matches; density is ~19x lower because of the
    larger cell and the read/write IO interface (lower array efficiency).
    """
    return MacroSpec(
        name="sram-cim",
        config=MacroConfig(cell=SRAM_CIM_6T),
        capacity_bits=384_000,
        array_efficiency=0.068,
    )
