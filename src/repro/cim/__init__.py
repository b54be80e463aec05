"""Circuit-level computing-in-memory simulation.

Models the proposed 1T/cell ROM-CiM macro of Fig. 5 and its SRAM-CiM
counterparts (Fig. 4) at two levels:

* **Functional** — :class:`CimMacro` executes bit-serial matrix-vector
  products through the bitline charge-sharing + shared-ADC path,
  reproducing the arithmetic *including 5-bit ADC quantization error*,
  so network accuracy can be evaluated under CiM non-idealities.
* **Analytic** — :class:`MacroSpec` derives the Table I envelope
  (density, GOPS, GOPS/mm^2, TOPS/W) consumed by the system simulator.

Energy/latency constants are calibrated to Table I of the paper
(28 nm, 5 Mb/mm^2, 8.9 ns per 256-op inference, 11.5 TOPS/W).
"""

from repro.cim.cells import (
    CellSpec,
    ROM_1T,
    SRAM_6T,
    SRAM_CIM_6T,
    SRAM_CIM_8T,
    SRAM_CIM_TWIN8T,
    SRAM_CIM_10T,
    SRAM_CIM_LCC6T,
    all_cim_cells,
)
from repro.cim.adc import AdcSpec
from repro.cim.bitline import BitlineModel
from repro.cim.macro import MacroConfig, CimMacro, MacroStats
from repro.cim.designspace import (
    DesignPoint,
    DesignSpaceConfig,
    DesignSpaceResult,
    explore,
    pareto_frontier,
    partial_activation_matmul,
)
from repro.cim.encoding import (
    ActivationEncoding,
    BitSerialEncoding,
    UnaryPulseEncoding,
    PulseWidthEncoding,
    encoding_by_name,
)
from repro.cim.spec import MacroSpec, rom_macro_spec, sram_macro_spec, TABLE1_PAPER
from repro.cim.variation import (
    VariationModel,
    MonteCarloResult,
    perturbed_matmul,
    monte_carlo,
    variation_sweep,
    tolerable_cell_sigma,
)
from repro.cim.mvm import (
    CimTiledMatmul,
    reference_cim_linear,
    reference_cim_conv2d,
)

__all__ = [
    "CellSpec",
    "ROM_1T",
    "SRAM_6T",
    "SRAM_CIM_6T",
    "SRAM_CIM_8T",
    "SRAM_CIM_TWIN8T",
    "SRAM_CIM_10T",
    "SRAM_CIM_LCC6T",
    "all_cim_cells",
    "AdcSpec",
    "BitlineModel",
    "MacroConfig",
    "CimMacro",
    "MacroStats",
    "DesignPoint",
    "DesignSpaceConfig",
    "DesignSpaceResult",
    "explore",
    "pareto_frontier",
    "partial_activation_matmul",
    "ActivationEncoding",
    "BitSerialEncoding",
    "UnaryPulseEncoding",
    "PulseWidthEncoding",
    "encoding_by_name",
    "MacroSpec",
    "rom_macro_spec",
    "sram_macro_spec",
    "TABLE1_PAPER",
    "VariationModel",
    "MonteCarloResult",
    "perturbed_matmul",
    "monte_carlo",
    "variation_sweep",
    "tolerable_cell_sigma",
    "CimTiledMatmul",
    "reference_cim_linear",
    "reference_cim_conv2d",
]
