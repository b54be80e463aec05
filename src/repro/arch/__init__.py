"""System-level architecture simulation (Figs. 12-14).

Combines the macro-level envelopes from ``repro.cim`` with CACTI-style
buffer/DRAM models and a SIMBA-style chiplet link to evaluate the three
system configurations of Fig. 13:

* :class:`YolocSystem` — ROM-CiM backbone + SRAM-CiM ReBranch/prediction,
  all weights on chip (DRAM touched only at power-on).
* :class:`SramSingleChipSystem` — iso-area all-SRAM-CiM chip that must
  stream non-resident weights from DRAM every inference.
* :class:`SramChipletSystem` — enough SRAM-CiM chiplets to hold all
  weights, paying inter-chiplet transfer energy for intermediate data.

Each returns a :class:`SystemReport` with the area/energy/latency
breakdowns the paper plots.
"""

from repro.arch.memory import SramBufferModel, DramSpec, CACHE_BITS_DEFAULT
from repro.arch.chiplet import ChipletLinkSpec, SIMBA_LINK
from repro.arch.mapping import WeightMapping, map_model
from repro.arch.packing import (
    WeightTile,
    SubarrayAssignment,
    PackingResult,
    pack_naive,
    pack_first_fit,
    compare_packings,
)
from repro.arch.technology import (
    ProcessNode,
    PROCESS_NODES,
    node_table,
    get_node,
    nodes_beaten_by_rom28,
    scaling_curve,
    duty_cycle_energy_ratio,
)
from repro.arch.noc import (
    MeshNocSpec,
    NocTrafficReport,
    map_layers_to_tiles,
    noc_share_of_compute,
)
from repro.arch.pipeline import (
    LayerTask,
    Schedule,
    ScheduleEntry,
    serial_schedule,
    double_buffered_schedule,
    tasks_for_single_chip,
    relief_summary,
)
from repro.arch.training import (
    TrainingCostModel,
    TrainingStepCost,
    OPTIMIZER_STATE_WORDS,
)
from repro.arch.romchiplet import (
    RomChipletSystem,
    ChipletScalingPoint,
    ChipletScalingResult,
    chiplet_scaling,
    partition_summary,
    reticle_escape_area_mm2,
    RETICLE_LIMIT_MM2,
)
from repro.arch.system import (
    SystemReport,
    EnergyBreakdown,
    AreaBreakdown,
    BaseSystem,
    YolocSystem,
    SramSingleChipSystem,
    SramChipletSystem,
)

__all__ = [
    "SramBufferModel",
    "DramSpec",
    "CACHE_BITS_DEFAULT",
    "ChipletLinkSpec",
    "SIMBA_LINK",
    "WeightMapping",
    "map_model",
    "WeightTile",
    "SubarrayAssignment",
    "PackingResult",
    "pack_naive",
    "pack_first_fit",
    "compare_packings",
    "ProcessNode",
    "PROCESS_NODES",
    "node_table",
    "get_node",
    "nodes_beaten_by_rom28",
    "scaling_curve",
    "duty_cycle_energy_ratio",
    "SystemReport",
    "EnergyBreakdown",
    "AreaBreakdown",
    "BaseSystem",
    "YolocSystem",
    "SramSingleChipSystem",
    "SramChipletSystem",
    "MeshNocSpec",
    "NocTrafficReport",
    "map_layers_to_tiles",
    "noc_share_of_compute",
    "TrainingCostModel",
    "TrainingStepCost",
    "OPTIMIZER_STATE_WORDS",
    "LayerTask",
    "Schedule",
    "ScheduleEntry",
    "serial_schedule",
    "double_buffered_schedule",
    "tasks_for_single_chip",
    "relief_summary",
    "RomChipletSystem",
    "ChipletScalingPoint",
    "ChipletScalingResult",
    "chiplet_scaling",
    "partition_summary",
    "reticle_escape_area_mm2",
    "RETICLE_LIMIT_MM2",
]
