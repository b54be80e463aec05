"""On-chip training cost model (section 3.3).

"[YOLoC] also provides a chance to greatly reduce the on-chip training
overhead, especially when performing on-chip large-scale neural
networks training [8] in SRAM-CiM."  This module quantifies that
sentence by costing one SGD step under two regimes:

``full``
    Every weight is trainable, so every weight must sit in (writable)
    SRAM-CiM, every layer computes a weight gradient, and every weight
    is rewritten each step.  Models beyond the chip's SRAM capacity
    additionally stream weights *and* gradients through DRAM.

``rebranch``
    The YOLoC regime: the ROM trunk is frozen — it still runs forward
    and propagates activation gradients (the branch layers live at
    every depth), but computes no weight gradients and performs no
    writes.  Only the res-conv weights (1/(D*U) of the trunk) are
    updated in SRAM-CiM.

The per-step energy follows the standard 3x-forward decomposition:
forward MACs, activation-gradient MACs (all layers), weight-gradient
MACs (trainable layers only), plus array-write and optimizer-state
traffic for the updated weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.mapping import activation_traffic_bits, map_model
from repro.arch.memory import DramSpec, SramBufferModel
from repro.arch.system import SRAM_CIM_WRITE_PJ_PER_BIT
from repro.cim.spec import MacroSpec, rom_macro_spec, sram_macro_spec
from repro.models.profile import ModelProfile

#: Optimizer state (SGD momentum) read + written per trainable weight,
#: in state words per weight.
OPTIMIZER_STATE_WORDS = 1


@dataclass
class TrainingStepCost:
    """Energy and traffic of one SGD step (one mini-batch sample)."""

    regime: str
    forward_pj: float = 0.0
    activation_grad_pj: float = 0.0
    weight_grad_pj: float = 0.0
    array_write_pj: float = 0.0
    optimizer_state_pj: float = 0.0
    dram_pj: float = 0.0
    trainable_bits: int = 0
    total_weight_bits: int = 0

    @property
    def total_pj(self) -> float:
        return (
            self.forward_pj
            + self.activation_grad_pj
            + self.weight_grad_pj
            + self.array_write_pj
            + self.optimizer_state_pj
            + self.dram_pj
        )

    @property
    def trainable_fraction(self) -> float:
        if self.total_weight_bits == 0:
            return 0.0
        return self.trainable_bits / self.total_weight_bits


@dataclass
class TrainingCostModel:
    """Shared constants of the per-step accounting."""

    rom_spec: Optional[MacroSpec] = None
    sram_spec: Optional[MacroSpec] = None
    buffer: Optional[SramBufferModel] = None
    dram: Optional[DramSpec] = None
    weight_bits: int = 8
    #: Gradients are kept at higher precision than inference weights.
    gradient_bits: int = 16
    #: On-chip SRAM-CiM capacity available to hold trainable weights.
    sram_capacity_bits: int = 50_000_000

    def __post_init__(self):
        if self.rom_spec is None:
            self.rom_spec = rom_macro_spec()
        if self.sram_spec is None:
            self.sram_spec = sram_macro_spec()
        if self.buffer is None:
            self.buffer = SramBufferModel()
        if self.dram is None:
            self.dram = DramSpec()

    def _mac_energy_pj(self, rom_macs: float, sram_macs: float) -> float:
        return self.rom_spec.mac_energy_pj(rom_macs) + self.sram_spec.mac_energy_pj(
            sram_macs
        )

    def step_cost(
        self,
        profile: ModelProfile,
        regime: str,
        d: int = 4,
        u: int = 4,
    ) -> TrainingStepCost:
        """Cost one SGD step for ``regime`` in {'full', 'rebranch'}."""
        if regime == "full":
            mapping = map_model(profile, "all_sram", weight_bits=self.weight_bits)
            trainable_bits = mapping.total_weight_bits
            forward = self._mac_energy_pj(0, mapping.total_macs)
            act_grad = self._mac_energy_pj(0, mapping.total_macs)
            weight_grad = self._mac_energy_pj(0, mapping.total_macs)
        elif regime == "rebranch":
            mapping = map_model(
                profile, "yoloc", d=d, u=u, weight_bits=self.weight_bits
            )
            trainable_bits = mapping.sram_weight_bits
            forward = self._mac_energy_pj(mapping.rom_macs, mapping.sram_macs)
            # Activation gradients traverse every layer (branches sit at
            # all depths); the frozen trunk runs them on its ROM arrays.
            act_grad = self._mac_energy_pj(mapping.rom_macs, mapping.sram_macs)
            # Weight gradients only for the SRAM-resident res-convs/head.
            weight_grad = self._mac_energy_pj(0, mapping.sram_macs)
        else:
            raise ValueError(f"unknown training regime {regime!r}")

        cost = TrainingStepCost(
            regime=regime,
            forward_pj=forward,
            activation_grad_pj=act_grad,
            weight_grad_pj=weight_grad,
            trainable_bits=trainable_bits,
            total_weight_bits=mapping.total_weight_bits,
        )
        cost.array_write_pj = trainable_bits * SRAM_CIM_WRITE_PJ_PER_BIT
        state_bits = (
            trainable_bits
            * OPTIMIZER_STATE_WORDS
            * self.gradient_bits
            / self.weight_bits
        )
        # Momentum read + write through the on-chip buffer each step.
        cost.optimizer_state_pj = self.buffer.access_energy_pj(2 * state_bits)

        # Weights (and their gradients) that exceed on-chip SRAM stream
        # through DRAM every step: out on the gradient path, back in
        # after the host-side update.
        overflow = max(0, trainable_bits - self.sram_capacity_bits)
        grad_traffic = overflow * self.gradient_bits / self.weight_bits
        cost.dram_pj = self.dram.access_energy_pj(overflow + grad_traffic)
        return cost

    def summary(
        self, profile: ModelProfile, d: int = 4, u: int = 4
    ) -> Dict[str, float]:
        """Full-vs-ReBranch comparison for one model."""
        full = self.step_cost(profile, "full", d=d, u=u)
        rebranch = self.step_cost(profile, "rebranch", d=d, u=u)
        act_bits = activation_traffic_bits(profile, self.weight_bits)
        return {
            "full_step_uj": full.total_pj / 1e6,
            "rebranch_step_uj": rebranch.total_pj / 1e6,
            "energy_saving": full.total_pj / rebranch.total_pj,
            "full_trainable_mbits": full.trainable_bits / 1e6,
            "rebranch_trainable_mbits": rebranch.trainable_bits / 1e6,
            "trainable_reduction": (
                full.trainable_bits / rebranch.trainable_bits
                if rebranch.trainable_bits
                else float("inf")
            ),
            "full_dram_uj": full.dram_pj / 1e6,
            "rebranch_dram_uj": rebranch.dram_pj / 1e6,
            "activation_traffic_mbits": act_bits / 1e6,
        }
