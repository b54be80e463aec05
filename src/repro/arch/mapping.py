"""Weight placement: which parameters live in ROM-CiM vs SRAM-CiM.

Implements the YOLoC policy of Fig. 9: the backbone trunk plus the
frozen residual-(de)compression point-wise layers go to ROM-CiM; the
trainable res-conv branches and the prediction head go to SRAM-CiM.
Also derives the per-inference MAC split and the DRAM weight-reload
factor used by the system energy model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.models.profile import LayerProfile, ModelProfile
from repro.rebranch.branch import branch_widths


#: One weight matrix a placement programs: ``(memory, rows, cols,
#: vectors)`` — ``memory`` is ``"rom"`` or ``"sram"``, and ``vectors``
#: input vectors pass through it per inference.
Matrix = Tuple[str, int, int, int]


@dataclass
class LayerPlacement:
    """Placement decision for one weight layer."""

    layer: LayerProfile
    #: Weight bits in ROM-CiM (trunk + compress/decompress).
    rom_bits: int
    #: Weight bits in SRAM-CiM (res-conv or fully-trainable layer).
    sram_bits: int
    #: The matrices the layer programs, in execution order.
    matrices: List[Matrix]


@dataclass
class WeightMapping:
    """Aggregate mapping of a model onto a YOLoC-style chip."""

    placements: List[LayerPlacement] = field(default_factory=list)
    weight_bits: int = 8
    activation_bits: int = 8

    @property
    def matrices(self) -> List[Matrix]:
        """Every placement's matrices, in layer order."""
        return [m for p in self.placements for m in p.matrices]

    @property
    def rom_weight_bits(self) -> int:
        return sum(p.rom_bits for p in self.placements)

    @property
    def sram_weight_bits(self) -> int:
        return sum(p.sram_bits for p in self.placements)

    @property
    def total_weight_bits(self) -> int:
        return self.rom_weight_bits + self.sram_weight_bits

    def _macs(self, memory: str) -> int:
        return sum(r * c * v for mem, r, c, v in self.matrices if mem == memory)

    @property
    def rom_macs(self) -> int:
        """MACs executed on ROM arrays per inference."""
        return self._macs("rom")

    @property
    def sram_macs(self) -> int:
        """MACs executed on SRAM arrays per inference."""
        return self._macs("sram")

    @property
    def total_macs(self) -> int:
        return self.rom_macs + self.sram_macs

    @property
    def trainable_fraction(self) -> float:
        """Fraction of weight bits that remain updatable (SRAM-resident)."""
        total = self.total_weight_bits
        return self.sram_weight_bits / total if total else 0.0


def _positions(shape: Tuple[int, ...]) -> int:
    """Vectors per inference of a layer reading or writing ``shape``:
    one per sample and pixel."""
    return shape[0] * math.prod(shape[2:])


def _layer_matrices(layer: LayerProfile, memory: str) -> List[Matrix]:
    """The layer's own weights: one matrix per channel group."""
    rows, cols = layer.matrix_shape
    vectors = _positions(layer.out_shape)
    return [(memory, rows, cols // layer.groups, vectors)] * layer.groups


def _branch_matrices(layer: LayerProfile, d: int, u: int) -> List[Matrix]:
    """The ReBranch matrices beside one trunk conv (Fig. 7): the ROM
    point-wise compress (N -> N/D) at the input's pixels, the SRAM
    res-conv (N/D -> M/U with the trunk's kernel) and the ROM
    point-wise decompress (M/U -> M) at the output's."""
    rows, out_c = layer.matrix_shape  # (Cin/G*kh*kw, Cout)
    in_c = layer.in_shape[1]
    kernel_sq = rows * layer.groups // in_c  # kh*kw
    c_over_d, m_over_u = branch_widths(in_c, out_c, d, u)
    out_positions = _positions(layer.out_shape)
    return [
        ("rom", in_c, c_over_d, _positions(layer.in_shape)),
        ("sram", c_over_d * kernel_sq, m_over_u, out_positions),
        ("rom", m_over_u, out_c, out_positions),
    ]


def map_model(
    profile: ModelProfile,
    mode: str = "yoloc",
    d: int = 4,
    u: int = 4,
    weight_bits: int = 8,
    activation_bits: int = 8,
    trainable_tail_layers: int = 1,
) -> WeightMapping:
    """Map a profiled model onto CiM arrays.

    Modes
    -----
    ``"yoloc"``
        Trunk convs frozen in ROM with ReBranch (compression ``d``,
        decompression ``u``); the last ``trainable_tail_layers`` weight
        layers (the prediction head / classifier) stay fully trainable in
        SRAM-CiM.
    ``"all_sram"``
        Everything in SRAM-CiM (the Fig. 13b/c baselines).
    ``"all_rom"``
        Everything except the tail frozen in ROM with *no* branch
        (Option II's extreme; used for area accounting of Fig. 10).
    """
    if mode not in ("yoloc", "all_sram", "all_rom"):
        raise ValueError(f"unknown mapping mode {mode!r}")
    if d < 1 or u < 1:
        raise ValueError("compression ratios must be >= 1")

    weight_layers = profile.weight_layers()
    if not weight_layers:
        raise ValueError("model has no weight layers to map")
    tail_start = len(weight_layers) - trainable_tail_layers

    mapping = WeightMapping(weight_bits=weight_bits, activation_bits=activation_bits)
    for index, layer in enumerate(weight_layers):
        bits = layer.params * weight_bits
        if mode == "all_sram" or index >= tail_start:
            placement = LayerPlacement(layer, 0, bits, _layer_matrices(layer, "sram"))
        elif mode == "all_rom" or layer.kind != "conv":
            # Linear mid-layers (VGG hidden FC) are frozen without branch.
            placement = LayerPlacement(layer, bits, 0, _layer_matrices(layer, "rom"))
        else:
            branch = _branch_matrices(layer, d, u)
            held = {"rom": bits, "sram": 0}
            for memory, rows, cols, _ in branch:
                held[memory] += rows * cols * weight_bits
            placement = LayerPlacement(
                layer, held["rom"], held["sram"], _layer_matrices(layer, "rom") + branch
            )
        mapping.placements.append(placement)
    return mapping


def activation_traffic_bits(profile: ModelProfile, activation_bits: int = 8) -> int:
    """Total activation bits written per inference (one write per layer)."""
    return sum(
        layer.output_activations * activation_bits for layer in profile.layers
    )


def max_activation_bits(profile: ModelProfile, activation_bits: int = 8) -> int:
    """Largest single feature map, which sets the tiling requirement."""
    return profile.max_activation_footprint() * activation_bits


def weight_reload_factor(
    profile: ModelProfile, cache_bits: int, activation_bits: int = 8
) -> int:
    """How many times non-resident weights stream from DRAM per inference.

    When the largest feature map exceeds the activation cache, the image
    is processed in spatial tiles and every non-resident weight is
    re-fetched once per tile (fused-tiling dataflow).  Models whose
    activations fit take exactly one pass.
    """
    if cache_bits <= 0:
        raise ValueError("cache must be positive")
    biggest = max_activation_bits(profile, activation_bits)
    return max(1, math.ceil(biggest / cache_bits))
