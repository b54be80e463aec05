"""Model programming: batch-norm folding and ROM/SRAM placement.

Everything in this module happens once per model, at *programming* time
— the software analogue of mask generation for the ROM-CiM chiplet:

* :func:`fold_batchnorm` — fold (Conv2d -> BatchNorm2d) pairs into the
  convolution, as any fixed-weight deployment must (ROM weights cannot
  carry live BN statistics).
* :func:`validate_deployable` — refuse a model that still carries
  unfolded batch norm.
* :class:`DeploymentReport` — the per-layer ROM/SRAM placement record
  (YOLoC Fig. 9) the plan builder in :mod:`repro.runtime.compiled`
  appends one :class:`DeployedLayerInfo` row to per weight layer as it
  lowers it: frozen convolutions/linears on ROM macros, trainable ones
  on SRAM macros.  A ReBranch is four such rows — its frozen trunk and
  projections on ROM, its trainable res-conv on SRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro import nn
from repro.obs.log import get_logger

_log = get_logger("runtime.programming")


# ----------------------------------------------------------------------
# Batch-norm folding
# ----------------------------------------------------------------------
def fold_batchnorm(model: nn.Module) -> int:
    """Fold every (Conv2d -> BatchNorm2d) pair inside ConvBNAct-style
    blocks into the convolution's weights and bias, in place.

    Uses the running statistics, so the model must have been trained (or
    at least run) in training mode first.  After folding, the BN module
    is replaced by Identity.  Returns the number of folded pairs.
    """
    folded = 0
    for module in model.modules():
        pairs = _conv_bn_pairs(module)
        for parent, conv_name, bn_name in pairs:
            conv = getattr(parent, conv_name)
            bn = getattr(parent, bn_name)
            _fold_pair(conv, bn)
            setattr(parent, bn_name, nn.Identity())
            folded += 1
    if folded:
        _log.debug("folded %d conv/batchnorm pairs", folded)
    return folded


def _conv_bn_pairs(module: nn.Module) -> List[Tuple[nn.Module, str, str]]:
    """Adjacent (Conv2d, BatchNorm2d) children of ``module``."""
    names = list(module._modules.items())
    pairs = []
    for (name_a, child_a), (name_b, child_b) in zip(names, names[1:]):
        if isinstance(child_a, nn.Conv2d) and isinstance(child_b, nn.BatchNorm2d):
            pairs.append((module, name_a, name_b))
    return pairs


def _fold_pair(conv: nn.Conv2d, bn: nn.BatchNorm2d) -> None:
    scale = bn.weight.data / np.sqrt(bn.running_var + bn.eps)
    conv.weight.data = conv.weight.data * scale.reshape(-1, 1, 1, 1)
    bias = conv.bias.data if conv.bias is not None else np.zeros(conv.out_channels)
    new_bias = (bias - bn.running_mean) * scale + bn.bias.data
    if conv.bias is None:
        conv.bias = nn.Parameter(new_bias)
        conv.bias.requires_grad = conv.weight.requires_grad
    else:
        conv.bias.data = new_bias


def validate_deployable(model: nn.Module) -> None:
    """Refuse models whose BN has not been folded away."""
    for name, module in model.named_modules():
        if isinstance(module, nn.BatchNorm2d):
            raise ValueError(
                f"unfolded BatchNorm2d at {name!r}: run fold_batchnorm() "
                "before deploying (ROM weights cannot carry live BN)"
            )


# ----------------------------------------------------------------------
# Placement report
# ----------------------------------------------------------------------
@dataclass
class DeployedLayerInfo:
    """Placement record of one weight layer."""

    name: str
    kind: str  # "conv" | "linear"
    memory: str  # "rom" | "sram"
    weight_bits: int


@dataclass
class DeploymentReport:
    """Aggregate outcome of one deployment."""

    layers: List[DeployedLayerInfo] = field(default_factory=list)
    rom_weight_bits: int = 0
    sram_weight_bits: int = 0
