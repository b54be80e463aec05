"""Export trained weights as integer matrices for CiM deployment.

A convolution's weight tensor (O, I, kh, kw) becomes the unrolled
matrix (I*kh*kw, O) that maps directly onto CiM subarrays: input rows on
word lines, output channels on bit-line columns (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import nn
from repro.quant.quantizer import QuantSpec, quantize


@dataclass
class QuantizedLayer:
    """Integer weight matrix of one layer, ready for CiM mapping."""

    name: str
    kind: str  # "conv" | "linear"
    codes: np.ndarray  # (rows, cols) int64
    scale: np.ndarray
    bits: int

    @property
    def rows(self) -> int:
        return self.codes.shape[0]

    @property
    def cols(self) -> int:
        return self.codes.shape[1]


def _unroll(weight: np.ndarray, kind: str) -> np.ndarray:
    if kind == "conv":
        oc = weight.shape[0]
        return weight.reshape(oc, -1).T  # (I*kh*kw, O)
    if kind == "linear":
        return weight.T  # (in, out)
    raise ValueError(f"unsupported kind {kind!r}")


def quantize_model_weights(
    model: nn.Module, bits: int = 8, per_channel: bool = True
) -> List[QuantizedLayer]:
    """Quantize every Conv2d/Linear weight in ``model``.

    Per-channel scales (one per output column) are the CiM-friendly
    choice: each bit-line column owns a scale applied after the ADC.
    """
    spec_axis = 0 if per_channel else None
    layers: List[QuantizedLayer] = []
    for name, module in model.named_modules():
        if isinstance(module, nn.Conv2d):
            kind = "conv"
        elif isinstance(module, nn.Linear):
            kind = "linear"
        else:
            continue
        spec = QuantSpec(bits=bits, per_channel_axis=spec_axis)
        codes, scale = quantize(module.weight.data, spec)
        matrix = _unroll(codes, kind)
        if spec_axis is not None:
            # scale has shape (O, 1, 1, 1) or (O, 1); flatten to per-column.
            col_scale = scale.reshape(-1)
        else:
            col_scale = np.asarray(scale)
        layers.append(
            QuantizedLayer(name=name, kind=kind, codes=matrix, scale=col_scale, bits=bits)
        )
    return layers
