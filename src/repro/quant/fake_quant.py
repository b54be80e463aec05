"""Straight-through fake quantization for quantization-aware training.

Option III (SPWD) trains a 2-bit SRAM decoration branch; its forward
pass must see quantized weights while gradients flow as if the
quantizer were the identity (the straight-through estimator).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor
from repro.quant.quantizer import QuantSpec, dequantize, quantize


def fake_quant(x: Tensor, spec: Optional[QuantSpec] = None, bits: int = 8) -> Tensor:
    """Quantize-dequantize with a straight-through gradient.

    Forward: ``dequantize(quantize(x))``.  Backward: identity inside the
    representable range, zero outside (values clipped by the quantizer
    stop receiving gradient, the standard STE-with-clipping rule).
    """
    spec = spec if spec is not None else QuantSpec(bits=bits)
    codes, scale = quantize(x.data, spec)
    data = dequantize(codes, scale)
    limit = scale * spec.qmax

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            inside = (x.data >= -limit) & (x.data <= limit)
            x._accumulate(grad * inside)

    return Tensor._make(data, (x,), backward, "fake_quant")

