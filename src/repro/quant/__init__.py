"""Uniform quantization utilities.

The CiM macros compute on integer operands: YOLoC stores 8-bit weights
in ROM/SRAM arrays and streams activations bit-serially (Fig. 5), and
Option III (SPWD) decorates 8-bit ROM weights with a 2-bit SRAM branch.
This package provides the uniform quantizer (:func:`quantize` /
:func:`dequantize` over a :class:`QuantSpec`), the straight-through
:func:`fake_quant` that SPWD's 2-bit branch trains through, and the
ternary / binary post-training schemes of the sub-8-bit study.  A
deployed model's weights are quantized in one place, when
``repro.runtime.compile`` programs them.
"""

from repro.quant.quantizer import (
    QuantSpec,
    quantize,
    dequantize,
    int_range,
)
from repro.quant.fake_quant import fake_quant
from repro.quant.extreme import (
    ternarize,
    binarize,
    quantize_weights_,
    weight_quantization_error,
    mean_quantization_error,
    WEIGHT_SCHEMES,
)

__all__ = [
    "QuantSpec",
    "quantize",
    "dequantize",
    "int_range",
    "fake_quant",
    "ternarize",
    "binarize",
    "quantize_weights_",
    "weight_quantization_error",
    "mean_quantization_error",
    "WEIGHT_SCHEMES",
]
