"""Sub-8-bit weight quantization: ternary (TWN [14]) and binary (BNN [15]).

Section 2.3 dismisses ultra-scaled quantization as a route around the
SRAM density wall: "ultra-scaled networks below 8-bit quantization,
such as TNN and BNN, are still difficult to implement on modern
networks like ResNet and MobileNet".  These quantizers let the repo
measure that claim instead of citing it:

* :func:`ternarize` — Ternary Weight Networks: codes in {-1, 0, +1}
  with the threshold ``delta = 0.7 * mean|w|`` and the optimal scale
  (mean magnitude of the surviving weights) from Li et al.
* :func:`binarize` — BinaryConnect/BNN: ``sign(w)`` scaled by
  ``mean|w|`` (the XNOR-Net L1 scale).

Both feed a post-training sweep helper used by the related-work bench,
where depthwise-separable models (MobileNet) degrade far more than
plain CNNs — the "difficult on modern networks" half of the sentence.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro import nn
from repro.quant.quantizer import QuantSpec, dequantize, quantize

#: TWN threshold factor (Li et al., eq. 6 approximation).
TWN_DELTA_FACTOR = 0.7


def ternarize(values: np.ndarray) -> Tuple[np.ndarray, float]:
    """Ternary codes in {-1, 0, +1} and their optimal scale.

    Returns ``(codes, scale)`` with ``codes * scale`` the TWN
    reconstruction.  All-zero inputs quantize to all-zero codes with a
    unit scale.
    """
    values = np.asarray(values, dtype=np.float64)
    delta = TWN_DELTA_FACTOR * np.abs(values).mean()
    codes = np.where(np.abs(values) > delta, np.sign(values), 0.0)
    mask = codes != 0
    scale = float(np.abs(values[mask]).mean()) if mask.any() else 1.0
    return codes.astype(np.int64), scale


def binarize(values: np.ndarray) -> Tuple[np.ndarray, float]:
    """Binary codes in {-1, +1} and the L1-optimal scale ``mean|w|``."""
    values = np.asarray(values, dtype=np.float64)
    codes = np.where(values >= 0, 1.0, -1.0)
    scale = float(np.abs(values).mean())
    return codes.astype(np.int64), scale if scale > 0 else 1.0


#: Scheme name -> (codes, scale) weight quantizer.
WEIGHT_SCHEMES = {
    "int8": lambda w: quantize(w, QuantSpec(bits=8)),
    "int4": lambda w: quantize(w, QuantSpec(bits=4)),
    "ternary": ternarize,
    "binary": binarize,
}


def quantize_weights_(model: nn.Module, scheme: str) -> int:
    """Replace every conv/linear weight with its quantized value, in place.

    Per-output-channel granularity for the uniform schemes (the
    deployment-standard choice); per-tensor for ternary/binary as the
    original papers define them.  Returns the number of layers touched.
    BatchNorm and biases stay in full precision (both fit comfortably
    in digital peripherals).
    """
    if scheme not in WEIGHT_SCHEMES:
        raise KeyError(
            f"unknown scheme {scheme!r}; known: {sorted(WEIGHT_SCHEMES)}"
        )
    touched = 0
    for module in model.modules():
        if not isinstance(module, (nn.Conv2d, nn.Linear)):
            continue
        weight = module.weight.data
        if scheme in ("int8", "int4"):
            bits = 8 if scheme == "int8" else 4
            codes, scale = quantize(
                weight, QuantSpec(bits=bits, per_channel_axis=0)
            )
            module.weight.data = dequantize(codes, scale)
        else:
            codes, scale = WEIGHT_SCHEMES[scheme](weight)
            module.weight.data = codes.astype(np.float64) * scale
        touched += 1
    return touched


def weight_quantization_error(model: nn.Module, scheme: str) -> Dict[str, float]:
    """Per-layer relative L2 reconstruction error of ``scheme``.

    A cheap predictor of accuracy damage that needs no evaluation data:
    depthwise layers, with a handful of weights per filter, lose far
    more signal at ternary/binary than dense convolutions.
    """
    if scheme not in WEIGHT_SCHEMES:
        raise KeyError(
            f"unknown scheme {scheme!r}; known: {sorted(WEIGHT_SCHEMES)}"
        )
    errors: Dict[str, float] = {}
    for name, module in model.named_modules():
        if not isinstance(module, (nn.Conv2d, nn.Linear)):
            continue
        weight = module.weight.data
        codes, scale = WEIGHT_SCHEMES[scheme](weight)
        recon = codes.astype(np.float64) * np.asarray(scale, dtype=np.float64)
        norm = float(np.linalg.norm(weight))
        errors[name or type(module).__name__] = (
            float(np.linalg.norm(recon - weight)) / norm if norm else 0.0
        )
    return errors


def mean_quantization_error(model: nn.Module, scheme: str) -> float:
    """Average of :func:`weight_quantization_error` across layers."""
    errors = weight_quantization_error(model, scheme)
    return float(np.mean(list(errors.values()))) if errors else 0.0
