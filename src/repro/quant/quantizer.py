"""Core uniform quantization primitives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


def int_range(bits: int, signed: bool = True) -> Tuple[int, int]:
    """Representable integer range of a ``bits``-wide code."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if signed:
        return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return 0, 2**bits - 1


@dataclass(frozen=True)
class QuantSpec:
    """Describes a uniform quantizer.

    ``per_channel_axis`` selects one tensor axis to carry independent
    scales (axis 0 for conv weights = per-output-channel).
    """

    bits: int = 8
    signed: bool = True
    per_channel_axis: Optional[int] = None

    def __post_init__(self):
        if self.bits < 1 or self.bits > 32:
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")

    @property
    def qmin(self) -> int:
        return int_range(self.bits, self.signed)[0]

    @property
    def qmax(self) -> int:
        return int_range(self.bits, self.signed)[1]


def _code_range(spec: QuantSpec, signed, ndim: int):
    """``(qmin, qmax)`` of the codes; with a per-slice ``signed`` mask,
    arrays broadcasting along ``spec.per_channel_axis``."""
    if signed is None:
        return spec.qmin, spec.qmax
    shape = [1] * ndim
    shape[spec.per_channel_axis % ndim] = -1
    signed = np.asarray(signed, dtype=bool).reshape(shape)
    on, off = int_range(spec.bits, True), int_range(spec.bits, False)
    return tuple(np.where(signed, s, u) for s, u in zip(on, off))


def _scales(values: np.ndarray, spec: QuantSpec, qmax) -> np.ndarray:
    """Symmetric scale(s): max|x| mapped to the largest positive code.

    A slice whose max|x| is zero, or so small (subnormal) that its scale
    underflows to zero, gets the scale of max|x| = 1: its codes are 0.
    """
    if spec.per_channel_axis is None:
        amax = np.abs(values).max()
        amax = amax if amax / qmax > 0 else 1.0
        return np.asarray(amax / qmax)
    axis = spec.per_channel_axis % values.ndim
    reduce_axes = tuple(i for i in range(values.ndim) if i != axis)
    amax = np.abs(values).max(axis=reduce_axes, keepdims=True)
    amax = np.where(amax / qmax > 0, amax, 1.0)
    return amax / qmax


def quantize(
    values: np.ndarray, spec: QuantSpec, signed=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize to integer codes.  Returns ``(codes, scale)``.

    Codes are int64; ``dequantize(codes, scale)`` recovers the values up
    to quantization error.  ``signed``, one bool per slice along
    ``spec.per_channel_axis``, overrides ``spec.signed`` slice by slice
    (a grouped convolution's groups decide signedness independently).
    """
    values = np.asarray(values, dtype=np.float64)
    qmin, qmax = _code_range(spec, signed, values.ndim)
    scale = _scales(values, spec, qmax)
    codes = np.clip(np.rint(values / scale), qmin, qmax).astype(np.int64)
    return codes, scale


def dequantize(codes: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Map integer codes back to real values."""
    return codes.astype(np.float64) * scale

