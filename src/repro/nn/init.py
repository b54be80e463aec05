"""Weight initialization schemes.

All initializers take an explicit ``rng`` (``numpy.random.Generator``) so
experiments are reproducible end-to-end from a single seed.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute fan-in/fan-out for linear (out, in) or conv (out, in, kh, kw)."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_c, in_c, kh, kw = shape
        receptive = kh * kw
        return in_c * receptive, out_c * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He-normal initialization (ReLU gain by default)."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(shape: Tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0)) -> np.ndarray:
    """He-uniform initialization."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
