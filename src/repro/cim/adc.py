"""ADC models for CiM column readout.

The macro of Fig. 5 shares 16 column ADCs across 256 bit lines (16:1
column multiplexing); each ADC digitizes the remnant bit-line charge to
5 bits.  Quantizing a 128-row accumulation to 32 levels is the dominant
*arithmetic* non-ideality of the macro and is modelled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class AdcSpec:
    """A column ADC.

    ``energy_fj`` is per conversion; the default is calibrated so a full
    macro pass lands on Table I's 11.5 TOPS/W (see ``repro.cim.spec``).
    """

    bits: int = 5
    energy_fj: float = 78.0
    area_um2: float = 360.0

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError(f"ADC needs >= 1 bit, got {self.bits}")

    @property
    def levels(self) -> int:
        return 2**self.bits

    def convert(self, counts: np.ndarray, full_scale: float) -> Tuple[np.ndarray, float]:
        """Digitize bit-line accumulation counts into ADC codes.

        ``counts`` are the number of discharging cells per column (the
        analog MAC value); ``full_scale`` is the count mapped to the top
        code (the number of simultaneously activated rows).  Returns
        ``(codes, step)``: the integer codes in ``[0, levels - 1]`` (held
        as float64) and the count one code step stands for.  Digital
        shift-and-add runs on the codes; ``step`` scales its result back
        to counts, once.
        """
        if full_scale <= 0:
            raise ValueError(f"full_scale must be positive, got {full_scale}")
        # One LSB never resolves below a single cell's discharge: when the
        # activated row count is at most the code count, every integer
        # count is exactly representable (step = 1).
        step = max(1.0, full_scale / (self.levels - 1))
        codes = np.clip(np.rint(np.asarray(counts) / step), 0, self.levels - 1)
        return codes, step

    def quantize_counts(self, counts: np.ndarray, full_scale: float) -> np.ndarray:
        """The counts :meth:`convert`'s codes reconstruct to:
        ``code * full_scale / (levels - 1)``."""
        codes, step = self.convert(counts, full_scale)
        return codes * step

