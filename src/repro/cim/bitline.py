"""Bit-line charge-sharing model.

The macro pre-charges every bit line, then pulses word lines; each ON
cell (input bit high AND stored '1') discharges the line a unit amount.
The ADC senses the remnant charge.  This module works in ON-cell count
units throughout: it injects the analog non-idealities (thermal/mismatch
noise, optional swing saturation) that SPICE-level simulation would
capture, and the ADC digitizes the counts it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class BitlineModel:
    """Charge-domain bit-line behaviour, in ON-cell counts.

    Each ON cell discharges the line by one unit, linearly up to
    ``max_rows`` units — the full swing (the design regime of the paper,
    which keeps the swing inside the ADC's linear window).
    ``noise_sigma_counts`` is Gaussian noise expressed in ON-cell count
    units (0 disables it); ``saturation`` optionally clips the discharge
    at a fraction of full swing to model line non-linearity.
    """

    max_rows: int = 128
    noise_sigma_counts: float = 0.0
    saturation: Optional[float] = None

    def __post_init__(self):
        if self.max_rows <= 0:
            raise ValueError("max_rows must be positive")
        if self.noise_sigma_counts < 0:
            raise ValueError("noise sigma cannot be negative")

    def observe(self, counts: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Counts as seen by the ADC: noise added, saturation applied."""
        observed = np.asarray(counts, dtype=np.float64)
        if self.noise_sigma_counts > 0:
            rng = rng if rng is not None else np.random.default_rng()
            observed = observed + rng.normal(0, self.noise_sigma_counts, observed.shape)
        if self.saturation is not None:
            observed = np.minimum(observed, self.saturation * self.max_rows)
        return np.clip(observed, 0, self.max_rows)
