"""Static device-variation Monte-Carlo for the CiM macro.

Section 2 motivates ROM-CiM partly by reliability: CMOS ROM has "high
reliability of read and write disturbance immunity", while the
beyond-CMOS alternatives (RRAM/MRAM/FeFET) suffer "device variations".
This module quantifies how much *static* variation the bit-serial
macro arithmetic tolerates, so that claim has a number attached:

* **Cell mismatch** — each cell's discharge current deviates by a fixed
  multiplicative factor ``1 + N(0, cell_sigma)``, sampled once per chip
  instance (process mismatch, not cycle noise).
* **ADC offset / gain** — each column conversion sees a fixed count
  offset ``N(0, adc_offset_sigma)`` and gain ``1 + N(0, adc_gain_sigma)``
  per physical column (the column-mux static error budget).

:func:`monte_carlo` fabricates many virtual chips, runs the same
workload through each, and reports the error distribution — the same
experiment a silicon team runs across dies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cim.adc import AdcSpec
from repro.cim.macro import CimMacro, MacroConfig, relative_error


@dataclass(frozen=True)
class VariationModel:
    """Static per-chip non-ideality magnitudes."""

    #: Relative sigma of each cell's discharge strength.
    cell_sigma: float = 0.0
    #: Absolute count offset sigma of each column's conversion.
    adc_offset_sigma: float = 0.0
    #: Relative gain error sigma of each column's conversion.
    adc_gain_sigma: float = 0.0

    def __post_init__(self):
        if min(self.cell_sigma, self.adc_offset_sigma, self.adc_gain_sigma) < 0:
            raise ValueError("variation sigmas cannot be negative")


def apply_adc_errors(
    counts: np.ndarray,
    *,
    gain,
    offset,
    max_counts: float,
) -> np.ndarray:
    """Apply ADC gain/offset errors at the count level, then rail-clip.

    The count-domain error model of :class:`DriftedAdc`: counts are
    scaled by ``gain``, shifted by ``offset``, and clipped to the
    physical rail ``[0, max_counts]`` before quantization — a discharge
    count can never be negative nor exceed the rows participating in
    the pass.
    """
    counts = counts * gain + offset
    return np.clip(counts, 0.0, max_counts)


class DriftedAdc:
    """An ADC spec whose conversions see a count offset and gain error.

    Wraps a real :class:`~repro.cim.adc.AdcSpec`; every attribute
    (resolution, energy, area) delegates to it, and only the conversion
    differs: the observed counts pass through :func:`apply_adc_errors`
    first.  ``offset`` and ``gain`` are scalars (the chaos runtime's live
    drift, :meth:`repro.chaos.inject.Degradation.apply`) or per-column
    arrays broadcasting against the counts (a die of
    :func:`perturbed_matmul`).
    """

    def __init__(self, adc: AdcSpec, offset, gain):
        self._adc = adc
        self._offset = offset
        self._gain = gain

    def __getattr__(self, name: str):
        return getattr(self._adc, name)

    def convert(self, counts: np.ndarray, max_counts: float) -> Tuple[np.ndarray, float]:
        counts = apply_adc_errors(
            counts,
            gain=self._gain,
            offset=self._offset,
            max_counts=float(max_counts),
        )
        return self._adc.convert(counts, max_counts)

    #: ``codes * step`` on top of :meth:`convert` — the one definition.
    quantize_counts = AdcSpec.quantize_counts


def perturbed_matmul(
    macro: CimMacro,
    x: np.ndarray,
    variation: VariationModel,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One virtual chip: bit-serial MVM under static variation.

    The mismatch factors are sampled once and applied to every cycle —
    exactly how a fabricated die behaves, unlike the per-observation
    noise of :class:`~repro.cim.bitline.BitlineModel`.  The die is a
    view of ``macro`` (:meth:`CimMacro.with_config`) over the perturbed
    weight planes, converting through a :class:`DriftedAdc`; its
    :meth:`CimMacro.matmul` is the pass, bit line included.
    """
    rng = rng if rng is not None else np.random.default_rng()
    planes = macro._weight_planes  # (wb, rows, cols)
    if variation.cell_sigma > 0:
        planes = planes * (1.0 + rng.normal(0.0, variation.cell_sigma, planes.shape))
    columns = (macro.cols_used, 1)
    gain = 1.0
    if variation.adc_gain_sigma > 0:
        gain = 1.0 + rng.normal(0.0, variation.adc_gain_sigma, columns)
    offset = 0.0
    if variation.adc_offset_sigma > 0:
        offset = rng.normal(0.0, variation.adc_offset_sigma, columns)
    cfg = macro.config
    die = macro.with_config(
        replace(cfg, adc=DriftedAdc(cfg.adc, offset, gain)), planes=planes
    )
    return die.matmul(x, rng=rng)[0]


@dataclass
class MonteCarloResult:
    """Error distribution across fabricated chip instances."""

    variation: VariationModel
    rel_errors: List[float] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.rel_errors)

    @property
    def mean(self) -> float:
        return float(np.mean(self.rel_errors)) if self.rel_errors else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.rel_errors)) if self.rel_errors else 0.0

    @property
    def p95(self) -> float:
        if not self.rel_errors:
            return 0.0
        return float(np.percentile(self.rel_errors, 95))

    @property
    def worst(self) -> float:
        return float(max(self.rel_errors)) if self.rel_errors else 0.0


def monte_carlo(
    variation: VariationModel,
    config: Optional[MacroConfig] = None,
    n_trials: int = 25,
    logical_cols: int = 16,
    n_vectors: int = 8,
    seed: int = 0,
) -> MonteCarloResult:
    """Fabricate ``n_trials`` virtual chips and measure each one's error."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    config = config if config is not None else MacroConfig()
    rng = np.random.default_rng(seed)
    low, high = config.weight_range()
    weights = rng.integers(low, high + 1, size=(config.rows, logical_cols))
    x = rng.integers(0, 2**config.input_bits, size=(config.rows, n_vectors))
    macro = CimMacro(config, weights, rng=np.random.default_rng(seed + 1))
    exact = macro.exact_matmul(x)

    result = MonteCarloResult(variation=variation)
    for trial in range(n_trials):
        approx = perturbed_matmul(
            macro, x, variation, rng=np.random.default_rng(seed + 100 + trial)
        )
        result.rel_errors.append(relative_error(approx, exact))
    return result


def variation_sweep(
    cell_sigmas: Sequence[float] = (0.0, 0.02, 0.05, 0.10),
    adc_offset_sigmas: Sequence[float] = (0.0, 1.0, 2.0),
    n_trials: int = 15,
    seed: int = 0,
) -> List[Tuple[VariationModel, MonteCarloResult]]:
    """Grid sweep over the two dominant static error sources."""
    results = []
    for cell_sigma in cell_sigmas:
        for offset_sigma in adc_offset_sigmas:
            variation = VariationModel(
                cell_sigma=cell_sigma, adc_offset_sigma=offset_sigma
            )
            results.append(
                (variation, monte_carlo(variation, n_trials=n_trials, seed=seed))
            )
    return results


def tolerable_cell_sigma(
    error_budget: float = 0.05,
    sigmas: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.10, 0.20),
    n_trials: int = 15,
    seed: int = 0,
) -> float:
    """Largest swept mismatch sigma whose p95 error stays in budget.

    The headline robustness number: how sloppy the 1T cells may be
    before the 5-bit-ADC arithmetic (whose quantization already costs a
    few percent) visibly degrades.
    """
    if error_budget <= 0:
        raise ValueError("error budget must be positive")
    baseline = monte_carlo(VariationModel(), n_trials=1, seed=seed).mean
    best = 0.0
    for sigma in sorted(sigmas):
        result = monte_carlo(
            VariationModel(cell_sigma=sigma), n_trials=n_trials, seed=seed
        )
        if result.p95 - baseline <= error_budget:
            best = sigma
    return best
