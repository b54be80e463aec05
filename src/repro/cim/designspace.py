"""ADC-count vs activated-rows design space (section 4.3.1, future work).

The paper notes that its macro inherits the readout style of [3] and
that "the trade-off between the number of ADCs and simultaneously
activated rows ... could be explored in future works".  This module is
that exploration:

* **Activated rows** ``W``: driving fewer word lines per evaluation
  splits a 128-row dot product into ``ceil(rows / W)`` partial sums,
  each digitized separately and accumulated digitally.  Smaller ``W``
  shrinks the ADC full scale (finer LSB, better accuracy) but
  multiplies evaluations (more latency and conversion energy).
* **ADC count** ``A``: more column ADCs read the array in fewer
  multiplexing rounds (lower latency) at the cost of ADC area — the
  dominant peripheral in CiM macros.

:func:`partial_activation_matmul` runs the functional bit-serial path
under a row-activation limit; :class:`DesignPoint` carries the measured
error together with the analytic latency/energy/area of the corner; and
:func:`pareto_frontier` reduces a sweep to its non-dominated corners.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cim.macro import CimMacro, MacroConfig, MacroStats, relative_error


def partial_activation_matmul(
    macro: CimMacro,
    x: np.ndarray,
    activated_rows: int,
) -> Tuple[np.ndarray, MacroStats]:
    """Bit-serial MVM with at most ``activated_rows`` rows on per cycle.

    Row groups are digitized one at a time with an ADC full scale equal
    to the group size; group partial sums are accumulated digitally.
    ``activated_rows == macro.rows_used`` reproduces
    :meth:`CimMacro.matmul` exactly.
    """
    if activated_rows < 1:
        raise ValueError(f"activated_rows must be >= 1, got {activated_rows}")
    x, squeeze = macro._checked_input(x)
    activated_rows = min(activated_rows, macro.rows_used)

    total: Optional[np.ndarray] = None
    stats = MacroStats()
    for start in range(0, macro.rows_used, activated_rows):
        stop = min(start + activated_rows, macro.rows_used)
        group = CimMacro(
            _group_config(macro.config, stop - start),
            macro.weights[start:stop],
            rng=macro._rng,
        )
        partial, group_stats = group.matmul(x[start:stop])
        total = partial if total is None else total + partial
        stats = stats + group_stats
    # Groups share one physical array: MACs were already counted per
    # group and sum to the full product, but keep the row bookkeeping
    # intact by construction (nothing to fix up).
    assert total is not None
    return (total[:, 0] if squeeze else total), stats


def _group_config(config: MacroConfig, group_rows: int) -> MacroConfig:
    """The parent subarray seen through a ``group_rows``-row activation."""
    bitline = config.bitline
    if bitline is not None:
        bitline = replace(bitline, max_rows=group_rows)
    return replace(config, rows=group_rows, bitline=bitline)


@dataclass
class DesignPoint:
    """One (ADC count, activated rows) corner with its measured costs."""

    n_adcs: int
    activated_rows: int
    rel_error: float
    latency_ns: float
    energy_per_mac_fj: float
    adc_area_mm2: float
    throughput_gops: float

    @property
    def area_efficiency_gops_mm2(self) -> float:
        if self.adc_area_mm2 == 0:
            return float("inf")
        return self.throughput_gops / self.adc_area_mm2

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance over (error, latency, ADC area)."""
        no_worse = (
            self.rel_error <= other.rel_error
            and self.latency_ns <= other.latency_ns
            and self.adc_area_mm2 <= other.adc_area_mm2
        )
        better = (
            self.rel_error < other.rel_error
            or self.latency_ns < other.latency_ns
            or self.adc_area_mm2 < other.adc_area_mm2
        )
        return no_worse and better


def pareto_frontier(points: Iterable[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated corners of a sweep, in sweep order."""
    points = list(points)
    return [
        p
        for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]


@dataclass
class DesignSpaceConfig:
    """Sweep ranges and the fixed workload used to measure error."""

    adc_counts: Sequence[int] = (8, 16, 32, 64)
    activated_rows: Sequence[int] = (16, 32, 64, 128)
    rows: int = 128
    logical_cols: int = 16
    n_vectors: int = 16
    seed: int = 0


@dataclass
class DesignSpaceResult:
    points: List[DesignPoint] = field(default_factory=list)

    def frontier(self) -> List[DesignPoint]:
        return pareto_frontier(self.points)

    def at(self, n_adcs: int, activated_rows: int) -> DesignPoint:
        for p in self.points:
            if p.n_adcs == n_adcs and p.activated_rows == activated_rows:
                return p
        raise KeyError(f"no point at ({n_adcs} ADCs, {activated_rows} rows)")


def explore(config: Optional[DesignSpaceConfig] = None) -> DesignSpaceResult:
    """Measure every corner of the ADC-count x activated-rows grid."""
    config = config if config is not None else DesignSpaceConfig()
    rng = np.random.default_rng(config.seed)
    base = MacroConfig(rows=config.rows)
    low, high = base.weight_range()
    weights = rng.integers(low, high + 1, size=(config.rows, config.logical_cols))
    x = rng.integers(0, 2**base.input_bits, size=(config.rows, config.n_vectors))

    result = DesignSpaceResult()
    for n_adcs in config.adc_counts:
        if base.phys_columns % n_adcs != 0:
            raise ValueError(
                f"{n_adcs} ADCs do not evenly share {base.phys_columns} columns"
            )
        macro_config = MacroConfig(rows=config.rows, n_adcs=n_adcs)
        macro = CimMacro(
            macro_config, weights, rng=np.random.default_rng(config.seed + 1)
        )
        exact = macro.exact_matmul(x)
        for w in config.activated_rows:
            approx, stats = partial_activation_matmul(macro, x, w)
            latency = stats.latency_ns / config.n_vectors
            macs_per_vector = stats.macs / config.n_vectors
            result.points.append(
                DesignPoint(
                    n_adcs=n_adcs,
                    activated_rows=min(w, config.rows),
                    rel_error=relative_error(approx, exact),
                    latency_ns=latency,
                    energy_per_mac_fj=stats.energy_per_mac_fj,
                    adc_area_mm2=n_adcs * macro_config.adc.area_um2 * 1e-6,
                    throughput_gops=macs_per_vector / latency if latency else 0.0,
                )
            )
    return result
