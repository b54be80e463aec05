"""Activation-encoding design space (section 3.1's trade-off remark).

Sweeps the three word-line encodings of :mod:`repro.cim.encoding`
across input precisions and noise conditions, and reports the axes the
paper's "different speed-accuracy trade-off" sentence refers to:
word-line cycles, ADC conversions, energy per MAC, and MVM error.

The expected shape (:data:`CLAIMS` states its speed order and the
pulse encodings' conversion and ADC-share savings):

* bit-serial is the cycle-count sweet spot at 8-bit inputs (Table I's
  operating point);
* unary pulses cut ADC conversions (and energy) by ``input_bits``x but
  pay ``(2**b - 1) / b``x in word-line cycles;
* pulse width matches unary's conversion savings at one cycle, but its
  error grows with timing jitter — the fastest and least accurate
  corner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cim import AdcSpec, BitlineModel, CimMacro, MacroConfig, relative_error
from repro.cim.encoding import (
    ActivationEncoding,
    BitSerialEncoding,
    PulseWidthEncoding,
    UnaryPulseEncoding,
)
from repro.experiments.common import (
    Claim,
    check_claims,
    format_claims,
    format_table,
    on_every_cell,
)


@dataclass
class EncodingStudyConfig:
    """Workload and sweep parameters."""

    input_bits_list: Sequence[int] = (2, 4, 8)
    jitter_sigma_slots: float = 0.25
    noise_sigma_counts: float = 0.0
    adc_bits: int = 5
    rows: int = 128
    logical_cols: int = 16
    n_vectors: int = 32
    seed: int = 0


@dataclass
class EncodingPoint:
    """One (encoding, input precision) corner of the design space."""

    encoding: str
    input_bits: int
    wl_cycles: int
    conversions_per_column: int
    rel_error: float
    energy_per_mac_fj: float
    adc_energy_share: float
    latency_ns: float


@dataclass
class EncodingStudyResult:
    points: List[EncodingPoint] = field(default_factory=list)

    def by_key(self) -> Dict[Tuple[str, int], EncodingPoint]:
        return {(p.encoding, p.input_bits): p for p in self.points}

    def rows(self) -> List[Tuple]:
        return [
            (
                p.encoding,
                p.input_bits,
                p.wl_cycles,
                p.conversions_per_column,
                p.rel_error,
                p.energy_per_mac_fj,
                p.latency_ns,
            )
            for p in self.points
        ]


def fast_config() -> EncodingStudyConfig:
    return EncodingStudyConfig(n_vectors=8, logical_cols=8)


def full_config() -> EncodingStudyConfig:
    return EncodingStudyConfig(n_vectors=64, logical_cols=32)


def _encodings(config: EncodingStudyConfig) -> List[ActivationEncoding]:
    return [
        BitSerialEncoding(),
        UnaryPulseEncoding(),
        PulseWidthEncoding(jitter_sigma_slots=config.jitter_sigma_slots),
    ]


def _measure(
    encoding: ActivationEncoding,
    input_bits: int,
    config: EncodingStudyConfig,
) -> EncodingPoint:
    rng = np.random.default_rng(config.seed)
    macro_config = MacroConfig(
        rows=config.rows,
        input_bits=input_bits,
        adc=AdcSpec(bits=config.adc_bits),
        bitline=BitlineModel(
            max_rows=config.rows, noise_sigma_counts=config.noise_sigma_counts
        ),
    )
    low, high = macro_config.weight_range()
    weights = rng.integers(low, high + 1, size=(config.rows, config.logical_cols))
    x = rng.integers(0, 2**input_bits, size=(config.rows, config.n_vectors))
    macro = CimMacro(macro_config, weights, rng=np.random.default_rng(config.seed + 1))

    approx, stats = encoding.matmul(macro, x)
    total = stats.total_energy_fj
    return EncodingPoint(
        encoding=encoding.name,
        input_bits=input_bits,
        wl_cycles=encoding.wl_cycles(input_bits),
        conversions_per_column=encoding.conversions_per_column(input_bits),
        rel_error=relative_error(approx, macro.exact_matmul(x)),
        energy_per_mac_fj=stats.energy_per_mac_fj,
        adc_energy_share=stats.adc_energy_fj / total if total else 0.0,
        latency_ns=stats.latency_ns / config.n_vectors,
    )


def run(config: Optional[EncodingStudyConfig] = None) -> EncodingStudyResult:
    """Measure every encoding at every input precision of the sweep."""
    config = config if config is not None else EncodingStudyConfig()
    result = EncodingStudyResult()
    for input_bits in config.input_bits_list:
        for encoding in _encodings(config):
            result.points.append(_measure(encoding, input_bits, config))
    return result


def jitter_sweep(
    sigmas: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    input_bits: int = 8,
    config: Optional[EncodingStudyConfig] = None,
) -> List[Dict[str, float]]:
    """Pulse-width error vs timing-jitter sigma (slot units).

    Uses a high-resolution ADC by default: behind the macro's 5-bit
    column ADC, quantization dominates and timing jitter is invisible —
    itself a finding worth keeping (the pulse-width accuracy penalty
    only bites once the conversion path stops being the bottleneck).
    """
    config = config if config is not None else EncodingStudyConfig(adc_bits=12)
    rows = []
    for sigma in sigmas:
        point = _measure(
            PulseWidthEncoding(jitter_sigma_slots=sigma), input_bits, config
        )
        rows.append({"jitter_sigma_slots": sigma, "rel_error": point.rel_error})
    return rows


def format_jitter(rows: List[Dict[str, float]]) -> str:
    """Table of a :func:`jitter_sweep`."""
    return format_table(
        [(r["jitter_sigma_slots"], r["rel_error"]) for r in rows],
        ["jitter_slots", "rel_error"],
    )


_NAMES = ("bit-serial", "unary-pulse", "pulse-width")


def _per_width(attr: str):
    """Input width -> ``attr`` of bit-serial / unary pulses / pulse width."""
    return lambda result: {
        f"{bits}b": [getattr(result.by_key()[name, bits], attr) for name in _NAMES]
        for bits in dict.fromkeys(p.input_bits for p in result.points)
    }


CLAIMS = (
    Claim(
        "speed_order_at_8_bits",
        "8-bit inputs: pulse width < bit-serial < unary pulses (ns per vector)",
        lambda r: [
            r.by_key()[name, 8].latency_ns
            for name in ("pulse-width", "bit-serial", "unary-pulse")
        ],
        lambda ns: ns[0] < ns[1] < ns[2],
    ),
    Claim(
        "pulse_encodings_one_conversion",
        "unary pulses and pulse width read each column once (conv/col per width)",
        _per_width("conversions_per_column"),
        on_every_cell(lambda conversions: conversions[1:] == [1, 1]),
    ),
    Claim(
        "pulse_encodings_cut_adc_share",
        "the pulse encodings' ADC energy share is below bit-serial's, per width",
        _per_width("adc_energy_share"),
        on_every_cell(lambda shares: max(shares[1:]) < shares[0]),
    ),
)


def claims(result: EncodingStudyResult):
    return check_claims(CLAIMS, result)


def format_report(result: EncodingStudyResult) -> str:
    return format_table(
        result.rows(),
        [
            "encoding",
            "bits",
            "wl_cycles",
            "conv/col",
            "rel_error",
            "fJ_per_mac",
            "ns_per_vec",
        ],
    ) + format_claims(claims(result))
