"""Word-line activation encodings (section 3.1's speed-accuracy knob).

The macro of Fig. 5 streams activations onto the word lines serially.
The paper's text describes the *unary pulse-count* scheme ("0, 1, 2, or
3 pulses applied to each WL for a 2-bit activation input") and notes
that "the input activation encoding method using the pulse width may
also be used with a different speed-accuracy trade-off".  Table I's
8.9 ns / 8-cycle inference corresponds to a binary *bit-serial* stream
with a digital shift-and-add.  This module implements all three members
of that design space so the trade-off can actually be measured:

:class:`BitSerialEncoding`
    One word-line cycle per binary input bit, digital shift-and-add
    (the scheme :meth:`repro.cim.macro.CimMacro.matmul` hard-codes).
    ``b`` cycles and ``b`` conversions per column.  Each conversion sees
    a full scale of the activated-row count, but its quantization error
    is amplified by the bit-plane weight ``2**k`` during recombination.

:class:`UnaryPulseEncoding`
    The amplitude is the number of unit pulses; the bit line integrates
    all of them before a single conversion.  ``2**b - 1`` word-line
    cycles but only **one** conversion per column, so the ADC energy
    drops by ``b``x.  The unit discharge is scaled by ``1/(2**b - 1)``
    so a full-amplitude integration still fits the pre-charge swing
    (charge-domain scaling); per-cycle thermal noise accumulates as the
    square root of the pulse count.

:class:`PulseWidthEncoding`
    The amplitude is the ON-time of a single pulse, subdivided into
    ``2**b - 1`` timing slots.  One word-line cycle and one conversion:
    the fastest and most ADC-frugal option, but the drive amplitude is
    now set by analog timing, so a slot-level jitter sigma models the
    pulse-generator precision limit, and the conversion-referred noise
    is not amortized over multiple cycles.

All three produce the same ideal integer product; they differ only in
cycle count, conversion count, energy split, and error statistics —
exactly the axes of the paper's "different speed-accuracy trade-off".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cim.macro import CimMacro, MacroStats


def _validate_unsigned_input(macro: CimMacro, x: np.ndarray) -> np.ndarray:
    """Pulse encodings carry amplitude in pulse count/width: unsigned only."""
    if macro.config.signed_inputs:
        raise ValueError(
            "pulse encodings represent amplitude as a pulse count/width and "
            "cannot drive negative inputs; use unsigned activations (post-ReLU) "
            "or the bit-serial encoding"
        )
    x = np.asarray(x)
    low, high = macro.config.input_range()
    if x.min() < low or x.max() > high:
        raise ValueError(
            f"input codes outside [{low}, {high}] for "
            f"{macro.config.input_bits}-bit input"
        )
    return x


def _as_columns(x: np.ndarray) -> Tuple[np.ndarray, bool]:
    x = np.asarray(x)
    if x.ndim == 1:
        return x[:, None], True
    return x, False


class ActivationEncoding:
    """Base class: one way of driving activations onto the word lines."""

    #: Short identifier used in experiment tables.
    name: str = "base"

    def matmul(
        self,
        macro: CimMacro,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """Compute ``macro.weights.T @ x`` under this encoding.

        ``rng`` optionally overrides the macro's construction-time
        generator for this call's noise/jitter draws.
        """
        raise NotImplementedError

    def wl_cycles(self, input_bits: int) -> int:
        """Word-line cycles needed to stream one activation vector."""
        raise NotImplementedError

    def conversions_per_column(self, input_bits: int) -> int:
        """ADC conversions per physical column per activation vector."""
        raise NotImplementedError


class BitSerialEncoding(ActivationEncoding):
    """Binary bit-serial streaming with digital shift-and-add.

    Table I's operating point: ``input_bits`` cycles, one conversion per
    column per cycle.  Delegates to :meth:`CimMacro.matmul`, which
    implements exactly this scheme.
    """

    name = "bit-serial"

    def matmul(
        self,
        macro: CimMacro,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        return macro.matmul(x, rng=rng)

    def wl_cycles(self, input_bits: int) -> int:
        return input_bits

    def conversions_per_column(self, input_bits: int) -> int:
        return input_bits


@dataclass
class UnaryPulseEncoding(ActivationEncoding):
    """Amplitude as a unit-pulse count, integrated before one conversion."""

    name: str = "unary-pulse"

    def wl_cycles(self, input_bits: int) -> int:
        return 2**input_bits - 1

    def conversions_per_column(self, input_bits: int) -> int:
        return 1

    def matmul(
        self,
        macro: CimMacro,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        return _integrating_matmul(
            macro,
            x,
            integration_cycles=self.wl_cycles(macro.config.input_bits),
            # Independent per-cycle thermal noise accumulates as sqrt(cycles).
            noise_growth=float(np.sqrt(self.wl_cycles(macro.config.input_bits))),
            drive_jitter_slots=0.0,
            encoding_name=self.name,
            rng=rng,
        )


@dataclass
class PulseWidthEncoding(ActivationEncoding):
    """Amplitude as the ON-time of one pulse, in ``2**b - 1`` timing slots.

    ``jitter_sigma_slots`` is the standard deviation of the realized
    pulse width around its programmed value, in slot units.  A slot of
    an 8-bit encoding at the macro's 1.1 ns cycle is ~4.4 ps wide, so
    even a few-ps pulse generator contributes a sizeable fraction of an
    LSB — the accuracy half of the paper's trade-off remark.
    """

    jitter_sigma_slots: float = 0.0
    name: str = "pulse-width"

    def __post_init__(self):
        if self.jitter_sigma_slots < 0:
            raise ValueError("jitter sigma cannot be negative")

    def wl_cycles(self, input_bits: int) -> int:
        return 1

    def conversions_per_column(self, input_bits: int) -> int:
        return 1

    def matmul(
        self,
        macro: CimMacro,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        return _integrating_matmul(
            macro,
            x,
            integration_cycles=1,
            noise_growth=1.0,
            drive_jitter_slots=self.jitter_sigma_slots,
            encoding_name=self.name,
            rng=rng,
        )


def _integrating_matmul(
    macro: CimMacro,
    x: np.ndarray,
    integration_cycles: int,
    noise_growth: float,
    drive_jitter_slots: float,
    encoding_name: str,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, MacroStats]:
    """Shared analog path for the charge-integrating encodings.

    Both pulse encodings release, per ON cell, a charge proportional to
    the activation amplitude in ``[0, 2**b - 1]`` slot units, and read
    each column once.  They differ only in how long the integration
    takes (``integration_cycles``), how conversion-referred noise scales
    (``noise_growth``), and whether the drive itself jitters
    (``drive_jitter_slots``).
    """
    cfg = macro.config
    x = _validate_unsigned_input(macro, x)
    x, squeeze = _as_columns(x)
    if x.shape[0] != macro.rows_used:
        raise ValueError(
            f"input has {x.shape[0]} rows, macro is programmed with "
            f"{macro.rows_used}"
        )
    slots = 2**cfg.input_bits - 1
    rng = rng if rng is not None else macro._rng

    drive = x.astype(np.float64)
    if drive_jitter_slots > 0:
        drive = drive + rng.normal(0.0, drive_jitter_slots, drive.shape)
        # A pulse cannot be shorter than zero or longer than the cycle.
        drive = np.clip(drive, 0.0, float(slots))

    # Charge per (weight bit plane, column, vector) in slot units; the
    # physical full scale after the 1/slots unit-discharge scaling is
    # the activated-row count, i.e. the same swing the bit-serial scheme
    # uses — quantize in the product domain with the scaled full scale.
    counts = np.einsum("rn,krc->kcn", drive, macro._weight_planes, optimize=True)
    full_scale = float(macro.rows_used * slots)
    # The macro's own bit line at that full scale, its noise grown by
    # the encoding and expressed in slot units.
    line = replace(
        cfg.bitline,
        max_rows=full_scale,
        noise_sigma_counts=cfg.bitline.noise_sigma_counts * noise_growth * slots,
    )
    codes, step = cfg.adc.convert(line.observe(counts, rng), full_scale)
    result = step * np.einsum("k,kcn->cn", macro._plane_weights, codes, optimize=True)

    stats = _integrating_stats(macro, x, counts, integration_cycles, slots)
    return (result[:, 0] if squeeze else result), stats


def _integrating_stats(
    macro: CimMacro,
    x: np.ndarray,
    counts: np.ndarray,
    integration_cycles: int,
    slots: int,
) -> MacroStats:
    """Cycle and energy accounting for one integrate-then-read pass."""
    cfg = macro.config
    n_vectors = x.shape[1]
    phys_cols = macro.cols_used * cfg.weight_bits
    readout_rounds = -(-phys_cols // cfg.n_adcs)
    cycles = (integration_cycles + readout_rounds) * n_vectors
    conversions = phys_cols * n_vectors
    # Word-line activity: each unit of amplitude is one pulse (unary) or
    # one slot of ON-time (pulse width) — the same charge either way.
    pulse_units = float(x.sum())
    # Charge released on the bit lines, in unit-discharge equivalents
    # after the 1/slots scaling.
    unit_discharges = float(counts.sum()) / slots
    return MacroStats(
        cycles=cycles,
        adc_conversions=conversions,
        row_activations=int(round(pulse_units)),
        macs=macro.rows_used * macro.cols_used * n_vectors,
        wl_energy_fj=pulse_units / slots * cfg.wl_energy_fj,
        bitline_energy_fj=unit_discharges * cfg.cell.read_energy_fj,
        adc_energy_fj=conversions * cfg.adc.energy_fj,
        peripheral_energy_fj=cycles * cfg.peripheral_energy_fj_per_cycle,
        latency_ns=cycles * cfg.cycle_time_ns,
    )


def encoding_by_name(name: str, **kwargs) -> ActivationEncoding:
    """Look up an encoding by its table identifier."""
    registry: Dict[str, type] = {
        BitSerialEncoding.name: BitSerialEncoding,
        UnaryPulseEncoding.name: UnaryPulseEncoding,
        PulseWidthEncoding.name: PulseWidthEncoding,
    }
    if name not in registry:
        raise KeyError(f"unknown encoding {name!r}; known: {sorted(registry)}")
    return registry[name](**kwargs)
