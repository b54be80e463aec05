"""Functional bit-serial CiM macro (Fig. 5).

Executes integer matrix-vector products exactly the way the hardware
does: weights live as bit planes across physical columns, activations
stream in as serial bits on the word lines, each column's ON-cell count
is sensed through the bit-line model and digitized by a shared 5-bit
ADC, and the digital shift-and-add reassembles the multi-bit result.

The only deviations from an ideal integer matmul are therefore the ones
real silicon has: ADC quantization, optional bit-line noise, and
optional swing saturation.
"""

from __future__ import annotations

import copy
import functools
import operator
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.cim.adc import AdcSpec
from repro.cim.bitline import BitlineModel
from repro.cim.cells import CellSpec, ROM_1T


@dataclass
class MacroConfig:
    """Geometry and circuit parameters of one CiM subarray."""

    rows: int = 128
    phys_columns: int = 256
    n_adcs: int = 16
    adc: AdcSpec = field(default_factory=AdcSpec)
    cell: CellSpec = ROM_1T
    weight_bits: int = 8
    input_bits: int = 8
    signed_weights: bool = True
    signed_inputs: bool = False
    cycle_time_ns: float = 1.1125
    #: Word-line driver energy per activated row per cycle (fJ).
    wl_energy_fj: float = 4.4
    #: Control / decode / shift-and-add energy per cycle (fJ); calibrated
    #: together with the ADC energy so one inference pass hits Table I's
    #: 11.5 TOPS/W.
    peripheral_energy_fj_per_cycle: float = 1000.0
    bitline: Optional[BitlineModel] = None

    def __post_init__(self):
        if self.phys_columns % self.weight_bits != 0:
            raise ValueError(
                f"{self.phys_columns} physical columns do not hold an integer "
                f"number of {self.weight_bits}-bit weights"
            )
        if self.bitline is None:
            self.bitline = BitlineModel(max_rows=self.rows)

    @property
    def logical_columns(self) -> int:
        """Multi-bit weight words per row."""
        return self.phys_columns // self.weight_bits

    @property
    def capacity_bits(self) -> int:
        return self.rows * self.phys_columns

    def weight_range(self) -> Tuple[int, int]:
        if self.signed_weights:
            return -(2 ** (self.weight_bits - 1)), 2 ** (self.weight_bits - 1) - 1
        return 0, 2**self.weight_bits - 1

    @property
    def codes_dtype(self) -> np.dtype:
        """The storage width of a weight code: the narrowest integer type
        holding :meth:`weight_range` — int8 for signed 8-bit weights,
        uint8 for unsigned ones.  The one width every programmed engine
        and every artifact holds codes in."""
        low, high = self.weight_range()
        return np.min_scalar_type(low if self.signed_weights else high)

    def input_range(self) -> Tuple[int, int]:
        if self.signed_inputs:
            return -(2 ** (self.input_bits - 1)), 2 ** (self.input_bits - 1) - 1
        return 0, 2**self.input_bits - 1


#: The fields of a :class:`MacroConfig` an engine computes with: what
#: :func:`macro_pass_stats`, the bit-serial pass (reference macro and
#: fast kernel alike), ``BitlineModel.observe`` and ``AdcSpec.convert``
#: read.  The rest describe or price a macro — a cell's name, area and
#: leakage, an ADC's area — or, as a cell's volatility, gate only
#: :meth:`CimMacro.program`, which no engine calls: no output, stat or
#: energy depends on them.
ARITHMETIC_FIELDS = (
    "rows",
    "phys_columns",
    "n_adcs",
    "weight_bits",
    "input_bits",
    "signed_weights",
    "signed_inputs",
    "cycle_time_ns",
    "wl_energy_fj",
    "peripheral_energy_fj_per_cycle",
    "adc.bits",
    "adc.energy_fj",
    "cell.read_energy_fj",
    "bitline.max_rows",
    "bitline.noise_sigma_counts",
    "bitline.saturation",
)

_arithmetic_values = operator.attrgetter(*ARITHMETIC_FIELDS)


def arithmetic_key(config: MacroConfig) -> Tuple:
    """The values of :data:`ARITHMETIC_FIELDS` in ``config``: equal for
    two configs exactly when an engine computes the same under either."""
    return _arithmetic_values(config)


@dataclass(frozen=True)
class MacroStats:
    """Cycle/energy accounting of macro activity.

    Immutable: accumulation builds a new value (``+``,
    ``dataclasses.replace``), so one instance can be shared by every
    holder — the served requests of one batch hold one share object per
    distinct sample count.

    ``row_activations`` has one unit in every encoding: a row driven for
    one bit-serial cycle is 1, a pulse slot of a ``b``-bit pulse encoding
    ``1 / (2**b - 1)`` (the unit discharge's charge-domain scaling), and
    ``wl_energy_fj`` is it times :attr:`MacroConfig.wl_energy_fj`.

    The ``link_*`` fields account inter-chiplet serial-link traffic when
    a model is sharded across chiplets (``repro.runtime.sharded``): bits
    moved, transfer energy, and transfer latency per
    :class:`~repro.arch.chiplet.ChipletLinkSpec`.  They stay zero on any
    single-chip execution path, and ``link_latency_ns`` is kept separate
    from the macro-compute ``latency_ns`` so pipeline schedules can
    overlap the two.
    """

    cycles: int = 0
    adc_conversions: int = 0
    row_activations: float = 0
    macs: int = 0
    wl_energy_fj: float = 0.0
    bitline_energy_fj: float = 0.0
    adc_energy_fj: float = 0.0
    peripheral_energy_fj: float = 0.0
    latency_ns: float = 0.0
    link_bits: float = 0.0
    link_energy_fj: float = 0.0
    link_latency_ns: float = 0.0

    @property
    def total_energy_fj(self) -> float:
        return (
            self.wl_energy_fj
            + self.bitline_energy_fj
            + self.adc_energy_fj
            + self.peripheral_energy_fj
            + self.link_energy_fj
        )

    @property
    def energy_per_mac_fj(self) -> float:
        return self.total_energy_fj / self.macs if self.macs else 0.0

    def __add__(self, other: "MacroStats") -> "MacroStats":
        return MacroStats(
            cycles=self.cycles + other.cycles,
            adc_conversions=self.adc_conversions + other.adc_conversions,
            row_activations=self.row_activations + other.row_activations,
            macs=self.macs + other.macs,
            wl_energy_fj=self.wl_energy_fj + other.wl_energy_fj,
            bitline_energy_fj=self.bitline_energy_fj + other.bitline_energy_fj,
            adc_energy_fj=self.adc_energy_fj + other.adc_energy_fj,
            peripheral_energy_fj=self.peripheral_energy_fj + other.peripheral_energy_fj,
            latency_ns=self.latency_ns + other.latency_ns,
            link_bits=self.link_bits + other.link_bits,
            link_energy_fj=self.link_energy_fj + other.link_energy_fj,
            link_latency_ns=self.link_latency_ns + other.link_latency_ns,
        )


def macro_pass_stats(
    config: MacroConfig,
    rows_used: int,
    cols_used: int,
    n_vectors: int,
    row_activations: float,
    counts_total: float,
    reads: Optional[int] = None,
    integration_cycles: int = 0,
) -> MacroStats:
    """Cycle/energy accounting of one macro pass.

    The accounting of every pass: the reference :meth:`CimMacro.matmul`,
    the runtime's fast kernels, the analytic tile passes of
    ``MacroSpec.matrix_stats`` (Table I's among them) and the pulse
    encodings all build their stats through this function, so they
    cannot drift apart.  A pass reads each physical column ``reads``
    times per vector after ``integration_cycles`` word-line cycles
    (:meth:`repro.cim.encoding.ActivationEncoding.pass_structure`); the
    default is the bit-serial pass, one read per input bit, each
    overlapping its own word-line cycle.  ``row_activations`` is in the
    unit of :class:`MacroStats`, ``counts_total`` in ON-cell discharges.

    The two data-dependent arguments, ``row_activations`` and
    ``counts_total``, may also be same-shape arrays — one entry
    per same-geometry macro, as the runtime's bit-serial pass passes
    them for a grouped layer's groups — in which case the three fields
    derived from them are arrays holding exactly the per-macro scalar
    results.
    """
    if reads is None:
        reads = config.input_bits
    phys_cols = cols_used * config.weight_bits
    rounds_per_read = -(-phys_cols // config.n_adcs)
    cycles = (integration_cycles + reads * rounds_per_read) * n_vectors
    conversions = reads * phys_cols * n_vectors
    return MacroStats(
        cycles=cycles,
        adc_conversions=conversions,
        row_activations=row_activations,
        macs=rows_used * cols_used * n_vectors,
        wl_energy_fj=row_activations * config.wl_energy_fj,
        bitline_energy_fj=counts_total * config.cell.read_energy_fj,
        adc_energy_fj=conversions * config.adc.energy_fj,
        peripheral_energy_fj=cycles * config.peripheral_energy_fj_per_cycle,
        latency_ns=cycles * config.cycle_time_ns,
    )


@functools.lru_cache(maxsize=None)
def plane_weights(bits: int, signed: bool) -> np.ndarray:
    """Recombination weight of each bit plane of a ``bits``-wide code
    (one shared read-only array per encoding).

    Two's-complement encoding: plane ``k`` carries weight ``2**k`` except
    the MSB of a signed code, which carries ``-2**(bits-1)``.
    """
    weights = np.array([float(1 << k) for k in range(bits)])
    if signed:
        weights[bits - 1] = -float(1 << (bits - 1))
    weights.flags.writeable = False
    return weights


def _bit_planes(codes: np.ndarray, bits: int, signed: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Decompose integer codes into bit planes and their signed weights.

    Returns ``(planes, weights)`` with ``planes`` of shape
    ``(bits,) + codes.shape`` and values in {0, 1}, and ``weights`` the
    :func:`plane_weights` of the encoding.
    """
    codes = np.asarray(codes, dtype=np.int64)  # widened: codes may be narrow
    unsigned = codes & ((1 << bits) - 1)  # two's-complement reinterpretation
    planes = np.stack([(unsigned >> k) & 1 for k in range(bits)]).astype(np.float64)
    return planes, plane_weights(bits, signed)


def checked_weight_codes(config: MacroConfig, weights: np.ndarray) -> np.ndarray:
    """``weights`` narrowed to ``config``'s storage width
    (:attr:`MacroConfig.codes_dtype`), after the range scan that makes
    the narrowing exact (an empty matrix has nothing to scan)."""
    low, high = config.weight_range()
    if weights.size and (weights.min() < low or weights.max() > high):
        raise ValueError(
            f"weight codes outside [{low}, {high}] for "
            f"{config.weight_bits}-bit storage"
        )
    return weights.astype(config.codes_dtype)


class CimMacro:
    """One subarray programmed with an integer weight matrix.

    Parameters
    ----------
    config:
        Subarray geometry and circuit parameters.
    weights:
        Integer matrix of shape (rows_used, logical_cols_used); values
        must fit ``config.weight_range()``.  For ROM cells the matrix is
        fixed at mask time — :meth:`program` raises on ROM macros.
    """

    def __init__(
        self,
        config: MacroConfig,
        weights: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config
        self._rng = rng if rng is not None else np.random.default_rng()
        self._programmed = False
        self._store(weights)
        self._programmed = True

    @classmethod
    def from_state(
        cls, config: MacroConfig, weights: np.ndarray, rng: np.random.Generator
    ) -> "CimMacro":
        """A programmed macro over *trusted* integer codes (a tile of a
        matrix its engine already scanned, or of a snapshot restore, at
        the width the artifact stores): :meth:`__init__` minus the shape
        and range scan."""
        macro = cls.__new__(cls)
        macro.config = config
        macro._rng = rng
        macro._place(weights)
        macro._programmed = True
        return macro

    def with_config(
        self, config: MacroConfig, planes: Optional[np.ndarray] = None
    ) -> "CimMacro":
        """A view of this macro sensing through ``config``'s circuit:
        same codes and bit planes (materialized once, on this macro),
        different bit-line / ADC parameters.  ``config`` must keep the
        geometry and bit widths.  ``planes`` replaces the weight planes
        the view senses (a die's mismatched cells,
        :func:`repro.cim.variation.perturbed_matmul`)."""
        view = copy.copy(self)
        view.config = config
        view._planes = self._weight_planes if planes is None else planes
        return view

    def _store(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        rows, cols = weights.shape
        if rows > self.config.rows or cols > self.config.logical_columns:
            raise ValueError(
                f"weights {weights.shape} exceed subarray capacity "
                f"({self.config.rows} x {self.config.logical_columns} words)"
            )
        self._place(checked_weight_codes(self.config, weights))

    def _place(self, weights: np.ndarray) -> None:
        """Adopt validated integer codes; bit planes are left to derive."""
        self.rows_used, self.cols_used = weights.shape
        self.weights = weights
        self._plane_weights = plane_weights(
            self.config.weight_bits, self.config.signed_weights
        )
        self._planes: Optional[np.ndarray] = None

    @property
    def _weight_planes(self) -> np.ndarray:
        """The programmed weight bit planes, ``(wb, rows, cols)`` in {0, 1}.

        The one place they are derived: from ``self.weights``, on the
        first read by a reference-path consumer (:meth:`matmul`, the
        pulse encodings, the variation study), and published by a single
        attribute store — two threads racing here both compute the same
        array.  The fast kernel never reads them.
        """
        if self._planes is None:
            self._planes, _ = _bit_planes(
                self.weights, self.config.weight_bits, self.config.signed_weights
            )
        return self._planes

    def program(self, weights: np.ndarray) -> None:
        """Rewrite the array — only legal for volatile (SRAM) cells."""
        if self._programmed and not self.config.cell.volatile:
            raise RuntimeError(
                f"cannot reprogram a {self.config.cell.name} macro: ROM weights "
                "are fixed at mask time (the limitation ReBranch exists to solve)"
            )
        self._store(weights)

    # ------------------------------------------------------------------
    def matmul(
        self, x: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, MacroStats]:
        """Compute ``weights.T @ x`` through the analog path.

        ``x`` is an integer matrix of shape (rows_used, n_vectors) (or a
        vector of shape (rows_used,)); the return value has shape
        (cols_used, n_vectors) (or (cols_used,)).  ``rng`` optionally
        overrides the construction-time generator for this call's noise
        draws — the hook the compile-once runtime uses to attach a
        session RNG to engines programmed long before execution.
        """
        rng = rng if rng is not None else self._rng
        x, squeeze = self._checked_input(x)
        in_planes, in_weights = _bit_planes(
            x, self.config.input_bits, self.config.signed_inputs
        )  # (ib, rows, n)

        # ON-cell counts per (input bit, weight bit, column, vector):
        # the physical quantity each bit line accumulates in one cycle.
        counts = np.einsum(
            "jrn,krc->jkcn", in_planes, self._weight_planes, optimize=True
        )
        observed = self.config.bitline.observe(counts, rng)
        # Digital shift-and-add over the integer ADC codes: every product
        # and partial sum is an exact integer, so the contraction order
        # einsum picks cannot change a bit; ``step`` rounds once.
        codes, step = self.config.adc.convert(observed, float(self.rows_used))
        result = step * np.einsum(
            "j,k,jkcn->cn", in_weights, self._plane_weights, codes, optimize=True
        )

        stats = macro_pass_stats(
            self.config,
            self.rows_used,
            self.cols_used,
            n_vectors=x.shape[1],
            row_activations=int(in_planes.sum()),
            counts_total=float(counts.sum()),
        )
        return (result[:, 0] if squeeze else result), stats

    def _checked_input(self, x: np.ndarray) -> Tuple[np.ndarray, bool]:
        """``x`` as ``(rows_used, n_vectors)`` codes in the config's input
        range (a vector becomes one column), and whether it was a vector."""
        x = np.asarray(x)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        if x.shape[0] != self.rows_used:
            raise ValueError(
                f"input has {x.shape[0]} rows, macro is programmed with "
                f"{self.rows_used}"
            )
        low, high = self.config.input_range()
        if x.min() < low or x.max() > high:
            raise ValueError(
                f"input codes outside [{low}, {high}] for "
                f"{self.config.input_bits}-bit input"
            )
        return x, squeeze

    def exact_matmul(self, x: np.ndarray) -> np.ndarray:
        """Ideal integer reference (no ADC/bit-line effects)."""
        weights = np.asarray(self.weights, dtype=np.int64)  # widened from storage
        return weights.T @ np.asarray(x, dtype=np.int64)


def relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """The studies' error score of an analog product: mean absolute
    error over the mean magnitude of ``exact`` (0 when ``exact`` is all
    zero)."""
    scale = float(np.abs(exact).mean())
    return float(np.abs(approx - exact).mean() / scale) if scale else 0.0
