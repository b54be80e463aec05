"""The ``reference-fast`` backend: fused bit-serial kernels.

This module is the long-standing optimized kernel implementation and
the default :class:`~repro.runtime.backends.base.KernelBackend`.

:meth:`repro.cim.macro.CimMacro.matmul` is the *reference* arithmetic:
it materializes the full ``(input_bit, weight_bit, column, vector)``
ON-cell count tensor in float64 and pushes it through the bit-line and
ADC models one elementwise pass at a time.  That is exact but memory
bound — for a deployed network the ADC chain alone dominates inference
wall-clock.

The kernels here compute the *bitwise-identical* result, restructured
around four observations:

1. ON-cell counts are exact small integers (at most the activated row
   count), so the count contraction can run as a float32 GEMM with zero
   rounding error, and the input bit planes can be built as float32
   directly.
2. Bit-line clipping/saturation and ADC quantization are elementwise
   functions of an integer count in ``[0, rows_used]`` — a lookup table
   precomputed at programming time with the exact reference arithmetic
   applies both in one contiguous gather, replacing the dominant
   divide/round/clip/scale passes.
3. ADC codes are integers, and shift-and-add over them is exact: the
   oracle recombines the codes and applies the ADC step once per tile
   partial (:meth:`repro.cim.adc.AdcSpec.convert`), so every product
   and partial sum is an integer below ``levels * 2**(weight_bits +
   input_bits)`` and *any* contraction order, blocking or BLAS kernel
   returns the same bits.  The lookup table therefore holds codes, in
   float32 while that bound fits 2**24 (2**21 for the 8/8/5-bit
   default) and in float64 up to 2**53 — a program-time function of the
   configuration; past 2**53 the configuration is not
   :meth:`~TiledBitSerialKernel.supported` and takes the reference macro
   path.  The activation bit planes are built **input-bit innermost** —
   ``(row, vector, input_bit)`` — which only permutes the columns of
   the exact-integer count GEMM and makes the input-bit fold one
   ``matmul`` over a contiguous ``(weight_bit·column·vector,
   input_bit)`` view.
4. Nothing in the chain depends on its neighbours along the vector
   axis, so the whole back half — count GEMM -> code gather -> input-bit
   fold -> weight-bit fold -> ``out += partial * step``
   (:meth:`_TileGroup.shift_add`) — runs per **block of vectors** sized
   to keep one row block's counts and codes cache-resident
   (:data:`_BLOCK_BYTES`).  No whole-batch intermediate exists, and a
   programmed kernel holds no per-call-shape state.

Two further exact shortcuts: the total ON-cell count needed for energy
accounting factorizes over rows (both factors are exact integers), and
when the composed bit-line + ADC transfer maps every reachable count to
itself (activated rows within ADC resolution) the gather is skipped
entirely.

:class:`StackedBitSerialKernel` runs the same-geometry kernels of one
grouped convolution's groups as a single pass — batched count GEMM,
one gather, one batched shift-and-add, group-major stats.

``tests/test_runtime.py`` pins the bitwise equivalence against the
reference path across shapes, signedness and batch extents.  Anything
the fast path cannot reproduce exactly (bit-line noise draws, pulse
encodings) falls back to the reference implementation at the call site.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cim.macro import MacroConfig, MacroStats, macro_pass_stats, plane_weights
from repro.cim.mvm import CimTiledMatmul
from repro.runtime.backends.base import KernelBackend, register_backend

#: Byte budget for one block of input vectors, at 8 bytes per count of
#: ``stacked weight-plane rows x vectors x input_bits``: the float32
#: counts and the float32 codes gathered from them.  With the gather
#: indices beside them the block's working set is ~2x this — sized to
#: stay within a few MiB of last-level-private cache (re-measured on the
#: resnet8 conv shapes: 2-8 MiB is a plateau within run-to-run noise,
#: 0.5 MiB is ~10% slower).
_BLOCK_BYTES = 4 << 20


def _block_vectors(stacked_rows: int, ib: int) -> int:
    """Input vectors per block of a row block whose tiles stack
    ``stacked_rows`` weight-plane rows: as many as keep the block's
    counts and codes within :data:`_BLOCK_BYTES`."""
    return max(1, _BLOCK_BYTES // (stacked_rows * ib * 8))


def _code_sum_bound(config: MacroConfig) -> int:
    """Strict bound on every product and partial sum of the shift-and-add
    over ADC codes: codes are below ``levels``, the plane weights of each
    axis sum (in magnitude) to below ``2**bits``."""
    return config.adc.levels << (config.weight_bits + config.input_bits)


def _accumulator_dtype(config: MacroConfig):
    """The narrowest float in which the shift-and-add is exact integer
    arithmetic (callers have checked :meth:`TiledBitSerialKernel.supported`)."""
    return np.float32 if _code_sum_bound(config) <= 1 << 24 else np.float64


def _serial_codes(engine: CimTiledMatmul, x: np.ndarray) -> Tuple[np.ndarray, bool]:
    """Validate one integer-code batch for ``engine``.

    Returns the ``(rows, n)`` two's-complement reinterpretation of the
    codes as unsigned ``input_bits``-wide integers, and whether ``x``
    was a single vector.
    """
    config = engine.config
    x = np.asarray(x)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != engine.shape[0]:
        raise ValueError(
            f"input rows {x.shape[0]} do not match weight rows "
            f"{engine.shape[0]}"
        )
    # Reference path: each tile's macro validates its input slice;
    # the slices tile the same rows, so validating once is the same
    # check with the same error.
    low, high = config.input_range()
    if x.min() < low or x.max() > high:
        raise ValueError(
            f"input codes outside [{low}, {high}] for "
            f"{config.input_bits}-bit serial input"
        )
    unsigned = np.asarray(x, dtype=np.int64) & ((1 << config.input_bits) - 1)
    return unsigned, squeeze


def _serial_planes(unsigned: np.ndarray, ib: int, dtype) -> np.ndarray:
    """0/1 input bit planes ``(..., rows, n, ib)`` — input bit innermost.

    Flattened to ``(rows, n * ib)`` this is the count contraction's
    right operand; a block of vectors is a column slice of it.
    """
    # Shift in the narrowest unsigned type that holds a code: the
    # temporaries are 1 byte per element for 8-bit activations.
    narrow = unsigned.astype(np.min_scalar_type((1 << ib) - 1), order="C")
    planes = np.empty(unsigned.shape + (ib,), dtype=dtype)
    for j in range(ib):
        planes[..., j] = (narrow >> j) & 1
    return planes


def _weight_bit_planes(codes: np.ndarray, weight_bits: int) -> np.ndarray:
    """0/1 bit planes ``(weight_bits, columns, rows)`` of a ``(rows,
    columns)`` block of weight codes, two's-complement reinterpreted
    over ``weight_bits`` exactly like the macro's own planes, in the
    narrowest unsigned type that holds a code.

    Integer casts wrap, so the word's low ``weight_bits`` bits *are* the
    two's-complement code and no mask is needed before the shifts.
    """
    word = np.min_scalar_type((1 << weight_bits) - 1)
    unsigned = codes.T.astype(word, order="C")
    planes = unsigned >> np.arange(weight_bits, dtype=word)[:, None, None]
    planes &= 1
    return planes


class _TileGroup:
    """Tiles sharing one row block, executed through one fused GEMM.

    Column tiles of the same rows consume the same input bit planes, so
    their float32 weight-plane matrices are stacked into one operand:
    one GEMM, one ADC gather and one input-bit fold cover the whole
    block (:meth:`shift_add`), and each tile's slice of the result is a
    contiguous view.

    Everything here is derived from ``codes`` — the row block's
    ``(rows, columns)`` slice of the engine's integer weight codes, the
    one programmed state — by the same routine whether the engine was
    just compiled or restored from an artifact; the macros' own float64
    bit planes are never read.
    """

    def __init__(self, row_start: int, row_stop: int, tiles: List, codes: np.ndarray):
        self.row_start = row_start
        self.row_stop = row_stop
        self.tiles = tiles
        config = tiles[0].macro.config
        rows = row_stop - row_start
        wb = config.weight_bits
        self.offsets = np.cumsum(
            [0] + [wb * tile.macro.cols_used for tile in tiles]
        )
        # Stacked planes: tile after tile, each ``(weight bit, column)``
        # major over the block's rows — gathered as narrow words, then
        # widened to float32 in one contiguous pass.
        bits = _weight_bit_planes(codes, wb)
        stacked = np.empty((int(self.offsets[-1]), rows), dtype=bits.dtype)
        for index, tile in enumerate(tiles):
            stacked[self.offsets[index] : self.offsets[index + 1]].reshape(
                wb, tile.macro.cols_used, rows
            )[...] = bits[:, tile.col_start : tile.col_stop]
        self.planes32 = stacked.astype(np.float32)
        # Per-row ON-cell totals: exact integers whichever order they
        # are summed in, so they equal the float64 reduction of the
        # macros' bit planes bitwise.
        stored_bits = bits.sum(axis=0, dtype=bits.dtype)  # at most wb each
        self.plane_row_sums = [
            stored_bits[tile.col_start : tile.col_stop].sum(axis=0, dtype=np.float64)
            for tile in tiles
        ]
        # Bit-line observation + ADC conversion composed over every
        # reachable integer count, with the exact reference arithmetic:
        # a table of integer codes, and the step they are scaled by.
        domain = np.arange(rows + 1, dtype=np.float64)
        adc_codes, self.step = config.adc.convert(
            config.bitline.observe(domain, None), float(rows)
        )
        self.lut_is_identity = bool(np.array_equal(adc_codes, domain))
        dtype = _accumulator_dtype(config)
        self.code_lut = adc_codes.astype(dtype)
        self.plane_weights = tiles[0].macro._plane_weights.astype(dtype)

    def shift_add(
        self, counts: np.ndarray, in_weights: np.ndarray, out: np.ndarray
    ) -> None:
        """Digitize exact integer ``counts`` ``(..., stacked rows,
        vectors * ib)`` (any numeric dtype, any memory order) and add the
        row block's partial sums into float64 ``out`` ``(..., columns,
        vectors)``.

        One gather from the code table (skipped when every count is its
        own code), the input bit folded by one ``matmul`` with
        ``in_weights`` ``(..., ib, 1)``, the weight bit per tile: integer
        arithmetic throughout, exact in the table's dtype, then one
        rounding per element — ``partial * step``, the oracle's.  Leading
        axes batch same-geometry row blocks.
        """
        dtype = self.code_lut.dtype
        if self.lut_is_identity:
            codes = counts.astype(dtype, order="C", copy=False)
        else:
            # Indices are in range by construction, so "clip" never clips;
            # it selects numpy's unchecked, unbuffered gather loop.
            codes = np.take(
                self.code_lut, counts.astype(np.intp, order="C"), mode="clip"
            )
        lead, stacked = codes.shape[:-2], codes.shape[-2]
        ib = in_weights.shape[-2]
        folded = np.matmul(codes.reshape(*lead, -1, ib), in_weights).reshape(
            *lead, stacked, -1
        )
        wb = self.plane_weights.size
        for index, tile in enumerate(self.tiles):
            planes = folded[..., self.offsets[index] : self.offsets[index + 1], :]
            partial = np.matmul(self.plane_weights, planes.reshape(*lead, wb, -1))
            out[..., tile.col_start : tile.col_stop, :] += np.multiply(
                partial.reshape(*lead, tile.macro.cols_used, -1),
                self.step,
                dtype=np.float64,
            )


@register_backend
class TiledBitSerialKernel(KernelBackend):
    """Fast executor over every tile of a :class:`CimTiledMatmul`.

    Mirrors :meth:`CimTiledMatmul.matmul` exactly — per-tile partial
    sums accumulate in tile order, latency is the slowest tile — while
    fusing the bit-plane extraction (once per call) and the GEMM, ADC
    gather and shift-and-add (once per row block and block of vectors)
    across tiles.
    """

    backend_name = "reference-fast"

    def __init__(self, engine: CimTiledMatmul):
        if not self.supported(engine.config):
            raise ValueError(
                "fast bit-serial kernel requires a noise-free bit line and "
                "shift-and-add sums below 2**53; "
                "use the reference CimTiledMatmul.matmul path instead"
            )
        blocks: dict = {}
        for tile in engine.tiles:
            blocks.setdefault((tile.row_start, tile.row_stop), []).append(tile)
        self.engine = engine
        self._groups = [
            _TileGroup(r0, r1, tiles, engine.weights[r0:r1])
            for (r0, r1), tiles in blocks.items()
        ]
        config = engine.config
        self._in_weights = plane_weights(
            config.input_bits, config.signed_inputs
        ).astype(_accumulator_dtype(config))[:, None]
        self._post_init()

    def _post_init(self) -> None:
        """Subclass hook: derive extra program-time layout from the
        :class:`_TileGroup` list."""

    @staticmethod
    def supported(config: MacroConfig) -> bool:
        """True when the fast path is bit-exact for this configuration:
        a noise-free bit line, and a shift-and-add whose every partial
        sum is an integer float64 holds exactly."""
        return (
            config.bitline is not None
            and config.bitline.noise_sigma_counts == 0
            and _code_sum_bound(config) < 1 << 53
        )

    def matmul(self, x: np.ndarray) -> Tuple[np.ndarray, MacroStats]:
        engine = self.engine
        config = engine.config
        unsigned, squeeze = _serial_codes(engine, x)
        ib = config.input_bits
        rows_total, n = unsigned.shape

        # Input bit planes for the whole engine, once per call.  Every
        # buffer below is allocated per call: programmed kernels are
        # shared across threads.
        flat = _serial_planes(unsigned, ib, np.float32).reshape(rows_total, n * ib)
        # Per-row plane totals: exact integers, whole-call.
        row_sums_all = flat.sum(axis=1, dtype=np.float64)

        out = np.zeros((engine.shape[1], n))
        # Scalar accumulators: same per-field addition order as the
        # reference's sequential MacroStats.__add__ chain.
        acc = _StatsAccumulator()
        for group in self._groups:
            bits = flat[group.row_start : group.row_stop]
            # One GEMM for every column tile of the row block:
            # C-contiguous (sum of wb*cols, vectors*ib), i.e. stacked
            # (k, c, n, j) — per cache-sized block of vectors.
            width = _block_vectors(group.planes32.shape[0], ib)
            for v0 in range(0, n, width):
                v1 = min(v0 + width, n)
                group.shift_add(
                    np.matmul(group.planes32, bits[:, v0 * ib : v1 * ib]),
                    self._in_weights,
                    out[:, v0:v1],
                )
            row_sums = row_sums_all[group.row_start : group.row_stop]
            row_activations = int(row_sums.sum())
            for index, tile in enumerate(group.tiles):
                macro = tile.macro
                counts_total = float(
                    np.dot(row_sums, group.plane_row_sums[index])
                )
                acc.add(
                    macro_pass_stats(
                        macro.config,
                        macro.rows_used,
                        macro.cols_used,
                        n_vectors=n,
                        row_activations=row_activations,
                        counts_total=counts_total,
                    )
                )
        total = acc.finish()
        return (out[:, 0] if squeeze else out), total


class _StatsAccumulator:
    """Accumulates per-tile macro stats with the reference's exact
    field-by-field addition order; wall-clock latency is the slowest
    tile, matching :meth:`CimTiledMatmul.matmul`."""

    def __init__(self):
        self.cycles = 0
        self.adc_conversions = 0
        self.row_activations = 0
        self.macs = 0
        self.wl_energy_fj = 0.0
        self.bitline_energy_fj = 0.0
        self.adc_energy_fj = 0.0
        self.peripheral_energy_fj = 0.0
        self.max_latency_ns = 0.0

    def add(self, stats: MacroStats) -> None:
        self.cycles += stats.cycles
        self.adc_conversions += stats.adc_conversions
        self.row_activations += stats.row_activations
        self.macs += stats.macs
        self.wl_energy_fj += stats.wl_energy_fj
        self.bitline_energy_fj += stats.bitline_energy_fj
        self.adc_energy_fj += stats.adc_energy_fj
        self.peripheral_energy_fj += stats.peripheral_energy_fj
        self.max_latency_ns = max(self.max_latency_ns, stats.latency_ns)

    def finish(self) -> MacroStats:
        return MacroStats(
            cycles=self.cycles,
            adc_conversions=self.adc_conversions,
            row_activations=self.row_activations,
            macs=self.macs,
            wl_energy_fj=self.wl_energy_fj,
            bitline_energy_fj=self.bitline_energy_fj,
            adc_energy_fj=self.adc_energy_fj,
            peripheral_energy_fj=self.peripheral_energy_fj,
            latency_ns=self.max_latency_ns,
        )


def _sum_groups(stats: MacroStats, groups: int) -> MacroStats:
    """``MacroStats.__add__`` chained over ``groups`` in index order,
    from per-group stats held as one :class:`MacroStats` whose fields
    are ``(groups,)`` arrays, or scalars where every group's is equal.

    Float fields are the same left-to-right chain from ``0.0`` —
    ``np.add.accumulate``, never the pairwise ``np.sum``; the loop it
    replaces (an accumulator and an ``__add__`` per group) measured
    6.4 ms against 0.9 ms over mobilenet's 1376 groups, of a 75 ms run.
    """

    def chain(value):
        column = np.broadcast_to(value, (groups,))
        if column.dtype.kind != "f":
            return int(column.sum())
        return float(np.add.accumulate(np.concatenate(([0.0], column)))[-1])

    return MacroStats(
        **{f.name: chain(getattr(stats, f.name)) for f in fields(MacroStats)}
    )


class _StackedRowBlock:
    """One row block of ``G`` same-geometry kernels: the groups' plane
    matrices stacked ``(G, wb * cols, rows)`` for one batched count
    GEMM.  Tile layout, LUT and its flags are the first group's — the
    kernels share geometry and circuit."""

    def __init__(self, groups: List[_TileGroup]):
        self.head = groups[0]
        self.planes32 = np.stack([group.planes32 for group in groups])
        self.plane_row_sums = [
            np.stack([group.plane_row_sums[index] for group in groups])
            for index in range(len(self.head.tiles))
        ]


class StackedBitSerialKernel:
    """The per-group kernels of one grouped convolution, executed as one
    layer pass: ``matmul`` takes every group's codes at once.

    Bitwise equal, in outputs and stats, to running each group's
    :class:`TiledBitSerialKernel` in index order and summing the stats
    with ``MacroStats.__add__``.  Counts (batched float32 GEMM), the
    code gather, the shift-and-add over integer codes and the stats'
    integer reductions are exact per element whatever the batching, so
    every grouped layer whose groups run the fast kernel stacks.
    """

    def __init__(self, kernels: Sequence[TiledBitSerialKernel]):
        engine = kernels[0].engine
        self.shape = engine.shape
        self.config = engine.config
        #: Per-group input-bit weights ``(G, ib, 1)``: signedness is per group.
        self._in_weights = np.stack([kernel._in_weights for kernel in kernels])
        self._ranges = np.array(
            [kernel.engine.config.input_range() for kernel in kernels]
        )
        self._blocks = [
            _StackedRowBlock([kernel._groups[index] for kernel in kernels])
            for index in range(len(kernels[0]._groups))
        ]

    @staticmethod
    def supported(kernels: Sequence[Optional[TiledBitSerialKernel]]) -> bool:
        """True when every group has a fast kernel over one geometry and
        one circuit (input signedness aside, which is per group)."""
        first = kernels[0]
        if first is None:
            return False
        circuit = replace(first.engine.config, signed_inputs=False)
        return all(
            kernel is not None
            and kernel.engine.shape == first.engine.shape
            and replace(kernel.engine.config, signed_inputs=False) == circuit
            for kernel in kernels
        )

    def _validate(self, codes: np.ndarray) -> None:
        """:func:`_serial_codes`' checks for every group at once; the
        error is the lowest offending group's, as in index order."""
        if codes.shape[1] != self.shape[0]:
            raise ValueError(
                f"input rows {codes.shape[1]} do not match weight rows "
                f"{self.shape[0]}"
            )
        low, high = self._ranges.T
        bad = (codes.min(axis=(1, 2)) < low) | (codes.max(axis=(1, 2)) > high)
        if bad.any():
            g = int(np.argmax(bad))
            raise ValueError(
                f"input codes outside [{low[g]}, {high[g]}] for "
                f"{self.config.input_bits}-bit serial input"
            )

    def matmul(self, codes: np.ndarray) -> Tuple[np.ndarray, MacroStats]:
        """Integer codes ``(G, rows, n)`` -> ``(G, cols, n)`` float64
        and the layer's :class:`MacroStats`."""
        self._validate(codes)
        ib = self.config.input_bits
        groups, rows_total, n = codes.shape
        # Every buffer is per call: the stack is shared across threads.
        planes = _serial_planes(codes & ((1 << ib) - 1), ib, np.float32).reshape(
            groups, rows_total, n * ib
        )
        row_sums_all = planes.sum(axis=2, dtype=np.float64)  # exact integers

        out = np.zeros((groups, self.shape[1], n))
        # Tiles in tile order with every group's entry side by side,
        # then the groups in index order.
        per_group = _StatsAccumulator()
        for block in self._blocks:
            head = block.head
            bits = planes[:, head.row_start : head.row_stop]
            stacked = block.planes32.shape[1]
            # Cache-sized blocks of vectors, as in the per-group kernel;
            # the budget covers all the groups.
            width = _block_vectors(groups * stacked, ib)
            for v0 in range(0, n, width):
                v1 = min(v0 + width, n)
                head.shift_add(
                    np.matmul(block.planes32, bits[:, :, v0 * ib : v1 * ib]),
                    self._in_weights,
                    out[:, :, v0:v1],
                )

            row_sums = row_sums_all[:, head.row_start : head.row_stop]
            row_activations = row_sums.sum(axis=1).astype(np.int64)
            for tile, plane_row_sums in zip(head.tiles, block.plane_row_sums):
                macro = tile.macro
                per_group.add(
                    macro_pass_stats(
                        macro.config,
                        macro.rows_used,
                        macro.cols_used,
                        n_vectors=n,
                        row_activations=row_activations,
                        counts_total=np.einsum("gr,gr->g", row_sums, plane_row_sums),
                    )
                )
        return out, _sum_groups(per_group.finish(), groups)
