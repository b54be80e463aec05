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
   rounding error — and one GEMM column can carry **two** input bits.
   With the radix ``R = rows + 1`` (an engine's tallest row block, plus
   one) the right operand's entry for input-bit pair ``p`` is
   ``bit[2p] + R * bit[2p + 1]``, so a GEMM entry is ``c0 + R * c1``:
   two ON-cell counts, uniquely decodable because ``c0, c1 <= rows <
   R``, exact in any order or blocking because every partial sum is a
   non-negative integer below 2**24
   (:meth:`TiledBitSerialKernel.supported`).  The macro streams one
   activation bit per cycle; the simulator reads two per column.
2. Bit-line clipping/saturation and ADC quantization are elementwise
   functions of an integer count in ``[0, rows_used]``, so both reads
   digitise in **one** gather from a program-time *pair table*
   ``T[s * R**2 + c0 + R * c1] = w[2p] * code(c0) + w[2p + 1] *
   code(c1)`` (:func:`_pair_table`): integer ADC codes from the exact
   reference arithmetic, the input plane weights baked in.  Pair ``p``
   reads section ``s = p``; a signed top pair — MSB weight
   ``-2**(ib - 1)`` — reads the one extra section ``s = P``, and an odd
   ``input_bits`` is a top pair whose second bit is never set.  The
   section offset rides in the GEMM itself: a ones column on the weight
   planes times one bias row per row block in the operand, so input
   signedness is a row of numbers, never a branch.
3. ADC codes are integers, and shift-and-add over them is exact: the
   oracle recombines the codes and applies the ADC step once per tile
   partial (:meth:`repro.cim.adc.AdcSpec.convert`), so every product
   and partial sum is an integer below ``levels * 2**(weight_bits +
   input_bits)`` and *any* contraction order, blocking or BLAS kernel
   returns the same bits.  The pair table therefore holds weighted
   codes, in float32 while that bound fits 2**24 (2**21 for the
   8/8/5-bit default) and in float64 up to 2**53 — a program-time
   function of the configuration; past either bound the configuration
   is not :meth:`~TiledBitSerialKernel.supported` and takes the
   reference macro path.  The operand is built **pair innermost** —
   ``(row, vector, pair)`` — so a block of vectors is a column slice of
   it and the input-bit fold is a sum over ``P = ceil(input_bits / 2)``
   adjacent entries.
4. Nothing in the chain depends on its neighbours along the vector
   axis, so the whole back half — count GEMM -> pair gather ->
   weight-bit fold -> pair fold -> ``out += partial * step``
   (:meth:`_TileGroup.shift_add`) — runs per **block of vectors** sized
   to keep one row block's indices and codes cache-resident
   (:data:`_BLOCK_BYTES`).  No whole-batch intermediate exists, and a
   programmed kernel holds no per-call-shape state.

One further exact shortcut: the total ON-cell count needed for energy
accounting factorizes over rows (both factors are exact integers).

:class:`StackedBitSerialKernel` runs the same-geometry kernels of one
grouped convolution's groups as a single pass — batched count GEMM,
one gather, one batched shift-and-add, group-major stats; per-group
input signedness is a per-group bias row.

``tests/test_runtime.py`` pins the bitwise equivalence against the
reference path across shapes, signedness and batch extents.  Anything
the fast path cannot reproduce exactly (bit-line noise draws, pulse
encodings) falls back to the reference implementation at the call site.
"""

from __future__ import annotations

import functools
from dataclasses import fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cim.bitline import BitlineModel
from repro.cim.macro import MacroConfig, MacroStats, macro_pass_stats, plane_weights
from repro.cim.mvm import CimTiledMatmul
from repro.runtime.backends.base import KernelBackend, register_backend

#: Byte budget for one block of input vectors, at 8 bytes per entry of
#: ``stacked weight-plane rows x vectors x input-bit pairs``: the
#: float32 table indices out of the GEMM and the float32 codes gathered
#: at them.  With the gather's ``intp`` indices beside them the block's
#: working set is ~2x this — sized to stay within a few MiB of
#: last-level-private cache (re-measured on the resnet8 conv shapes:
#: 2-8 MiB is a plateau within run-to-run noise, 0.5 MiB is ~10% slower).
_BLOCK_BYTES = 4 << 20


def _pairs(input_bits: int) -> int:
    """Input-bit pairs of a code: GEMM columns, gathers and fold entries
    per vector."""
    return (input_bits + 1) // 2


def _block_vectors(stacked_rows: int, pairs: int) -> int:
    """Input vectors per block of a row block whose tiles stack
    ``stacked_rows`` weight-plane rows: as many as keep the block's
    indices and codes within :data:`_BLOCK_BYTES`."""
    return max(1, _BLOCK_BYTES // (stacked_rows * pairs * 8))


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


#: ON bits of a byte of codes: ``np.bitwise_count`` where numpy has it
#: (2.0 on), a 256-entry table's gather on the declared floor.
_BYTE_ONES = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)
_byte_ones = np.bitwise_count if hasattr(np, "bitwise_count") else _BYTE_ONES.take


@functools.lru_cache(maxsize=64)
def _pair_values(input_bits: int, radix: int) -> Tuple[np.ndarray, ...]:
    """The paired operand entries of every value of each byte of an
    ``input_bits``-wide code: per byte one read-only float32 ``(2**bits,
    pairs)`` array whose row ``b`` holds ``bit[2p] + radix * bit[2p + 1]``
    of ``b`` for each of the byte's pairs (at most four).  Shared per
    (width, radix) at program time."""
    chunks = []
    for low in range(0, input_bits, 8):
        bits = min(8, input_bits - low)
        pair = np.arange(1 << bits)[:, None] >> np.arange(0, bits, 2)
        values = ((pair & 1) + radix * ((pair >> 1) & 1)).astype(np.float32)
        values.flags.writeable = False
        chunks.append(values)
    return tuple(chunks)


def _paired_operand(
    unsigned: np.ndarray,
    pair_values: Sequence[np.ndarray],
    bounds: Sequence[Tuple[int, int]],
    bias: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The count GEMM's right operand for unsigned codes ``(..., rows,
    n)``, and the codes' per-row ON-bit totals ``(..., rows)``.

    The operand is float32 ``(..., rows + len(bounds), n * pairs)``, pair
    innermost: row block ``b`` of ``bounds`` (ascending, tiling the rows)
    occupies rows ``r0 + b`` to ``r1 + b`` with its paired bits and row
    ``r1 + b`` with ``bias`` ``(..., pairs)`` — the pair-table section
    offsets the weight planes' ones column picks up — so a row block's
    slice, bias row included, is the GEMM operand as it stands.  A block
    of vectors is a column slice.  Each byte of the codes is expanded by
    one gather from its :func:`_pair_values` straight into place; the
    totals are exact integers whichever way they are counted.
    """
    lead, (rows, n) = unsigned.shape[:-2], unsigned.shape[-2:]
    pairs = bias.shape[-1]
    operand = np.empty(lead + (rows + len(bounds), n, pairs), dtype=np.float32)
    row_ones = np.zeros(lead + (rows,), dtype=np.int64)
    for k, values in enumerate(pair_values):
        # Integer casts wrap: the low byte of the shifted code.
        byte = (unsigned >> 8 * k if k else unsigned).astype(np.uint8)
        row_ones += _byte_ones(byte).sum(axis=-1, dtype=np.int64)
        for b, (r0, r1) in enumerate(bounds):
            # In range by construction, so "clip" never clips; it selects
            # numpy's unchecked, unbuffered gather loop.
            np.take(
                values,
                byte[..., r0:r1, :],
                axis=0,
                mode="clip",
                out=operand[..., r0 + b : r1 + b, :, 4 * k : 4 * k + values.shape[1]],
            )
    for b, (_, r1) in enumerate(bounds):
        operand[..., r1 + b, :, :] = bias[..., None, :]
    return (
        operand.reshape(lead + (rows + len(bounds), n * pairs)),
        row_ones.astype(np.float64),
    )


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


def _pair_table(config: MacroConfig, rows: int, radix: int) -> Tuple[np.ndarray, float]:
    """The pair table of a ``rows``-row block read at ``radix``, and the
    ADC step its codes are scaled by: one shared read-only array per
    distinct (rows, radix, circuit, input bits), built at program time."""
    bitline = config.bitline  # noise-free, so observe() reads these two
    return _shared_pair_table(
        rows,
        radix,
        config.adc,
        bitline.max_rows,
        bitline.saturation,
        config.input_bits,
        _accumulator_dtype(config),
    )


@functools.lru_cache(maxsize=64)
def _shared_pair_table(rows, radix, adc, max_rows, saturation, input_bits, dtype):
    """``table[s * radix**2 + c0 + radix * c1] = w0 * code(c0) + w1 *
    code(c1)`` over ``c0, c1`` in ``[0, rows]``, where ``(w0, w1)`` are
    the input plane weights of section ``s``'s bit pair: sections ``0``
    to ``P - 1`` the pairs of an unsigned code (a missing top bit weighs
    nothing), section ``P`` the top pair of a signed one.

    ``code`` is the bit-line observation + ADC conversion of an integer
    count with the exact reference arithmetic; entries unreachable from
    a block shorter than the radix stay zero.  The cache only shares:
    kernels hold their tables, so an evicted entry costs a later
    program a rebuild, never a wrong table.
    """
    domain = np.arange(rows + 1, dtype=np.float64)
    bitline = BitlineModel(max_rows=max_rows, saturation=saturation)
    codes, step = adc.convert(bitline.observe(domain, None), float(rows))
    pairs = _pairs(input_bits)
    weights = np.zeros((2, 2 * pairs))
    weights[0, :input_bits] = plane_weights(input_bits, False)
    weights[1, :input_bits] = plane_weights(input_bits, True)
    weights = weights.reshape(2, pairs, 2)
    table = np.zeros((pairs + 1, radix, radix), dtype=dtype)
    for section, (w0, w1) in zip(table, np.concatenate([weights[0], weights[1, -1:]])):
        section[: rows + 1, : rows + 1] = np.add.outer(w1 * codes, w0 * codes)
    table = table.reshape(-1)
    table.flags.writeable = False
    return table, step


def _section_offsets(config: MacroConfig, radix: int) -> np.ndarray:
    """The pair-table offset of each input-bit pair's section — the
    operand's bias row: pair ``p`` reads section ``p``, a signed top
    pair section ``P``."""
    sections = np.arange(_pairs(config.input_bits))
    if config.signed_inputs:
        sections[-1] += 1
    return (sections * radix**2).astype(np.float32)


class _TileGroup:
    """Tiles sharing one row block, executed through one fused GEMM.

    Column tiles of the same rows consume the same paired operand, so
    their float32 weight-plane matrices are stacked into one operand:
    one GEMM and one pair gather cover the whole block
    (:meth:`shift_add`), and each tile's slice of the result is a
    contiguous view.

    Everything here is derived from ``codes`` — the row block's
    ``(rows, columns)`` slice of the engine's integer weight codes, the
    one programmed state — by the same routine whether the engine was
    just compiled or restored from an artifact; the macros' own float64
    bit planes are never read.  ``radix`` is the engine's.
    """

    def __init__(
        self, row_start: int, row_stop: int, tiles: List, codes: np.ndarray, radix: int
    ):
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
        # widened to float32 in one contiguous pass — and a ones column
        # that carries the operand's bias row through the GEMM.
        bits = _weight_bit_planes(codes, wb)
        stacked = np.ones((int(self.offsets[-1]), rows + 1), dtype=bits.dtype)
        for index, tile in enumerate(tiles):
            stacked[self.offsets[index] : self.offsets[index + 1]].reshape(
                wb, tile.macro.cols_used, rows + 1
            )[..., :rows] = bits[:, tile.col_start : tile.col_stop]
        self.planes32 = stacked.astype(np.float32)
        # Per-row ON-cell totals: exact integers whichever order they
        # are summed in, so they equal the float64 reduction of the
        # macros' bit planes bitwise.
        stored_bits = bits.sum(axis=0, dtype=bits.dtype)  # at most wb each
        self.plane_row_sums = [
            stored_bits[tile.col_start : tile.col_stop].sum(axis=0, dtype=np.float64)
            for tile in tiles
        ]
        self.pair_table, self.step = _pair_table(config, rows, radix)
        dtype = self.pair_table.dtype
        self.plane_weights = tiles[0].macro._plane_weights.astype(dtype)
        self.pair_ones = np.ones(_pairs(config.input_bits), dtype=dtype)

    def shift_add(self, indices: np.ndarray, out: np.ndarray) -> None:
        """Digitize pair-table ``indices`` ``(..., stacked rows, vectors *
        pairs)`` (exact integers in any numeric dtype, any memory order)
        and add the row block's partial sums into float64 ``out`` ``(...,
        columns, vectors)``.

        One gather of weighted code pairs; then per tile the weight bit
        folds first — one product over the long contiguous axis — and
        the pair entries of the ``weight_bits`` times smaller result
        after it: integer arithmetic throughout, exact in the table's
        dtype whichever way it is ordered, then one rounding per element
        — ``partial * step``, the oracle's.  Leading axes batch
        same-geometry row blocks.
        """
        # Indices are in range by construction, so "clip" never clips;
        # it selects numpy's unchecked, unbuffered gather loop.
        codes = np.take(
            self.pair_table, indices.astype(np.intp, order="C"), mode="clip"
        )
        lead = codes.shape[:-2]
        wb, pairs = self.plane_weights.size, self.pair_ones.size
        for index, tile in enumerate(self.tiles):
            planes = codes[..., self.offsets[index] : self.offsets[index + 1], :]
            partial = np.matmul(self.plane_weights, planes.reshape(*lead, wb, -1))
            partial = np.matmul(partial.reshape(-1, pairs), self.pair_ones)
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
    fusing the paired operand's expansion (once per call) and the GEMM,
    pair gather and shift-and-add (once per row block and block of
    vectors) across tiles.
    """

    backend_name = "reference-fast"

    def __init__(self, engine: CimTiledMatmul):
        if not self.supported(engine.config):
            raise ValueError(
                "fast bit-serial kernel requires a noise-free bit line, "
                "shift-and-add sums below 2**53 and pair-table indices "
                "below 2**24; "
                "use the reference CimTiledMatmul.matmul path instead"
            )
        blocks: dict = {}
        for tile in engine.tiles:
            blocks.setdefault((tile.row_start, tile.row_stop), []).append(tile)
        self.engine = engine
        #: Row blocks, ascending; block ``b`` reads operand rows
        #: ``r0 + b`` to ``r1 + b`` inclusive (its bias row last).
        self._bounds = list(blocks)
        #: One radix per engine: its tallest row block, plus one.
        self._radix = max(r1 - r0 for r0, r1 in blocks) + 1
        self._groups = [
            _TileGroup(r0, r1, tiles, engine.weights[r0:r1], self._radix)
            for (r0, r1), tiles in blocks.items()
        ]
        self._bias = _section_offsets(engine.config, self._radix)
        self._pair_values = _pair_values(engine.config.input_bits, self._radix)
        self._post_init()

    def _post_init(self) -> None:
        """Subclass hook: derive extra program-time layout from the
        :class:`_TileGroup` list."""

    @staticmethod
    def supported(config: MacroConfig) -> bool:
        """True when the fast path is bit-exact for this configuration:
        a noise-free bit line, a shift-and-add whose every partial sum
        is an integer float64 holds exactly, and a pair table — ``P + 1``
        sections of ``(rows + 1)**2`` — whose every index, and so every
        partial sum of the float32 count GEMM, is below 2**24."""
        return (
            config.bitline is not None
            and config.bitline.noise_sigma_counts == 0
            and _code_sum_bound(config) < 1 << 53
            and (_pairs(config.input_bits) + 1) * (config.rows + 1) ** 2 <= 1 << 24
        )

    def matmul(self, x: np.ndarray) -> Tuple[np.ndarray, MacroStats]:
        engine = self.engine
        unsigned, squeeze = _serial_codes(engine, x)
        n = unsigned.shape[1]
        pairs = self._bias.size

        # The paired operand and per-row ON-bit totals for the whole
        # engine, once per call.  Every buffer below is allocated per
        # call: programmed kernels are shared across threads.
        operand, row_sums_all = _paired_operand(
            unsigned, self._pair_values, self._bounds, self._bias
        )

        out = np.zeros((engine.shape[1], n))
        # Scalar accumulators: same per-field addition order as the
        # reference's sequential MacroStats.__add__ chain.
        acc = _StatsAccumulator()
        for b, group in enumerate(self._groups):
            pairs_in = operand[group.row_start + b : group.row_stop + b + 1]
            # One GEMM for every column tile of the row block:
            # C-contiguous (sum of wb*cols, vectors*pairs), i.e. stacked
            # (k, c, n, p) — per cache-sized block of vectors.
            width = _block_vectors(group.planes32.shape[0], pairs)
            for v0 in range(0, n, width):
                v1 = min(v0 + width, n)
                group.shift_add(
                    np.matmul(group.planes32, pairs_in[:, v0 * pairs : v1 * pairs]),
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
    matrices stacked ``(G, wb * cols, rows + 1)`` for one batched count
    GEMM.  Tile layout, pair table and step are the first group's — the
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
    with ``MacroStats.__add__``.  Table indices (batched float32 GEMM),
    the pair gather, the shift-and-add over integer codes and the stats'
    integer reductions are exact per element whatever the batching, so
    every grouped layer whose groups run the fast kernel stacks.
    """

    def __init__(self, kernels: Sequence[TiledBitSerialKernel]):
        first = kernels[0]
        self.shape = first.engine.shape
        self.config = first.engine.config
        self._bounds, self._pair_values = first._bounds, first._pair_values
        #: Per-group bias rows ``(G, pairs)``: signedness is per group,
        #: and all it selects is the top pair's table section.
        self._bias = np.stack([kernel._bias for kernel in kernels])
        self._ranges = np.array(
            [kernel.engine.config.input_range() for kernel in kernels]
        )
        self._blocks = [
            _StackedRowBlock([kernel._groups[index] for kernel in kernels])
            for index in range(len(first._groups))
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
        groups, _, n = codes.shape
        pairs = self._bias.shape[1]
        # Every buffer is per call: the stack is shared across threads.
        operand, row_sums_all = _paired_operand(
            codes & ((1 << ib) - 1), self._pair_values, self._bounds, self._bias
        )

        out = np.zeros((groups, self.shape[1], n))
        # Tiles in tile order with every group's entry side by side,
        # then the groups in index order.
        per_group = _StatsAccumulator()
        for b, block in enumerate(self._blocks):
            head = block.head
            pairs_in = operand[:, head.row_start + b : head.row_stop + b + 1]
            # Cache-sized blocks of vectors, as in the per-group kernel;
            # the budget covers all the groups.
            width = _block_vectors(groups * block.planes32.shape[1], pairs)
            for v0 in range(0, n, width):
                v1 = min(v0 + width, n)
                head.shift_add(
                    np.matmul(block.planes32, pairs_in[:, :, v0 * pairs : v1 * pairs]),
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
