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
   (:data:`_BLOCK_BYTES`), and a call with enough of it
   (:data:`_SPLIT_INDICES`) cuts its vectors into one contiguous chunk
   per core the process may use: the caller runs the first, a
   process-wide pool of threads the others
   (:meth:`TiledBitSerialKernel._split`) — the GEMM, the gather, the
   casts and the ufuncs all release the interpreter lock.  Each output
   column is one chunk's, its row blocks added in ascending order, so
   the cut moves no bit.  No whole-batch intermediate exists, and a
   programmed kernel holds no per-call-shape state.

One further exact shortcut: the total ON-cell count needed for energy
accounting factorizes over rows (both factors are exact integers).

There is one pass, over a stack of ``G`` same-geometry engines: an
ungrouped engine's kernel, ``TiledBitSerialKernel(engine)``, is the
stack of one group, and a grouped convolution's kernel is
:meth:`TiledBitSerialKernel.stack` over its groups' kernels — the same
class, whose count GEMM, gather and shift-and-add are batched over the
leading group axis and whose per-group input signedness is a per-group
bias row.  Its stats are summed in one order
(:meth:`TiledBitSerialKernel._pass_stats`): per group the tiles in tile
order from ``0.0``, latency the slowest tile, then the groups in index
order from ``0.0`` — the reference tile walk's order, chained over
groups as the per-group reference chains them.

``tests/test_runtime.py`` pins the bitwise equivalence against the
reference path across shapes, signedness and batch extents.  Anything
the fast path cannot reproduce exactly (bit-line noise draws, pulse
encodings) falls back to the reference implementation at the call site.
"""

from __future__ import annotations

import concurrent.futures
import copy
import functools
import os
import threading
from dataclasses import replace
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

#: Pair-table indices a call gathers — vectors x stacked weight-plane
#: rows x input-bit pairs, over every row block — from which its back
#: half is split across cores; a smaller call runs inline.  Measured on
#: two cores over the resnet8 and mobilenet kernel calls: a split call
#: takes 1.03-2.4x the inline time below 2**18 indices (the handoff, and
#: every chunk paying each row block's fixed cost), 0.85-1.01x at 2**18
#: and 0.59-0.96x from 2**19 up.
_SPLIT_INDICES = 1 << 18


def _cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: Contiguous chunks a split call cuts its vector axis into: one per core
#: this process may use — the caller runs one, the pool's threads the rest.
_WORKERS = _cores()

#: The process-wide pool of ``_WORKERS - 1`` threads, built on the first
#: split call; never built in a one-core process.
_pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _executor() -> concurrent.futures.ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(
                _WORKERS - 1, thread_name_prefix="bit-serial"
            )
        return _pool


def _forget_pool() -> None:
    """In a forked child: the parent's pool has no threads here, so a
    chunk submitted to it would never start — the child builds its own
    on first use, under a fresh lock (one a parent thread held at the
    fork would stay held here)."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    row_ones = 0
    for k, values in enumerate(pair_values):
        # Integer casts wrap: the low byte of the shifted code.
        byte = (unsigned >> 8 * k if k else unsigned).astype(np.uint8)
        row_ones = row_ones + _byte_ones(byte).sum(axis=-1, dtype=np.float64)
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
    return operand.reshape(lead + (rows + len(bounds), n * pairs)), row_ones


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
    contiguous view.  The per-group arrays, ``planes32`` and
    ``row_weights``, lead with the group axis: one group here,
    ``G`` in a :meth:`stack`.

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
        ).tolist()
        # Stacked planes: tile after tile, each ``(weight bit, column)``
        # major over the block's rows — gathered as narrow words, then
        # widened to float32 in one contiguous pass — and a ones column
        # that carries the operand's bias row through the GEMM.
        bits = _weight_bit_planes(codes, wb)
        stacked = np.ones((self.offsets[-1], rows + 1), dtype=bits.dtype)
        for index, tile in enumerate(tiles):
            stacked[self.offsets[index] : self.offsets[index + 1]].reshape(
                wb, tile.macro.cols_used, rows + 1
            )[..., :rows] = bits[:, tile.col_start : tile.col_stop]
        self.planes32 = stacked.astype(np.float32)[None]
        # Each tile's programmed ON cells per row, then a row of ones:
        # one product with a group's per-row input ON bits gives every
        # tile's ON-cell total and the block's activated rows — exact
        # integers whichever order they are summed in, so they equal the
        # float64 reductions of the reference bitwise.
        stored_bits = bits.sum(axis=0, dtype=bits.dtype)  # at most wb each
        self.row_weights = np.ones((1, len(tiles) + 1, rows))
        np.add.reduceat(
            stored_bits,
            [tile.col_start for tile in tiles],
            axis=0,
            dtype=np.float64,
            out=self.row_weights[0, :-1],
        )
        self.pair_table, self.step = _pair_table(config, rows, radix)
        dtype = self.pair_table.dtype
        self.plane_weights = tiles[0].macro._plane_weights.astype(dtype)
        self.pair_ones = np.ones(_pairs(config.input_bits), dtype=dtype)

    @classmethod
    def stack(cls, blocks: Sequence["_TileGroup"]) -> "_TileGroup":
        """The same row block of ``G`` same-geometry kernels: their
        per-group arrays concatenated over the group axis; tiles, pair
        table and step are the first's — the kernels share geometry and
        circuit."""
        block = copy.copy(blocks[0])
        block.planes32 = np.concatenate([b.planes32 for b in blocks])
        block.row_weights = np.concatenate([b.row_weights for b in blocks])
        return block

    def shift_add(self, indices: np.ndarray, out: np.ndarray) -> None:
        """Digitize pair-table ``indices`` ``(G, stacked rows, vectors *
        pairs)`` (exact integers in any numeric dtype, any memory order)
        and add the row block's partial sums into float64 ``out`` ``(G,
        columns, vectors)``.

        One gather of weighted code pairs; then per tile the weight bit
        folds first — one product over the long contiguous axis — and
        the pair entries of the ``weight_bits`` times smaller result
        after it: integer arithmetic throughout, exact in the table's
        dtype whichever way it is ordered, then one rounding per element
        — ``partial * step``, the oracle's.
        """
        # Indices are in range by construction, so "clip" never clips;
        # it selects numpy's unchecked, unbuffered gather loop.
        codes = np.take(
            self.pair_table, indices.astype(np.intp, order="C"), mode="clip"
        )
        groups = codes.shape[0]
        wb, pairs = self.plane_weights.size, self.pair_ones.size
        for index, tile in enumerate(self.tiles):
            planes = codes[:, self.offsets[index] : self.offsets[index + 1]]
            partial = np.matmul(self.plane_weights, planes.reshape(groups, wb, -1))
            partial = np.matmul(partial.reshape(-1, pairs), self.pair_ones)
            out[:, tile.col_start : tile.col_stop] += np.multiply(
                partial.reshape(groups, tile.col_stop - tile.col_start, -1),
                self.step,
                dtype=np.float64,
            )


@register_backend
class TiledBitSerialKernel(KernelBackend):
    """The bit-serial pass over every tile of a :class:`CimTiledMatmul`
    — or, stacked, of ``G`` same-geometry engines at once.

    ``TiledBitSerialKernel(engine)`` is the stack of one group;
    :meth:`stack` builds a grouped layer's kernel from its groups'.
    Either way :meth:`matmul` runs one body over ``(G, rows, n)`` codes
    and mirrors :meth:`CimTiledMatmul.matmul` for every group exactly —
    per-tile partial sums accumulate in tile order, stats follow
    :meth:`_pass_stats` — while fusing the paired operand's expansion
    (once per call) and the count GEMM, pair gather and shift-and-add
    (once per row block and block of vectors) across tiles and groups.
    ``engine`` is the first group's: the geometry and circuit every
    group shares.
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
        self._pair_values = _pair_values(engine.config.input_bits, self._radix)
        #: Per-group bias rows ``(G, pairs)`` and input ranges, one
        #: ``(low, high)`` per group: signedness is per group, and all it
        #: selects is the top pair's table section and the codes
        #: accepted.
        self._bias = _section_offsets(engine.config, self._radix)[None]
        self._ranges = [engine.config.input_range()]
        #: The range every group accepts.
        self._accepted = self._ranges[0]
        self._vector_indices = self._count_vector_indices()

    @staticmethod
    def stack(
        kernels: Sequence[Optional["TiledBitSerialKernel"]],
    ) -> Optional["TiledBitSerialKernel"]:
        """One pass over the per-group kernels of a grouped layer, group
        ``g`` at index ``g`` of the leading axis — or ``None`` unless
        every group has a fast kernel over one geometry and one circuit
        (input signedness aside, which is per group).

        Table indices (batched float32 GEMM), the pair gather, the
        shift-and-add over integer codes and the stats' integer
        reductions are exact per element whatever the batching, so the
        stack is bitwise equal, in outputs and stats, to running each
        group's kernel in index order and summing the stats with
        ``MacroStats.__add__``.  A stack always contracts counts by the
        float32 GEMM.
        """
        first = kernels[0]
        if first is None:
            return None
        circuit = replace(first.engine.config, signed_inputs=False)
        if not all(
            kernel is not None
            and kernel.engine.shape == first.engine.shape
            and replace(kernel.engine.config, signed_inputs=False) == circuit
            for kernel in kernels
        ):
            return None
        stack = TiledBitSerialKernel.__new__(TiledBitSerialKernel)
        stack.engine, stack._bounds = first.engine, first._bounds
        stack._radix, stack._pair_values = first._radix, first._pair_values
        stack._groups = [
            _TileGroup.stack(blocks)
            for blocks in zip(*(kernel._groups for kernel in kernels))
        ]
        stack._bias = np.concatenate([kernel._bias for kernel in kernels])
        stack._ranges = [bounds for kernel in kernels for bounds in kernel._ranges]
        lows, highs = zip(*stack._ranges)
        stack._accepted = (max(lows), min(highs))
        stack._vector_indices = stack._count_vector_indices()
        return stack

    def _count_vector_indices(self) -> int:
        """Pair-table indices one input vector costs the pass: every
        group's stacked rows times the input-bit pairs, over the row
        blocks — the measure :data:`_SPLIT_INDICES` is set in."""
        pairs = self._bias.shape[-1]
        return sum(
            group.planes32.shape[0] * group.planes32.shape[1] * pairs
            for group in self._groups
        )

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
        """Integer codes ``(rows,)`` or ``(rows, n)`` — ``(G, rows, n)``
        for a stack — to float64 ``(cols,)``, ``(cols, n)`` or ``(G,
        cols, n)``, and the pass's :class:`MacroStats`."""
        x = np.asarray(x)
        # Every buffer below is allocated per call: programmed kernels
        # are shared across threads.  The unsigned codes die with the
        # expansion, before the block loop's peak.
        operand, row_ones = self._expand(self._serial_codes(x))
        groups, n = row_ones.shape[0], x.shape[-1] if x.ndim > 1 else 1
        out = np.zeros((groups, self.engine.shape[1], n))
        if n * self._vector_indices >= _SPLIT_INDICES and min(_WORKERS, n) > 1:
            self._split(operand, out, min(_WORKERS, n))
        else:
            self._back_half(operand, out, 0, n)
        if x.ndim < 3:
            out = out[0, :, 0] if x.ndim == 1 else out[0]
        return out, self._pass_stats(row_ones, n)

    def _back_half(
        self, operand: np.ndarray, out: np.ndarray, v0: int, v1: int
    ) -> None:
        """Count GEMM -> pair gather -> shift-and-add for vectors ``v0``
        to ``v1``, into ``out[..., v0:v1]``: the row blocks in ascending
        order, each in cache-sized blocks of vectors (the budget covers
        the stacked planes of every group)."""
        groups, pairs = out.shape[0], self._bias.shape[-1]
        for b, group in enumerate(self._groups):
            width = _block_vectors(groups * group.planes32.shape[1], pairs)
            for w0 in range(v0, v1, width):
                w1 = min(w0 + width, v1)
                group.shift_add(self._contract(operand, b, w0, w1), out[:, :, w0:w1])

    def _split(self, operand: np.ndarray, out: np.ndarray, chunks: int) -> None:
        """:meth:`_back_half` over ``chunks`` contiguous ranges of the
        vector axis: the calling thread runs the first, the pool the
        rest — and once done with its own, the caller takes back and
        runs every chunk no pool thread has started, so a busy pool
        never makes a call wait in its queue.  Chunks write disjoint
        ``out`` columns and every step is exact per vector, so the bits
        are the inline pass's."""
        n = out.shape[-1]
        edges = [n * chunk // chunks for chunk in range(chunks + 1)]
        first, *rest = zip(edges, edges[1:])
        pool = _executor()
        futures = [
            pool.submit(self._back_half, operand, out, *chunk) for chunk in rest
        ]
        try:
            self._back_half(operand, out, *first)
            for future, chunk in zip(futures, rest):
                if future.cancel():
                    self._back_half(operand, out, *chunk)
        finally:
            # Whatever raised: once this returns, no chunk still writes.
            started = [future for future in futures if not future.cancel()]
            concurrent.futures.wait(started)
        for future in started:
            future.result()  # a pool thread's error, raised here

    def _serial_codes(self, x: np.ndarray) -> np.ndarray:
        """Validate one integer-code batch: ``(G, rows, n)`` two's-
        complement reinterpretations of the codes as unsigned
        ``input_bits``-wide integers."""
        codes = x if x.ndim == 3 else x[None, :, None] if x.ndim == 1 else x[None]
        groups, rows, _ = codes.shape
        if rows != self.engine.shape[0]:
            raise ValueError(
                f"input rows {rows} do not match weight rows {self.engine.shape[0]}"
            )
        if groups != len(self._ranges):
            raise ValueError(
                f"input holds {groups} groups of codes for a pass over "
                f"{len(self._ranges)}"
            )
        # Reference path: each tile's macro validates its input slice in
        # tile order, group by group; the slices tile the same rows, so
        # one check per group is the same check, and the error is the
        # lowest offending group's.  Codes every group accepts need no
        # per-group look.
        low, high = self._accepted
        if codes.min() < low or codes.max() > high:
            low, high = np.array(self._ranges).T
            bad = (codes.min(axis=(1, 2)) < low) | (codes.max(axis=(1, 2)) > high)
            if bad.any():
                g = int(np.argmax(bad))
                raise ValueError(
                    f"input codes outside [{low[g]}, {high[g]}] for "
                    f"{self.engine.config.input_bits}-bit serial input"
                )
        mask = (1 << self.engine.config.input_bits) - 1
        return np.asarray(codes, dtype=np.int64) & mask

    def _expand(self, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The count contraction's right operand for unsigned codes
        ``(G, rows, n)`` — the paired operand — and the codes' per-row
        ON-bit totals ``(G, rows)``."""
        return _paired_operand(codes, self._pair_values, self._bounds, self._bias)

    def _contract(self, operand: np.ndarray, b: int, v0: int, v1: int) -> np.ndarray:
        """Pair-table indices ``(G, stacked rows, vectors * pairs)`` of row
        block ``b`` for vectors ``v0`` to ``v1``: one batched float32
        GEMM for every column tile of the block and every group, its
        result C-contiguous ``(g, k, c, n, p)``."""
        group = self._groups[b]
        pairs = self._bias.shape[-1]
        return np.matmul(
            group.planes32,
            operand[
                :, group.row_start + b : group.row_stop + b + 1, v0 * pairs : v1 * pairs
            ],
        )

    def _pass_stats(self, row_ones: np.ndarray, n: int) -> MacroStats:
        """The pass's :class:`MacroStats` from the groups' per-row input
        ON-bit totals ``(G, rows)``.

        Every tile's numbers come from :func:`macro_pass_stats`, called
        once per tile, and are summed in the reference's order: per group
        the tiles in tile order from ``0.0``, latency the slowest tile
        (:meth:`CimTiledMatmul.matmul`); then the groups in index order
        from ``0.0`` (:func:`_sum_groups`).  Numbers that differ between
        groups are ``(G,)`` arrays, every group's tile sums side by side
        — or plain floats for one group, where numpy's per-call cost
        would dwarf the arithmetic; the rest are the same for every
        group and are summed once.
        """
        groups = row_ones.shape[0]
        config = self.engine.config
        cycles = conversions = macs = 0
        row_activations = wl_energy = bitline_energy = 0.0
        adc_energy = peripheral_energy = latency = 0.0
        for group in self._groups:
            # (tiles + 1, G): each tile's ON-cell total, then the block's
            # activated rows.
            counts = np.matmul(
                group.row_weights, row_ones[:, group.row_start : group.row_stop, None]
            )[..., 0].T
            if groups == 1:
                counts = counts[:, 0].tolist()
            activated = counts[-1]
            for tile, counts_total in zip(group.tiles, counts):
                macro = tile.macro
                stats = macro_pass_stats(
                    config, macro.rows_used, macro.cols_used, n, activated, counts_total
                )
                cycles += stats.cycles
                conversions += stats.adc_conversions
                macs += stats.macs
                row_activations += stats.row_activations
                wl_energy += stats.wl_energy_fj
                bitline_energy += stats.bitline_energy_fj
                adc_energy += stats.adc_energy_fj
                peripheral_energy += stats.peripheral_energy_fj
                latency = max(latency, stats.latency_ns)
        total = _sum_groups(
            (
                row_activations,
                wl_energy,
                bitline_energy,
                adc_energy,
                peripheral_energy,
                latency,
            ),
            groups,
        )
        return MacroStats(
            cycles=cycles * groups,
            adc_conversions=conversions * groups,
            row_activations=int(total[0]),
            macs=macs * groups,
            wl_energy_fj=total[1],
            bitline_energy_fj=total[2],
            adc_energy_fj=total[3],
            peripheral_energy_fj=total[4],
            latency_ns=total[5],
        )


def _sum_groups(values: Sequence, groups: int) -> List[float]:
    """Each of ``values`` summed over ``groups`` groups in index order
    from ``0.0`` — ``MacroStats.__add__`` chained over a grouped layer's
    groups — where a ``(groups,)`` array holds one entry per group and a
    float is every group's.

    One left-to-right ``np.add.accumulate`` covers every value, never
    the pairwise ``np.sum``, so the cost barely moves from a few groups
    to thousands; one group's sum is one addition.
    """
    if groups == 1:
        return [0.0 + value for value in values]
    sums = np.zeros((len(values), groups + 1))
    for row, value in zip(sums[:, 1:], values):
        row[...] = value
    return np.add.accumulate(sums, axis=1)[:, -1].tolist()
