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
   rounding error — and one weight-plane entry can carry up to **three**
   weight bits, as the digits of a base-``R`` number.  Each row block
   has its own radix ``R = rows + 1`` and digit count ``d``
   (:func:`_digits`): three weight bits per entry while its table fits
   below 2**24, else two.  The plane matrix's entry for section ``q``
   is ``sum_j b[d*q + j] * R**j`` and the right operand holds one 0/1
   input bit per column, so a GEMM entry is ``sum_j c_j * R**j``: the
   ON-cell counts of the section's bit lines, uniquely decodable because
   every ``c_j <= rows < R``, exact in any order or blocking because
   every partial sum is a non-negative integer below 2**24.  The macro
   digitises every bit line; the simulator reads ``d`` per GEMM entry,
   and keeps ``ceil(weight_bits / d)`` float32 plane entries per weight
   resident instead of ``weight_bits``.
2. Bit-line clipping/saturation and ADC quantization are elementwise
   functions of an integer count in ``[0, rows_used]``, so every read
   of a section digitises in **one** gather from a program-time *digit
   table* ``T[off_q + sum_j c_j * R**j] = sum_j w[d*q + j] * code(c_j)``
   (:func:`_pair_table`): integer ADC codes from the exact reference
   arithmetic, the weight plane weights baked in.  Section ``q`` holds
   ``R**k`` entries for its ``k`` weight bits — ``d``, or fewer for the
   top section when ``d`` does not divide ``weight_bits`` (3 + 3 + 2 at
   8 bits) — at offset ``off_q = q * R**d``; a signed weight's top
   section carries its MSB weight ``-2**(weight_bits - 1)``.  The
   section offset rides in the GEMM itself: a last column ``off_q`` on
   the weight planes times a ones row closing each block of the
   operand.  One table serves signed and unsigned inputs alike.
3. ADC codes are integers, and shift-and-add over them is exact: the
   oracle recombines the codes and applies the ADC step once per tile
   partial (:meth:`repro.cim.adc.AdcSpec.convert`), so every product
   and partial sum is an integer below ``levels * 2**(weight_bits +
   input_bits)`` and *any* contraction order, blocking or BLAS kernel
   returns the same bits.  The digit table therefore holds weighted
   codes, in float32 while that bound fits 2**24 (2**21 for the
   8/8/5-bit default) and in float64 up to 2**53 — a program-time
   function of the configuration; past either bound the configuration
   is not :meth:`~TiledBitSerialKernel.supported` and takes the
   reference macro path.  The operand is built **input bit innermost**
   — ``(row, vector, input bit)`` — so the input-bit fold is a product
   of ``input_bits`` adjacent entries with the input plane weights,
   where input signedness lives: a number in a weight vector, never a
   branch.
4. Nothing in the chain depends on its neighbours along the vector
   axis, so the whole back half — operand expansion -> count GEMM ->
   digit gather -> section fold -> input-bit fold -> ``out +=
   partial * step``
   (:meth:`_TileGroup.shift_add`) — runs per **block of vectors** sized
   to keep one row block's operand, indices and codes cache-resident
   (:data:`_BLOCK_BYTES`; a row block cuts its vectors into equal
   blocks, :func:`_vector_blocks`), and a call with enough of it
   (:data:`_SPLIT_INDICES`) cuts its vectors into one contiguous chunk
   per core the process may use: the caller runs the first, a
   process-wide pool of threads the others
   (:meth:`TiledBitSerialKernel._split`) — the GEMM, the gather, the
   casts and the ufuncs all release the interpreter lock.  Each output
   column is one chunk's, its row blocks added in ascending order, so
   the cut moves no bit.  No whole-batch intermediate exists beyond
   the codes' bytes, and a programmed kernel holds no per-call-shape
   state.

One further exact shortcut: the total ON-cell count needed for energy
accounting factorizes over rows (both factors are exact integers).

There is one pass, over ``G`` same-geometry engines: an ungrouped
engine's kernel, ``TiledBitSerialKernel(engine)``, is the pass of one
group, and a grouped convolution's kernel is the same constructor over
its groups' engines, built once from their codes — its count GEMM,
gather and shift-and-add batched over the leading group axis, its
per-group input signedness a per-group row of input plane weights in
the input-bit fold (one weight vector when every group shares one).
Its stats are summed in one order
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

import collections
import concurrent.futures
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
#: ``stacked weight-plane rows x vectors x input bits``: the
#: float32 table indices out of the GEMM and the float32 codes gathered
#: at them.  With the gather's ``intp`` indices and the block's operand
#: beside them the block's working set is ~2x this — sized to stay within a few MiB of
#: last-level-private cache (re-measured on the resnet8 conv shapes:
#: 2-8 MiB is a plateau within run-to-run noise, 0.5 MiB is ~10% slower).
_BLOCK_BYTES = 4 << 20

#: Table indices a call gathers — vectors x stacked weight-plane
#: rows x input bits, over every row block — from which its back
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


def _sections(weight_bits: int, digits: int) -> int:
    """Sections of a ``weight_bits``-wide code read ``digits`` weight bits
    per plane entry: plane-matrix rows per logical column, and table
    sections."""
    return -(-weight_bits // digits)


def _table_size(rows: int, weight_bits: int, digits: int) -> int:
    """Entries of a ``rows``-row block's digit table: ``R**digits`` per
    full section and ``R**k`` for a top section of ``k`` weight bits, at
    ``R = rows + 1`` — one past its largest index, the largest partial
    sum of the block's float32 count GEMM."""
    radix, full = rows + 1, _sections(weight_bits, digits) - 1
    return full * radix**digits + radix ** (weight_bits - full * digits)


def _digits(rows: int, weight_bits: int) -> int:
    """Weight bits one plane entry of a ``rows``-row block carries: up to
    three while every index of its table is below 2**24, else two —
    which :meth:`TiledBitSerialKernel.supported` guarantees fits."""
    digits = min(weight_bits, 3)
    return digits if _table_size(rows, weight_bits, digits) <= 1 << 24 else 2


def _block_vectors(stacked_rows: int, input_bits: int) -> int:
    """Input vectors per block of a row block whose tiles stack
    ``stacked_rows`` weight-plane rows, at ``input_bits`` GEMM columns
    per vector: as many as keep the block's indices and codes within
    :data:`_BLOCK_BYTES`."""
    return max(1, _BLOCK_BYTES // (stacked_rows * input_bits * 8))


def _vector_blocks(v0: int, v1: int, width: int) -> List[Tuple[int, int]]:
    """Vectors ``v0`` to ``v1`` cut into ``ceil((v1 - v0) / width)``
    contiguous blocks of equal size, to within one vector: never a last
    block of a few vectors after full ones."""
    n = v1 - v0
    blocks = -(-n // width)
    edges = [v0 + n * i // blocks for i in range(blocks + 1)]
    return list(zip(edges, edges[1:]))


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


#: Each native signed integer type's unsigned twin.
_UNSIGNED = {np.dtype(f"i{size}"): np.dtype(f"u{size}") for size in (1, 2, 4, 8)}


@functools.lru_cache(maxsize=16)
def _bit_values(input_bits: int) -> Tuple[np.ndarray, ...]:
    """The operand entries of every value of each byte of an
    ``input_bits``-wide code: per byte one read-only float32 ``(2**bits,
    bits)`` array whose row ``b`` holds the 0/1 bits of ``b``, lowest
    first.  Shared per width."""
    chunks = []
    for low in range(0, input_bits, 8):
        bits = min(8, input_bits - low)
        values = (np.arange(1 << bits)[:, None] >> np.arange(bits)) & 1
        values = values.astype(np.float32)
        values.flags.writeable = False
        chunks.append(values)
    return tuple(chunks)


def _code_bytes(
    unsigned: np.ndarray, input_bits: int
) -> Tuple[List[np.ndarray], np.ndarray]:
    """The bytes of unsigned ``input_bits``-wide codes ``(..., rows, n)``,
    lowest first, each ``uint8`` of the codes' shape, and the codes'
    per-row ON-bit totals ``(..., rows)`` — exact integers whichever way
    they are counted."""
    chunks, row_ones = [], 0
    for low in range(0, input_bits, 8):
        # Integer casts wrap: the low byte of the shifted code.
        byte = (unsigned >> low if low else unsigned).astype(np.uint8)
        row_ones = row_ones + _byte_ones(byte).sum(axis=-1, dtype=np.float64)
        chunks.append(byte)
    return chunks, row_ones


def _bit_operand(
    code_bytes: Sequence[np.ndarray],
    bit_values: Sequence[np.ndarray],
    r0: int,
    r1: int,
    v0: int,
    v1: int,
) -> np.ndarray:
    """The count GEMM's right operand for rows ``r0`` to ``r1`` and
    vectors ``v0`` to ``v1`` of the codes whose bytes are ``code_bytes``
    (:func:`_code_bytes`): float32 ``(..., r1 - r0 + 1, (v1 - v0) *
    input_bits)``, input bit innermost, its 0/1 bits then a row of ones
    — they pick up the table's section offsets in the weight planes'
    last column.

    Codes of at most 8 bits are one gather from their :func:`_bit_values`
    that writes the whole C-contiguous operand: its index is the block's
    bytes closed by a row of the all-ones code, whose entry is every
    input bit 1.  Wider codes gather byte by byte into strided slices of
    the operand, then write the ones row.
    """
    lead = code_bytes[0].shape[:-2]
    width = sum(values.shape[1] for values in bit_values)
    shape = lead + (r1 - r0 + 1, (v1 - v0) * width)
    # In range by construction, so "clip" never clips; it selects
    # numpy's unchecked, unbuffered gather loop.
    if len(bit_values) == 1:
        (byte,), (values,) = code_bytes, bit_values
        index = np.empty(lead + (r1 - r0 + 1, v1 - v0), dtype=np.uint8)
        index[..., :-1, :] = byte[..., r0:r1, v0:v1]
        index[..., -1, :] = len(values) - 1
        return np.take(values, index, axis=0, mode="clip").reshape(shape)
    operand = np.empty(lead + (r1 - r0 + 1, v1 - v0, width), dtype=np.float32)
    for k, (byte, values) in enumerate(zip(code_bytes, bit_values)):
        np.take(
            values,
            byte[..., r0:r1, v0:v1],
            axis=0,
            mode="clip",
            out=operand[..., :-1, :, 8 * k : 8 * k + values.shape[1]],
        )
    operand[..., -1, :, :] = 1.0
    return operand.reshape(shape)


def _weight_bit_planes(codes: np.ndarray, weight_bits: int) -> np.ndarray:
    """0/1 bit planes ``(G, weight_bits, columns, rows)`` of ``G`` groups'
    ``(G, rows, columns)`` blocks of weight codes, two's-complement
    reinterpreted over ``weight_bits`` exactly like the macro's own
    planes, in the narrowest unsigned type that holds a code.

    Integer casts wrap, so the word's low ``weight_bits`` bits *are* the
    two's-complement code and no mask is needed before the shifts.
    """
    word = np.min_scalar_type((1 << weight_bits) - 1)
    # Narrowed in memory order, then transposed: two passes, faster
    # than one cast through the transposed view.
    unsigned = np.ascontiguousarray(codes.astype(word).swapaxes(-1, -2))[:, None]
    planes = unsigned >> np.arange(weight_bits, dtype=word)[:, None, None]
    planes &= 1
    return planes


def _pair_table(config: MacroConfig, rows: int) -> Tuple[np.ndarray, float]:
    """The digit table of a ``rows``-row block, and the ADC step its
    codes are scaled by: one shared read-only array per distinct (rows,
    circuit, weight encoding), built at program time."""
    bitline = config.bitline  # noise-free, so observe() reads these two
    return _shared_pair_table(
        rows,
        config.adc,
        bitline.max_rows,
        bitline.saturation,
        config.weight_bits,
        config.signed_weights,
        _accumulator_dtype(config),
    )


#: Bytes of digit tables the shared cache keeps: a few of the 17.2 MB
#: tables of a 128-row block at 8-bit weights, every smaller one beside.
_TABLE_CACHE_BYTES = 64 << 20


class _TableCache:
    """A least-recently-used cache of digit tables bounded by their bytes,
    not their count: an entry past the bound evicts the oldest until the
    rest fit, and a table larger than the bound is built, never kept.
    The cache only shares — kernels hold their tables, so an evicted
    entry costs a later program a rebuild, never a wrong table."""

    def __init__(self, build, max_bytes: int):
        self._build = build
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._tables: collections.OrderedDict = collections.OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, *key):
        with self._lock:
            if key in self._tables:
                self._tables.move_to_end(key)
                return self._tables[key]
        built = self._build(*key)
        size = built[0].nbytes
        with self._lock:
            if key not in self._tables and size <= self.max_bytes:
                self._tables[key] = built
                self.nbytes += size
                while self.nbytes > self.max_bytes:
                    _, (table, _) = self._tables.popitem(last=False)
                    self.nbytes -= table.nbytes
            # A table another thread built meanwhile wins: one array per key.
            return self._tables.get(key, built)

    def cache_clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.nbytes = 0


def _build_pair_table(
    rows, adc, max_rows, saturation, weight_bits, signed_weights, dtype
):
    """``table[q * R**d + sum_j c_j * R**j] = sum_j w[d*q + j] * code(c_j)``
    over every digit ``c_j`` in ``[0, rows]`` of section ``q``'s weight
    bits, ``R = rows + 1`` and ``d`` the block's :func:`_digits`, where
    ``w`` are the weight plane weights (:func:`plane_weights`): a signed
    code's MSB weighs ``-2**(wb - 1)``.  A top section of ``k < d`` bits
    holds ``R**k`` entries.

    ``code`` is the bit-line observation + ADC conversion of an integer
    count with the exact reference arithmetic.  Every entry is an
    integer below :func:`_code_sum_bound`, summed in float64 and exact
    in the table's ``dtype``.
    """
    domain = np.arange(rows + 1, dtype=np.float64)
    bitline = BitlineModel(max_rows=max_rows, saturation=saturation)
    codes, step = adc.convert(bitline.observe(domain, None), float(rows))
    digits = _digits(rows, weight_bits)
    weights = plane_weights(weight_bits, signed_weights)
    table = np.empty(_table_size(rows, weight_bits, digits), dtype=dtype)
    start = 0
    for low in range(0, weight_bits, digits):
        # Digit j is axis -1 - j: C order puts c_0 innermost.
        entries = 0.0
        for weight in weights[low : low + digits]:
            entries = np.add.outer(weight * codes, entries)
        table[start : start + entries.size] = entries.reshape(-1)
        start += entries.size
    table.flags.writeable = False
    return table, step


#: One shared table per distinct (rows, circuit, weight encoding).
_shared_pair_table = _TableCache(_build_pair_table, _TABLE_CACHE_BYTES)


class _TileGroup:
    """Tiles sharing one row block, executed through one fused GEMM.

    Column tiles of the same rows consume the same operand, so their
    float32 weight-plane matrices are stacked into one operand: one GEMM
    and one table gather cover the whole block (:meth:`shift_add`), and
    each tile's slice of the result is a contiguous view; ``columns``
    holds each tile's ``(col_start, col_stop)``.  The per-group arrays,
    ``planes32`` and ``row_weights``, lead with the group axis;
    ``input_weights`` — the input-bit fold's plane weights — is one
    ``(input_bits,)`` vector when every group shares a signedness, else
    one row per group.  ``radix`` and ``digits`` are the block's own
    ``R = rows + 1`` and weight bits per plane entry (:func:`_digits`).

    Everything here is derived from ``codes`` — the row block's ``(G,
    rows, columns)`` slice of the groups' integer weight codes, the one
    programmed state — in one vectorised pass over every group, whether
    the engines were just compiled or restored from an artifact.
    """

    def __init__(
        self,
        row_start: int,
        row_stop: int,
        columns: List[Tuple[int, int]],
        codes: np.ndarray,
        config: MacroConfig,
        input_weights: np.ndarray,
    ):
        self.row_start = row_start
        self.row_stop = row_stop
        self.columns = columns
        groups, rows = codes.shape[0], row_stop - row_start
        wb = config.weight_bits
        radix, digits = rows + 1, _digits(rows, wb)
        self.radix, self.digits = radix, digits
        sections = _sections(wb, digits)
        widths = [sections * (c1 - c0) for c0, c1 in columns]
        self.offsets = np.cumsum([0] + widths).tolist()
        # Stacked planes: tile after tile, each ``(section, column)``
        # major over the block's rows — ``sum_j b[d*q + j] * R**j`` (a
        # short top section has no higher digits) — then a last column
        # with the section's table offset, which the operand's ones row
        # carries through the GEMM.
        bits = _weight_bit_planes(codes, wb)
        offsets = np.arange(sections, dtype=np.float32)[:, None] * radix**digits
        self.planes32 = np.empty((groups, self.offsets[-1], rows + 1), dtype=np.float32)
        for (c0, c1), k0, k1 in zip(columns, self.offsets, self.offsets[1:]):
            tile = self.planes32[:, k0:k1].reshape(groups, sections, c1 - c0, rows + 1)
            tile[..., :rows] = bits[:, 0::digits, c0:c1]
            for j in range(1, digits):
                digit = bits[:, j::digits, c0:c1]
                tile[:, : digit.shape[1], :, :rows] += digit * np.float32(radix**j)
            tile[..., rows] = offsets
        # Each tile's programmed ON cells per row, then a row of ones:
        # one product with a group's per-row input ON bits gives every
        # tile's ON-cell total and the block's activated rows — exact
        # integers whichever order they are summed in, so they equal the
        # float64 reductions of the reference bitwise.
        stored_bits = bits.sum(axis=1, dtype=bits.dtype)  # at most wb each
        self.row_weights = np.ones((groups, len(columns) + 1, rows))
        np.add.reduceat(
            stored_bits,
            [c0 for c0, _ in columns],
            axis=1,
            dtype=np.float64,
            out=self.row_weights[:, :-1],
        )
        self.pair_table, self.step = _pair_table(config, rows)
        self.section_ones = np.ones(sections, dtype=self.pair_table.dtype)
        self.input_weights = input_weights

    def shift_add(self, indices: np.ndarray, out: np.ndarray) -> None:
        """Digitize digit-table ``indices`` ``(G, stacked rows, vectors *
        input bits)`` (exact integers in any numeric dtype, any memory
        order) and add the row block's partial sums into float64 ``out``
        ``(G, columns, vectors)``.

        One gather of weighted code sums; then per tile the sections
        fold first — one product over the long contiguous axis — and the
        input bits of the sections-times smaller result after it,
        with the input plane weights — one product for the whole stack
        when its groups share a signedness, one per group otherwise:
        integer arithmetic throughout, exact in the table's dtype
        whichever way it is ordered, then one rounding per element —
        ``partial * step``, the oracle's.
        """
        # Indices are in range by construction, so "clip" never clips;
        # it selects numpy's unchecked, unbuffered gather loop.
        codes = np.take(
            self.pair_table, indices.astype(np.intp, order="C"), mode="clip"
        )
        groups, sections = codes.shape[0], self.section_ones.size
        weights = self.input_weights
        input_bits = weights.shape[-1]
        for (c0, c1), k0, k1 in zip(self.columns, self.offsets, self.offsets[1:]):
            planes = codes[:, k0:k1].reshape(groups, sections, -1)
            partial = np.matmul(self.section_ones, planes)
            if weights.ndim == 1:
                partial = np.matmul(partial.reshape(-1, input_bits), weights)
            else:
                partial = np.matmul(
                    partial.reshape(groups, -1, input_bits), weights[..., None]
                )
            out[:, c0:c1] += np.multiply(
                partial.reshape(groups, c1 - c0, -1),
                self.step,
                dtype=np.float64,
            )


@register_backend
class TiledBitSerialKernel(KernelBackend):
    """The bit-serial pass over every tile of ``G`` same-geometry
    :class:`CimTiledMatmul` engines at once, group ``g`` the ``g``-th.

    ``TiledBitSerialKernel(engine)`` is the pass of one group; a grouped
    layer's kernel is the same constructor over its groups' engines,
    built from their codes in one vectorised pass per row block
    (:class:`_TileGroup`).  Either way :meth:`matmul` runs one body over
    ``(G, rows, n)`` codes and mirrors :meth:`CimTiledMatmul.matmul` for
    every group exactly — per-tile partial sums accumulate in tile
    order, stats follow :meth:`_pass_stats` — while fusing the operand's
    expansion into input bits, the count GEMM, table gather and
    shift-and-add (once per row block and block of vectors) across
    tiles and groups — every step exact per element, so the pass over
    ``G`` engines is bitwise each group's pass, stats chained in index
    order.  ``engine`` is the first group's: the geometry and circuit
    every group shares, input signedness aside, which is per group.
    """

    backend_name = "reference-fast"

    def __init__(self, *engines: CimTiledMatmul):
        engine = self.engine = engines[0]
        if not self.supported(engine.config):
            raise ValueError(
                "fast bit-serial kernel requires a noise-free bit line, "
                "shift-and-add sums below 2**53 and table indices "
                "below 2**24; "
                "use the reference CimTiledMatmul.matmul path instead"
            )
        # Unsigned and signed inputs' configs: every group runs one of
        # the two, which differ in input signedness alone.
        circuit = [replace(engine.config, signed_inputs=s) for s in (False, True)]
        for other in engines:
            config = other.config
            if other.shape != engine.shape or config != circuit[config.signed_inputs]:
                raise ValueError("a stacked pass needs one geometry and one circuit")
        blocks: dict = {}
        for r0, r1, c0, c1 in engine.tile_bounds():
            blocks.setdefault((r0, r1), []).append((c0, c1))
        # One group's codes need no copy.
        if len(engines) == 1:
            codes = engine.weights[None]
        else:
            codes = np.stack([e.weights for e in engines])
        # Signedness is per group, and all it selects is the input
        # plane weights of the input-bit fold and the codes accepted.
        ib = engine.config.input_bits
        sign = np.array([e.config.signed_inputs for e in engines], dtype=np.intp)
        weights = np.array(
            [plane_weights(ib, signed) for signed in (False, True)],
            dtype=_accumulator_dtype(engine.config),
        )
        input_weights = weights[sign[0]] if (sign == sign[0]).all() else weights[sign]
        self._groups = [
            _TileGroup(r0, r1, cols, codes[:, r0:r1], engine.config, input_weights)
            for (r0, r1), cols in blocks.items()
        ]
        self._bit_values = _bit_values(ib)
        #: The narrowest signed integer type holding an input code.
        self._code_width = np.min_scalar_type(-(1 << (ib - 1)))
        #: Per-group input ranges ``(G, 2)``, one ``(low, high)`` per group.
        self._ranges = np.array([c.input_range() for c in circuit])[sign]
        #: The range every group accepts.
        self._accepted = (self._ranges[:, 0].max(), self._ranges[:, 1].min())
        self._vector_indices = self._count_vector_indices()

    def _count_vector_indices(self) -> int:
        """Table indices one input vector costs the pass: every
        group's stacked rows times the input bits, over the row blocks —
        the measure :data:`_SPLIT_INDICES` is set in."""
        ib = self.engine.config.input_bits
        return sum(
            group.planes32.shape[0] * group.planes32.shape[1] * ib
            for group in self._groups
        )

    @staticmethod
    def supported(config: MacroConfig) -> bool:
        """True when the fast path is bit-exact for this configuration:
        a noise-free bit line, a shift-and-add whose every partial sum
        is an integer float64 holds exactly, and a two-digit table — ``Q
        = ceil(weight_bits / 2)`` sections of at most ``(rows + 1)**2`` —
        whose every index, and so every partial sum of the float32 count
        GEMM, is below 2**24: the layout every row block can fall back to
        (:func:`_digits`)."""
        return (
            config.bitline is not None
            and config.bitline.noise_sigma_counts == 0
            and _code_sum_bound(config) < 1 << 53
            and _sections(config.weight_bits, 2) * (config.rows + 1) ** 2 <= 1 << 24
        )

    def matmul(self, x: np.ndarray) -> Tuple[np.ndarray, MacroStats]:
        """Integer codes ``(rows,)`` or ``(rows, n)`` — ``(G, rows, n)``
        for a stack — to float64 ``(cols,)``, ``(cols, n)`` or ``(G,
        cols, n)``, and the pass's :class:`MacroStats`."""
        x = np.asarray(x)
        # Every buffer below is allocated per call: programmed kernels
        # are shared across threads.  The unsigned codes die with the
        # split into bytes, before the block loop's peak.
        expanded, row_ones = self._expand(self._serial_codes(x))
        groups, n = row_ones.shape[0], x.shape[-1] if x.ndim > 1 else 1
        out = np.zeros((groups, self.engine.shape[1], n))
        if n * self._vector_indices >= _SPLIT_INDICES and min(_WORKERS, n) > 1:
            self._split(expanded, out, min(_WORKERS, n))
        else:
            self._back_half(expanded, out, 0, n)
        if x.ndim < 3:
            out = out[0, :, 0] if x.ndim == 1 else out[0]
        return out, self._pass_stats(row_ones, n)

    def _back_half(self, expanded, out: np.ndarray, v0: int, v1: int) -> None:
        """Operand -> count GEMM -> table gather -> shift-and-add for
        ``expanded`` (what :meth:`_expand` returned) and vectors ``v0``
        to ``v1``, into ``out[..., v0:v1]``: the row blocks in ascending
        order, each in equal cache-sized blocks of vectors (the budget
        covers the stacked planes of every group)."""
        groups, ib = out.shape[0], self.engine.config.input_bits
        for b, group in enumerate(self._groups):
            width = _block_vectors(groups * group.planes32.shape[1], ib)
            for w0, w1 in _vector_blocks(v0, v1, width):
                group.shift_add(self._contract(expanded, b, w0, w1), out[:, :, w0:w1])

    def _split(self, expanded, out: np.ndarray, chunks: int) -> None:
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
            pool.submit(self._back_half, expanded, out, *chunk) for chunk in rest
        ]
        try:
            self._back_half(expanded, out, *first)
            for future, chunk in zip(futures, rest):
                if future.cancel():
                    self._back_half(expanded, out, *chunk)
        finally:
            # Whatever raised: once this returns, no chunk still writes.
            started = [future for future in futures if not future.cancel()]
            concurrent.futures.wait(started)
        for future in started:
            future.result()  # a pool thread's error, raised here

    def _serial_codes(self, x: np.ndarray) -> np.ndarray:
        """Validate one integer-code batch: ``(G, rows, n)`` two's-
        complement reinterpretations of the codes as unsigned
        ``input_bits``-wide integers, in the unsigned type of the codes'
        own width — int16 codes of 8-bit activations stay two bytes a
        code — or, for unsigned or too narrow codes, of the narrowest
        signed type that holds them and ``input_bits``.  The range check
        runs on the codes as given."""
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
            low, high = self._ranges.T
            bad = (codes.min(axis=(1, 2)) < low) | (codes.max(axis=(1, 2)) > high)
            if bad.any():
                g = int(np.argmax(bad))
                raise ValueError(
                    f"input codes outside [{low[g]}, {high[g]}] for "
                    f"{self.engine.config.input_bits}-bit serial input"
                )
        # Mask in the codes' own width, through its unsigned twin:
        # integers wrap, so the low bits are the two's-complement code.
        # Unsigned codes, or codes narrower than input_bits, first widen
        # to a signed type that holds them; non-integers read as int64.
        unsigned = _UNSIGNED.get(codes.dtype)
        if unsigned is None or codes.itemsize < self._code_width.itemsize:
            width = np.result_type(codes.dtype, self._code_width)
            codes = codes.astype(width if width in _UNSIGNED else np.int64)
            unsigned = _UNSIGNED[codes.dtype]
        return codes.view(unsigned) & ((1 << self.engine.config.input_bits) - 1)

    def _expand(self, codes: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """What the count contraction reads of unsigned codes ``(G, rows,
        n)`` — their bytes — and the codes' per-row ON-bit totals ``(G,
        rows)``."""
        return _code_bytes(codes, self.engine.config.input_bits)

    def _contract(
        self, code_bytes: List[np.ndarray], b: int, v0: int, v1: int
    ) -> np.ndarray:
        """Digit-table indices ``(G, stacked rows, vectors * input bits)``
        of row block ``b`` for vectors ``v0`` to ``v1``: the block's
        operand, built in place, then one batched float32 GEMM for every
        column tile of the block and every group, its result C-contiguous
        ``(g, q, c, n, j)``."""
        group = self._groups[b]
        operand = _bit_operand(
            code_bytes, self._bit_values, group.row_start, group.row_stop, v0, v1
        )
        return np.matmul(group.planes32, operand)

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
            rows = group.row_stop - group.row_start
            for (c0, c1), counts_total in zip(group.columns, counts):
                stats = macro_pass_stats(
                    config, rows, c1 - c0, n, activated, counts_total
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
