"""The ``popcount`` backend: bit-plane GEMM over packed uint64 words.

The reference-fast kernel computes the ON-cell count tensor as a
float32 GEMM between weight-bit-digit plane matrices and 0/1 input bits.
Those planes hold two or three *bits* of information per float32 lane; this
backend packs the weight bits 64-per-word (its own program-time layout,
derived from the engine's weight codes and persisted nowhere) and
replaces the GEMM with ``popcount(w & x)`` accumulated over words.

For serving-sized batches the count contraction is skinny — a matrix ×
few-vectors product — where BLAS has nothing to block over and the
packed form touches 1/32nd the memory.  For wide batches BLAS's cache
blocking wins instead, and the word loop's broadcast temporaries lose
badly.  No engine selects this backend; it is registered for the
performance ledger's per-kernel rows.

Bitwise identity holds by construction: ON-cell counts are exact small
integers whichever way they are contracted; the per-bit counts are
combined over weight bits into the base class's digit-table indices
(``sum_j c_j * R**j`` at each row block's own radix ``R`` and digit
count, plus the section's offset — what its float32 GEMM emits
directly), and everything else is the base class's pass — the same input check, the
same digit table indexed by the same integers, the same exact
shift-and-add, the same stats.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.cim.macro import MacroConfig
from repro.runtime.backends.base import register_backend
from repro.runtime.backends.reference_fast import (
    TiledBitSerialKernel,
    _weight_bit_planes,
)

#: ``np.bitwise_count`` landed in numpy 2.0; without it this backend
#: simply never registers as supported (no candidate, never an error).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


def _serial_planes(unsigned: np.ndarray, ib: int) -> np.ndarray:
    """0/1 input bit planes ``(rows, n, ib)`` as bytes — input bit
    innermost, so the packed words contract to per-bit counts ordered
    ``(vector, input bit)``."""
    # Shift in the narrowest unsigned type that holds a code: the
    # temporaries are 1 byte per element for 8-bit activations.
    narrow = unsigned.astype(np.min_scalar_type((1 << ib) - 1), order="C")
    planes = np.empty(unsigned.shape + (ib,), dtype=np.uint8)
    for j in range(ib):
        planes[..., j] = (narrow >> j) & 1
    return planes


def _pack_rows_words(bits: np.ndarray, rows: int) -> np.ndarray:
    """Pack ``(rows, m)`` 0/1 uint8 into ``(m, W)`` uint64 row words.

    Rows beyond ``rows`` up to the word boundary are zero bits, which
    AND away — padding can never change a count.
    """
    words = (rows + 63) // 64
    packed = np.packbits(bits, axis=0, bitorder="little")  # (ceil(rows/8), m)
    if packed.shape[0] < words * 8:
        pad = np.zeros((words * 8 - packed.shape[0], bits.shape[1]), np.uint8)
        packed = np.concatenate([packed, pad])
    return np.ascontiguousarray(packed.T).view(np.uint64)  # (m, W)


@register_backend
class PopcountBitSerialKernel(TiledBitSerialKernel):
    """Packed-word popcount execution over the shared tile groups.

    Only the count contraction differs from the base class: weight bit
    planes are packed once at program time, input planes are packed per
    row block and block of vectors, and the count matrix is accumulated
    as ``popcount(w & x)`` per 64-row word — exact integers, one per
    weight bit and input bit — then combined over each section's weight
    bits into the indices the float32 GEMM emits.
    Validation, the shift-and-add and the stats are the base class's
    pass, and so is a lossless row block's GEMM of codes: it packs and
    counts nothing.  A popcount kernel is one engine's, a one-group
    pass; a grouped layer's stack contracts by the float32 GEMM.
    """

    backend_name = "popcount"

    def __init__(self, engine):
        super().__init__(engine)
        wb = engine.config.weight_bits
        #: Per row block: the packed planes ``(W, d * K)`` — every
        #: section's lowest bits in the base class's stacked ``(tile,
        #: section, column)`` order, then its next bits, up to its ``d``-th
        #: — and each stacked row's table-section offset ``(K,)``; ``None``
        #: for a lossless block, which contracts no counts.
        self._packed_planes: List[Optional[np.ndarray]] = []
        self._sections: List[Optional[np.ndarray]] = []
        for group in self._groups:
            if group.lossless:
                self._packed_planes.append(None)
                self._sections.append(None)
                continue
            r0, r1 = group.row_start, group.row_stop
            digits, sections = group.digits, group.section_ones.size
            bits = _weight_bit_planes(engine.weights[None, r0:r1], wb)[0]
            # Whole sections, (digit, section, column, row): a short top
            # section's missing digits are all-zero bits, which count 0.
            whole = np.zeros((sections * digits,) + bits.shape[1:], dtype=np.uint8)
            whole[:wb] = bits
            whole = whole.reshape((sections, digits) + bits.shape[1:]).swapaxes(0, 1)
            tiles = [whole[:, :, c0:c1] for c0, c1 in group.columns]
            stacked = np.concatenate(
                [t.reshape(digits, -1, r1 - r0) for t in tiles], axis=1
            )
            # (W, d * K): one contiguous row of plane words per 64-row
            # word, so the count ufuncs' inner loop runs over the long
            # stacked axis even for a one-vector call.
            self._packed_planes.append(
                np.ascontiguousarray(
                    _pack_rows_words(stacked.reshape(-1, r1 - r0).T, r1 - r0).T
                )
            )
            self._sections.append(
                np.concatenate(
                    [np.repeat(np.arange(sections), c1 - c0) for c0, c1 in group.columns]
                )
                * group.radix**digits
            )
        #: Rows up to the last row block that reads a table: the input
        #: bit planes a call builds (none when every block is lossless).
        self._table_rows = max(
            (group.row_stop for group in self._groups if not group.lossless),
            default=0,
        )

    @staticmethod
    def supported(config: MacroConfig) -> bool:
        return _HAS_BITWISE_COUNT and TiledBitSerialKernel.supported(config)

    def _expand(self, codes: np.ndarray) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Input bit planes as 0/1 bytes ``(table rows, n * ib)``,
        ``(vector, input bit)`` column order — ``None`` when no row block
        reads a table — and the per-row ON-bit totals ``(1, rows)``, exact
        integers in any summation order."""
        (unsigned,) = codes
        rows = self._table_rows
        flat = None
        if rows:
            ib = self.engine.config.input_bits
            flat = _serial_planes(unsigned[:rows], ib).reshape(rows, -1)
        return flat, np.bitwise_count(codes).sum(axis=-1, dtype=np.float64)

    def _contract(self, operand, b: int, v0: int, v1: int) -> np.ndarray:
        """The base class's digit-table indices, from packed words."""
        flat = operand[0]
        group, planes = self._groups[b], self._packed_planes[b]
        ib = self.engine.config.input_bits
        rows_used = group.row_stop - group.row_start
        xp = _pack_rows_words(
            flat[group.row_start : group.row_stop, v0 * ib : v1 * ib], rows_used
        )  # (vectors*ib, W)
        # popcount(w & x) per word: exact ON-cell counts, held as
        # (vectors*ib, d * K).
        counts = np.bitwise_count(xp[:, 0, None] & planes[0])
        if rows_used > 255:
            counts = counts.astype(np.int64)
        for w in range(1, planes.shape[0]):
            counts += np.bitwise_count(xp[:, w, None] & planes[w])
        # Combine the per-bit counts over each section's weight bits into
        # table indices (vectors*ib, K): sum_j c_j * R**j at the section's
        # offset — the float32 GEMM's result transposed; shift_add's index
        # conversion restores its C order.
        digits = counts.astype(np.intp).reshape(counts.shape[0], group.digits, -1)
        indices = digits[:, 0] + self._sections[b]
        for j in range(1, group.digits):
            indices += group.radix**j * digits[:, j]
        return indices.T[None]
