"""The ``popcount`` backend: bit-plane GEMM over packed uint64 words.

The reference-fast kernel computes the ON-cell count tensor as a
float32 GEMM between 0/1 plane matrices.  Those planes are one *bit*
of information per float32 lane; this backend packs them 64-per-word
(its own program-time layout, derived like the float32 planes from the
engine's weight codes and persisted nowhere) and replaces the GEMM with
``popcount(w & x)`` accumulated over words.

For serving-sized batches the count contraction is skinny — a matrix ×
few-vectors product — where BLAS has nothing to block over and the
packed form touches 1/32nd the memory.  For wide batches BLAS's cache
blocking wins instead, and the word loop's broadcast temporaries lose
badly.  No engine selects this backend; it is registered for the
performance ledger's per-kernel rows.

Bitwise identity holds by construction: ON-cell counts are exact small
integers whichever way they are contracted; the per-bit counts are
paired into the base class's pair-table indices (``c0 + R * c1`` plus
the pair's section offset — what its float32 GEMM emits directly), and
everything after them is the base class's :meth:`_TileGroup.shift_add`
— the same pair table indexed by the same integers, the same exact
shift-and-add.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cim.macro import MacroConfig, MacroStats
from repro.runtime.backends.base import register_backend
from repro.runtime.backends.reference_fast import (
    TiledBitSerialKernel,
    _serial_codes,
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


class _GroupStatsPlan:
    """Per-row-block constants for the inlined stats accumulation.

    :func:`repro.cim.macro.macro_pass_stats` is closed-form in the
    batch size, so everything except the batch factor is precomputed at
    program time; the per-call accumulation then reproduces the
    reference's per-tile values and addition order with plain scalar
    arithmetic — the same operations, minus a dataclass construction
    per tile.  Integer fields are exact in any order; float fields keep
    the tile-sequential order.
    """

    def __init__(self, group, config):
        wb = config.weight_bits
        ib = config.input_bits
        rows = group.row_stop - group.row_start
        self.t_count = len(group.tiles)
        cycles_pn = []
        conv_pn = []
        macs_pn = 0
        for tile in group.tiles:
            cols = tile.macro.cols_used
            phys = cols * wb
            rounds = -(-phys // config.n_adcs)
            cycles_pn.append(ib * rounds)
            conv_pn.append(ib * phys)
            macs_pn += rows * cols
        self.cycles_pn = np.array(cycles_pn, dtype=np.int64)
        self.conv_pn = np.array(conv_pn, dtype=np.int64)
        self.cycles_pn_sum = int(self.cycles_pn.sum())
        self.conv_pn_sum = int(self.conv_pn.sum())
        self.macs_pn = macs_pn
        self.max_cycles_pn = int(self.cycles_pn.max())
        # (tiles, rows) matrix of per-row programmed ON-bit counts: one
        # matvec yields every tile's exact counts_total at once.
        self.prs_mat = np.stack(group.plane_row_sums)


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

    Only the count contraction differs from the base class: weight
    planes are packed once at program time (:meth:`_post_init`), input
    planes are packed per call, and the count matrix is accumulated as
    ``popcount(w & x)`` per 64-row word — exact integers, one per input
    bit — then paired into the indices the float32 GEMM emits and handed
    to the shared :meth:`_TileGroup.shift_add`.
    """

    backend_name = "popcount"

    def _post_init(self) -> None:
        config = self.engine.config
        #: Each pair's table-section offset as a gather-index column.
        self._sections = self._bias.astype(np.intp)[:, None]
        self._packed_planes: List[np.ndarray] = []
        self._stats_plans: List[_GroupStatsPlan] = []
        for group in self._groups:
            rows = group.row_stop - group.row_start
            # The 0/1 planes, less the ones column the float32 GEMM
            # carries its bias row with.
            bits = group.planes32[:, :rows].astype(np.uint8).T  # (rows, wb*cols)
            # (W, wb*cols): one contiguous row of plane words per
            # 64-row word, so the count ufuncs' inner loop runs over
            # the long stacked axis even for a one-vector call.
            self._packed_planes.append(
                np.ascontiguousarray(_pack_rows_words(bits, rows).T)
            )
            self._stats_plans.append(_GroupStatsPlan(group, config))

    @staticmethod
    def supported(config: MacroConfig) -> bool:
        return _HAS_BITWISE_COUNT and TiledBitSerialKernel.supported(config)

    def matmul(self, x: np.ndarray) -> Tuple[np.ndarray, MacroStats]:
        engine = self.engine
        config = engine.config
        unsigned, squeeze = _serial_codes(engine, x)
        ib = config.input_bits
        rows_total, n = unsigned.shape

        # Input bit planes as 0/1 bytes, (vector, j) column order.
        flat = _serial_planes(unsigned, ib).reshape(rows_total, n * ib)
        # Per-row ON-bit totals: exact integers in any summation order,
        # so the popcount over codes equals the reference's float64
        # plane reduction bitwise.
        ones_per_code = np.bitwise_count(unsigned)

        out = np.zeros((engine.shape[1], n))
        # Inlined stats accumulators mirroring _StatsAccumulator field
        # by field; the per-tile values and float addition order are the
        # reference's (see _GroupStatsPlan).
        wl_fj = config.wl_energy_fj
        read_fj = config.cell.read_energy_fj
        adc_fj = config.adc.energy_fj
        per_fj = config.peripheral_energy_fj_per_cycle
        cycle_ns = config.cycle_time_ns
        cycles_t = conv_t = ra_t = macs_t = 0
        wl_t = bl_t = adc_t = per_t = lat_t = 0.0
        for group, planes, plan in zip(
            self._groups, self._packed_planes, self._stats_plans
        ):
            rows_used = group.row_stop - group.row_start
            xp = _pack_rows_words(
                flat[group.row_start : group.row_stop], rows_used
            )  # (n*ib, W)
            # popcount(w & x) per word: exact ON-cell counts, held as
            # (n*ib, wb*cols).
            counts = np.bitwise_count(xp[:, 0, None] & planes[0])
            if rows_used > 255:
                counts = counts.astype(np.int64)
            for w in range(1, planes.shape[0]):
                counts += np.bitwise_count(xp[:, w, None] & planes[w])
            # Pair the per-bit counts into pair-table indices (n, pairs,
            # wb*cols): c0 + R * c1 (an odd width's top pair has no c1)
            # at the pair's section — the float32 GEMM's result
            # transposed; shift_add's index conversion restores its C
            # order.
            counts = counts.reshape(n, ib, -1)
            indices = counts[:, 0::2] + self._sections
            indices[:, : ib // 2] += self._radix * counts[:, 1::2].astype(np.intp)
            group.shift_add(indices.reshape(n * len(self._sections), -1).T, out)
            row_sums = ones_per_code[group.row_start : group.row_stop].sum(
                axis=1, dtype=np.float64
            )
            row_activations = int(row_sums.sum())
            # Stats accumulate in the reference's group-then-tile order;
            # integer fields are exact sums, float fields add the exact
            # per-tile reference values tile-sequentially.
            counts_totals = plan.prs_mat @ row_sums  # exact integers
            cycles_t += n * plan.cycles_pn_sum
            conv_t += n * plan.conv_pn_sum
            macs_t += n * plan.macs_pn
            ra_t += plan.t_count * row_activations
            wl_tile = row_activations * wl_fj
            bl_tiles = (counts_totals * read_fj).tolist()
            adc_tiles = ((plan.conv_pn * n) * adc_fj).tolist()
            per_tiles = ((plan.cycles_pn * n) * per_fj).tolist()
            for index in range(plan.t_count):
                wl_t += wl_tile
                bl_t += bl_tiles[index]
                adc_t += adc_tiles[index]
                per_t += per_tiles[index]
            lat_t = max(lat_t, (plan.max_cycles_pn * n) * cycle_ns)

        total = MacroStats(
            cycles=cycles_t,
            adc_conversions=conv_t,
            row_activations=ra_t,
            macs=macs_t,
            wl_energy_fj=wl_t,
            bitline_energy_fj=bl_t,
            adc_energy_fj=adc_t,
            peripheral_energy_fj=per_t,
            latency_ns=lat_t,
        )
        return (out[:, 0] if squeeze else out), total
