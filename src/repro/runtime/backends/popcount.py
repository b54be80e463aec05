"""The ``popcount`` backend: bit-plane GEMM over packed uint64 words.

The reference-fast kernel computes the ON-cell count tensor as a
float32 GEMM between 0/1 plane matrices.  Those planes are one *bit*
of information per float32 lane; this backend packs them 64-per-word
(the same ``np.packbits`` layout the snapshot serializer stores) and
replaces the GEMM with ``popcount(w & x)`` accumulated over words.

For serving-sized batches the count contraction is skinny — a matrix ×
few-vectors product — where BLAS has nothing to block over and the
packed form touches 1/32nd the memory; there the popcount contraction
wins outright.  For wide batches BLAS's cache blocking wins instead,
and the word loop's broadcast temporaries lose badly.  Neither regime
is guessed at: the autotuner *measures* both per engine at program
time and keeps the faster one, so this backend only ever runs where it
was benchmarked faster.

Bitwise identity holds by construction: ON-cell counts are exact small
integers whichever way they are contracted, the ADC gather indexes the
same LUT with the same integers, and the recombination reuses the
veto-proven einsum machinery of the base class unchanged — so every
float that can round is produced by the exact same operation sequence
as the reference-fast kernel.  The autotuner still *verifies* (output
and stats, bit for bit) before this backend can win; the argument
above is why the veto never fires, not a substitute for it.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.cim.macro import MacroConfig, MacroStats
from repro.runtime.backends.base import register_backend
from repro.runtime.backends.reference_fast import (
    TiledBitSerialKernel,
    _recombine_einsum,
    _serial_codes,
    _serial_planes,
    _tile_operand,
)

#: ``np.bitwise_count`` landed in numpy 2.0; without it this backend
#: simply never registers as supported (no candidate, never an error).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")


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
    ``popcount(w & x)`` per 64-row word — exact integers, identical to
    the float32 GEMM's.  Gather, recombination and stats run through
    the inherited, veto-proven machinery.
    """

    backend_name = "popcount"

    def _post_init(self) -> None:
        config = self.engine.config
        self._packed_planes: List[np.ndarray] = []
        self._stats_plans: List[_GroupStatsPlan] = []
        for group in self._groups:
            rows = group.row_stop - group.row_start
            bits = group.planes32.astype(np.uint8).T  # (rows, wb*cols)
            # (W, wb*cols): one contiguous row of plane words per
            # 64-row word, so the count ufuncs' inner loop runs over
            # the long stacked axis even for a one-vector call.
            self._packed_planes.append(
                np.ascontiguousarray(_pack_rows_words(bits, rows).T)
            )
            self._stats_plans.append(_GroupStatsPlan(group, config))
        # Cross-group einsum fusion applies when every row block carries
        # the same uniform column tiling (the row-major tile grid's
        # normal shape): the groups' quantized matrices stack into one
        # wide operand and a single recombination covers the whole call.
        groups = self._groups
        tiles0 = groups[0].tiles
        cols = tiles0[0].macro.cols_used
        self._uniform_cols = cols
        self._uniform = len(groups) > 1 and all(
            len(g.tiles) == len(tiles0)
            and all(
                t.macro.cols_used == cols and t.col_start == i * cols
                for i, t in enumerate(g.tiles)
            )
            for g in groups
        )
        self._fuse_all_cache: dict = {}

    @staticmethod
    def supported(config: MacroConfig) -> bool:
        return _HAS_BITWISE_COUNT and TiledBitSerialKernel.supported(config)

    def matmul(self, x: np.ndarray) -> Tuple[np.ndarray, MacroStats]:
        engine = self.engine
        config = engine.config
        unsigned, in_weights, squeeze = _serial_codes(engine, x)
        ib = config.input_bits
        wb = config.weight_bits
        rows_total, n = unsigned.shape

        # Input bit planes as 0/1 bytes in the shared (vector, j) column
        # order — the packed words then contract to the count matrix in
        # the same C-contiguous (k·c, n·j) layout the float32 GEMM emits.
        flat = _serial_planes(unsigned, ib, np.uint8).reshape(rows_total, n * ib)
        # Per-row ON-bit totals: exact integers in any summation order,
        # so the popcount over codes equals the reference's float64
        # plane reduction bitwise.
        ones_per_code = np.bitwise_count(unsigned)

        out = np.zeros((engine.shape[1], n))
        quantized_groups = []
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
            # (n*ib, wb*cols) — the float32 GEMM's result transposed;
            # the gather's index conversion restores its C order.
            counts = np.bitwise_count(xp[:, 0, None] & planes[0])
            if rows_used > 255:
                counts = counts.astype(np.int64)
            for w in range(1, planes.shape[0]):
                counts += np.bitwise_count(xp[:, w, None] & planes[w])
            quantized_groups.append(group.quantize(counts.T))
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

        per_group = self._recombine_all(quantized_groups, in_weights, wb, ib, n)
        if per_group is not None:
            # One (g, columns, n) view per row block; adding the views
            # in group order is the reference accumulation sequence.
            for partial in per_group:
                out += partial
        else:
            for group, quantized in zip(self._groups, quantized_groups):
                partials = self._recombine_group(
                    group, quantized, in_weights, wb, ib, n
                )
                for index, tile in enumerate(group.tiles):
                    out[tile.col_start : tile.col_stop] += partials[index]
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

    def _recombine_all(self, quantized_groups, in_weights, wb, ib, n):
        """One recombination einsum over every tile of every row block.

        When the tile grid is uniform, the groups' quantized matrices
        stack into a single wide operand and the whole call recombines
        through **one** einsum — the per-shape capture/veto machinery of
        :func:`_recombine_einsum` applies to the wide operand unchanged.
        Like every fusion here the mode is decided structurally per
        operand shape, adopted only after a first-call bitwise veto
        against the inherited per-group chain, and any shape that fails
        stays on the per-group path forever (returns None).
        """
        if not self._uniform or n * ib > 256:
            return None
        groups = self._groups
        g_count = len(groups)
        t_count = len(groups[0].tiles)
        cols = self._uniform_cols
        key = (g_count, t_count, wb, cols, ib, n)
        mode = self._fuse_all_cache.get(key)
        if mode == "per-group":
            return None
        # Each group's (t, k, c) stacking lands in the wide tile's
        # (k, g·t, c) order in one copy.
        q_full = np.empty((wb, g_count * t_count, cols, n * ib))
        for g, quantized in enumerate(quantized_groups):
            q_full[:, g * t_count : (g + 1) * t_count] = quantized.reshape(
                t_count, wb, cols, n * ib
            ).transpose(1, 0, 2, 3)
        plane_weights = groups[0].tiles[0].macro._plane_weights
        flat = _recombine_einsum(
            self._path_cache,
            in_weights,
            plane_weights,
            _tile_operand(q_full, wb, g_count * t_count * cols, n, ib),
        )
        view = flat.reshape(g_count, t_count * cols, n)
        if mode is None:
            expected = [
                self._recombine_group(group, quantized, in_weights, wb, ib, n)
                for group, quantized in zip(groups, quantized_groups)
            ]
            tiled = flat.reshape(g_count, t_count, cols, n)
            ok = all(
                np.array_equal(tiled[g, t], expected[g][t])
                for g in range(g_count)
                for t in range(t_count)
            )
            self._fuse_all_cache[key] = "fused" if ok else "per-group"
            if not ok:
                return None
        return view
