"""Tests for the compile-once deployment runtime.

The load-bearing guarantees:

* the compiled path (a one-layer model included) is **bitwise
  identical** to the seed per-call reference path at a fixed RNG seed,
  for outputs and stats;
* the engine cache shares programmed macros across calls and compiles
  (hit/miss/eviction semantics, capacity-0 per-call mode);
* compiling a model programs each layer's macros exactly once, and
  compiling again reuses the programmed engines.
"""

import collections
import concurrent.futures
import contextlib
import functools
import os
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro import models, nn
from repro.cim import (
    AdcSpec,
    BitlineModel,
    CimMacro,
    CimTiledMatmul,
    MacroConfig,
    MacroStats,
    PulseWidthEncoding,
    ROM_1T,
    SRAM_CIM_6T,
    reference_cim_conv2d,
    reference_cim_linear,
)
from repro.rebranch import ReBranchConv2d, convert_to_rebranch
from repro.runtime import (
    CompiledModel,
    DeployedLayerInfo,
    DeploymentReport,
    EngineCache,
    EngineKey,
    ExecutionSession,
    RuntimeConfig,
    TiledBitSerialKernel,
    compile_model,
    fold_batchnorm,
    reference_forward,
    shard,
)

from repro.runtime.backends import available_backends, get_backend, reference_fast
from repro.runtime.cache import weight_fingerprint
from repro.runtime.engine import EngineCircuit, program_engine

from .helpers import DEADLINE, compiled_layer

RNG = np.random.default_rng(7)


def tiny_chain(num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(6 * 4 * 4, num_classes, rng=rng),
    )


def tiny_input(n=2, seed=1):
    return np.random.default_rng(seed).normal(size=(n, 3, 8, 8))


def placement_model(name, variant, seed=0):
    """A width-reduced zoo model, BN folded: as built (trainable), with
    its 3x3 convolutions converted to ReBranch, or frozen."""
    rng = np.random.default_rng(seed)
    model = getattr(models, name)(num_classes=4, width_mult=0.125, rng=rng)
    model.eval()
    fold_batchnorm(model)
    if variant == "rebranch":
        assert convert_to_rebranch(model, rng=rng) > 0
    elif variant == "frozen":
        model.freeze()
    return model


def in_rebranch(model, name):
    """True when the named module lives inside a ReBranchConv2d."""
    node = model
    for part in name.split(".")[:-1]:
        node = node._modules[part]
        if isinstance(node, ReBranchConv2d):
            return True
    return False


def legacy_placement(model, rom_bits, sram_bits):
    """The placement report as a walk of ``named_modules`` records it
    (YOLoC Fig. 9): every conv or linear — a ReBranch's four convs
    included — one row, on SRAM when trainable, on ROM when frozen."""
    report = DeploymentReport()
    for name, module in model.named_modules():
        if isinstance(module, (nn.Conv2d, nn.Linear)):
            kind = "conv" if isinstance(module, nn.Conv2d) else "linear"
            trainable = module.weight.requires_grad
            bits = module.weight.size * (sram_bits if trainable else rom_bits)
            if trainable:
                report.sram_weight_bits += bits
            else:
                report.rom_weight_bits += bits
            report.layers.append(
                DeployedLayerInfo(name, kind, "sram" if trainable else "rom", bits)
            )
    return report


def plan_weight_layers(compiled):
    """Weight-layer names in plan order, one per weight plan node (a
    grouped conv's per-group slots share one)."""
    return [node.name for node in compiled._nodes if getattr(node.op, "slots", ())]


# ----------------------------------------------------------------------
# Engine cache
# ----------------------------------------------------------------------
class TestEngineCache:
    def key(self, tag):
        return EngineKey(layer_id=tag, weight_hash="w", config_key=("k",))

    def test_miss_then_hit(self):
        cache = EngineCache(capacity=4)
        built = []
        for _ in range(3):
            engine = cache.get_or_program(self.key("a"), lambda: built.append(1) or "e")
        assert engine == "e"
        assert built == [1]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2
        assert cache.stats.programmed == 1

    def test_lru_eviction(self):
        cache = EngineCache(capacity=2)
        for tag in ("a", "b", "c"):
            cache.get_or_program(self.key(tag), lambda t=tag: t)
        assert cache.stats.evictions == 1
        assert self.key("a") not in cache  # least recently used went first
        assert self.key("b") in cache and self.key("c") in cache
        # Touching "b" promotes it; inserting "d" now evicts "c".
        cache.get_or_program(self.key("b"), lambda: "b2")
        cache.get_or_program(self.key("d"), lambda: "d")
        assert self.key("c") not in cache
        assert self.key("b") in cache

    def test_capacity_zero_is_per_call_mode(self):
        cache = EngineCache(capacity=0)
        for _ in range(3):
            cache.get_or_program(self.key("a"), lambda: object())
        assert len(cache) == 0
        assert cache.stats.misses == 3
        assert cache.stats.programmed == 3

    def test_clear(self):
        cache = EngineCache()
        cache.get_or_program(self.key("a"), lambda: "e")
        cache.clear()
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            EngineCache(capacity=-1)


# ----------------------------------------------------------------------
# Fast kernels: bitwise against the reference macro arithmetic
# ----------------------------------------------------------------------
def _one_tile_kernel(weights, config):
    """The production kernel over an engine that is exactly one macro,
    so :meth:`CimMacro.matmul` is its oracle."""
    engine = CimTiledMatmul(weights, config)
    assert len(engine.tiles) == 1
    return TiledBitSerialKernel(engine)


class TestKernels:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("adc_bits", [5, 8])
    def test_macro_kernel_bitwise(self, signed, adc_bits):
        config = MacroConfig(signed_inputs=signed, adc=AdcSpec(bits=adc_bits))
        weights = RNG.integers(-128, 128, size=(40, 12))
        macro = CimMacro(config, weights)
        kernel = _one_tile_kernel(weights, config)
        low, high = (-128, 128) if signed else (0, 256)
        for n in (1, 5, 33):
            x = RNG.integers(low, high, size=(40, n))
            ref, ref_stats = macro.matmul(x)
            for _ in range(2):  # a call leaves no state behind
                fast, fast_stats = kernel.matmul(x)
                assert np.array_equal(ref, fast)
                assert ref_stats == fast_stats

    def test_tiled_kernel_bitwise_multi_tile(self):
        config = MacroConfig()
        weights = RNG.integers(-128, 128, size=(216, 48))  # 2 x 2 tiles
        engine = CimTiledMatmul(weights, config)
        kernel = TiledBitSerialKernel(engine)
        x = RNG.integers(0, 256, size=(216, 9))
        ref, ref_stats = engine.matmul(x)
        fast, fast_stats = kernel.matmul(x)
        assert np.array_equal(ref, fast)
        assert ref_stats == fast_stats

    def test_degenerate_first_batch_cannot_poison_dispatch(self):
        """An all-zero first batch must not lock a recombination mode
        that diverges from the reference on later real batches."""
        config = MacroConfig(signed_inputs=False)
        weights = RNG.integers(-128, 128, size=(64, 32))
        macro = CimMacro(config, weights)
        kernel = _one_tile_kernel(weights, config)
        zeros = np.zeros((64, 5), dtype=np.int64)
        kernel.matmul(zeros)  # primes the per-shape dispatch cache
        x = RNG.integers(0, 256, size=(64, 5))
        ref, ref_stats = macro.matmul(x)
        fast, fast_stats = kernel.matmul(x)
        assert np.array_equal(ref, fast)
        assert ref_stats == fast_stats

    def test_tiled_kernel_squeezes_vectors(self):
        engine = CimTiledMatmul(RNG.integers(-8, 8, size=(30, 5)), MacroConfig())
        kernel = TiledBitSerialKernel(engine)
        x = RNG.integers(0, 256, size=(30,))
        ref, _ = engine.matmul(x)
        fast, _ = kernel.matmul(x)
        assert fast.shape == ref.shape == (5,)
        assert np.array_equal(ref, fast)

    def test_kernel_rejects_noisy_bitline(self):
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=1.0))
        assert not TiledBitSerialKernel.supported(config)
        with pytest.raises(ValueError, match="noise-free"):
            _one_tile_kernel(np.zeros((8, 4), dtype=int), config)

    def test_kernel_validates_input_range(self):
        kernel = _one_tile_kernel(np.zeros((8, 4), dtype=int), MacroConfig())
        with pytest.raises(ValueError, match="input codes outside"):
            kernel.matmul(np.full((8, 2), 300))

    @pytest.mark.parametrize("input_bits", [8, 16])
    @pytest.mark.parametrize("signed", [False, True])
    def test_code_dtype_does_not_change_the_pass(self, signed, input_bits):
        """The same code values give the same bits and stats in every
        integer dtype — narrower than the input width (sign-extended
        first) or wider — and the same error when out of range."""
        config = MacroConfig(signed_inputs=signed, input_bits=input_bits)
        weights = RNG.integers(-128, 128, size=(216, 48))  # 2 x 2 tiles
        kernel = TiledBitSerialKernel(CimTiledMatmul(weights, config))
        low, high = config.input_range()
        dtypes = (np.int8, np.int16, np.int32, np.int64, np.uint8)
        batches = [
            RNG.integers(low, high + 1, size=(216, 9)),
            RNG.integers(max(low, -128), 128, size=(216, 9)),
            RNG.integers(0, 128, size=(216, 9)),
        ]
        for x in batches:
            ref, ref_stats = kernel.matmul(x.astype(np.int64))
            for dtype in dtypes:
                info = np.iinfo(dtype)
                if info.min <= x.min() and x.max() <= info.max:
                    out, stats = kernel.matmul(x.astype(dtype))
                    assert out.tobytes() == ref.tobytes()
                    assert stats == ref_stats
        raised = 0
        for dtype in dtypes:
            info = np.iinfo(dtype)
            # The dtype's extremes, and int64-min saturated into it
            # (a NaN's code narrowed by clipping).
            for bad in {info.min, info.max, max(np.iinfo(np.int64).min, info.min)}:
                if low <= bad <= high:
                    continue
                x = batches[2].astype(dtype)
                x[5, 3] = bad
                with pytest.raises(ValueError, match="input codes outside") as narrow:
                    kernel.matmul(x)
                with pytest.raises(ValueError) as wide:
                    kernel.matmul(x.astype(np.int64))
                assert str(narrow.value) == str(wide.value)
                raised += 1
        assert raised


# ----------------------------------------------------------------------
# Vector-axis blocking: every block boundary against the true oracle
# ----------------------------------------------------------------------
def _blocked_engine(signed, adc_bits, row_blocks=2, saturation=None):
    """``row_blocks`` row blocks (128 rows each, the last 72) x two
    column tiles (32 + a ragged 8).  Two is the smallest grid with a
    multi-tile stacked slab, a shorter last row block (its own LUT) and a
    ragged last column tile; from three on, the order the row blocks'
    partials are added in shows in the bits (under a lossy ADC).  An
    8-bit ADC reads every count of a 128-row block exactly — lossless
    blocks, one GEMM of codes — unless ``saturation`` clips the line."""
    config = MacroConfig(
        signed_inputs=signed,
        adc=AdcSpec(bits=adc_bits),
        bitline=BitlineModel(saturation=saturation),
    )
    rows = 128 * (row_blocks - 1) + 72
    weights = np.random.default_rng(21).integers(-128, 128, size=(rows, 40))
    engine = CimTiledMatmul(weights, config)
    assert len(engine.tiles) == 2 * row_blocks
    return engine


def _block_of(kernel):
    """Vectors per block of the kernel's first row block that reads a
    digit table; a pass of lossless blocks alone has no vector blocks,
    and any width — 7 here — places batches and chunk edges for it."""
    tables = [group for group in kernel._groups if not group.lossless]
    if not tables:
        return 7
    return reference_fast._block_vectors(
        tables[0].planes32.shape[0] * tables[0].planes32.shape[-2],
        kernel.engine.config.input_bits,
    )


def _split(workers):
    """Every call with at least two vectors cut into ``workers`` chunks,
    whatever cores the machine has and however little work it is."""
    return mock.patch.multiple(reference_fast, _WORKERS=workers, _SPLIT_INDICES=0)


def _assert_split_matches_tile_walk(kernel, engines, seed):
    """Outputs and ``MacroStats`` of ``kernel`` — one engine's, or the
    stack of ``engines`` — equal the tile walk's (stats chained over the
    groups in index order), on batches around every vector-block
    boundary, inline and cut into 2 and 3 chunks, first and second call;
    the chunk edges fall both inside a block and on a block boundary."""
    block = _block_of(kernel)
    rng = np.random.default_rng(seed)
    edges = []
    back_half = TiledBitSerialKernel._back_half

    def spy(self, operand, out, v0, v1):
        edges.append(v0)
        back_half(self, operand, out, v0, v1)

    # Around every block boundary; cut into 2 and 3 chunks, 2 * block and
    # 3 * block put chunk edges on one, the other widths inside a block.
    for n in (1, block - 1, block, block + 1, 2 * block, 2 * block + 3,
              3 * block, 3 * block + 5):
        codes = [
            rng.integers(*e.config.input_range(), size=(e.shape[0], n), endpoint=True)
            for e in engines
        ]
        walks = [engine.matmul(x) for engine, x in zip(engines, codes)]
        ref_stats = sum((stats for _, stats in walks), MacroStats())
        if len(engines) == 1:
            x, ref = codes[0], walks[0][0]
        else:
            x, ref = np.stack(codes), np.stack([out for out, _ in walks])
        for workers in (1, 2, 3):
            with _split(workers), mock.patch.object(
                TiledBitSerialKernel, "_back_half", spy
            ):
                for _ in range(2):  # a call leaves no state behind
                    out, stats = kernel.matmul(x)
                    assert out.tobytes() == ref.tobytes()
                    assert stats == ref_stats
    inner = {edge for edge in edges if edge}
    assert {edge % block == 0 for edge in inner} == {True, False}


def _reversed_row_blocks(self, operand, out, v0, v1):
    """``TiledBitSerialKernel._back_half`` with a chunk's row blocks run
    last to first."""
    groups, ib = out.shape[0], self.engine.config.input_bits
    for b in reversed(range(len(self._groups))):
        group = self._groups[b]
        width = reference_fast._block_vectors(groups * group.planes32.shape[1], ib)
        for w0, w1 in reference_fast._vector_blocks(v0, v1, width):
            group.shift_add(self._contract(operand, b, w0, w1), out[:, :, w0:w1])


def _two_callers(kernel, widths):
    """Two threads calling ``kernel`` four times each on batches of
    ``widths`` vectors, under a short switch interval: every result
    equals the same call made alone.  Returns the threads that split."""
    rng = np.random.default_rng(4)
    batches = [rng.integers(0, 256, size=(kernel.engine.shape[0], n)) for n in widths]
    serial = [kernel.matmul(x) for x in batches]
    results = [[] for _ in batches]
    splitters = []
    split = TiledBitSerialKernel._split

    def spy(self, *args):
        splitters.append(threading.current_thread())
        split(self, *args)

    def work(slot):
        for _ in range(4):
            results[slot].append(kernel.matmul(batches[slot]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(slot,)) for slot in range(len(batches))
        ]
        with mock.patch.object(TiledBitSerialKernel, "_split", spy):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for slot, (out, stats) in enumerate(serial):
        assert len(results[slot]) == 4
        for got, got_stats in results[slot]:
            assert got.tobytes() == out.tobytes()
            assert got_stats == stats
    return [thread for thread in threads if thread in splitters]


class TestVectorBlocks:
    @pytest.mark.parametrize("signed", [False, True])
    # Lossy / identity transfer: lossless blocks, one GEMM of codes each.
    @pytest.mark.parametrize("adc_bits", [5, 8])
    def test_block_boundaries_bitwise_vs_tiled_reference(self, signed, adc_bits):
        engine = _blocked_engine(signed, adc_bits, row_blocks=3)
        kernel = TiledBitSerialKernel(engine)
        assert [group.lossless for group in kernel._groups] == [adc_bits == 8] * 3
        _assert_split_matches_tile_walk(kernel, [engine], seed=adc_bits + signed)

    @pytest.mark.parametrize("signed", [False, True])
    def test_block_boundaries_through_clipped_identity_tables(self, signed):
        """Identity transfer up to a line clipped at 64 counts: every
        block reads its digit table, cut as the lossy blocks are."""
        engine = _blocked_engine(signed, 8, row_blocks=3, saturation=0.5)
        kernel = TiledBitSerialKernel(engine)
        assert [group.lossless for group in kernel._groups] == [False] * 3
        _assert_split_matches_tile_walk(kernel, [engine], seed=8 + signed)

    def test_reversed_row_blocks_fail_the_boundary_check(self):
        """The check above has teeth: chunks that add their row blocks'
        partials last to first differ from the tile walk."""
        engine = _blocked_engine(False, 5, row_blocks=3)
        kernel = TiledBitSerialKernel(engine)
        with mock.patch.object(TiledBitSerialKernel, "_back_half", _reversed_row_blocks):
            with pytest.raises(AssertionError):
                _assert_split_matches_tile_walk(kernel, [engine], seed=5)

    @pytest.mark.parametrize("kind", ["stack", "popcount"])
    def test_split_stack_and_popcount_bitwise_vs_tiled_reference(self, kind):
        """The split is the one pass's, so a mixed-signedness grouped
        stack and the popcount backend cut exactly like a lone group."""
        if kind == "popcount":
            if not get_backend("popcount").supported(MacroConfig()):
                pytest.skip("popcount needs np.bitwise_count")
            engines = [_blocked_engine(True, 5)]
            kernel = get_backend("popcount")(engines[0])
        else:
            engines = [_blocked_engine(signed, 5) for signed in (False, True, False)]
            kernel = TiledBitSerialKernel(*engines)
        _assert_split_matches_tile_walk(kernel, engines, seed=9)

    def test_wide_batch_is_gathered_in_blocks(self, monkeypatch):
        """The back half runs per block of at most ``_block_vectors``
        vectors, a row block's ``n`` vectors cut into ``ceil(n / block)``
        equal blocks (never a last block of a few vectors) — a batch that
        fits one block is gathered whole, a split call's chunks each in
        blocks from their own first vector — and nothing of whole-batch
        ``(stacked, n * ib)`` float64 extent is allocated, with three
        chunks in flight.  A gather covers one input bit of a weight-bit
        section, so a block holds ``_BLOCK_BYTES // (stacked * ib * 8)``
        vectors."""
        import tracemalloc

        engine = _blocked_engine(False, 5)
        kernel = TiledBitSerialKernel(engine)
        block = _block_of(kernel)
        gathers = []
        real = np.take

        def take(table, indices, **kwargs):
            if table.ndim == 1:  # a digit table, not the operand's byte expansion
                gathers.append(indices.shape[-1])
            return real(table, indices, **kwargs)

        monkeypatch.setattr(reference_fast.np, "take", take)
        ib = engine.config.input_bits
        stacked = max(group.planes32.shape[-2] for group in kernel._groups)
        assert block == reference_fast._BLOCK_BYTES // (stacked * ib * 8)
        with _split(1):
            n = 2 * block + 3
            kernel.matmul(np.zeros((200, n), dtype=np.int64))
            # Three blocks of n // 3 or n // 3 + 1 vectors, per row block.
            even = [n * (i + 1) // 3 - n * i // 3 for i in range(3)]
            assert max(even) - min(even) <= 1 and max(even) <= block
            assert gathers == [v * ib for v in even] * 2
            del gathers[:]
            kernel.matmul(np.zeros((200, block), dtype=np.int64))
            assert gathers == [block * ib] * 2

        # Three chunks of 2 * block + 3 vectors, cut as the blocks above
        # are, one block each; pool threads append in any order.
        with _split(3):
            del gathers[:]
            kernel.matmul(np.zeros((200, 2 * block + 3), dtype=np.int64))
            assert sorted(gathers) == sorted([v * ib for v in even] * 2)

            n = 8 * block + 3
            x = np.zeros((200, n), dtype=np.int64)
            tracemalloc.start()
            try:
                kernel.matmul(x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < stacked * n * ib * 8

    @pytest.mark.parametrize("input_bits", [5, 8, 16])  # a partial byte, one, two
    def test_row_totals_without_bitwise_count(self, monkeypatch, input_bits):
        """On the declared numpy floor there is no ``np.bitwise_count``:
        the per-row ON-bit totals (the stats' only input from the codes)
        come from a byte table's gather, to the same integers."""
        monkeypatch.setattr(reference_fast, "_byte_ones", reference_fast._BYTE_ONES.take)
        config = MacroConfig(input_bits=input_bits, signed_inputs=True)
        rng = np.random.default_rng(input_bits)
        engine = CimTiledMatmul(rng.integers(-128, 128, size=(200, 40)), config)
        low, high = config.input_range()
        x = rng.integers(low, high + 1, size=(200, 7))
        ref, ref_stats = engine.matmul(x)
        out, stats = TiledBitSerialKernel(engine).matmul(x)
        assert out.tobytes() == ref.tobytes()
        assert stats == ref_stats

    def test_one_kernel_two_threads_different_batches(self):
        """Programmed kernels are shared through EngineCache and the
        server's workers: concurrent calls must not share scratch — as
        the machine's cores cut them, and with both callers splitting
        over the one pool."""
        kernel = TiledBitSerialKernel(_blocked_engine(False, 5))
        block = _block_of(kernel)
        _two_callers(kernel, (2 * block + 3, 5))
        with _split(3):
            assert len(_two_callers(kernel, (2 * block + 3, block + 1))) == 2


class TestLosslessBlocks:
    """A row block whose bit lines and ADC read every count ``0..rows``
    unchanged, at step 1, runs as one batched GEMM of its weight codes
    and the input codes; every other block reads its digit table.  Each
    backend stays bitwise the tile walk, outputs and ``MacroStats``."""

    @staticmethod
    def engine(rows, adc_bits=5, signed=False, seed=0, cols=40, **bitline):
        config = MacroConfig(
            signed_inputs=signed,
            adc=AdcSpec(bits=adc_bits),
            bitline=BitlineModel(**bitline),
        )
        rng = np.random.default_rng(seed)
        return CimTiledMatmul(rng.integers(-128, 128, size=(rows, cols)), config)

    @staticmethod
    def batch(engine, n, seed):
        """Full-range codes, the extremes in the first and last vectors."""
        low, high = engine.config.input_range()
        rng = np.random.default_rng(seed)
        x = rng.integers(low, high + 1, size=(engine.shape[0], n))
        x[:, 0], x[:, -1] = low, high
        return x

    def stack(self, rows, signs):
        """One engine per input signedness in ``signs``, each its own
        weights: a grouped layer's stack."""
        return [
            self.engine(rows, 5, signed, seed=g) for g, signed in enumerate(signs)
        ]

    def assert_every_backend_matches(self, engine, lossless):
        """Every registered backend over ``engine`` reads its row blocks
        losslessly as ``lossless`` says, and matches the tile walk on a
        one-vector code, a batch and the batch again."""
        x = self.batch(engine, 37, seed=engine.shape[0])
        walks = [(x[:, 0], engine.matmul(x[:, 0])), (x, engine.matmul(x))]
        for name in available_backends():
            kernel = get_backend(name)(engine)
            assert [group.lossless for group in kernel._groups] == lossless, name
            for codes, (ref, ref_stats) in walks + walks[1:]:
                out, stats = kernel.matmul(codes)
                assert out.tobytes() == ref.tobytes(), name
                assert stats == ref_stats, name

    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("adc_bits", [3, 5])
    def test_levels_minus_one_rows_are_lossless_levels_rows_are_not(
        self, adc_bits, signed
    ):
        levels = 1 << adc_bits
        self.assert_every_backend_matches(
            self.engine(levels - 1, adc_bits, signed), [True]
        )
        self.assert_every_backend_matches(
            self.engine(levels, adc_bits, signed), [False]
        )

    @pytest.mark.parametrize("signed", [False, True])
    def test_lossy_tall_block_then_lossless_short_block(self, signed):
        """128 + 27 rows under a 5-bit ADC: a digit table, then one GEMM
        of codes, added in ascending row-block order."""
        self.assert_every_backend_matches(self.engine(155, 5, signed), [False, True])

    @pytest.mark.parametrize(
        "bitline,lossless",
        [
            (dict(saturation=0.5), True),  # clips at 64 counts: never reached
            (dict(saturation=0.1), False),  # clips at 12.8 counts
            (dict(max_rows=16), False),  # a swing of 16 counts under 27 rows
        ],
    )
    def test_a_clipping_line_reads_through_the_table(self, bitline, lossless):
        """Lossless is what the bit line and ADC compute, not a row count:
        27 rows read whole under a saturation the counts never reach, and
        through the table under one they do, or a shorter swing."""
        engine = self.engine(27, 5, True, **bitline)
        self.assert_every_backend_matches(engine, [lossless])

    def test_mixed_signedness_stack(self):
        """A grouped stack of unsigned, signed and unsigned groups over a
        lossy then a lossless block: the codes carry each group's
        signedness into the GEMM."""
        engines = self.stack(155, (False, True, False))
        kernel = TiledBitSerialKernel(*engines)
        assert [group.lossless for group in kernel._groups] == [False, True]
        codes = [self.batch(engine, 19, seed=s) for s, engine in enumerate(engines)]
        walks = [engine.matmul(x) for engine, x in zip(engines, codes)]
        out, stats = kernel.matmul(np.stack(codes))
        assert out.tobytes() == np.stack([ref for ref, _ in walks]).tobytes()
        assert stats == sum((ref_stats for _, ref_stats in walks), MacroStats())

    @pytest.mark.parametrize("rows", [31, 155])  # lossless / lossy then lossless
    @pytest.mark.parametrize("kind", ["one", "stack", "popcount"])
    def test_cut_and_forced_split_match_the_tile_walk(self, kind, rows):
        """Around every block boundary, inline and cut into 2 and 3 chunks
        — a pass of lossless blocks alone splits only when forced."""
        if kind == "stack":
            engines = self.stack(rows, (True, False, True))
            kernel = TiledBitSerialKernel(*engines)
        else:
            engines = [self.engine(rows, 5, True)]
            if kind == "popcount" and not get_backend("popcount").supported(
                engines[0].config
            ):
                pytest.skip("popcount needs np.bitwise_count")
            name = "popcount" if kind == "popcount" else "reference-fast"
            kernel = get_backend(name)(engines[0])
        _assert_split_matches_tile_walk(kernel, engines, seed=rows)

    def test_lossless_pass_builds_no_table_operand_or_split(self, monkeypatch):
        """A lossless block holds its ``(G, columns, rows)`` codes in the
        accumulator dtype and no planes; programming it builds no digit
        table, and running it builds no bit operand, gathers no table and
        never hands a chunk to the pool, whatever the split threshold."""
        engines = self.stack(27, (False, True))
        monkeypatch.setattr(
            reference_fast, "_pair_table", lambda *args: pytest.fail("table built")
        )
        kernel = TiledBitSerialKernel(*engines)
        (group,) = kernel._groups
        assert group.lossless and not hasattr(group, "planes32")
        assert group.codes.dtype == np.float32 and group.codes.shape == (2, 40, 27)
        assert group.codes.tobytes() == np.stack(
            [engine.weights.T for engine in engines]
        ).astype(np.float32).tobytes()
        assert kernel._vector_indices == 0
        monkeypatch.setattr(
            reference_fast, "_bit_operand", lambda *args: pytest.fail("operand built")
        )
        monkeypatch.setattr(
            TiledBitSerialKernel, "_split", lambda *args: pytest.fail("split")
        )
        monkeypatch.setattr(reference_fast, "_WORKERS", 2)
        monkeypatch.setattr(reference_fast, "_SPLIT_INDICES", 1)
        x = np.stack([self.batch(engine, 64, seed=1) for engine in engines])
        out, _ = kernel.matmul(x)
        ref = np.stack([engine.matmul(codes)[0] for engine, codes in zip(engines, x)])
        assert out.tobytes() == ref.tobytes()

    def test_a_lossy_block_sent_lossless_fails_the_check(self, monkeypatch):
        """The checks above have teeth: a kernel that takes a 32-row block
        under a 5-bit ADC (step 32/31) for lossless differs from the tile
        walk."""
        real = reference_fast._lossless

        def lossless(config, rows):
            return rows == 32 or real(config, rows)

        monkeypatch.setattr(reference_fast, "_lossless", lossless)
        engine = self.engine(32, 5, True)
        x = self.batch(engine, 37, seed=32)
        ref, _ = engine.matmul(x)
        for name in available_backends():
            kernel = get_backend(name)(engine)
            assert kernel._groups[0].lossless, name
            assert kernel.matmul(x)[0].tobytes() != ref.tobytes(), name


class TestSplitPool:
    """The process-wide pool a split call shares: the caller runs one
    chunk and takes back any no pool thread has started, an error on a
    pool thread reaches the caller, and no chunk outlives the call."""

    @staticmethod
    @contextlib.contextmanager
    def pool(workers):
        """Calls cut into ``workers`` chunks over a fresh one-thread pool."""
        pool = concurrent.futures.ThreadPoolExecutor(1)
        try:
            with _split(workers), mock.patch.object(reference_fast, "_pool", pool):
                yield pool
        finally:
            pool.shutdown(wait=True)

    @staticmethod
    def case():
        kernel = TiledBitSerialKernel(_blocked_engine(True, 5))
        n = 2 * _block_of(kernel) + 3
        x = np.random.default_rng(6).integers(-128, 128, size=(200, n))
        with _split(1):
            return kernel, x, kernel.matmul(x)

    def test_saturated_pool_runs_every_chunk_on_the_caller(self):
        kernel, x, (inline, inline_stats) = self.case()
        busy, release = threading.Event(), threading.Event()
        ran_on = []
        back_half = TiledBitSerialKernel._back_half

        def spy(self, *args):
            ran_on.append(threading.current_thread())
            back_half(self, *args)

        def occupy():
            busy.set()
            return release.wait(DEADLINE)

        with self.pool(3) as pool:
            blocker = pool.submit(occupy)
            try:
                assert busy.wait(DEADLINE)
                with mock.patch.object(TiledBitSerialKernel, "_back_half", spy):
                    out, stats = kernel.matmul(x)
            finally:
                release.set()
            assert blocker.result(timeout=DEADLINE)
        assert ran_on == [threading.current_thread()] * 3
        assert out.tobytes() == inline.tobytes()
        assert stats == inline_stats

    def test_error_on_a_pool_thread_reaches_the_caller(self):
        kernel, x, _ = self.case()
        started = threading.Event()
        back_half = TiledBitSerialKernel._back_half

        def spy(self, operand, out, v0, v1):
            if v0:  # a pool thread's chunk
                started.set()
                raise RuntimeError("chunk failed")
            # The caller's: the pool thread has its chunk before this ends.
            assert started.wait(DEADLINE)
            back_half(self, operand, out, v0, v1)

        with self.pool(2), mock.patch.object(TiledBitSerialKernel, "_back_half", spy):
            with pytest.raises(RuntimeError, match="chunk failed"):
                kernel.matmul(x)

    def test_no_started_chunk_outlives_a_failed_call(self):
        """The caller's chunk raises while a pool thread's is still
        writing: the call raises only once that chunk is done.  A long
        switch interval keeps the interpreter with the caller until it
        blocks, so a call that raised without waiting would be seen
        before the pool thread could finish."""
        kernel, x, _ = self.case()
        started, proceed, finished = (threading.Event() for _ in range(3))
        back_half = TiledBitSerialKernel._back_half

        def spy(self, operand, out, v0, v1):
            if v0:  # a pool thread's chunk
                started.set()
                assert proceed.wait(DEADLINE)
                back_half(self, operand, out, v0, v1)
                finished.set()
                return
            assert started.wait(DEADLINE)
            proceed.set()
            raise ValueError("caller's chunk failed")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0)
        try:
            with self.pool(2), mock.patch.object(TiledBitSerialKernel, "_back_half", spy):
                with pytest.raises(ValueError, match="caller's chunk"):
                    kernel.matmul(x)
                assert finished.is_set()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_builds_its_own_pool(self):
        """A pool inherited across ``fork`` has no threads in the child:
        the child drops it and splits over a pool of its own."""
        kernel, x, (inline, _) = self.case()
        with _split(2):
            kernel.matmul(x)  # the parent's pool exists
            assert reference_fast._pool is not None
            with warnings.catch_warnings():
                # Python 3.12 warns on forking a process with threads.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: exit 0 only if every check holds
                status = 1
                try:
                    fresh = reference_fast._pool is None
                    out, _ = kernel.matmul(x)
                    rebuilt = reference_fast._pool is not None
                    same = out.tobytes() == inline.tobytes()
                    status = 0 if fresh and rebuilt and same else 2
                finally:
                    os._exit(status)
        reaped = []
        reaper = threading.Thread(target=lambda: reaped.append(os.waitpid(pid, 0)))
        reaper.start()
        reaper.join(DEADLINE)
        if reaper.is_alive():
            os.kill(pid, signal.SIGKILL)
            reaper.join(DEADLINE)
        assert not reaper.is_alive()
        [(_, status)] = reaped
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def _extents(obj):
    """Attribute names, container lengths and array shapes reachable
    from a kernel through its own backend objects."""
    if isinstance(obj, np.ndarray):
        return obj.shape
    if isinstance(obj, (list, tuple)):
        return [_extents(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _extents(value) for key, value in obj.items()}
    if type(obj).__module__.startswith("repro.runtime.backends"):
        return {name: _extents(value) for name, value in vars(obj).items()}
    return None


class TestProgrammedKernelIsStateless:
    """A programmed kernel holds no per-call-shape state: twenty batch
    widths leave every attribute, container and array as programmed."""

    WIDTHS = list(range(1, 17)) + [33, 64, 129, 300]

    @pytest.mark.parametrize("name", ["reference-fast", "popcount", "stacked"])
    def test_twenty_batch_widths_grow_nothing(self, name):
        engine = _blocked_engine(True, 5)  # two row blocks x two column tiles
        if name == "stacked":
            kernel = TiledBitSerialKernel(engine, engine, engine)
            shape = (3, 200)
        else:
            kernel = get_backend(name)(engine)
            shape = (200,)
        programmed = _extents(kernel)
        assert programmed  # the walk saw the kernel's own objects
        rng = np.random.default_rng(5)
        for n in self.WIDTHS:
            kernel.matmul(rng.integers(-128, 128, size=shape + (n,)))
            assert _extents(kernel) == programmed


class TestExactnessBound:
    """The shift-and-add is exact integer arithmetic below a bound that
    is checked, not assumed: float32 to 2**24, float64 to 2**53, the
    reference macro path beyond."""

    @staticmethod
    def config(weight_bits, input_bits, adc_bits, **kwargs):
        return MacroConfig(
            weight_bits=weight_bits,
            input_bits=input_bits,
            phys_columns=16 * weight_bits,
            adc=AdcSpec(bits=adc_bits),
            **kwargs,
        )

    @pytest.mark.parametrize(
        "bits,dtype",
        [
            ((8, 8, 5), np.float32),  # the default widths: 2**21
            ((8, 8, 8), np.float32),  # 2**24 exactly: sums stay below it
            ((8, 8, 9), np.float64),
            ((16, 16, 12), np.float64),
            ((24, 24, 4), np.float64),  # 2**52
        ],
    )
    def test_accumulator_dtype_is_a_function_of_the_bound(self, bits, dtype):
        # Three rows on a line that clips at two counts: a digit table.
        config = self.config(*bits, bitline=BitlineModel(max_rows=2))
        assert TiledBitSerialKernel.supported(config)
        kernel = TiledBitSerialKernel(CimTiledMatmul(np.zeros((3, 2), dtype=int), config))
        (group,) = kernel._groups
        assert not group.lossless
        assert group.pair_table.dtype == dtype
        assert group.input_weights.dtype == dtype
        assert group.section_ones.dtype == dtype

    @pytest.mark.parametrize(
        "bits,dtype",
        [((8, 8, 5), np.float32), ((8, 8, 9), np.float64), ((24, 24, 4), np.float64)],
    )
    def test_lossless_codes_take_the_accumulator_dtype(self, bits, dtype):
        """Three rows every ADC here reads whole: a lossless block holds
        its codes in the same dtype a table would take."""
        config = self.config(*bits)
        kernel = TiledBitSerialKernel(CimTiledMatmul(np.zeros((3, 2), dtype=int), config))
        (group,) = kernel._groups
        assert group.lossless
        assert group.codes.dtype == group.input_weights.dtype == dtype

    @pytest.mark.parametrize("signed", [False, True])
    def test_wide_codes_run_in_float64_bitwise(self, signed):
        # Lossless blocks under a 12-bit ADC, then digit tables under a
        # line that clips at 64 counts.
        for saturation in (None, 0.5):
            bitline = BitlineModel(saturation=saturation)
            config = self.config(16, 16, 12, signed_inputs=signed, bitline=bitline)
            rng = np.random.default_rng(16 + signed)
            # Full-range codes over 2 x 2 tiles (128 + 72 rows, 16 + 4 columns).
            weights = rng.integers(-(2**15), 2**15, size=(200, 20))
            engine = CimTiledMatmul(weights, config)
            assert len(engine.tiles) == 4
            kernel = TiledBitSerialKernel(engine)
            lossless = [group.lossless for group in kernel._groups]
            assert lossless == [saturation is None] * 2
            low, high = config.input_range()
            x = rng.integers(low, high + 1, size=(200, 9))
            ref, ref_stats = engine.matmul(x)
            for name in available_backends():
                out, stats = get_backend(name)(engine).matmul(x)
                assert out.tobytes() == ref.tobytes(), name
                assert stats == ref_stats, name

    def test_pair_table_indices_reach_the_last_float32_integer(self):
        """The supported side of ``Q * R**2 <= 2**24``: at 8-bit weights
        the tallest legal subarray is 2047 rows, and all-ones weights
        under all-ones signed activations read ``c0 = c1 = rows`` from
        the top weight pair's section — the table's last entry, 2**24 -
        1, every float32 partial sum on the way still an integer."""
        config = MacroConfig(rows=2047, signed_inputs=True)
        assert TiledBitSerialKernel.supported(config)
        assert not TiledBitSerialKernel.supported(replace(config, rows=2048))
        engine = CimTiledMatmul(np.full((2047, 2), -1), config)
        kernel = TiledBitSerialKernel(engine)
        (group,) = kernel._groups
        assert group.pair_table.size == 4 * 2048**2 == 1 << 24
        x = np.full((2047, 3), -1)
        x[:, 1] = np.arange(2047) % 256 - 128
        ref, ref_stats = engine.matmul(x)
        out, stats = kernel.matmul(x)
        # 64 MiB of table: not for the shared cache to keep.
        reference_fast._shared_pair_table.cache_clear()
        assert out.tobytes() == ref.tobytes()
        assert stats == ref_stats

    def test_past_the_index_bound_is_unsupported(self, monkeypatch):
        """The other side: no table is built, and an engine takes the
        reference macro path."""
        config = MacroConfig(rows=2048)
        assert not TiledBitSerialKernel.supported(config)
        assert not get_backend("popcount").supported(config)
        # Fewer weight-bit pairs, fewer sections: the bound is on Q * R**2,
        # whatever the input width.
        assert TiledBitSerialKernel.supported(replace(config, weight_bits=4))
        assert not TiledBitSerialKernel.supported(replace(config, input_bits=2))
        monkeypatch.setattr(
            reference_fast, "_pair_table", lambda *args: pytest.fail("table built")
        )
        with pytest.raises(ValueError, match="2\\*\\*24"):
            TiledBitSerialKernel(CimTiledMatmul(np.zeros((3, 2), dtype=int), config))
        rng = np.random.default_rng(3)
        weight, x = rng.normal(size=(4, 12)), np.abs(rng.normal(size=(2, 12)))
        linear = program_engine(weight, EngineCircuit(config, 8, False))
        assert linear._kernel is None
        out, stats = linear.execute(x)
        ref, ref_stats = reference_cim_linear(x, weight, config)
        assert out.tobytes() == ref.tobytes()
        assert stats == ref_stats

    @pytest.mark.parametrize("adc_bits", [5, 8])  # 2**53 exactly, and past it
    def test_past_the_bound_is_unsupported(self, adc_bits):
        config = self.config(24, 24, adc_bits)
        assert not TiledBitSerialKernel.supported(config)
        assert not get_backend("popcount").supported(config)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            TiledBitSerialKernel(CimTiledMatmul(np.zeros((3, 2), dtype=int), config))
        # ... and an engine then takes the reference macro path.
        rng = np.random.default_rng(3)
        weight, x = rng.normal(size=(4, 12)), np.abs(rng.normal(size=(2, 12)))
        linear = program_engine(weight, EngineCircuit(config, 24, False))
        assert linear._kernel is None
        out, stats = linear.execute(x)
        ref, ref_stats = reference_cim_linear(x, weight, config, activation_bits=24)
        assert out.tobytes() == ref.tobytes()
        assert stats == ref_stats


_ROM_SCALE_CHILD = """
import numpy as np
from repro import models
from repro.runtime import EngineCache, RuntimeConfig, compile_model

model = models.build_model("tiny_yolo", rng=np.random.default_rng(0), width_mult=1.0)
compiled = compile_model(model, RuntimeConfig(fold_bn=True), cache=EngineCache())
compiled.run(np.random.default_rng(1).random((1, 3, 128, 128)))
codes = weights = 0
for engine in compiled.programmed_engines().values():
    linear = getattr(engine, "linear", engine)
    base = linear.engine.weights
    assert np.shares_memory(linear.w_codes, base)
    codes += base.nbytes
    weights += base.size
# VmHWM is this process's own peak: ru_maxrss would carry over the
# parent's high-water mark across the exec that started it.
with open("/proc/self/status") as status:
    (peak_kb,) = [line.split()[1] for line in status if line.startswith("VmHWM:")]
print(codes / weights, int(peak_kb) / 1024)
"""


class TestResidentPlanes:
    """ROM-CiM keeps a whole network's weights resident, and so does the
    kernel: a float32 plane entry holds three weight bits (a 3 + 3 + 2
    split of an 8-bit code), ~12.1 B per 8-bit weight (two bits per entry
    held 16.13 B, one bit 32.26 B)."""

    @pytest.mark.parametrize(
        "name,width", [("resnet8", 1.0), ("mobilenet", 1.0), ("tiny_yolo", 0.25)]
    )
    def test_planes_hold_three_weight_bits_per_entry(self, name, width):
        """Three weight bits per float32 plane entry — or, in a lossless
        row block, one float32 code per weight (4 B) — and the codes
        beside them held once, at one byte per weight: ``w_codes`` is a
        view of the tiled engine's array."""
        model = models.build_model(name, rng=np.random.default_rng(0), width_mult=width)
        compiled = compile_model(model, RuntimeConfig(fold_bn=True), cache=EngineCache())
        planes = codes = weights = 0
        for engine in compiled.programmed_engines().values():
            linear = getattr(engine, "linear", engine)
            assert linear.engine.config.weight_bits == 8
            assert np.shares_memory(linear.w_codes, linear.engine.weights)
            planes += sum(
                group.codes.nbytes if group.lossless else group.planes32.nbytes
                for group in linear._kernel._groups
            )
            codes += linear.engine.weights.nbytes
            weights += linear.engine.weights.size
        assert planes / weights <= 12.2
        assert codes / weights <= 1.0

    @pytest.mark.slow
    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/self/status"
    )
    def test_rom_scale_detector_stays_resident(self):
        """The paper's deployment at ROM scale: tiny_yolo at full width
        (15.8 M weights, BN folded) compiled and run on one 128 px image
        in a fresh process holds 1 B of codes per weight and peaks at
        most 500 MB (633 MB when the codes were held twice as int64)."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-c", _ROM_SCALE_CHILD],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        codes_per_weight, peak_mb = map(float, result.stdout.split())
        assert codes_per_weight <= 1.0
        assert peak_mb <= 500

    @pytest.mark.slow
    @pytest.mark.parametrize("signed", [False, True])
    def test_widest_tiny_yolo_engine_bitwise_vs_tiled_reference(self, signed):
        """The shape of tiny_yolo's widest engine, 3 x 3 x 1024 inputs by
        1024 filters: 72 row blocks of 128 rows, three stacked
        weight-bit-section rows per column of a tile, at the vector
        counts of a 1 x 1 and a 2 x 2 output grid."""
        config = MacroConfig(signed_inputs=signed)
        rng = np.random.default_rng(9216 + signed)
        engine = CimTiledMatmul(rng.integers(-128, 128, size=(9216, 1024)), config)
        kernel = TiledBitSerialKernel(engine)
        low, high = config.input_range()
        for n in (1, 4):
            x = rng.integers(low, high + 1, size=(9216, n))
            ref, ref_stats = engine.matmul(x)
            out, stats = kernel.matmul(x)
            assert out.tobytes() == ref.tobytes()
            assert stats == ref_stats


# ----------------------------------------------------------------------
# One layer: a compiled one-layer model, or one engine, against the
# per-call reference
# ----------------------------------------------------------------------
class TestFunctionalShims:
    def test_cim_linear_bitwise_vs_reference(self):
        x = RNG.normal(size=(6, 40))
        w = RNG.normal(size=(12, 40))
        y_ref, s_ref = reference_cim_linear(x, w)
        y_new, s_new = compiled_layer(w, cache=EngineCache()).run(x)
        assert np.array_equal(y_ref, y_new)
        assert s_ref == s_new

    def test_cim_conv2d_bitwise_vs_reference(self):
        x = RNG.random((2, 3, 8, 8))
        w = RNG.normal(size=(5, 3, 3, 3))
        y_ref, s_ref = reference_cim_conv2d(x, w, stride=1, padding=1)
        y_new, s_new = compiled_layer(w, padding=1, cache=EngineCache()).run(x)
        assert np.array_equal(y_ref, y_new)
        assert s_ref == s_new

    PROGRAMMED_CONV_CASES = {
        "unsigned": (dict(stride=1, padding=1), None, False),
        "signed": (dict(stride=1, padding=1), None, True),
        "stride2-pad1": (dict(stride=2, padding=1), None, True),
        "noisy": (dict(stride=1, padding=0), 2.0, True),
    }

    @pytest.mark.parametrize("case", sorted(PROGRAMMED_CONV_CASES))
    def test_programmed_conv_bitwise_vs_reference(self, case):
        """A lone engine's ``execute`` — the one-group layer pass over
        itself — equals the per-call reference in bytes and stats."""
        conv, sigma, signed = self.PROGRAMMED_CONV_CASES[case]
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=sigma or 0.0))
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 7, 7))
        x = x if signed else np.abs(x)
        w = rng.normal(size=(5, 3, 3, 3))
        engine = program_engine(
            w, EngineCircuit(config, 8, signed), conv["stride"], conv["padding"]
        )
        y_ref, s_ref = reference_cim_conv2d(
            x, w, config=config, rng=np.random.default_rng(3), **conv
        )
        y_new, s_new = engine.execute(x, rng=np.random.default_rng(3))
        assert y_new.shape == y_ref.shape and y_new.strides == y_ref.strides
        assert y_new.tobytes() == y_ref.tobytes()
        assert s_new == s_ref

    def test_unsigned_programmed_conv_rejects_negative_inputs(self):
        w = RNG.normal(size=(4, 2, 3, 3))
        x = RNG.normal(size=(1, 2, 5, 5))
        unsigned = EngineCircuit(MacroConfig(), 8, False)
        linear = program_engine(w.reshape(4, -1), unsigned)
        with pytest.raises(ValueError) as expected:
            linear.execute(-np.ones((1, 18)))
        with pytest.raises(ValueError) as raised:
            program_engine(w, unsigned, 1, 1).execute(x)
        assert str(raised.value) == str(expected.value)

    def test_repeated_call_hits_cache(self):
        """Compiling the same weights again reuses the programmed engine."""
        cache = EngineCache()
        x = RNG.normal(size=(4, 20))
        w = RNG.normal(size=(8, 20))
        y1, _ = compiled_layer(w, cache=cache).run(x)
        y2, _ = compiled_layer(w, cache=cache).run(x)
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert np.array_equal(y1, y2)

    def test_capacity_zero_reprograms_every_call(self):
        cache = EngineCache(capacity=0)
        x = RNG.normal(size=(4, 20))
        w = RNG.normal(size=(8, 20))
        for _ in range(2):
            compiled_layer(w, cache=cache).run(x)
        assert cache.stats.programmed == 2

    def test_changed_weights_program_new_engine(self):
        cache = EngineCache()
        x = RNG.normal(size=(4, 20))
        w = RNG.normal(size=(8, 20))
        compiled_layer(w, cache=cache).run(x)
        compiled_layer(w + 1.0, cache=cache).run(x)
        assert cache.stats.misses == 2

    def test_noise_path_bitwise_with_same_rng(self):
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=2.0))
        x = RNG.normal(size=(4, 20))
        w = RNG.normal(size=(8, 20))
        y_ref, _ = reference_cim_linear(x, w, config, rng=np.random.default_rng(3))
        y_new, _ = compiled_layer(w, config, cache=EngineCache()).run(
            x, rng=np.random.default_rng(3)
        )
        assert np.array_equal(y_ref, y_new)

    def test_conv_signedness_decided_on_patches(self):
        """A stride larger than the kernel can skip the only negative
        pixels; signedness must follow the im2col patches (what gets
        quantized), exactly like the reference path."""
        x = RNG.random((1, 1, 4, 4))
        x[0, 0, 1, 1] = -0.5  # never sampled by kernel=1, stride=2
        w = RNG.normal(size=(2, 1, 1, 1))
        y_ref, s_ref = reference_cim_conv2d(x, w, stride=2, padding=0)
        y_new, s_new = compiled_layer(w, stride=2, cache=EngineCache()).run(x)
        assert np.array_equal(y_ref, y_new)
        assert s_ref == s_new

    def test_cell_variants_get_distinct_engines(self):
        """Cells swept via dataclasses.replace keep their name; the
        cache must key the cell by value or energy stats go stale."""
        from dataclasses import replace

        from repro.cim import ROM_1T

        cache = EngineCache()
        # Signed, as a compiled model predicts its input: one engine per
        # configuration, programmed at compile and run as it is.
        x = RNG.normal(size=(4, 20))
        w = RNG.normal(size=(8, 20))
        _, stats_a = compiled_layer(w, MacroConfig(cell=ROM_1T), cache=cache).run(x)
        hot_cell = replace(ROM_1T, read_energy_fj=ROM_1T.read_energy_fj * 10)
        _, stats_b = compiled_layer(w, MacroConfig(cell=hot_cell), cache=cache).run(x)
        assert cache.stats.misses == 2  # two engines, not one alias
        assert stats_b.bitline_energy_fj == pytest.approx(
            10 * stats_a.bitline_energy_fj
        )

    def test_unsigned_engine_rejects_negative_inputs(self):
        w = RNG.normal(size=(8, 20))
        circuit = EngineCircuit(MacroConfig(), 8, False)
        key = circuit.engine_key("fc", weight_fingerprint(w))
        engine = EngineCache().get_or_program(key, lambda: program_engine(w, circuit))
        with pytest.raises(ValueError, match="unsigned"):
            engine.execute(RNG.normal(size=(4, 20)))

    def test_concurrent_compiles_share_engines(self):
        """N threads compiling the same model race the cache; every
        compiled model must end up executing the same engine objects
        (a racing loser discards its build and adopts the winner's)."""
        import threading

        cache = EngineCache()
        model = tiny_chain()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        compiled_models = [None] * n_threads
        errors = []

        def compile_one(index):
            try:
                barrier.wait()
                compiled_models[index] = compile_model(
                    model, RuntimeConfig(), cache=cache
                )
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=compile_one, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        engine_ids = [
            {name: id(engine) for name, engine in c.programmed_engines().items()}
            for c in compiled_models
        ]
        # Shared, not duplicated: one engine object per layer across all
        # eight compiles, and the cache retains exactly those.
        assert all(ids == engine_ids[0] for ids in engine_ids[1:])
        assert len(cache) == compiled_models[0].n_weight_layers
        # Raced builds may transiently program duplicates, but only the
        # retained engine is ever handed out.
        assert cache.stats.programmed >= compiled_models[0].n_weight_layers
        # Everyone computes the same bits through the shared engines.
        x = tiny_input()
        expected, _ = compiled_models[0].run(x)
        for compiled in compiled_models[1:]:
            got, _ = compiled.run(x)
            assert np.array_equal(expected, got)


# ----------------------------------------------------------------------
# Compiled model
# ----------------------------------------------------------------------
class TestCompiledModel:
    def test_bitwise_identical_to_reference_forward(self):
        model = tiny_chain()
        x = tiny_input()
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        out_c, stats_c = compiled.run(x)
        out_r, stats_r = reference_forward(model, x)
        assert np.array_equal(out_c, out_r)
        assert stats_c == stats_r

    def test_bitwise_identical_with_8bit_adc_and_signed_input(self):
        config = MacroConfig(adc=AdcSpec(bits=8))
        model = tiny_chain(seed=3)
        x = tiny_input(seed=5)
        compiled = compile_model(
            model,
            RuntimeConfig(rom_config=config, sram_config=config),
            cache=EngineCache(),
        )
        out_c, stats_c = compiled.run(x)
        out_r, stats_r = reference_forward(
            model, x, rom_config=config, sram_config=config
        )
        assert np.array_equal(out_c, out_r)
        assert stats_c == stats_r

    def test_deployed_wrapper_matches_reference(self):
        model = tiny_chain()
        x = tiny_input()
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        assert compiled.ensure_fresh() == 0
        out, stats = compiled.run(x)
        out_r, stats_r = reference_forward(model, x)
        assert np.array_equal(out, out_r)
        assert stats == stats_r

    def test_compile_programs_each_layer_once(self):
        cache = EngineCache()
        compiled = compile_model(tiny_chain(), RuntimeConfig(), cache=cache)
        assert compiled.n_weight_layers == 2
        assert cache.stats.programmed == 2
        # Running does not program anything new at matching signedness.
        compiled.run(tiny_input())
        assert cache.stats.programmed == 2

    def test_compile_twice_reuses_programmed_engines(self):
        cache = EngineCache()
        model = tiny_chain()
        first = compile_model(model, RuntimeConfig(), cache=cache)
        programmed = cache.stats.programmed
        second = compile_model(model, RuntimeConfig(), cache=cache)
        assert cache.stats.programmed == programmed  # nothing rebuilt
        ours = first.programmed_engines()
        theirs = second.programmed_engines()
        assert set(ours) == set(theirs)
        for name, engine in ours.items():
            assert engine is theirs[name]

    def test_engines_shared_across_configs_stack_in_one_pass(self):
        """Configs that differ only in cell area key the same engines:
        B's compile adopts A's (signed) group engines, and a batch whose
        first group is non-negative programs that group's unsigned
        engine under B — one depthwise pass stacks engines of both
        configs, bitwise equal to the reference under B."""
        model = nn.Sequential(
            nn.Conv2d(2, 2, 3, padding=1, groups=2, rng=np.random.default_rng(0))
        ).freeze()
        a = MacroConfig(cell=ROM_1T)
        b = MacroConfig(cell=replace(ROM_1T, area_um2=2 * ROM_1T.area_um2))
        cache = EngineCache(capacity=2)
        compile_model(model, RuntimeConfig(rom_config=a), cache=cache)
        compiled = compile_model(model, RuntimeConfig(rom_config=b), cache=cache)
        assert (cache.stats.programmed, cache.stats.hits) == (2, 2)
        x = np.random.default_rng(1).normal(size=(2, 2, 6, 6))
        np.abs(x[:, 0], out=x[:, 0])
        out, stats = compiled.run(x, rng=np.random.default_rng(2))
        assert cache.stats.programmed == 3
        stack = compiled._nodes[0].op._layer._stack
        assert [e.linear.config.cell for e in stack.engines] == [b.cell, a.cell]
        expected, expected_stats = reference_forward(
            model, x, rom_config=b, rng=np.random.default_rng(2)
        )
        assert out.tobytes() == expected.tobytes()
        assert stats == expected_stats

    def test_cache_eviction_does_not_reprogram_hot_path(self):
        """Slots hold strong engine references: LRU eviction in a tiny
        shared cache must not force per-run reprogramming."""
        cache = EngineCache(capacity=1)
        compiled = compile_model(tiny_chain(), RuntimeConfig(), cache=cache)
        programmed = cache.stats.programmed
        x = tiny_input()
        out1, _ = compiled.run(x)
        out2, _ = compiled.run(x)
        assert cache.stats.programmed == programmed
        assert np.array_equal(out1, out2)

    def test_leaky_relu_slope_read_live(self):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
            nn.LeakyReLU(0.1),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, 3, rng=np.random.default_rng(1)),
        )
        x = tiny_input()
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        before, _ = compiled.run(x)
        model._modules["1"].negative_slope = 0.5
        after, _ = compiled.run(x)
        expected, _ = reference_forward(model, x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, expected)

    def test_stats_are_per_run_not_accumulated(self):
        compiled = compile_model(tiny_chain(), RuntimeConfig(), cache=EngineCache())
        x = tiny_input()
        _, stats1 = compiled.run(x)
        _, stats2 = compiled.run(x)
        assert stats1 == stats2
        assert stats1.macs > 0

    def test_session_accumulates_across_runs(self):
        compiled = compile_model(tiny_chain(), RuntimeConfig(), cache=EngineCache())
        session = compiled.new_session()
        x = tiny_input()
        _, stats = compiled.run(x, session=session)
        compiled.run(x, session=session)
        assert session.batches == 2
        assert session.samples == 2 * x.shape[0]
        assert session.stats.macs == 2 * stats.macs
        assert session.energy_per_sample_fj > 0
        session.reset()
        assert session.batches == 0 and session.stats.macs == 0

    def test_encoding_falls_back_for_signed_inputs(self):
        model = tiny_chain()
        x = np.random.default_rng(0).normal(size=(2, 3, 8, 8))
        compiled = compile_model(
            model,
            RuntimeConfig(encoding=PulseWidthEncoding()),
            cache=EngineCache(),
        )
        out, _ = compiled.run(x)  # would raise without the fallback
        assert np.isfinite(out).all()

    def test_encoding_matches_reference_on_unsigned_input(self):
        model = tiny_chain()
        x = np.random.default_rng(0).random((2, 3, 8, 8))
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        out_c, stats_c = compiled.run(
            x, encoding=PulseWidthEncoding(), rng=np.random.default_rng(4)
        )
        out_r, stats_r = reference_forward(
            model, x, encoding=PulseWidthEncoding(), rng=np.random.default_rng(4)
        )
        assert np.array_equal(out_c, out_r)
        assert stats_c == stats_r

    def test_noisy_bitline_bitwise_with_fixed_rng(self):
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=1.5))
        model = tiny_chain()
        x = tiny_input()
        compiled = compile_model(
            model,
            RuntimeConfig(rom_config=config, sram_config=config),
            cache=EngineCache(),
        )
        out_c, _ = compiled.run(x, rng=np.random.default_rng(11))
        out_r, _ = reference_forward(
            model,
            x,
            rom_config=config,
            sram_config=config,
            rng=np.random.default_rng(11),
        )
        assert np.array_equal(out_c, out_r)

    def test_unfolded_batchnorm_rejected(self):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1), nn.BatchNorm2d(4), nn.ReLU()
        )
        with pytest.raises(ValueError, match="unfolded BatchNorm2d"):
            compile_model(model, RuntimeConfig(), cache=EngineCache())

    def test_empty_sequential_is_a_noop_placeholder(self):
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0)),
            nn.Sequential(),  # e.g. a "no downsample" slot
            nn.ReLU(),
        )
        x = tiny_input()
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        out_c, _ = compiled.run(x)
        out_r, _ = reference_forward(model, x)
        assert np.array_equal(out_c, out_r)

    def test_unsupported_module_rejected_at_compile(self):
        class Strange(nn.Module):
            pass

        with pytest.raises(TypeError, match="cannot deploy"):
            compile_model(
                nn.Sequential(Strange()), RuntimeConfig(), cache=EngineCache()
            )

    def test_compiled_conv_stride_gt_kernel_matches_reference(self):
        model = nn.Sequential(
            nn.Conv2d(1, 2, 1, stride=2, rng=np.random.default_rng(0))
        )
        x = np.random.default_rng(1).random((2, 1, 4, 4))
        x[:, 0, 1, 1] = -0.5  # negative only at unsampled positions
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        out_c, stats_c = compiled.run(x)
        out_r, stats_r = reference_forward(model, x)
        assert np.array_equal(out_c, out_r)
        assert stats_c == stats_r

    def test_freezing_a_layer_moves_it_to_rom(self):
        """The seed path re-decided ROM vs SRAM from requires_grad on
        every forward; ``ensure_fresh`` must track it live."""
        model = tiny_chain()
        x = tiny_input()
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        _, sram_stats = compiled.run(x)
        for parameter in model.parameters():
            parameter.requires_grad = False
        compiled.ensure_fresh()
        _, rom_stats = compiled.run(x)
        expected, expected_stats = reference_forward(model, x)
        assert rom_stats == expected_stats
        # ROM cells discharge less energy than SRAM-CiM cells.
        assert rom_stats.bitline_energy_fj < sram_stats.bitline_energy_fj

    def test_rebranch_parts_move_with_their_freeze_flags(self):
        """A ReBranch's convs are placed by the one rule, live: a trunk
        unfrozen and a res-conv frozen after compile run on SRAM and ROM
        macros, bitwise the reference walker."""
        model = placement_model("resnet8", "rebranch")
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        name, branch = next(
            (n, m) for n, m in model.named_modules() if isinstance(m, ReBranchConv2d)
        )
        branch.trunk.unfreeze()
        branch.res_conv.freeze()
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16))
        out, stats = compiled.run(x, rng=np.random.default_rng(2))
        slots = {slot.layer_id: slot for slot in compiled._slots}
        for part, cell in (("trunk", SRAM_CIM_6T), ("res_conv", ROM_1T)):
            slot = slots[f"{name}.{part}"]
            engine = slot.engine_for(slot.predicted_signed)
            assert getattr(engine, "linear", engine).config.cell == cell, part
        expected, expected_stats = reference_forward(
            model, x, rng=np.random.default_rng(2)
        )
        assert out.tobytes() == expected.tobytes()
        assert stats == expected_stats

    def test_ensure_fresh_tracks_inplace_weight_updates(self):
        model = tiny_chain()
        x = tiny_input()
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        before, _ = compiled.run(x)
        # On-chip training updates SRAM weights in place.
        model._modules["4"].weight.data += 0.5
        assert compiled.ensure_fresh() == 1
        after, _ = compiled.run(x)
        expected, _ = reference_forward(model, x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, expected)

    @pytest.mark.parametrize("variant", ["plain", "rebranch", "frozen"])
    @pytest.mark.parametrize("name", ["resnet8", "mobilenet", "tiny_yolo"])
    def test_report_matches_legacy_placement(self, name, variant):
        model = placement_model(name, variant)
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        report = compiled.report
        config = RuntimeConfig()
        legacy = legacy_placement(
            model,
            config.resolved_rom().weight_bits,
            config.resolved_sram().weight_bits,
        )
        # Row for row: name, kind, memory and weight bits, in plan order.
        assert report.layers == legacy.layers
        assert [row.name for row in report.layers] == plan_weight_layers(compiled)
        assert report.rom_weight_bits == legacy.rom_weight_bits
        assert report.sram_weight_bits == legacy.sram_weight_bits
        assert report.rom_weight_bits + report.sram_weight_bits == sum(
            row.weight_bits for row in report.layers
        )
        modules = dict(model.named_modules())
        rebranches = [n for n, m in modules.items() if isinstance(m, ReBranchConv2d)]
        # Fig. 9: a ReBranch's frozen trunk and projections on ROM, its
        # trainable res-conv on SRAM, one row each.
        memory = {row.name: row.memory for row in report.layers}
        for n in rebranches:
            assert [
                memory[f"{n}.{part}"]
                for part in ("trunk", "compress", "res_conv", "decompress")
            ] == ["rom", "rom", "sram", "rom"]
        grouped = [
            n
            for n, m in modules.items()
            if isinstance(m, nn.Conv2d) and m.groups > 1 and not in_rebranch(model, n)
        ]
        rows = collections.Counter(row.name for row in report.layers)
        assert all(rows[n] == 1 for n in grouped)
        # mobilenet's depthwise layers are 3x3: ReBranch converts them all.
        assert bool(grouped) == (name == "mobilenet" and variant != "rebranch")
        kinds = {layer.kind for layer in report.layers}
        if variant == "plain":
            assert kinds == {"conv", "linear"} or kinds == {"conv"}
            # Freshly built layers are trainable, so everything lands on SRAM.
            assert report.sram_weight_bits > 0
            assert report.rom_weight_bits == 0
        elif variant == "frozen":
            assert report.rom_weight_bits > 0 and report.sram_weight_bits == 0
        else:
            assert rebranches
            assert report.rom_weight_bits > 0 and report.sram_weight_bits > 0


# ----------------------------------------------------------------------
# Consumers routed through CompiledModel
# ----------------------------------------------------------------------
class TestInvalidBatch:
    """The ``run`` edge: a batch no engine should see fails with one
    typed error from both walkers, before any engine runs."""

    CASES = {
        "empty": (np.zeros((0, 3, 8, 8)), "empty"),
        "nan": (np.full((2, 3, 8, 8), np.nan), "NaN or infinite"),
        "inf": (np.where(np.arange(384).reshape(2, 3, 8, 8) == 5, np.inf, 1.0), "NaN or infinite"),
        "rank-3": (np.ones((3, 8, 8)), "rank 3"),
        "scalar": (np.float64(1.0), "rank 0"),
        "strings": (np.full((2, 3, 8, 8), "1.0"), "not numeric"),
        "complex": (np.ones((2, 3, 8, 8), dtype=complex), "not numeric"),
    }

    @pytest.mark.parametrize("walker", ["compiled", "reference"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_typed_error_before_any_engine_runs(self, case, walker, monkeypatch, recwarn):
        from repro.runtime import InvalidBatchError
        from repro.runtime import engine

        model = tiny_chain()
        compiled = compile_model(model, RuntimeConfig())
        for owner, name in (
            (engine.ProgrammedLinear, "matmul_codes"),  # the compiled path's engines
            (CimTiledMatmul, "matmul"),  # the reference path's
        ):
            monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail("engine ran"))
        batch, message = self.CASES[case]
        run = compiled.run if walker == "compiled" else functools.partial(
            reference_forward, model
        )
        with pytest.raises(InvalidBatchError, match=message) as raised:
            run(batch)
        assert isinstance(raised.value, ValueError)
        assert not recwarn.list  # no cast warning on the way

    @pytest.mark.parametrize("entry", ["run", "run_stream"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sharded_edge_checks_before_any_stage(self, case, entry, monkeypatch, recwarn):
        """The sharded edge makes the same check — for a stream, every
        micro-batch before any shard thread starts (a good one first)."""
        from repro.runtime import InvalidBatchError

        sharded = shard(compile_model(tiny_chain(), RuntimeConfig()), 2)
        monkeypatch.setattr(
            CompiledModel, "_walk", lambda *a, **k: pytest.fail("a stage ran")
        )
        batch, message = self.CASES[case]
        with pytest.raises(InvalidBatchError, match=message):
            if entry == "run":
                sharded.run(batch)
            else:
                sharded.run_stream([tiny_input(), batch])
        assert not recwarn.list

    def test_rank_follows_the_first_node(self):
        from repro.runtime import InvalidBatchError

        rng = np.random.default_rng(0)
        linear_first = nn.Sequential(nn.Linear(5, 3, rng=rng), nn.ReLU())
        compiled = compile_model(linear_first, RuntimeConfig())
        with pytest.raises(InvalidBatchError, match="rank 2"):
            compiled.run(np.ones((2, 5, 1, 1)))
        with pytest.raises(InvalidBatchError, match="rank 2"):
            reference_forward(linear_first, np.ones((2, 5, 1, 1)))
        # A first node that reshapes takes any batch; integers are numbers.
        any_rank = nn.Sequential(nn.Flatten(), nn.Linear(5, 3, rng=rng))
        x = np.arange(10).reshape(2, 5, 1)
        out, stats = compile_model(any_rank, RuntimeConfig()).run(x)
        ref, ref_stats = reference_forward(any_rank, x)
        assert out.tobytes() == ref.tobytes() and stats == ref_stats


class TestConsumers:
    def test_profile_model_accepts_compiled(self):
        from repro.models import profile_model

        compiled = compile_model(tiny_chain(), RuntimeConfig(), cache=EngineCache())
        profile = profile_model(compiled, (1, 3, 8, 8))
        assert profile.total_macs > 0
        assert len(profile.weight_layers()) == 2

    def test_profile_model_rejects_other_types(self):
        from repro.models import profile_model

        with pytest.raises(TypeError, match="cannot profile"):
            profile_model(object(), (1, 3, 8, 8))

    def test_compiled_profile_sees_a_freeze_after_compile(self):
        model = models.resnet8(width_mult=0.25, rng=np.random.default_rng(0))
        compiled = compile_model(model, RuntimeConfig(fold_bn=True), cache=EngineCache())
        shape = (1, 3, 32, 32)
        assert compiled.profile(shape).trainable_params > 0
        compiled.model.freeze()
        assert compiled.profile(shape).trainable_params == 0


# ----------------------------------------------------------------------
# Runtime study experiment
# ----------------------------------------------------------------------
class TestRuntimeStudy:
    def test_fast_config_runs_and_is_bitwise(self):
        from repro.experiments import runtime_study

        config = runtime_study.RuntimeStudyConfig(
            in_features=64, layer_widths=(32,), n_requests=3, repeats=1
        )
        result = runtime_study.run(config)
        assert result.engines_programmed == 2
        assert {r.regime for r in result.regimes} == {"serving", "streaming"}
        for regime in result.regimes:
            assert regime.bitwise_identical
            assert regime.compiled_ms > 0 and regime.reference_ms > 0
        assert result.regime("serving").n_calls == 3
