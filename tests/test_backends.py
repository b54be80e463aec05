"""Tests for the kernel backends and the one kernel every engine runs.

The load-bearing guarantees:

* every registered backend is **bitwise identical** to the
  ``reference-fast`` kernel — outputs and stats — built the way the
  performance ledger builds it, ``get_backend(name)(engine)``;
* an engine's kernel is a function of its configuration alone: the
  fast kernel when it is bit-exact for it, the reference macro path
  otherwise — compile reads no clock and is repeatable;
* cache disk-tier counters reconcile (``misses == disk_hits +
  disk_misses``) whether the store raises or quietly returns nothing;
* artifact bytes are a pure function of the compiled model: two saves
  with the same ``created_at`` are byte-identical.
"""

import dataclasses
import hashlib
import inspect
import time
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.cim import BitlineModel, MacroConfig
from repro import models
from repro.obs import trace
from repro.rebranch.convert import convert_to_rebranch
from repro.runtime import (
    CacheStats,
    EngineCache,
    EngineKey,
    RuntimeConfig,
    compile_model,
    fold_batchnorm,
)
from repro.runtime.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    PopcountBitSerialKernel,
    TiledBitSerialKernel,
    available_backends,
    get_backend,
    register_backend,
)
from repro.runtime.engine import EngineCircuit, program_engine
from repro.runtime.snapshot import ArtifactStore, save

RNG = np.random.default_rng(11)


def mlp(seed=0, widths=(96, 48), in_features=64, num_classes=10):
    rng = np.random.default_rng(seed)
    layers = []
    width = in_features
    for next_width in widths:
        layers += [nn.Linear(width, next_width, rng=rng), nn.ReLU()]
        width = next_width
    layers.append(nn.Linear(width, num_classes, rng=rng))
    return nn.Sequential(*layers)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_default_backend_registered_first(self):
        names = available_backends()
        assert names[0] == DEFAULT_BACKEND
        assert get_backend(DEFAULT_BACKEND) is TiledBitSerialKernel

    def test_popcount_registered(self):
        assert get_backend("popcount") is PopcountBitSerialKernel

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(KeyError, match="reference-fast"):
            get_backend("does-not-exist")

    def test_register_requires_a_name(self):
        class Nameless(KernelBackend):
            def __init__(self, engine):
                pass

            def matmul(self, x):
                raise NotImplementedError

        with pytest.raises(ValueError, match="backend_name"):
            register_backend(Nameless)


# ----------------------------------------------------------------------
# Popcount backend: bitwise identity
# ----------------------------------------------------------------------
class TestPopcountBitwise:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_matches_reference_fast(self, signed, n):
        rng = np.random.default_rng(3)
        weight = rng.normal(size=(48, 200))  # multi-tile rows and cols
        linear = program_engine(weight, EngineCircuit(MacroConfig(), 8, signed))
        x = rng.normal(size=(n, 200))
        x = x if signed else np.abs(x)
        out_b, stats_b = linear.execute(x)
        linear._kernel = get_backend("popcount")(linear.engine)
        out_p, stats_p = linear.execute(x)
        assert np.array_equal(out_b, out_p)
        assert stats_b == stats_p

    def test_unsupported_under_bitline_noise(self):
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=1.0))
        assert not PopcountBitSerialKernel.supported(config)


# The class keeps the name its ids were collected under; what it holds
# is the popcount ≡ reference-fast witness on resnet8's engine shapes.
class TestAutotuner:
    # Every engine resnet8 programs: convs at 64 im2col vectors, the
    # classifier at 1.
    @pytest.mark.parametrize(
        "rows,cols,probe_n,signed",
        [
            (27, 64, 64, True),  # stem: sees the signed input image
            (576, 64, 64, False),
            (576, 128, 64, False),
            (1152, 128, 64, False),
            (64, 128, 64, False),  # 1x1 shortcut
            (1152, 256, 64, False),
            (2304, 256, 64, False),
            (128, 256, 64, False),
            (256, 100, 1, False),  # classifier
        ],
    )
    def test_popcount_never_vetoed_on_resnet8_probe_shapes(
        self, rows, cols, probe_n, signed
    ):
        """popcount shares the reference kernel's operand layout, so on
        the full input range its outputs and ``MacroStats`` are the
        reference kernel's bit for bit."""
        weight = np.random.default_rng(rows + cols).normal(size=(cols, rows))
        circuit = EngineCircuit(MacroConfig(), 8, signed)
        engine = program_engine(weight, circuit).engine
        low, high = engine.config.input_range()
        x = np.random.default_rng([rows, cols, probe_n]).integers(
            low, high + 1, size=(rows, probe_n)
        )
        out_r, stats_r = TiledBitSerialKernel(engine).matmul(x)
        out_p, stats_p = get_backend("popcount")(engine).matmul(x)
        assert np.array_equal(out_r, out_p)
        assert stats_r == stats_p


# ----------------------------------------------------------------------
# One stats formula for every pass
# ----------------------------------------------------------------------
class TestOneStatsFormula:
    """Every kernel's stats come from ``macro_pass_stats``, the formula
    the reference tile walk uses — one call per tile, whether the pass
    is a lone group, a grouped layer's stack or the popcount backend —
    and equal the tile walk's, as do the outputs."""

    @pytest.mark.parametrize("kind", ["single", "stack", "popcount"])
    def test_every_pass_reaches_macro_pass_stats(self, kind, monkeypatch):
        from repro.cim import CimTiledMatmul, MacroStats
        from repro.runtime.backends import reference_fast

        if kind == "popcount" and not PopcountBitSerialKernel.supported(MacroConfig()):
            pytest.skip("popcount needs np.bitwise_count")
        rng = np.random.default_rng(17)
        signs = [False, True, False] if kind == "stack" else [True]
        # Two row blocks (128 + 72 rows) x two column tiles (32 + 8).
        engines = [
            CimTiledMatmul(
                rng.integers(-128, 128, size=(200, 40)), MacroConfig(signed_inputs=s)
            )
            for s in signs
        ]
        codes = np.stack(
            [rng.integers(*e.config.input_range(), size=(200, 9)) for e in engines]
        )
        ref = [engine.matmul(x) for engine, x in zip(engines, codes)]
        ref_stats = MacroStats()
        for _, stats in ref:  # a grouped layer's chain: groups in index order
            ref_stats = ref_stats + stats

        if kind == "stack":
            kernel = TiledBitSerialKernel(*engines)
            x, expected = codes, np.stack([out for out, _ in ref])
        else:
            kernel = get_backend(kind.replace("single", DEFAULT_BACKEND))(engines[0])
            x, expected = codes[0], ref[0][0]

        calls = []
        formula = reference_fast.macro_pass_stats
        signature = inspect.signature(formula)

        def spy(*args, **kwargs):
            # The shape of row_activations: one entry per stacked group.
            bound = signature.bind(*args, **kwargs).arguments
            calls.append(np.shape(bound["row_activations"]))
            return formula(*args, **kwargs)

        monkeypatch.setattr(reference_fast, "macro_pass_stats", spy)
        out, stats = kernel.matmul(x)
        assert len(calls) == len(engines[0].tiles) == 4
        assert set(calls) == ({(3,)} if kind == "stack" else {()})
        assert out.tobytes() == expected.tobytes()
        assert stats == ref_stats


# ----------------------------------------------------------------------
# One kernel per engine, decided by the configuration alone
# ----------------------------------------------------------------------
class TestEngineThreading:
    def test_default_engine_unchanged(self):
        circuit = EngineCircuit(MacroConfig(), 8, False)
        engine = program_engine(RNG.normal(size=(16, 64)), circuit)
        assert type(engine._kernel) is TiledBitSerialKernel
        assert type(engine._kernel).backend_name == DEFAULT_BACKEND
        # ... and the reference macro path where the fast kernel is not exact.
        noisy = MacroConfig(bitline=BitlineModel(noise_sigma_counts=1.0))
        noisy_circuit = EngineCircuit(noisy, 8, False)
        assert program_engine(RNG.normal(size=(8, 16)), noisy_circuit)._kernel is None

    def test_runtime_config_fields_are_pinned(self):
        # An option cannot come back unnoticed.
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "rom_config",
            "sram_config",
            "activation_bits",
            "encoding",
            "fold_bn",
        ]

    @pytest.mark.parametrize("rebranch", [False, True], ids=["resnet8", "rebranch"])
    def test_compile_is_clock_free_and_repeatable(self, rebranch, monkeypatch):
        def build():
            rng = np.random.default_rng(0)
            model = models.build_model("resnet8", rng=rng, width_mult=0.25)
            fold_batchnorm(model)
            if rebranch:
                convert_to_rebranch(model, d=4, u=4, rng=rng)
            return model.eval()

        def no_clock():
            raise AssertionError("compile read the clock")

        assert trace.current() is None
        monkeypatch.setattr(time, "perf_counter", no_clock)
        compiles = []
        for _ in range(2):
            cache = EngineCache()
            compiled = compile_model(build(), RuntimeConfig(), cache=cache)
            kernels = {
                layer_id: type(getattr(engine, "linear", engine)._kernel)
                for layer_id, engine in compiled.programmed_engines().items()
            }
            compiles.append((compiled.plan_spec(), cache.keys(), kernels))
        assert compiles[0] == compiles[1]
        assert set(compiles[0][2].values()) == {TiledBitSerialKernel}


# ----------------------------------------------------------------------
# Cache accounting fixes
# ----------------------------------------------------------------------
class _NoneStore:
    """A store whose reads quietly return nothing (no exception)."""

    def __init__(self):
        self.reads = 0
        self.writes = 0

    def read_engine(self, key):
        self.reads += 1
        return None

    def write_engine(self, key, engine):
        self.writes += 1


class _RaisingStore(_NoneStore):
    def read_engine(self, key):
        self.reads += 1
        raise OSError("disk on fire")


class TestCacheAccounting:
    def _key(self, tag):
        return EngineKey(layer_id=tag, weight_hash=tag, config_key=(tag,))

    def test_none_return_counts_as_disk_miss(self):
        cache = EngineCache(capacity=4, store=_NoneStore())
        cache.get_or_program(self._key("a"), lambda: object())
        cache.get_or_program(self._key("b"), lambda: object())
        assert cache.stats.disk_misses == 2
        assert cache.stats.disk_hits == 0
        assert cache.stats.misses == cache.stats.disk_hits + cache.stats.disk_misses

    def test_raising_store_counts_identically(self):
        cache = EngineCache(capacity=4, store=_RaisingStore())
        cache.get_or_program(self._key("a"), lambda: object())
        assert cache.stats.disk_misses == 1
        assert cache.stats.misses == cache.stats.disk_hits + cache.stats.disk_misses

    def test_no_store_never_touches_disk_counters(self):
        cache = EngineCache(capacity=4)  # no disk tier at all
        cache.get_or_program(self._key("a"), lambda: object())
        cache.get_or_program(self._key("a"), lambda: object())
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.disk_hits == 0
        assert cache.stats.disk_misses == 0

    def test_reconciliation_across_hit_and_miss_mix(self):
        store = _NoneStore()
        cache = EngineCache(capacity=4, store=store)
        for tag in ("a", "b", "a", "c", "b"):
            cache.get_or_program(self._key(tag), lambda: object())
        stats = cache.stats
        assert stats.hits == 2
        assert stats.misses == 3
        assert stats.misses == stats.disk_hits + stats.disk_misses
        assert store.reads == stats.disk_hits + stats.disk_misses

    def test_stats_reset_clears_every_field(self):
        stats = CacheStats()
        for index, f in enumerate(dataclasses.fields(CacheStats)):
            setattr(stats, f.name, index + 1)
        stats.reset()
        assert stats == CacheStats()
        assert all(
            getattr(stats, f.name) == f.default for f in dataclasses.fields(CacheStats)
        )


# ----------------------------------------------------------------------
# Snapshots: byte identity
# ----------------------------------------------------------------------
def _store_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestSnapshotProvenance:
    def test_same_created_at_is_byte_identical(self, tmp_path):
        model = mlp(seed=8)
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        store_a = ArtifactStore(tmp_path / "a")
        store_b = ArtifactStore(tmp_path / "b")
        key_a = save(compiled, store_a, created_at=1234.5)
        key_b = save(compiled, store_b, created_at=1234.5)
        assert key_a == key_b
        assert _store_digest(tmp_path / "a") == _store_digest(tmp_path / "b")
