"""Tests for the pluggable kernel-backend layer and its autotuner.

The load-bearing guarantees:

* every registered backend is **bitwise identical** to the reference
  path — outputs and stats — across the zoo x noise x shards matrix;
* the autotuner measures candidates and *vetoes* any whose probe output
  differs by a single bit (candidates are never trusted);
* tuned winners travel in engine cache provenance (``"+tuned"`` tiers,
  ``CacheStats.tuned``) and in ``.rcma`` snapshot headers (format v3),
  so a warm-started process rebuilds them without re-benchmarking;
* cache disk-tier counters reconcile (``misses == disk_hits +
  disk_misses``) whether the store raises or quietly returns nothing;
* artifact bytes are a pure function of the compiled model: two saves
  with the same ``created_at`` are byte-identical.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.cim import BitlineModel, MacroConfig
from repro.runtime import (
    EngineCache,
    EngineKey,
    RuntimeConfig,
    compile_model,
    linear_engine,
    reference_forward,
)
from repro.runtime.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    PopcountBitSerialKernel,
    TiledBitSerialKernel,
    available_backends,
    clear_tune_cache,
    get_backend,
    register_backend,
    tune_kernel,
)
from repro.runtime.backends.base import _REGISTRY
from repro.runtime.engine import ProgrammedConv, ProgrammedLinear, linear_engine_key
from repro.runtime.sharded import shard
from repro.runtime.snapshot import ArtifactStore, load, save

RNG = np.random.default_rng(11)


@pytest.fixture(autouse=True)
def _fresh_tune_decisions():
    clear_tune_cache()
    yield
    clear_tune_cache()


def mlp(seed=0, widths=(96, 48), in_features=64, num_classes=10):
    rng = np.random.default_rng(seed)
    layers = []
    width = in_features
    for next_width in widths:
        layers += [nn.Linear(width, next_width, rng=rng), nn.ReLU()]
        width = next_width
    layers.append(nn.Linear(width, num_classes, rng=rng))
    return nn.Sequential(*layers)


def small_conv_net(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(8 * 4 * 4, 5, rng=rng),
    )


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

    def test_engine_rejects_unknown_backend(self):
        weight = RNG.normal(size=(16, 32))
        with pytest.raises(KeyError, match="unknown kernel backend"):
            ProgrammedLinear(weight, backend="does-not-exist")


# ----------------------------------------------------------------------
# Popcount backend: bitwise identity
# ----------------------------------------------------------------------
class TestPopcountBitwise:
    @pytest.mark.parametrize("signed", [False, True])
    @pytest.mark.parametrize("n", [1, 3, 40])
    def test_matches_reference_fast(self, signed, n):
        rng = np.random.default_rng(3)
        weight = rng.normal(size=(48, 200))  # multi-tile rows and cols
        base = ProgrammedLinear(weight, signed_inputs=signed)
        pop = ProgrammedLinear(weight, backend="popcount", signed_inputs=signed)
        x = rng.normal(size=(n, 200))
        x = x if signed else np.abs(x)
        out_b, stats_b = base.execute(x)
        out_p, stats_p = pop.execute(x)
        assert np.array_equal(out_b, out_p)
        assert stats_b == stats_p

    def test_adopt_shares_groups_and_builds_layout(self):
        weight = RNG.normal(size=(32, 300))
        reference = ProgrammedLinear(weight)._kernel
        adopted = PopcountBitSerialKernel.adopt(reference)
        assert type(adopted) is PopcountBitSerialKernel
        assert adopted._groups is reference._groups
        assert len(adopted._packed_planes) == len(reference._groups)
        # Adopting an instance of the right type is the identity.
        assert PopcountBitSerialKernel.adopt(adopted) is adopted

    def test_unsupported_under_bitline_noise(self):
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=1.0))
        assert not PopcountBitSerialKernel.supported(config)

    def test_pinned_backend_on_unsupported_config_degrades_to_reference(self):
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=1.0))
        engine = ProgrammedLinear(
            RNG.normal(size=(8, 16)), config=config, backend="popcount"
        )
        assert engine._kernel is None
        assert engine.kernel_backend is None


# ----------------------------------------------------------------------
# Autotuner
# ----------------------------------------------------------------------
class TestAutotuner:
    def test_winner_is_bitwise_identical(self):
        weight = RNG.normal(size=(64, 256))
        engine = ProgrammedLinear(weight).engine
        kernel, report = tune_kernel(engine, probe_n=2)
        assert report.winner in available_backends()
        assert not report.cached
        assert DEFAULT_BACKEND in report.timings_ms
        reference = TiledBitSerialKernel(engine)
        x = np.random.default_rng(5).integers(0, 256, size=(256, 3))
        out_k, stats_k = kernel.matmul(x)
        out_r, stats_r = reference.matmul(x)
        assert np.array_equal(out_k, out_r)
        assert stats_k == stats_r

    def test_decisions_cached_by_structure(self):
        weight = RNG.normal(size=(32, 128))
        first = ProgrammedLinear(weight, backend="auto")
        again = ProgrammedLinear(weight, backend="auto")
        assert not first.tune_report.cached
        assert again.tune_report.cached
        assert again.tune_report.winner == first.tune_report.winner
        clear_tune_cache()
        fresh = ProgrammedLinear(weight, backend="auto")
        assert not fresh.tune_report.cached

    def test_wrong_candidate_is_vetoed_never_wins(self):
        class Corrupt(TiledBitSerialKernel):
            backend_name = "test-corrupt"

            def matmul(self, x):
                out, stats = super().matmul(x)
                return out + 1e-9, stats  # off by one ulp-ish: must lose

        register_backend(Corrupt)
        try:
            weight = RNG.normal(size=(24, 96))
            engine = ProgrammedLinear(weight).engine
            kernel, report = tune_kernel(
                engine, candidates=(DEFAULT_BACKEND, "test-corrupt")
            )
            assert "test-corrupt" in report.vetoed
            assert report.winner == DEFAULT_BACKEND
            assert "test-corrupt" not in report.timings_ms
        finally:
            _REGISTRY.pop("test-corrupt", None)

    # Every engine resnet8 programs: convs probe at ProgrammedConv's
    # default 64 vectors, the classifier at 1.
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
        """popcount shares the reference kernel's operand layout; a veto
        here would be a layout mismatch hiding as a "speed decision"."""
        weight = np.random.default_rng(rows + cols).normal(size=(cols, rows))
        engine = ProgrammedLinear(weight, signed_inputs=signed).engine
        _, report = tune_kernel(engine, probe_n=probe_n, repeats=1)
        assert report.vetoed == ()
        assert "popcount" in report.timings_ms

    def test_probe_n_validated(self):
        engine = ProgrammedLinear(RNG.normal(size=(8, 16))).engine
        with pytest.raises(ValueError, match="probe_n"):
            tune_kernel(engine, probe_n=0)

    def test_speedup_reported(self):
        engine = ProgrammedLinear(RNG.normal(size=(32, 128))).engine
        _, report = tune_kernel(engine)
        assert report.speedup() > 0.0


# ----------------------------------------------------------------------
# Engine and cache provenance
# ----------------------------------------------------------------------
class TestEngineThreading:
    def test_default_engine_unchanged(self):
        engine = ProgrammedLinear(RNG.normal(size=(16, 64)))
        assert engine.kernel_backend == DEFAULT_BACKEND
        assert engine.backend_request is None
        assert not engine.tuned
        assert engine.tune_report is None
        assert type(engine._kernel) is TiledBitSerialKernel

    def test_conv_delegates_backend_attrs(self):
        conv = ProgrammedConv(
            RNG.normal(size=(4, 3, 3, 3)), padding=1, backend="auto"
        )
        assert conv.tuned
        assert conv.kernel_backend == conv.linear.kernel_backend
        assert conv.backend_request == "auto"
        assert conv.tune_report is conv.linear.tune_report

    def test_backend_extends_cache_key_only_when_set(self):
        weight = RNG.normal(size=(16, 64))
        config = MacroConfig()
        plain = linear_engine_key(weight, config, 8, False)
        pinned = linear_engine_key(weight, config, 8, False, backend="popcount")
        auto = linear_engine_key(weight, config, 8, False, backend="auto")
        assert plain.config_key[-1] is False  # unchanged legacy shape
        assert pinned != plain and auto != plain and pinned != auto
        assert pinned.config_key[-2:] == ("backend", "popcount")

    def test_tuned_tier_and_counter(self):
        cache = EngineCache(capacity=8)
        weight = RNG.normal(size=(16, 64))
        linear_engine(weight, backend="auto", cache=cache, layer_id="L")
        key = linear_engine_key(
            weight, MacroConfig(), 8, False, "L", None, backend="auto"
        )
        assert cache.tier_of(key) == "programmed+tuned"
        assert cache.stats.tuned == 1
        plain_key = linear_engine_key(weight, MacroConfig(), 8, False, "L", None)
        assert cache.tier_of(plain_key) is None  # distinct identity


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

    def test_stats_reset_clears_tuned(self):
        cache = EngineCache(capacity=4)
        linear_engine(
            RNG.normal(size=(8, 32)), backend="auto", cache=cache, layer_id="r"
        )
        assert cache.stats.tuned == 1
        cache.stats.reset()
        assert cache.stats.tuned == 0


# ----------------------------------------------------------------------
# Compiled models: zoo x noise x shards bitwise matrix
# ----------------------------------------------------------------------
class TestTunedCompiledBitwise:
    @pytest.mark.parametrize("build", [mlp, small_conv_net], ids=["mlp", "conv"])
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_auto_matches_reference_forward(self, build, noisy):
        model = build()
        x = (
            np.random.default_rng(2).normal(size=(2, 64))
            if build is mlp
            else np.random.default_rng(2).normal(size=(2, 3, 8, 8))
        )
        bitline = BitlineModel(noise_sigma_counts=0.5) if noisy else None
        rom = MacroConfig(bitline=bitline)
        sram = MacroConfig(bitline=bitline)
        config = RuntimeConfig(backend="auto", rom_config=rom, sram_config=sram)
        compiled = compile_model(model, config, cache=EngineCache())
        out_c, stats_c = compiled.run(x, rng=np.random.default_rng(9))
        out_r, stats_r = reference_forward(
            model, x, rom_config=rom, sram_config=sram,
            rng=np.random.default_rng(9),
        )
        assert np.array_equal(out_c, out_r)
        assert stats_c == stats_r

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_auto_sharded_matches_unsharded(self, n_shards):
        model = mlp(seed=4)
        x = np.random.default_rng(6).normal(size=(4, 64))
        config = RuntimeConfig(backend="auto")
        compiled = compile_model(model, config, cache=EngineCache())
        expected, _ = compiled.run(x)
        sharded = shard(compiled, n_shards)
        got, _ = sharded.run(x)
        assert np.array_equal(expected, got)


# ----------------------------------------------------------------------
# Snapshots: byte identity + tuned-winner round trip
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

    def test_tuned_winner_survives_round_trip_without_retune(self, tmp_path):
        model = mlp(seed=8)
        config = RuntimeConfig(backend="auto")
        compiled = compile_model(model, config, cache=EngineCache())
        x = np.random.default_rng(3).normal(size=(2, 64))
        expected, expected_stats = compiled.run(x)
        winners = {
            s.layer_id: s.engine_for(s.predicted_signed).kernel_backend
            for s in compiled._slots
        }

        store = ArtifactStore(tmp_path)
        key = save(compiled, store, created_at=0.0)

        clear_tune_cache()  # a warm start must not re-benchmark
        cache = EngineCache(capacity=16)
        loaded = load(store, key, cache=cache)
        got, got_stats = loaded.run(x)
        assert np.array_equal(expected, got)
        assert expected_stats == got_stats
        assert cache.stats.programmed == 0
        for slot in loaded._slots:
            engine = slot.engine_for(slot.predicted_signed)
            assert engine.kernel_backend == winners[slot.layer_id]
            assert engine.tuned
            assert slot.cache_tier() == "snapshot+tuned"

    def test_kernel_backends_introspection(self):
        compiled = compile_model(
            mlp(seed=8), RuntimeConfig(backend="auto"), cache=EngineCache()
        )
        backends = compiled.kernel_backends()
        assert set(backends) == {"0", "2", "4"}
        assert all(name.endswith("(tuned)") for name in backends.values())
