"""Differential tests for the persistent compiled-artifact store.

The load-bearing guarantees:

* **bitwise identity** — for every model family (conv / linear /
  ReBranch) × shard count × seed, with and without bit-line noise,
  ``load(store, save(compiled, store))`` produces a model whose outputs
  and stats are bitwise identical to the freshly compiled one at the
  same execution RNG — including across a process boundary;
* **content addressing** — the artifact key is a pure function of
  (weights, config, shard request): equal inputs collide, any
  difference (a weight bit, a flag, a requires_grad placement) misses;
* **typed failure** — missing keys, truncated/corrupted containers,
  version mismatches and stale weight hashes raise the dedicated
  :class:`SnapshotError` subclasses, and the serving layers
  (``EngineCache`` disk tier, ``ModelRegistry.register``) degrade to
  recompiling instead of crashing.
"""

import collections
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.arch.chiplet import ChipletLinkSpec
from repro.cim import AdcSpec, BitlineModel, CimMacro, MacroConfig
from repro.cim.cells import ROM_1T, SRAM_CIM_6T, CellSpec
from repro.cim.encoding import PulseWidthEncoding, UnaryPulseEncoding
from repro.rebranch.branch import ReBranchConv2d
from repro.runtime import (
    ArtifactStore,
    EngineCache,
    RuntimeConfig,
    ShardedModel,
    SnapshotCorruptError,
    SnapshotError,
    SnapshotKeyError,
    SnapshotStaleError,
    SnapshotVersionError,
    artifact_key,
    compile_model,
    load,
    reference_forward,
    save,
    set_default_cache,
    shard,
)
from repro.runtime import cache as cache_mod
from repro.runtime import compiled as compiled_mod
from repro.runtime import engine as engine_mod
from repro.runtime import snapshot as snapshot_mod
from repro.runtime.engine import EngineCircuit
from repro.runtime.backends import reference_fast
from repro.runtime.backends.reference_fast import TiledBitSerialKernel
from repro.runtime.sharded import ShardSegment
from repro.serve import BatchPolicy, InferenceServer, ModelRegistry

from .helpers import DEADLINE

HW = 8  # input images are (3, HW, HW)


def conv_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(6, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 10, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(10 * (HW // 2) ** 2, 4, rng=rng),
    )


def linear_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Linear(3 * HW * HW, 32, rng=rng),
        nn.ReLU(),
        nn.Linear(32, 16, rng=rng),
        nn.Tanh(),
        nn.Linear(16, 4, rng=rng),
    )


def rebranch_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        ReBranchConv2d(nn.Conv2d(8, 8, 3, padding=1, rng=rng), d=2, u=2, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(8, 4, rng=rng),
    )


def resnet8_model(seed=0):
    """Width-reduced resnet8: residual shortcuts through the DAG plan."""
    from repro.models.resnet import resnet8
    from repro.runtime import fold_batchnorm

    model = resnet8(
        num_classes=4, width_mult=0.125, rng=np.random.default_rng(seed)
    )
    model.eval()
    fold_batchnorm(model)
    return model


def quarter_resnet8():
    """Width-0.25 resnet8 as registered: batch norm not yet folded."""
    from repro.models.resnet import resnet8

    model = resnet8(num_classes=4, width_mult=0.25, rng=np.random.default_rng(0))
    model.eval()
    return model


def mobilenet_model(seed=0):
    """Width-reduced mobilenet: depthwise grouped-conv engine state."""
    from repro.models.mobilenet import mobilenet
    from repro.runtime import fold_batchnorm

    model = mobilenet(
        num_classes=4, width_mult=0.125, rng=np.random.default_rng(seed)
    )
    model.eval()
    fold_batchnorm(model)
    return model


MODELS = {
    "conv": conv_model,
    "linear": linear_model,
    "rebranch": rebranch_model,
    "resnet8": resnet8_model,
    "mobilenet": mobilenet_model,
}


def model_input(name, n=3, seed=1):
    x = np.random.default_rng(seed).normal(size=(n, 3, HW, HW))
    if name == "linear":
        return x.reshape(n, -1)
    return x


def noisy_runtime_config(sigma=0.4):
    return RuntimeConfig(
        rom_config=MacroConfig(
            cell=ROM_1T, bitline=BitlineModel(noise_sigma_counts=sigma)
        ),
        sram_config=MacroConfig(
            cell=SRAM_CIM_6T, bitline=BitlineModel(noise_sigma_counts=sigma)
        ),
    )


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


# ----------------------------------------------------------------------
# Differential round trips: save -> load -> run is bitwise identical
# ----------------------------------------------------------------------
#: Extra seeds of the differential matrices run under ``-m slow`` (CI's
#: full-matrix job); seed 0 keeps every (model, shards) leg in the fast
#: lane.
EXTRA_SEEDS = [
    pytest.param(1, marks=pytest.mark.slow),
    pytest.param(2, marks=pytest.mark.slow),
]


class TestRoundTripIdentity:
    @pytest.mark.parametrize("seed", [0] + EXTRA_SEEDS)
    @pytest.mark.parametrize("n_shards", [None, 1, 2])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_bitwise_identity(self, store, name, n_shards, seed):
        model = MODELS[name](seed)
        compiled = compile_model(
            model, RuntimeConfig(), cache=EngineCache(), shards=n_shards
        )
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        assert isinstance(loaded, ShardedModel) == (n_shards is not None)
        x = model_input(name, seed=seed + 10)
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(9))
        restored, restored_stats = loaded.run(x, rng=np.random.default_rng(9))
        assert np.array_equal(expected, restored)
        assert expected_stats == restored_stats

    @pytest.mark.parametrize("seed", [0] + EXTRA_SEEDS)
    @pytest.mark.parametrize("n_shards", [None, 2])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_bitwise_identity_under_bitline_noise(self, store, name, n_shards, seed):
        # Noise draws happen at execution time, per tile, in plan order:
        # the restored engines must consume the RNG stream identically.
        model = MODELS[name](seed)
        compiled = compile_model(
            model, noisy_runtime_config(), cache=EngineCache(), shards=n_shards
        )
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        x = model_input(name, seed=seed + 20)
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(5))
        restored, restored_stats = loaded.run(x, rng=np.random.default_rng(5))
        assert np.array_equal(expected, restored)
        assert expected_stats == restored_stats
        # Different execution seeds must still differ (noise is real).
        other, _ = loaded.run(x, rng=np.random.default_rng(6))
        assert not np.array_equal(expected, other)

    def test_verify_load_path_is_also_bitwise(self, store):
        compiled = compile_model(conv_model(), RuntimeConfig(), cache=EngineCache())
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache(), verify=True)
        x = model_input("conv")
        expected, _ = compiled.run(x, rng=np.random.default_rng(3))
        restored, _ = loaded.run(x, rng=np.random.default_rng(3))
        assert np.array_equal(expected, restored)

    def test_default_encoding_round_trips(self, store):
        # The compiled default word-line encoding is part of the config
        # and must survive the artifact (it changes execution arithmetic).
        config = RuntimeConfig(encoding=UnaryPulseEncoding())
        compiled = compile_model(conv_model(), config, cache=EngineCache())
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        assert isinstance(loaded.config.encoding, UnaryPulseEncoding)
        x = np.abs(model_input("conv"))  # unsigned: the encoding applies
        expected, _ = compiled.run(x, rng=np.random.default_rng(4))
        restored, _ = loaded.run(x, rng=np.random.default_rng(4))
        assert np.array_equal(expected, restored)

    def test_custom_composite_round_trips_with_layer_ids(self, store):
        class Block(nn.Module):
            #: forward is the registration-order chain, declared so the
            #: runtime compiles it and the artifact serializes it
            #: generically.
            plan_forward = nn.plan_serial

            def __init__(self, rng):
                super().__init__()
                self.body = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
                self.act = nn.ReLU()

            def forward(self, x):
                return self.act(self.body(x))

        rng = np.random.default_rng(0)
        model = nn.Sequential(
            Block(rng), nn.Flatten(), nn.Linear(4 * HW * HW, 2, rng=rng)
        )
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        # Layer ids (and therefore engine-cache keys) are preserved even
        # though the custom class is restored as a generic composite.
        assert [s.layer_id for s in loaded._slots] == [
            s.layer_id for s in compiled._slots
        ]
        x = model_input("conv")
        expected, _ = compiled.run(x, rng=np.random.default_rng(2))
        restored, _ = loaded.run(x, rng=np.random.default_rng(2))
        assert np.array_equal(expected, restored)

    def test_pipelined_stream_replays_bitwise(self, store):
        compiled = compile_model(
            conv_model(), RuntimeConfig(), cache=EngineCache(), shards=2
        )
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        batches = [model_input("conv", seed=s) for s in range(3)]
        expected = compiled.run_stream(batches, seed=11)
        restored = loaded.run_stream(batches, seed=11)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(expected.outputs, restored.outputs)
        )

    def test_loaded_model_weights_are_writable(self, store):
        # The container is mapped copy-on-write: restored parameters
        # must accept in-place training updates like compiled ones.
        compiled = compile_model(linear_model(), RuntimeConfig(), cache=EngineCache())
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        first = loaded.model[0]
        first.weight.data[0, 0] += 1.0
        assert loaded.ensure_fresh() == 1

    def test_save_load_save_is_stable(self, store):
        # A loaded model re-saves under the same content key with the
        # same engines (the artifact is a fixed point) — also when its
        # custom serial composites (ResNet, ConvBNAct) came back as
        # generic containers carrying the class name.
        for model in (conv_model(), quarter_resnet8()):
            compiled = compile_model(
                model, RuntimeConfig(fold_bn=True), cache=EngineCache()
            )
            key = save(compiled, store)
            loaded = load(store, key, cache=EngineCache())
            assert save(loaded, store) == key


# ----------------------------------------------------------------------
# The weight codes are the one programmed state
# ----------------------------------------------------------------------
def reachable_macros(compiled):
    for engine in compiled.programmed_engines().values():
        linear = getattr(engine, "linear", engine)
        for tile in linear.engine.tiles:
            yield tile.macro


class TestCodesAreTheProgrammedState:
    """Counts, not clocks: what is derived when, and what is stored."""

    @staticmethod
    def _model(store, config, how):
        compiled = compile_model(resnet8_model(), config, cache=EngineCache())
        if how == "loaded":
            compiled = load(store, save(compiled, store), cache=EngineCache())
        return compiled

    @pytest.mark.parametrize("how", ["compiled", "loaded"])
    def test_fast_path_never_derives_a_macro_plane(self, store, how):
        compiled = self._model(store, RuntimeConfig(), how)
        x = model_input("resnet8")
        out, stats = compiled.run(x, rng=np.random.default_rng(0))
        macros = list(reachable_macros(compiled))
        assert macros and all(macro._planes is None for macro in macros)
        expected, expected_stats = reference_forward(compiled.model, x)
        assert np.array_equal(out, expected) and stats == expected_stats

    @pytest.mark.parametrize("how", ["compiled", "loaded"])
    def test_reference_path_derives_them_on_first_read(self, store, how):
        config = noisy_runtime_config()
        compiled = self._model(store, config, how)
        assert all(macro._planes is None for macro in reachable_macros(compiled))
        x = model_input("resnet8")
        out, stats = compiled.run(x, rng=np.random.default_rng(3))
        assert all(macro._planes is not None for macro in reachable_macros(compiled))
        expected, expected_stats = reference_forward(
            compiled.model,
            x,
            rom_config=config.rom_config,
            sram_config=config.sram_config,
            rng=np.random.default_rng(3),
        )
        assert np.array_equal(out, expected) and stats == expected_stats

    def test_kernels_are_built_once_per_layer_on_the_first_run(
        self, store, monkeypatch
    ):
        """Compiling and loading a depthwise model build no kernel and
        lay out no tile; each first run builds one kernel per conv or
        linear layer over all of its groups — one ``_TileGroup`` per row
        block — and still lays out no tile.  Engines stay per group."""
        model = mobilenet_model()
        x = model_input("mobilenet")
        expected, expected_stats = reference_forward(model, x)
        built = collections.Counter()
        passes = []

        def count(owner, name, key):
            real = getattr(owner, name)

            def spy(*args, **kwargs):
                built[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        count(CimMacro, "from_state", "macros")
        count(reference_fast._TileGroup, "__init__", "row blocks")
        real_kernel = TiledBitSerialKernel.__init__

        def kernel_spy(kernel, *engines):
            passes.append(len(engines))
            real_kernel(kernel, *engines)

        monkeypatch.setattr(TiledBitSerialKernel, "__init__", kernel_spy)

        layers = [m for m in model.modules() if isinstance(m, (nn.Conv2d, nn.Linear))]
        rows = MacroConfig().rows
        row_blocks = sum(-(-m.weight.data[0].size // rows) for m in layers)
        groups = sorted(getattr(m, "groups", 1) for m in layers)
        assert max(groups) > 1  # depthwise layers

        cache = EngineCache(capacity=1024)
        compiled = compile_model(model, RuntimeConfig(), cache=cache)
        assert cache.stats.programmed == len(cache.keys()) == sum(groups)
        loaded_cache = EngineCache(capacity=1024)
        loaded = load(store, save(compiled, store), cache=loaded_cache)
        assert sorted(map(repr, loaded_cache.keys())) == sorted(map(repr, cache.keys()))
        assert not built and not passes

        for restored in (compiled, loaded):
            for _ in range(2):  # the second run builds nothing
                out, stats = restored.run(x)
                assert out.tobytes() == expected.tobytes()
                assert stats == expected_stats
            assert sorted(passes) == groups
            assert built == {"row blocks": row_blocks}
            del passes[:]
            built.clear()

    def test_two_threads_first_run_a_loaded_model(self, store, monkeypatch):
        """One thread is held inside the loaded model's first kernel
        build while the other runs the whole model, building and
        publishing every kernel; both results are the oracle's."""
        model = mobilenet_model()
        x = model_input("mobilenet")
        expected, expected_stats = reference_forward(model, x)
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        loaded = load(store, save(compiled, store), cache=EngineCache())
        building, other_done = threading.Event(), threading.Event()
        real_kernel = TiledBitSerialKernel.__init__
        builders = []

        def held_kernel(kernel, *engines):
            builders.append(threading.current_thread().name)
            if not building.is_set():
                building.set()
                assert other_done.wait(DEADLINE)
            real_kernel(kernel, *engines)

        monkeypatch.setattr(TiledBitSerialKernel, "__init__", held_kernel)
        results = {}

        def first():
            results["first"] = loaded.run(x)

        def second():
            assert building.wait(DEADLINE)
            try:
                results["second"] = loaded.run(x)
            finally:
                other_done.set()

        threads = [
            threading.Thread(target=first, name="first", daemon=True),
            threading.Thread(target=second, name="second", daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE)
            assert not thread.is_alive()
        assert builders[0] == "first" and "second" in builders
        for name in ("first", "second"):
            out, stats = results[name]
            assert out.tobytes() == expected.tobytes(), name
            assert stats == expected_stats, name

    def test_threads_racing_on_first_runs_agree(self, store):
        """More threads than cores first-run one loaded model at once,
        under a short switch interval: whichever kernels and stacks win
        the publishing races, every result is the oracle's."""
        model = mobilenet_model()
        x = model_input("mobilenet")
        expected, expected_stats = reference_forward(model, x)
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        loaded = load(store, save(compiled, store), cache=EngineCache())
        start = threading.Barrier(4)
        results = [None] * 4

        def first_run(i):
            start.wait(DEADLINE)
            results[i] = loaded.run(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=first_run, args=(i,), daemon=True)
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(DEADLINE)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for out, stats in results:
            assert out.tobytes() == expected.tobytes()
            assert stats == expected_stats

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_artifact_stores_codes_and_scales_only(self, store, name):
        compiled = compile_model(MODELS[name](), RuntimeConfig(), cache=EngineCache())
        meta, arrays = store.read_model(save(compiled, store))
        tree = json.dumps(meta["module_tree"])
        engine_arrays = sorted(set(arrays) - set(re.findall(r'"array": "(\w+)"', tree)))
        assert engine_arrays == sorted(
            f"{entry['tag']}_{part}"
            for entry in meta["engines"]
            for part in ("codes", "scale")
        )
        assert all("kernel_groups" not in entry for entry in meta["engines"])


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
class TestArtifactKey:
    def test_equal_weights_equal_key(self):
        assert artifact_key(linear_model(0)) == artifact_key(linear_model(0))

    def test_weight_change_changes_key(self):
        changed = linear_model(0)
        changed[0].weight.data[0, 0] += 1e-9
        assert artifact_key(linear_model(0)) != artifact_key(changed)

    def test_config_changes_key(self):
        model = linear_model(0)
        assert artifact_key(model) != artifact_key(
            model, RuntimeConfig(activation_bits=6)
        )

    def test_shard_request_changes_key(self):
        model = linear_model(0)
        assert artifact_key(model) != artifact_key(model, shards=2)
        assert artifact_key(model, shards=2) != artifact_key(model, shards=4)

    def test_placement_flags_change_key(self):
        frozen = linear_model(0)
        frozen.freeze()  # ROM placement is content, not convention
        assert artifact_key(linear_model(0)) != artifact_key(frozen)

    def test_key_covers_batchnorm_models(self):
        # Warm-start flows compute the key on the pre-fold model.
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
        )
        assert artifact_key(model, RuntimeConfig(fold_bn=True))


# ----------------------------------------------------------------------
# The format, pinned across commits
# ----------------------------------------------------------------------
def ramp_parameters(model):
    """Literal weights (no RNG): the same bytes on every commit."""
    for parameter in model.parameters():
        ramp = np.arange(parameter.data.size, dtype=np.float64)
        parameter.data[...] = ((ramp % 11) - 5.0).reshape(parameter.data.shape) / 16.0
    return model


def golden_model():
    return ramp_parameters(
        nn.Sequential(
            nn.Conv2d(2, 3, 3, padding=1),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(3 * 4 * 4, 4),
        )
    )


class GoldenSerialUnit(nn.Module):
    """A custom serial composite: stored under the generic kind."""

    plan_forward = nn.plan_serial

    def __init__(self):
        super().__init__()
        self.conv = nn.Conv2d(2, 4, 3, padding=1)
        self.act = nn.LeakyReLU(0.1)
        self.drop = nn.Dropout(0.25)

    def forward(self, x):
        return self.drop(self.act(self.conv(x)))


def golden_all_kinds_model():
    """Every module kind a compiled artifact can hold (``batchnorm2d`` is
    folded away before compilation; :func:`golden_bn_model` pins it).
    Pool geometry is spelled all three ways the header stores it: an
    int, a pair, and an unset stride."""
    from repro.models.mobilenet import DepthwiseSeparable
    from repro.models.resnet import BasicBlock
    from repro.runtime import fold_batchnorm

    model = nn.Sequential(
        GoldenSerialUnit(),
        ReBranchConv2d(nn.Conv2d(4, 4, 3, padding=1), d=2, u=2),
        nn.Sigmoid(),
        nn.MaxPool2d(2),
        BasicBlock(4, 6),
        nn.AvgPool2d((2, 2), (2, 2)),
        DepthwiseSeparable(6, 8),
        nn.Tanh(),
        nn.Identity(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(8, 3),
    )
    model.eval()
    fold_batchnorm(model)
    return ramp_parameters(model)


def golden_bn_model():
    """A pre-fold model as warm-start flows key it.  A plain
    ``Sequential``: no custom class name enters the digest."""
    model = ramp_parameters(
        nn.Sequential(
            nn.Conv2d(2, 3, 3, padding=1),
            nn.BatchNorm2d(3),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(3 * 4 * 4, 4),
        )
    )
    model[1]._update_buffer("running_mean", np.array([0.25, -0.5, 0.125]))
    model[1]._update_buffer("running_var", np.array([1.5, 0.75, 2.0]))
    return model


#: shard count -> (artifact_key, sha256 of the ``.rcma`` file saved with
#: ``created_at=0.0``), recomputed once for format VERSION 6.
#: A change here is a format change: bump ``VERSION`` deliberately.
#: Header diff against VERSION 5 (pins ee20f5a9…/d866edf9… and
#: 8ea8cad1…/49087698…, commit 65fe04b), nothing else moved:
#:   "version": 5 -> 6 (and "key", which digests it)
#:   each engine:      - "kind", "activation_bits", "config", and for a
#:                     conv "stride", "padding", "weight_shape"; what is
#:                     left is "tag", "layer_id", "signed_inputs"
#:   "runtime_config": - "assume_signed_input" (the field is gone)
#:   "arrays", "data_size", "data_sha256": unchanged (same data section)
#: 5856 -> 4576 bytes unsharded, 6176 -> 4896 bytes in two shards.
GOLDEN = {
    None: (
        "7cb225332138e19d9586d6ee030b3f532afdcdf430a0087f09a89b324855ba93",
        "27bce1d0e96b23f246603298e3bb69f6e86fef0457ce0b156000524390d90025",
    ),
    2: (
        "5ce47a2778f21b071e99a08e40bab3979d8c20ce613e3a6c552aae6fa3181204",
        "501e4a0ae3d096f2e3fad191341143df69843970cd773a5b83f2076864284799",
    ),
}


#: The same pins for :func:`golden_all_kinds_model` (33816 -> 23256 and
#: 34520 -> 23960 bytes, the same header diff over 16 engines), and the
#: keys of :func:`golden_bn_model` with and without ``fold_bn`` — keys
#: digest ``VERSION`` and the ``RuntimeConfig`` fields, so they moved
#: with the two and with nothing else.
GOLDEN_ALL_KINDS = {
    None: (
        "5e9fae2c60233380963ad70db1831bf1d4fbca17f772fe065a0f0f0faf310628",
        "a2d93fee134b019f9d33325ed23e496faf837f6af1e8d32a773e772ba54fe80c",
    ),
    2: (
        "a1fbb879616eab0d533eab1961e4b351e7f80fabdc751dba40b330398cc8ff39",
        "f52baa63143fa9e68a8ec5387e1fb952693e2921a8916715c653f9b43f40d150",
    ),
}
GOLDEN_BN_KEYS = {
    True: "463c2a6eb4fb4d1bb863a2d53b0946698d32b2a9e3f21ffe82d89601b7111973",
    False: "0e6f2bb2b056ad389272077fa2462df9169935aacb8fffd0283e66af55df4845",
}


class TestGoldenFormat:
    @staticmethod
    def _saved_key_and_sha256(store, build, n_shards):
        compiled = compile_model(build(), RuntimeConfig(), cache=EngineCache())
        target = compiled if n_shards is None else shard(compiled, n_shards)
        key = save(target, store, created_at=0.0)
        link = None if n_shards is None else target.link
        assert key == artifact_key(build(), shards=n_shards, link=link)
        return key, hashlib.sha256(store.model_path(key).read_bytes()).hexdigest()

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_artifact_bytes_and_key_are_pinned(self, store, n_shards):
        assert snapshot_mod.VERSION == 6
        pins = self._saved_key_and_sha256(store, golden_model, n_shards)
        assert pins == GOLDEN[n_shards]

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_all_kinds_artifact_bytes_and_key_are_pinned(self, store, n_shards):
        pins = self._saved_key_and_sha256(store, golden_all_kinds_model, n_shards)
        assert pins == GOLDEN_ALL_KINDS[n_shards]
        tree = json.dumps(store.meta(pins[0])["module_tree"])
        kinds = set(re.findall(r'"kind": "(\w+)"', tree)) | {"batchnorm2d"}
        assert kinds == set(snapshot_mod.MODULE_KINDS), "a row no pin covers"

    def test_default_stamp_does_not_move_the_header(self, store, monkeypatch):
        """The wall-clock stamp is whole seconds: two clocks whose
        ``repr`` lengths differ give one header size and one file size,
        so an artifact's bytes never depend on when it was saved."""
        compiled = compile_model(golden_model(), RuntimeConfig(), cache=EngineCache())
        sizes = []
        for now in (1760000000.5, 1760000000.123456789):
            monkeypatch.setattr(snapshot_mod.time, "time", lambda: now)
            key = save(compiled, store)
            blob = store.model_path(key).read_bytes()
            start = len(snapshot_mod.MAGIC)
            sizes.append((int.from_bytes(blob[start : start + 8], "little"), len(blob)))
            assert store.meta(key)["created_at"] == 1760000000.0
        assert len(repr(1760000000.5)) != len(repr(1760000000.123456789))
        assert sizes[0] == sizes[1]

    @pytest.mark.parametrize("fold_bn", [True, False])
    def test_pre_fold_batchnorm_key_is_pinned(self, fold_bn):
        config = RuntimeConfig(fold_bn=fold_bn)
        assert artifact_key(golden_bn_model(), config) == GOLDEN_BN_KEYS[fold_bn]

    def test_engine_tier_file_names_are_pinned(self, store):
        """An engine's disk-tier file is named by its cache key: the key
        tuples of a linear and a conv engine must not move (they last
        moved when the key became the arithmetic projection of the run
        config)."""
        cache = EngineCache()
        fc = np.arange(12.0).reshape(3, 4) / 10
        rom = MacroConfig(cell=ROM_1T)
        fc_circuit = EngineCircuit(rom, 8, True)
        cache.get_or_program(
            fc_circuit.engine_key("fc", cache_mod.weight_fingerprint(fc)),
            lambda: engine_mod.program_engine(fc, fc_circuit),
        )
        stem = np.arange(54.0).reshape(2, 3, 3, 3) / 10
        stem_circuit = EngineCircuit(MacroConfig(), 4, False)
        key = stem_circuit.engine_key(
            "stem::g0", cache_mod.weight_fingerprint(stem), 2, 1
        )
        cache.get_or_program(
            key, lambda: engine_mod.program_engine(stem, stem_circuit, 2, 1)
        )
        assert [store.engine_path(key).name for key in cache.keys()] == [
            "b5fb664e0e4943648e68b19b9b03e380420c4f7011445f9dd1dc98439c72aa81.rcma",
            "2aaf32389f18a5733f7f499d20ad39fd5ead32d79b3fd3ad70dd1560be04b667.rcma",
        ]


class TestEngineKeys:
    @pytest.mark.parametrize("leg", ["compiled", "loaded"])
    def test_every_slot_engine_is_held_under_its_key(self, store, leg):
        """A slot's engine key (what ``cache_tier`` asks for) is the key
        the cache holds the engine under — whether compile programmed it
        or ``load`` seeded it from the engine's own restored state."""
        # Room for every per-group engine: none is evicted.
        compiled = compile_model(
            mobilenet_model(), RuntimeConfig(), cache=EngineCache(capacity=1024)
        )
        if leg == "loaded":
            compiled = load(
                store, save(compiled, store), cache=EngineCache(capacity=1024)
            )
        assert len(compiled.cache.keys()) == len(compiled._slots) > 128
        held = {id(compiled.cache.get(key)): key for key in compiled.cache.keys()}
        assert len(held) == len(compiled.cache.keys())
        for slot in compiled._slots:
            circuit = slot.circuits_fn()[slot.predicted_signed]
            engine = slot._engines[circuit]
            key = EngineCircuit(
                circuit.config, circuit.activation_bits, slot.predicted_signed
            ).engine_key(slot.layer_id, slot.fingerprint, *slot.geometry)
            assert held[id(engine)] == key
            assert slot.cache_tier() == ("programmed" if leg == "compiled" else "snapshot")


class TestRestorePath:
    """A load builds the plan once, straight into the caller's cache:
    every slot adopts its stored codes under the restored tree's
    placement, and nothing is quantized or programmed."""

    @pytest.mark.parametrize("verify", [False, True])
    def test_weights_are_hashed_only_under_verify(self, store, monkeypatch, verify):
        compiled = compile_model(mobilenet_model(), RuntimeConfig(), cache=EngineCache())
        key = save(compiled, store)
        hashed = []
        real = cache_mod.weight_fingerprint

        def counting(weight):
            hashed.append(weight.shape)
            return real(weight)

        for module in (cache_mod, compiled_mod, snapshot_mod):
            monkeypatch.setattr(module, "weight_fingerprint", counting)
        cache = EngineCache(capacity=1024)
        loaded = load(store, key, cache=cache, verify=verify)
        assert len(hashed) == (len(loaded._slots) if verify else 0)
        assert cache.stats.programmed == 0
        assert {slot.cache_tier() for slot in loaded._slots} == {"snapshot"}

    @pytest.mark.parametrize("capacity", [0, 1])
    def test_a_cache_too_small_to_hold_the_model_programs_nothing(
        self, store, capacity
    ):
        compiled = compile_model(mobilenet_model(), RuntimeConfig(), cache=EngineCache())
        cache = EngineCache(capacity=capacity)
        loaded = load(store, save(compiled, store), cache=cache)
        x = model_input("mobilenet")
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(1))
        restored, restored_stats = loaded.run(x, rng=np.random.default_rng(1))
        assert restored.tobytes() == expected.tobytes()
        assert restored_stats == expected_stats
        assert cache.stats.programmed == 0

    def test_restored_codes_are_copied_at_their_stored_width(self, store):
        """A compile and a restore build the same engine: one codes array
        at the config's storage width, ``w_codes`` a view of the tiled
        engine's, owned by the engine and not by the artifact mapping."""
        compiled = compile_model(conv_model(), RuntimeConfig(), cache=EngineCache())
        loaded = load(store, save(compiled, store), cache=EngineCache())
        for model in (compiled, loaded):
            for engine in model.programmed_engines().values():
                linear = getattr(engine, "linear", engine)
                codes = linear.w_codes
                assert codes.dtype == linear.run_config.codes_dtype == np.int8
                assert np.shares_memory(codes, linear.engine.weights)
                while isinstance(codes.base, np.ndarray):
                    codes = codes.base
                assert codes.base is None and codes.flags.owndata

    def test_codes_stored_at_another_width_are_refused(self, store):
        """A same-length dtype flip in the header (``|i1`` -> ``|b1``)
        leaves the checksummed data intact; the restore must refuse the
        bool codes rather than run them."""
        compiled = compile_model(conv_model(), RuntimeConfig(), cache=EngineCache())
        key = save(compiled, store)
        path = store.model_path(key)
        blob = path.read_bytes()
        assert b'"|i1"' in blob
        path.write_bytes(blob.replace(b'"|i1"', b'"|b1"'))
        with pytest.raises(SnapshotCorruptError, match="bool weight codes, expected int8"):
            load(store, key, cache=EngineCache())

    @pytest.mark.parametrize("verify", [False, True], ids=["load", "verify"])
    @pytest.mark.parametrize(
        "array", [rb"e\d+_scale", rb"p\d+"], ids=["engine-scale", "parameter"]
    )
    def test_float_arrays_stored_at_another_dtype_are_refused(
        self, store, array, verify
    ):
        """The writer stores parameters, buffers and engine scales as
        float64.  A same-length header flip to ``<i8`` reads their bytes
        as huge integers; the checksum covers the data section, not the
        header's array index, so even a verified restore must refuse the
        array rather than cast it."""
        compiled = compile_model(conv_model(), RuntimeConfig(), cache=EngineCache())
        key = save(compiled, store)
        path = store.model_path(key)
        blob, flips = re.subn(
            rb'("' + array + rb'": \{"dtype": )"<f8"',
            rb'\1"<i8"',
            path.read_bytes(),
            count=1,
        )
        assert flips == 1
        path.write_bytes(blob)
        with pytest.raises(SnapshotCorruptError, match="int64.*expected float64"):
            load(store, key, cache=EngineCache(), verify=verify)

    def test_freeze_after_compile_saves_the_placement_now(self, store):
        """Freeze after compile: the artifact holds only the variants
        programmed under ROM placement — both input signednesses of the
        first layer, the predicted one of the others — not the SRAM
        ones programmed before, and the load is bitwise equal."""
        model = conv_model()
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        x = model_input("conv")
        batches = (x, np.abs(x))  # the first layer sees both signednesses
        for batch in batches:
            compiled.run(batch)
        model.freeze()
        for batch in batches:
            compiled.run(batch)
        key = save(compiled, store)
        entries = store.meta(key)["engines"]
        assert sorted(entry["layer_id"] for entry in entries) == sorted(
            ["0"] + [slot.layer_id for slot in compiled._slots]
        )
        cache = EngineCache()
        loaded = load(store, key, cache=cache)
        for batch in batches:
            expected, expected_stats = compiled.run(batch, rng=np.random.default_rng(2))
            restored, restored_stats = loaded.run(batch, rng=np.random.default_rng(2))
            assert restored.tobytes() == expected.tobytes()
            assert restored_stats == expected_stats
        assert cache.stats.programmed == 0
        cells = {
            getattr(engine, "linear", engine).config.cell
            for slot in loaded._slots
            for engine in slot._engines.values()
        }
        assert cells == {ROM_1T}

    def test_freeze_after_load_reprograms_from_the_weights(self, store):
        compiled = compile_model(conv_model(), RuntimeConfig(), cache=EngineCache())
        cache = EngineCache()
        loaded = load(store, save(compiled, store), cache=cache)
        compiled.model.freeze()
        loaded.model.freeze()
        x = model_input("conv")
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(4))
        restored, restored_stats = loaded.run(x, rng=np.random.default_rng(4))
        assert restored.tobytes() == expected.tobytes()
        assert restored_stats == expected_stats
        assert cache.stats.programmed == len(loaded._slots)

    def test_engine_tier_entry_is_the_model_entry_plus_its_circuit(self, store):
        cache = EngineCache(store=store)
        compile_model(conv_model(), RuntimeConfig(), cache=cache)
        metas = [
            ArtifactStore._read(path)[0]
            for path in sorted((store.root / "engines").glob("*.rcma"))
        ]
        assert len(metas) == cache.stats.programmed
        for meta in metas:
            assert set(meta["engine"]) == {"tag", "layer_id", "signed_inputs"}
            assert set(meta) == {
                "payload",
                "weight_hash",
                "engine",
                "config",
                "activation_bits",
                "weight_shape",
                "geometry",
            }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_an_engine_entry_is_tag_layer_and_signedness(self, store, name):
        compiled = compile_model(MODELS[name](), RuntimeConfig(), cache=EngineCache())
        entries = store.meta(save(compiled, store))["engines"]
        assert entries and all(
            list(entry) == ["tag", "layer_id", "signed_inputs"] for entry in entries
        )


def rewrite_artifact(store, key, edit):
    """Rewrite the artifact under ``key`` after ``edit(meta, arrays)``
    (a well-formed container whose checksum covers the edited data)."""
    meta, arrays = store.read_model(key)
    arrays = {name: np.array(value) for name, value in arrays.items()}
    edit(meta, arrays)
    store._write(store.model_path(key), meta, arrays)


def depthwise_model(seed=0):
    """A plain conv, a four-group depthwise conv (layer ids ``2::g0`` ..
    ``2::g3``) and a linear head."""
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(4, 4, 3, padding=1, groups=4, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(4, 3, rng=rng),
    )


class TestGroupedRestore:
    """A load adopts a grouped layer's groups together — one copy of
    their codes off the mapping, one cache seeding — and still refuses
    any one group's damaged state with the typed error naming it."""

    GROUP = "2::g1"

    def _saved(self, store):
        compiled = compile_model(depthwise_model(), RuntimeConfig(), cache=EngineCache())
        return compiled, save(compiled, store)

    def _tag(self, meta):
        (entry,) = [e for e in meta["engines"] if e["layer_id"] == self.GROUP]
        return entry["tag"]

    def test_restored_groups_are_views_of_one_owned_copy(self, store):
        compiled, key = self._saved(store)
        loaded = load(store, key, cache=EngineCache())
        assert {slot.cache_tier() for slot in loaded._slots} == {"snapshot"}
        owners = set()
        for slot in loaded._slots:
            if "::g" not in slot.layer_id:
                continue
            codes = slot.engine_for(slot.predicted_signed).linear.w_codes
            while isinstance(codes.base, np.ndarray):
                codes = codes.base
            assert codes.base is None and codes.flags.owndata
            owners.add(id(codes))
        assert len(owners) == 1  # four groups, one array
        x = model_input("conv")
        expected, expected_stats = compiled.run(x)
        restored, restored_stats = loaded.run(x)
        assert restored.tobytes() == expected.tobytes()
        assert restored_stats == expected_stats

    #: One group's stored state damaged: codes at another width, codes
    #: one input column short, scales reinterpreted as ``<i8``.
    _EDITS = {
        "width": (
            lambda arrays, tag: arrays.update(
                {f"{tag}_codes": arrays[f"{tag}_codes"].astype(np.int16)}
            ),
            "int16 weight codes, expected int8",
        ),
        "shape": (
            lambda arrays, tag: arrays.update(
                {f"{tag}_codes": arrays[f"{tag}_codes"][:, :-1]}
            ),
            "weight codes for weights",
        ),
        "scale-dtype": (
            lambda arrays, tag: arrays.update(
                {f"{tag}_scale": arrays[f"{tag}_scale"].view(np.int64)}
            ),
            "int64 weight scales, expected float64",
        ),
    }

    @pytest.mark.parametrize("verify", [False, True], ids=["load", "verify"])
    @pytest.mark.parametrize("edit", sorted(_EDITS))
    def test_one_damaged_group_is_typed(self, store, edit, verify):
        _, key = self._saved(store)
        change, problem = self._EDITS[edit]
        rewrite_artifact(
            store, key, lambda meta, arrays: change(arrays, self._tag(meta))
        )
        with pytest.raises(SnapshotCorruptError, match=f"'{self.GROUP}' stores .*{problem}"):
            load(store, key, cache=EngineCache(), verify=verify)

    @pytest.mark.parametrize("verify", [False, True], ids=["load", "verify"])
    def test_one_dropped_group_entry_is_stale(self, store, verify):
        """As for a plain layer (``test_layer_without_an_entry_is_stale``),
        an artifact holding no state for one group is stale for it."""
        _, key = self._saved(store)

        def edit(meta, arrays):
            meta["engines"] = [e for e in meta["engines"] if e["layer_id"] != self.GROUP]

        rewrite_artifact(store, key, edit)
        with pytest.raises(SnapshotStaleError, match=f"'{self.GROUP}'"):
            load(store, key, cache=EngineCache(), verify=verify)

    def test_one_changed_group_weight_is_stale_under_verify(self, store):
        _, key = self._saved(store)

        def edit(meta, arrays):
            grouped = meta["module_tree"]["children"][2][1]
            arrays[grouped["weight"]["array"]][1] += 1.0

        rewrite_artifact(store, key, edit)
        load(store, key, cache=EngineCache())  # trusted fingerprints
        with pytest.raises(SnapshotStaleError, match=f"'{self.GROUP}'"):
            load(store, key, cache=EngineCache(), verify=True)


class TestOneRunConfigPerPlacement:
    """A compile or a load derives each placement's run config once:
    every engine under one placement and input signedness holds the same
    object, snapshotted from the caller's config at compile time."""

    @staticmethod
    def _run_configs(deployed):
        """``(cell, signed) -> {id(run_config)}`` over every engine."""
        held = collections.defaultdict(set)
        for slot in deployed._slots:
            for engine in slot._engines.values():
                linear = getattr(engine, "linear", engine)
                held[linear.config.cell.name, linear.signed_inputs].add(
                    id(linear.run_config)
                )
        return held

    def test_engines_of_one_placement_share_one_run_config(self, store):
        model = depthwise_model()
        model[0].weight.requires_grad = False  # ROM; the rest on SRAM
        x = model_input("conv")
        compiled, again = (
            compile_model(model, RuntimeConfig(), cache=EngineCache()) for _ in "ab"
        )
        for deployed in (compiled, again):
            deployed.run(np.abs(x))  # the first layer's unsigned variant too
        loaded = load(store, save(compiled, store), cache=EngineCache())
        seen = set()
        for deployed in (compiled, again, loaded):
            held = self._run_configs(deployed)
            assert set(held) >= {
                (ROM_1T.name, True),
                (ROM_1T.name, False),
                (SRAM_CIM_6T.name, False),
            }
            assert all(len(ids) == 1 for ids in held.values())
            ids = set().union(*held.values())
            assert not ids & seen  # no two deployments share one
            seen |= ids

    def test_mutating_the_callers_bitline_changes_no_programmed_engine(self):
        """The bit line is mutated after compile but before the first run
        builds any kernel: outputs, stats and keys are a pristine
        compile's."""

        def configs():
            return RuntimeConfig(
                rom_config=MacroConfig(cell=ROM_1T, bitline=BitlineModel()),
                sram_config=MacroConfig(cell=SRAM_CIM_6T, bitline=BitlineModel()),
            )

        x = model_input("mobilenet")
        pristine = compile_model(mobilenet_model(), configs(), cache=EngineCache(1024))
        expected, expected_stats = pristine.run(x, rng=np.random.default_rng(0))
        config = configs()
        compiled = compile_model(mobilenet_model(), config, cache=EngineCache(1024))
        for macro in (config.rom_config, config.sram_config):
            macro.bitline.saturation = 2.0
            macro.bitline.max_rows = 8
        out, stats = compiled.run(x, rng=np.random.default_rng(0))
        assert out.tobytes() == expected.tobytes()
        assert stats == expected_stats
        assert compiled.cache.keys() == pristine.cache.keys()
        assert {slot.cache_tier() for slot in compiled._slots} == {"programmed"}


class TestCliArtifactFailures:
    """A missing or damaged artifact ends a command with one typed line
    on stderr and exit status 1, not a traceback."""

    def test_compile_load_of_a_missing_key(self, store, capsys):
        from repro.cli import main

        assert main(["compile", "--store", str(store.root), "--load", "0" * 64]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: SnapshotKeyError: ") and err.count("\n") == 1

    def test_warm_verify_of_a_damaged_store(self, store, capsys):
        from repro.cli import main
        from repro.experiments.common import zoo_model

        # A small artifact under the key `warm` computes for vgg8, so the
        # command finds it cached and goes straight to verifying.
        key = artifact_key(*zoo_model("vgg8", 0))
        compiled = compile_model(linear_model(), RuntimeConfig(), cache=EngineCache())
        save(compiled, store, key=key)
        path = store.model_path(key)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        argv = ["warm", "--store", str(store.root), "--models", "vgg8", "--verify"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: SnapshotCorruptError: ") and "checksum" in err


def stored_dataclasses():
    """One non-default instance of every dataclass the header stores."""
    config = MacroConfig(
        rows=64,
        phys_columns=96,
        n_adcs=np.int64(8),
        adc=AdcSpec(bits=6, energy_fj=3),
        cell=SRAM_CIM_6T,
        weight_bits=4,
        signed_inputs=True,
        cycle_time_ns=np.float64(1.5),
        bitline=BitlineModel(max_rows=64, noise_sigma_counts=0.25, saturation=0.9),
    )
    return [
        SRAM_CIM_6T,
        config.adc,
        config.bitline,
        config,
        RuntimeConfig(
            rom_config=config,
            activation_bits=6,
            encoding=PulseWidthEncoding(jitter_sigma_slots=0.5),
            fold_bn=True,
        ),
        ChipletLinkSpec(energy_pj_per_bit=2.0, pins_per_link=16),
        ShardSegment(
            index=1,
            step_indices=(3, 4, 5),
            layer_ids=("3", "5"),
            weight_bits=4096.0,
            macs=1.5e6,
            cost=1.5e6,
        ),
    ]


class TestDerivedCodecs:
    """The header codecs are derived from ``dataclasses.fields``."""

    @pytest.mark.parametrize(
        "value", stored_dataclasses(), ids=lambda value: type(value).__name__
    )
    def test_round_trip_covers_every_field(self, value):
        meta = snapshot_mod.to_meta(value)
        names = [field.name for field in dataclasses.fields(value)]
        assert list(meta) == names
        # The meta is plain JSON, and survives it exactly.
        wire = json.loads(json.dumps(meta))
        assert wire == meta
        assert snapshot_mod.from_meta(type(value), wire) == value

    @pytest.mark.parametrize(
        "value",
        [v for v in stored_dataclasses() if not isinstance(v, (CellSpec, ShardSegment))],
        ids=lambda value: type(value).__name__,
    )
    def test_missing_key_takes_the_field_default(self, value):
        # ... exactly as if the constructor had not been passed it.
        cls = type(value)
        meta = snapshot_mod.to_meta(value)
        kwargs = {f.name: getattr(value, f.name) for f in dataclasses.fields(cls)}
        for dropped in kwargs:
            partial = {k: v for k, v in meta.items() if k != dropped}
            expected = cls(**{k: v for k, v in kwargs.items() if k != dropped})
            assert snapshot_mod.from_meta(cls, partial) == expected

    def test_required_field_missing_is_an_error(self):
        meta = snapshot_mod.to_meta(SRAM_CIM_6T)
        del meta["area_um2"]
        with pytest.raises(TypeError):
            snapshot_mod.from_meta(CellSpec, meta)

    def test_header_with_deleted_circuit_fields_loads(self, store):
        """A v6 header written while ``BitlineModel.v_precharge``,
        ``AdcSpec.conversion_time_ns`` and ``CellSpec.transistors`` /
        ``computes`` existed restores today's dataclasses: the codec
        reads the fields a class declares and ignores the rest, so
        deleting a field needs no ``VERSION`` bump."""
        config = RuntimeConfig(
            rom_config=MacroConfig(cell=ROM_1T),
            sram_config=MacroConfig(cell=SRAM_CIM_6T),
        )
        compiled = compile_model(conv_model(), config, cache=EngineCache())
        key = save(compiled, store)
        meta, arrays = store.read_model(key)
        for memory, transistors in (("rom_config", 1), ("sram_config", 6)):
            macro = meta["runtime_config"][memory]
            macro["cell"].update(transistors=transistors, computes=True)
            macro["adc"]["conversion_time_ns"] = 1.1
            macro["bitline"]["v_precharge"] = 0.9
        arrays = {name: np.array(value) for name, value in arrays.items()}
        store._write(store.model_path(key), meta, arrays)
        loaded = load(store, key, cache=EngineCache())
        assert loaded.config == config
        x = model_input("conv")
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(1))
        restored, restored_stats = loaded.run(x, rng=np.random.default_rng(1))
        assert restored.tobytes() == expected.tobytes()
        assert restored_stats == expected_stats


# ----------------------------------------------------------------------
# Cross-process identity
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import sys
import numpy as np
from repro.runtime import ArtifactStore, EngineCache, load

store_dir, key, x_path, out_path = sys.argv[1:5]
loaded = load(ArtifactStore(store_dir), key, cache=EngineCache())
x = np.load(x_path)
y, stats = loaded.run(x, rng=np.random.default_rng(9))
np.save(out_path, y)
print(stats.total_energy_fj)
"""


class TestCrossProcess:
    def test_subprocess_load_matches_parent_fresh_compile(self, store, tmp_path):
        # A different process restoring the artifact must reproduce the
        # parent's fresh-compile outputs bitwise — this catches any
        # accidental dependence on in-process state (shared caches,
        # interned objects, RNG order).
        model = conv_model(3)
        compiled = compile_model(model, noisy_runtime_config(), cache=EngineCache())
        key = save(compiled, store)
        x = model_input("conv", seed=42)
        x_path = tmp_path / "x.npy"
        out_path = tmp_path / "y.npy"
        np.save(x_path, x)

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                _CHILD_SCRIPT,
                str(store.root),
                key,
                str(x_path),
                str(out_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        expected, stats = compiled.run(x, rng=np.random.default_rng(9))
        child_outputs = np.load(out_path)
        assert np.array_equal(expected, child_outputs)
        assert float(result.stdout.strip()) == stats.total_energy_fj


# ----------------------------------------------------------------------
# Robustness: typed failures, graceful serving degradation
# ----------------------------------------------------------------------
class TestRobustness:
    def _saved(self, store, name="linear"):
        compiled = compile_model(MODELS[name](), RuntimeConfig(), cache=EngineCache())
        key = save(compiled, store)
        return compiled, key

    def test_missing_key_is_typed(self, store):
        with pytest.raises(SnapshotKeyError):
            load(store, "0" * 64)
        with pytest.raises(SnapshotError):
            store.meta("0" * 64)

    def test_truncated_artifact_is_typed(self, store):
        _, key = self._saved(store)
        path = store.model_path(key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SnapshotCorruptError):
            load(store, key)

    def test_garbage_artifact_is_typed(self, store):
        _, key = self._saved(store)
        store.model_path(key).write_bytes(b"not an artifact at all")
        with pytest.raises(SnapshotCorruptError):
            load(store, key)

    def test_empty_artifact_is_typed(self, store):
        _, key = self._saved(store)
        store.model_path(key).write_bytes(b"")
        with pytest.raises(SnapshotCorruptError):
            load(store, key)

    def test_version_mismatch_is_typed(self, store, monkeypatch):
        compiled = compile_model(linear_model(), RuntimeConfig(), cache=EngineCache())
        # The previous formats (what pre-2.0 and pre-2.2 stores hold) and
        # a future one.
        for written in (3, 4, snapshot_mod.VERSION + 1):
            monkeypatch.setattr(snapshot_mod, "VERSION", written)
            key = save(compiled, store)
            monkeypatch.undo()
            with pytest.raises(SnapshotVersionError):
                load(store, key)

    def test_version_3_store_misses_and_is_rewritten(self, tmp_path, monkeypatch):
        # A store written by an older format (3: kernel provenance; 4:
        # packed planes beside the codes) can make a lookup miss, never
        # fail: the registry compiles cold and overwrites, the engine
        # cache's disk tier counts misses and reprograms.
        for written in (3, 4):
            store = ArtifactStore(tmp_path / f"v{written}")
            key = artifact_key(linear_model(), RuntimeConfig())
            monkeypatch.setattr(snapshot_mod, "VERSION", written)
            old_cache = EngineCache(store=store)
            compiled = compile_model(linear_model(), RuntimeConfig(), cache=old_cache)
            save(compiled, store, key=key)
            monkeypatch.undo()
            n_engines = old_cache.stats.programmed
            written = [store.engine_path(k).exists() for k in old_cache.keys()]
            assert n_engines == sum(written) > 0

            entry = ModelRegistry(cache=EngineCache()).register(
                "m", linear_model(), store=store
            )
            assert not entry.warm_start and entry.artifact_key == key
            x = model_input("linear")
            expected, _ = compiled.run(x, rng=np.random.default_rng(1))
            # Overwritten: the same key now loads.
            served, _ = load(store, key, cache=EngineCache()).run(
                x, rng=np.random.default_rng(1)
            )
            assert np.array_equal(expected, served)

            first = EngineCache(store=store)
            compile_model(linear_model(), RuntimeConfig(), cache=first)
            assert first.stats.disk_hits == 0
            assert first.stats.disk_misses == first.stats.programmed == n_engines
            second = EngineCache(store=store)
            compile_model(linear_model(), RuntimeConfig(), cache=second)
            assert (second.stats.disk_hits, second.stats.programmed) == (n_engines, 0)

    # The stored arrays must agree with the header that describes them;
    # restore checks it explicitly (format 4 only noticed through the
    # packed planes' bit count).
    def _rewrite(self, store, key, edit):
        rewrite_artifact(store, key, edit)

    def test_engine_codes_not_2d_are_typed(self, store):
        _, key = self._saved(store)

        def edit(meta, arrays):
            arrays["e0_codes"] = arrays["e0_codes"][None]

        self._rewrite(store, key, edit)
        with pytest.raises(SnapshotCorruptError, match="3-D weight codes"):
            load(store, key, cache=EngineCache())

    def test_engine_scale_length_mismatch_is_typed(self, store):
        _, key = self._saved(store)

        def edit(meta, arrays):
            arrays["e0_scale"] = arrays["e0_scale"][:-1]

        self._rewrite(store, key, edit)
        with pytest.raises(SnapshotCorruptError, match="31 scales for 32"):
            load(store, key, cache=EngineCache())

    #: Stored conv codes one output channel short (with their scales),
    #: one input column short, one input column long.
    _CODE_EDITS = [
        lambda codes, scale: (codes[:-1], scale[:-1]),
        lambda codes, scale: (codes[:, :-1], scale),
        lambda codes, scale: (np.concatenate([codes, codes[:, :1]], axis=1), scale),
    ]

    @pytest.mark.parametrize("case", range(3))
    def test_conv_weight_shape_mismatch_is_typed(self, store, case):
        """An engine entry stores no weight shape: the layer's comes from
        the module tree, and stored codes that disagree with it are
        corrupt."""
        _, key = self._saved(store, "conv")

        def edit(meta, arrays):
            arrays["e0_codes"], arrays["e0_scale"] = self._CODE_EDITS[case](
                arrays["e0_codes"], arrays["e0_scale"]
            )

        self._rewrite(store, key, edit)
        with pytest.raises(SnapshotCorruptError, match="weight codes for weights \\("):
            load(store, key, cache=EngineCache())

    def test_layer_without_an_entry_is_stale(self, store):
        _, key = self._saved(store, "conv")
        self._rewrite(store, key, lambda meta, _: meta["engines"].pop(0))
        with pytest.raises(SnapshotStaleError, match="no state programmed from"):
            load(store, key, cache=EngineCache())

    def test_entry_for_a_foreign_layer_is_typed(self, store):
        _, key = self._saved(store, "conv")

        def edit(meta, arrays):
            meta["engines"][0]["layer_id"] = "ghost"

        self._rewrite(store, key, edit)
        with pytest.raises(SnapshotCorruptError, match="KeyError: 'ghost'"):
            load(store, key, cache=EngineCache())

    def test_state_for_a_layer_the_tree_lacks_is_typed(self, store):
        _, key = self._saved(store, "conv")

        def edit(meta, arrays):
            meta["fingerprints"]["ghost"] = meta["fingerprints"]["0"]
            meta["engines"].append(dict(meta["engines"][0], layer_id="ghost"))

        self._rewrite(store, key, edit)
        with pytest.raises(SnapshotCorruptError, match="other weight layers"):
            load(store, key, cache=EngineCache())

    def test_a_layer_the_artifact_does_not_name_is_typed(self, store):
        _, key = self._saved(store, "conv")

        def edit(meta, arrays):
            del meta["fingerprints"]["0"]
            meta["engines"].pop(0)

        self._rewrite(store, key, edit)
        with pytest.raises(SnapshotCorruptError, match="other weight layers"):
            load(store, key, cache=EngineCache())

    def _sharded_rewrite(self, store, edit):
        compiled = compile_model(rebranch_model(), RuntimeConfig(), cache=EngineCache())
        key = save(shard(compiled, 2), store)
        self._rewrite(store, key, lambda meta, _: edit(meta["shards"], compiled))
        return key

    def test_shard_boundary_inside_a_diamond_is_typed(self, store):
        from repro.runtime.sharded import _legal_cuts

        def edit(shards, compiled):
            legal = _legal_cuts(compiled._nodes, compiled._output_index)
            cut = legal.index(False) + 1  # a boundary inside the ReBranch diamond
            steps = list(range(len(compiled._nodes)))
            first, second = shards["segments"]
            first["step_indices"], second["step_indices"] = steps[:cut], steps[cut:]

        key = self._sharded_rewrite(store, edit)
        with pytest.raises(SnapshotCorruptError, match="illegal shard boundary"):
            load(store, key, cache=EngineCache())

    def test_more_shards_than_segments_is_typed(self, store):
        # Loaded, this header left a shard thread with no stage: it died
        # and the stream's joins never returned.
        def edit(shards, compiled):
            shards["n_shards"] = 3

        key = self._sharded_rewrite(store, edit)
        with pytest.raises(SnapshotCorruptError, match="3 shards but holds 2 segments"):
            load(store, key, cache=EngineCache())

    def test_header_damage_is_typed(self, store):
        _, key = self._saved(store)
        path = store.model_path(key)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF  # inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            load(store, key)

    @pytest.mark.parametrize("verify", [False, True])
    def test_swapped_array_offsets_are_typed(self, store, verify):
        """Swapping the offsets of two conv biases is a same-length
        header edit the data checksum does not cover: the index no
        longer tiles the data section in writer order, so even an
        unverified load refuses it instead of running on the other
        layer's bias."""
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.Conv2d(4, 4, 3, padding=1, rng=rng),
        )
        key = save(compile_model(model, RuntimeConfig(), cache=EngineCache()), store)
        path = store.model_path(key)
        blob = path.read_bytes()
        start = len(snapshot_mod.MAGIC) + 8
        size = int.from_bytes(blob[start - 8 : start], "little")
        header = json.loads(blob[start : start + size])
        p1, p3 = header["arrays"]["p1"], header["arrays"]["p3"]
        assert p1["nbytes"] == p3["nbytes"]
        p1["offset"], p3["offset"] = p3["offset"], p1["offset"]
        edited = json.dumps(header).encode()
        assert len(edited) == size
        path.write_bytes(blob[:start] + edited + blob[start + size :])
        with pytest.raises(SnapshotCorruptError, match="'p1' does not tile the data"):
            load(store, key, cache=EngineCache(), verify=verify)

    def test_data_corruption_fails_checksum_verify(self, store):
        _, key = self._saved(store)
        path = store.model_path(key)
        blob = bytearray(path.read_bytes())
        blob[-100] ^= 0xFF  # inside the array data section
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorruptError):
            store.verify(key)
        with pytest.raises(SnapshotCorruptError):
            load(store, key, verify=True)

    def test_stale_fingerprints_raise_under_verify(self, store):
        _, key = self._saved(store)
        path = store.model_path(key)
        meta, arrays = store.read_model(key)
        meta["fingerprints"] = {
            layer: "0" * 40 for layer in meta["fingerprints"]
        }
        store._write(path, meta, {k: np.asarray(v) for k, v in arrays.items()})
        with pytest.raises(SnapshotStaleError):
            load(store, key, verify=True)

    def test_tampered_weights_raise_under_verify(self, store):
        _, key = self._saved(store)
        path = store.model_path(key)
        meta, arrays = store.read_model(key)
        arrays = {k: np.array(v) for k, v in arrays.items()}
        weight_name = meta["module_tree"]["children"][0][1]["weight"]["array"]
        arrays[weight_name][0, 0] += 1.0
        store._write(path, meta, arrays)
        with pytest.raises(SnapshotStaleError):
            load(store, key, verify=True)

    def test_save_refuses_stale_engines(self, store):
        compiled = compile_model(linear_model(), RuntimeConfig(), cache=EngineCache())
        compiled.model[0].weight.data[0, 0] += 1.0
        with pytest.raises(SnapshotStaleError):
            save(compiled, store)
        # ensure_fresh re-fingerprints; saving then round-trips bitwise.
        assert compiled.ensure_fresh() == 1
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        x = model_input("linear")
        expected, _ = compiled.run(x, rng=np.random.default_rng(1))
        restored, _ = loaded.run(x, rng=np.random.default_rng(1))
        assert np.array_equal(expected, restored)

    def test_load_with_small_cache_is_not_spuriously_stale(self, store):
        # A target cache smaller than the artifact's engine count must
        # not misreport staleness: each slot holds the engines it
        # adopted, and the cache keeps what its LRU policy allows.
        compiled, key = self._saved(store)
        loaded = load(store, key, cache=EngineCache(capacity=1))
        x = model_input("linear")
        expected, _ = compiled.run(x, rng=np.random.default_rng(1))
        restored, _ = loaded.run(x, rng=np.random.default_rng(1))
        assert np.array_equal(expected, restored)

    def test_custom_encoding_subclass_is_not_addressable(self, store):
        # A behaviour-overriding subclass must not content-address (or
        # serialize) as its base encoding: a warm start would silently
        # restore the wrong arithmetic.
        class TweakedPulse(UnaryPulseEncoding):
            pass

        config = RuntimeConfig(encoding=TweakedPulse())
        with pytest.raises(SnapshotError):
            artifact_key(linear_model(), config)
        compiled = compile_model(linear_model(), config, cache=EngineCache())
        with pytest.raises(SnapshotError):
            save(compiled, store)

    def test_registry_skips_store_for_unaddressable_config(self, store):
        # The store must never make a registration fail — even when the
        # artifact format cannot address the configuration at all.
        class TweakedPulse(UnaryPulseEncoding):
            pass

        registry = ModelRegistry(cache=EngineCache())
        entry = registry.register(
            "m",
            linear_model(),
            RuntimeConfig(encoding=TweakedPulse()),
            store=store,
        )
        assert not entry.warm_start and entry.artifact_key is None
        assert store.keys() == []  # nothing mis-keyed was written back

    def test_key_is_fold_insensitive(self, store):
        # The registry keys the model as registered (pre-fold) while
        # save() defaults to the compiled image (post-fold); with
        # fold_bn both must hash to the same canonical key, so a
        # quickstart-saved artifact is reachable by warm start.
        def bn_model():
            rng = np.random.default_rng(0)
            return nn.Sequential(
                nn.Conv2d(3, 4, 3, padding=1, rng=rng),
                nn.BatchNorm2d(4),
                nn.ReLU(),
                nn.Flatten(),
                nn.Linear(4 * HW * HW, 2, rng=rng),
            )

        config = RuntimeConfig(fold_bn=True)
        # ... a plain Sequential, and a zoo model whose key digests the
        # names of its custom serial composites.
        for build in (bn_model, quarter_resnet8):
            pre_fold_key = artifact_key(build(), config)
            model = build()
            compiled = compile_model(model, config, cache=EngineCache())  # folds in place
            assert save(compiled, store) == pre_fold_key
            registry = ModelRegistry(cache=EngineCache())
            entry = registry.register("m", build(), config, store=store)
            assert entry.warm_start and entry.artifact_key == pre_fold_key

    def test_load_with_retention_free_cache(self, store):
        # capacity=0 reproduces the seed per-call behaviour; load must
        # still restore (each slot holds what it adopted), not recompile.
        compiled, key = self._saved(store)
        loaded = load(store, key, cache=EngineCache(capacity=0))
        x = model_input("linear")
        expected, _ = compiled.run(x, rng=np.random.default_rng(1))
        restored, _ = loaded.run(x, rng=np.random.default_rng(1))
        assert np.array_equal(expected, restored)

    def test_engine_cache_disk_tier_degrades_to_recompile(self, store):
        model = linear_model()
        warm = EngineCache(store=store)
        compile_model(model, RuntimeConfig(), cache=warm)
        assert warm.stats.programmed > 0
        written = [store.engine_path(k).exists() for k in warm.keys()]
        assert sum(written) == warm.stats.programmed

        # Second "process": every engine restores from disk.
        second = EngineCache(store=store)
        compiled = compile_model(linear_model(), RuntimeConfig(), cache=second)
        assert second.stats.programmed == 0
        assert second.stats.disk_hits == warm.stats.programmed

        # Corrupt every engine artifact: the tier falls back to
        # programming from scratch — no exception reaches the caller.
        for path in (store.root / "engines").glob("*.rcma"):
            path.write_bytes(b"garbage")
        third = EngineCache(store=store)
        recompiled = compile_model(linear_model(), RuntimeConfig(), cache=third)
        assert third.stats.programmed > 0
        assert third.stats.disk_misses >= third.stats.programmed
        x = model_input("linear")
        expected, _ = compiled.run(x, rng=np.random.default_rng(1))
        again, _ = recompiled.run(x, rng=np.random.default_rng(1))
        assert np.array_equal(expected, again)

    def test_registry_degrades_to_recompile_and_keeps_serving(self, store):
        registry = ModelRegistry(cache=EngineCache())
        entry = registry.register("m", linear_model(), store=store)
        assert not entry.warm_start and entry.artifact_key in store

        # Corrupt the model artifact: re-registration must recompile
        # and the server must keep serving.
        path = store.model_path(entry.artifact_key)
        path.write_bytes(path.read_bytes()[:64])
        fresh = ModelRegistry(cache=EngineCache())
        recompiled = fresh.register("m", linear_model(), store=store)
        assert not recompiled.warm_start
        with InferenceServer(fresh, BatchPolicy(max_batch_size=4)) as server:
            result = server.submit("m", model_input("linear", n=1)).result(
                timeout=30.0
            )
        assert result.ok

    def test_registry_warm_start_is_bitwise(self, store):
        cold = ModelRegistry(cache=EngineCache())
        first = cold.register("m", linear_model(), store=store)
        warm = ModelRegistry(cache=EngineCache())
        second = warm.register("m", linear_model(), store=store)
        assert second.warm_start
        assert second.artifact_key == first.artifact_key
        x = model_input("linear")
        expected, _ = first.compiled.run(x, rng=np.random.default_rng(2))
        restored, _ = second.compiled.run(x, rng=np.random.default_rng(2))
        assert np.array_equal(expected, restored)

    def test_sharded_registry_warm_start(self, store):
        cold = ModelRegistry(cache=EngineCache())
        cold.register("s", conv_model(), shards=2, store=store)
        warm = ModelRegistry(cache=EngineCache())
        entry = warm.register("s", conv_model(), shards=2, store=store)
        assert entry.warm_start and entry.n_shards == 2

    def test_default_cache_is_seeded_by_load(self, store, tmp_path):
        # load() without an explicit cache seeds the process-wide one.
        _, key = self._saved(store)
        previous = set_default_cache(EngineCache())
        try:
            load(store, key)
            fresh = compile_model(linear_model(), RuntimeConfig())
            from repro.runtime import get_default_cache

            assert get_default_cache().stats.programmed == 0
            assert fresh.n_weight_layers == 3
        finally:
            set_default_cache(previous)
