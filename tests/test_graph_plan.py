"""Tests for the DAG plan IR: the full model zoo through the runtime.

The load-bearing guarantees:

* **zoo identity** — `resnet8`, `resnet18` and `mobilenet` (residual
  shortcuts, grouped/depthwise convolutions) compile and run **bitwise
  identical** to `reference_forward`, under noise-free and noisy
  configs, and the identity survives sharding (n in {2, 4}), pipelined
  streams, and a snapshot round trip;
* **typed compile-time failure** — a composite that overrides
  ``forward`` without declaring its dataflow raises
  :class:`UnsupportedModuleError` (a :class:`CompileError`, itself a
  ``TypeError``) naming the offending module at *compile* time, on both
  the compiled and reference paths;
* **grouped convolution semantics** — `reference_cim_conv2d(groups=…)`
  equals the float `nn.functional` grouped convolution exactly in the
  noise-free integer corner, and the compiled per-group engines equal
  the reference bit for bit while sharing the engine cache;
* **DAG-aware sharding** — residual diamonds are atomic (single-edge
  frontier cuts only), and an illegal boundary is rejected;
* **range-walk composition** — the one plan walk, split at *every*
  legal cut (generated from the plan, not hand-listed), composes to the
  reference outputs and ``MacroStats`` bit for bit, including a
  failover replay that resumes strictly inside a shard stage.
"""

import threading

import numpy as np
import pytest

from repro import nn
from repro.cim import (
    AdcSpec,
    BitlineModel,
    MacroConfig,
    reference_cim_conv2d,
)
from repro.cim.cells import ROM_1T, SRAM_CIM_6T
from repro.models.mobilenet import mobilenet
from repro.models.resnet import BasicBlock, resnet18, resnet8
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.rebranch.convert import convert_to_rebranch
from repro.runtime import (
    ArtifactStore,
    CompileError,
    EngineCache,
    RuntimeConfig,
    TiledBitSerialKernel,
    UnsupportedModuleError,
    compile_model,
    fold_batchnorm,
    load,
    plan_shards,
    reference_forward,
    save,
    shard,
    stream_rng,
)
from repro.runtime import engine as engine_module
from repro.runtime.compiled import _RunState
from repro.runtime.sharded import ShardedModel, _legal_cuts, _StreamItem

from .helpers import DEADLINE, compiled_layer, layer_pass

HW = 8  # input images are (3, HW, HW); zoo models are width-reduced


def zoo_model(name, seed=0):
    builder = {"resnet8": resnet8, "resnet18": resnet18, "mobilenet": mobilenet}[
        name
    ]
    model = builder(
        num_classes=4, width_mult=0.125, rng=np.random.default_rng(seed)
    )
    model.eval()
    fold_batchnorm(model)
    return model


# resnet18 is the biggest graph and its residual topology is already
# exercised by resnet8; keep it to the full-matrix lane (-m slow) and run
# mobilenet (grouped conv) + resnet8 (residual) in the fast lane.
ZOO = [
    "mobilenet",
    pytest.param("resnet18", marks=pytest.mark.slow),
    "resnet8",
]


def zoo_input(n=2, seed=1):
    return np.random.default_rng(seed).normal(size=(n, 3, HW, HW))


def noisy_runtime_config(sigma=0.4):
    return RuntimeConfig(
        rom_config=MacroConfig(
            cell=ROM_1T, bitline=BitlineModel(noise_sigma_counts=sigma)
        ),
        sram_config=MacroConfig(
            cell=SRAM_CIM_6T, bitline=BitlineModel(noise_sigma_counts=sigma)
        ),
    )


# ----------------------------------------------------------------------
# Zoo identity: compiled == reference, through every execution path
# ----------------------------------------------------------------------
class TestZooIdentity:
    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("name", ZOO)
    def test_compiled_matches_reference(self, name, noisy):
        model = zoo_model(name)
        config = noisy_runtime_config() if noisy else RuntimeConfig()
        compiled = compile_model(model, config, cache=EngineCache())
        x = zoo_input()
        out_c, stats_c = compiled.run(x, rng=np.random.default_rng(9))
        out_r, stats_r = reference_forward(
            model,
            x,
            rom_config=config.resolved_rom(),
            sram_config=config.resolved_sram(),
            rng=np.random.default_rng(9),
        )
        assert np.array_equal(out_c, out_r)
        assert stats_c == stats_r

    @pytest.mark.parametrize("n_shards", [2, 4])
    @pytest.mark.parametrize("name", ZOO)
    def test_sharded_matches_unsharded(self, name, n_shards):
        compiled = compile_model(zoo_model(name), cache=EngineCache())
        x = zoo_input()
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(3))
        sharded = shard(compiled, n_shards, input_shape=(1, 3, HW, HW))
        got, got_stats = sharded.run(x, rng=np.random.default_rng(3))
        assert np.array_equal(expected, got)
        assert got_stats.macs == expected_stats.macs
        assert got_stats.link_bits > 0

    @pytest.mark.parametrize("name", ZOO)
    def test_pipelined_stream_replays_bitwise(self, name):
        compiled = compile_model(
            zoo_model(name), noisy_runtime_config(), cache=EngineCache()
        )
        sharded = shard(compiled, 4, input_shape=(1, 3, HW, HW))
        batches = [zoo_input(seed=50 + i) for i in range(3)]
        result = sharded.run_stream(batches, seed=7)
        for i, batch in enumerate(batches):
            expected, _ = compiled.run(batch, rng=stream_rng(7, i))
            assert np.array_equal(result.outputs[i], expected)

    @pytest.mark.parametrize("name", ZOO)
    def test_snapshot_round_trip(self, name, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        compiled = compile_model(
            zoo_model(name), noisy_runtime_config(), cache=EngineCache()
        )
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        x = zoo_input()
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(5))
        restored, restored_stats = loaded.run(x, rng=np.random.default_rng(5))
        assert np.array_equal(expected, restored)
        assert expected_stats == restored_stats

    def test_sharded_zoo_snapshot_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        compiled = compile_model(
            zoo_model("resnet8"), cache=EngineCache(), shards=2
        )
        key = save(compiled, store)
        loaded = load(store, key, cache=EngineCache())
        assert isinstance(loaded, ShardedModel)
        x = zoo_input()
        expected, _ = compiled.run(x, rng=np.random.default_rng(5))
        restored, _ = loaded.run(x, rng=np.random.default_rng(5))
        assert np.array_equal(expected, restored)


# ----------------------------------------------------------------------
# Typed compile-time failure for undeclared custom dataflow
# ----------------------------------------------------------------------
class _ScaledBlock(nn.Module):
    """Overrides forward with non-serial dataflow, declares no plan."""

    def __init__(self):
        super().__init__()
        self.act = nn.ReLU()

    def forward(self, x):
        return self.act(x) * 2.0


class TestUnsupportedComposite:
    def test_compile_raises_typed_error_with_qualified_name(self):
        model = nn.Sequential(nn.ReLU(), _ScaledBlock())
        with pytest.raises(UnsupportedModuleError, match="plan_forward") as info:
            compile_model(model, RuntimeConfig(), cache=EngineCache())
        assert info.value.qualified_name == "1"
        assert "_ScaledBlock" in str(info.value)
        # The hierarchy: UnsupportedModuleError < CompileError < TypeError.
        assert isinstance(info.value, CompileError)
        assert isinstance(info.value, TypeError)

    def test_error_raised_before_any_execution(self):
        # Compile time, not a mid-run reshape crash: no run() needed.
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng), _ScaledBlock()
        )
        with pytest.raises(UnsupportedModuleError):
            compile_model(model, RuntimeConfig(), cache=EngineCache())

    def test_reference_walker_raises_same_typed_error(self):
        model = nn.Sequential(nn.ReLU(), _ScaledBlock())
        with pytest.raises(UnsupportedModuleError, match="plan_forward") as info:
            reference_forward(model, zoo_input())
        # The walker names the offending module like the compiler does.
        assert info.value.qualified_name == "1"

    def test_plan_serial_marker_opts_into_chaining(self):
        class Declared(nn.Module):
            plan_forward = nn.plan_serial

            def __init__(self, rng):
                super().__init__()
                self.conv = nn.Conv2d(3, 4, 3, padding=1, rng=rng)
                self.act = nn.ReLU()

            def forward(self, x):
                return self.act(self.conv(x))

        model = nn.Sequential(Declared(np.random.default_rng(0)))
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        x = zoo_input()
        out_c, _ = compiled.run(x)
        out_r, _ = reference_forward(model, x)
        assert np.array_equal(out_c, out_r)

    def test_dead_plan_node_rejected(self):
        class Dropper(nn.Module):
            def __init__(self, rng):
                super().__init__()
                self.used = nn.ReLU()
                self.wasted = nn.Conv2d(3, 4, 3, padding=1, rng=rng)

            def forward(self, x):
                return self.used(x)

            def plan_forward(self, builder, x):
                builder.child(self.wasted, "wasted", x)  # output discarded
                return builder.child(self.used, "used", x)

        with pytest.raises(CompileError, match="dead"):
            compile_model(
                nn.Sequential(Dropper(np.random.default_rng(0))),
                RuntimeConfig(),
                cache=EngineCache(),
            )


# ----------------------------------------------------------------------
# Grouped convolution semantics
# ----------------------------------------------------------------------
class TestGroupedConv:
    def _integer_corner(self, groups, channels=4, hw=6):
        """Weights/activations that quantize with scale 1 (exact codes)."""
        rng = np.random.default_rng(0)
        icg = channels // groups
        w = rng.integers(-127, 128, size=(channels, icg, 3, 3)).astype(float)
        w[:, 0, 0, 0] = 127.0  # per-output-channel quantization scale = 1
        x = rng.integers(0, 256, size=(2, channels, hw, hw)).astype(float)
        x[0, :, 0, 0] = 255.0  # per-group activation scale = 1
        return x, w

    @pytest.mark.parametrize("groups", [2, 4])
    def test_reference_matches_functional_in_noise_free_corner(self, groups):
        """With exact integer codes and a lossless 8-bit ADC the CiM path
        *is* integer convolution: it must equal nn.functional's grouped
        conv bit for bit, not just approximately."""
        x, w = self._integer_corner(groups)
        config = MacroConfig(adc=AdcSpec(bits=8))
        out, stats = reference_cim_conv2d(
            x, w, padding=1, config=config, groups=groups
        )
        icg, ocg = 4 // groups, 4 // groups
        expected = np.concatenate(
            [
                F.conv2d(
                    Tensor(x[:, g * icg : (g + 1) * icg]),
                    Tensor(w[g * ocg : (g + 1) * ocg]),
                    padding=1,
                ).data
                for g in range(groups)
            ],
            axis=1,
        )
        assert np.array_equal(out, expected)
        assert stats.macs == 2 * 4 * 6 * 6 * icg * 9  # N*OC*P*ICG*K

    def test_groups_must_divide_channels(self):
        x = np.zeros((1, 4, 6, 6))
        w = np.zeros((3, 2, 3, 3))
        with pytest.raises(ValueError, match="groups"):
            reference_cim_conv2d(x, w, groups=2)

    @pytest.mark.parametrize("groups", [2, 4])
    def test_functional_shim_bitwise_vs_reference(self, groups):
        """A compiled one-layer grouped conv equals the per-call reference."""
        rng = np.random.default_rng(3)
        x = rng.random((2, 4, 6, 6))
        w = rng.normal(size=(8, 4 // groups, 3, 3))
        y_ref, s_ref = reference_cim_conv2d(x, w, padding=1, groups=groups)
        layer = compiled_layer(w, padding=1, groups=groups, cache=EngineCache())
        y_new, s_new = layer.run(x)
        assert np.array_equal(y_ref, y_new)
        assert s_ref == s_new

    def test_noisy_grouped_conv_bitwise_with_same_rng(self):
        config = MacroConfig(bitline=BitlineModel(noise_sigma_counts=1.0))
        rng = np.random.default_rng(4)
        x = rng.random((2, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))  # depthwise
        y_ref, _ = reference_cim_conv2d(
            x, w, padding=1, config=config, groups=4, rng=np.random.default_rng(8)
        )
        layer = compiled_layer(w, config, padding=1, groups=4, cache=EngineCache())
        y_new, _ = layer.run(x, rng=np.random.default_rng(8))
        assert np.array_equal(y_ref, y_new)

    def test_layer_pass_keeps_the_per_group_errors(self):
        """The two input checks every group's engine made are made for
        the whole layer, with the same ``ValueError`` s."""
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 1, 3, 3))
        x = rng.normal(size=(2, 4, 6, 6))
        unsigned = layer_pass(
            w, padding=1, groups=4, signed=False, cache=EngineCache()
        )
        with pytest.raises(ValueError, match="programmed for unsigned activations"):
            unsigned.execute(x)

        # Codes out of the serial input range (a non-finite activation,
        # where the platform's float -> int cast puts it out of range):
        # whatever the per-call reference does, the layer pass does.
        x[1, 2, 3, 3] = np.nan

        def outcome(conv):
            try:
                with np.errstate(invalid="ignore"):
                    out, _ = conv(x, w, padding=1, groups=4)
            except ValueError as error:
                return str(error)
            return out.tobytes()

        assert outcome(
            lambda x, w, **k: layer_pass(w, cache=EngineCache(), **k).execute(x)
        ) == outcome(reference_cim_conv2d)

    def test_per_group_engines_share_cache_across_compiles(self):
        # One cache entry per group: size the LRU for the whole zoo model
        # (the compiled model's slots hold strong refs either way).
        cache = EngineCache(capacity=512)
        model = zoo_model("mobilenet")
        first = compile_model(model, RuntimeConfig(), cache=cache)
        programmed = cache.stats.programmed
        second = compile_model(model, RuntimeConfig(), cache=cache)
        assert cache.stats.programmed == programmed  # all groups reused
        ours = first.programmed_engines()
        theirs = second.programmed_engines()
        assert set(ours) == set(theirs)
        for layer_id, engine in ours.items():
            assert engine is theirs[layer_id]
        # Depthwise layers lower to one slot per group.
        assert any("::g" in layer_id for layer_id in ours)

    def test_grouped_slots_refresh_on_weight_update(self):
        model = zoo_model("mobilenet")
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        x = zoo_input()
        before, _ = compiled.run(x)
        conv = model.features[1].depthwise.conv
        conv.weight.data = conv.weight.data + 0.25
        changed = compiled.ensure_fresh()
        assert changed == conv.groups  # every group slot re-fingerprints
        after, _ = compiled.run(x)
        expected, _ = reference_forward(model, x)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, expected)


# ----------------------------------------------------------------------
# One layer pass for every convolution, plain or grouped
# ----------------------------------------------------------------------
class TestLayerPass:
    @pytest.mark.parametrize("name", ["resnet8", "mobilenet"])
    def test_every_conv_is_one_pass_with_the_reference_layout(self, name, monkeypatch):
        """Each conv node's ``GroupedConv.execute`` output equals the
        reference's for that layer in bytes *and* strides (later float
        reductions see the layout); a plain conv's kernel is its engine's
        own; a warm run never enters a single engine's ``execute``."""
        from repro.runtime import reference as reference_module

        model = zoo_model(name)
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        x = zoo_input()
        compiled.run(x)  # warm: every stack built

        passes, references, inside = [], [], []
        real_execute = engine_module.GroupedConv.execute
        real_reference = reference_module.reference_cim_conv2d

        def execute(layer, *args, **kwargs):
            inside.append(layer)
            try:
                result = real_execute(layer, *args, **kwargs)
            finally:
                inside.pop()
            passes.append((layer.groups, result[0]))
            return result

        def reference(*args, **kwargs):
            result = real_reference(*args, **kwargs)
            references.append(result[0])
            return result

        def single_engine(real):
            def spy(*args, **kwargs):
                assert not inside, "a conv node entered a single engine's execute"
                return real(*args, **kwargs)

            return spy

        monkeypatch.setattr(engine_module.GroupedConv, "execute", execute)
        monkeypatch.setattr(reference_module, "reference_cim_conv2d", reference)
        for owner in (engine_module.ProgrammedConv, engine_module.ProgrammedLinear):
            monkeypatch.setattr(owner, "execute", single_engine(owner.execute))
        compiled.run(x)
        reference_forward(model, x)

        convs = [
            node.op for node in compiled._nodes if node.op.kind in ("conv", "grouped_conv")
        ]
        assert len(passes) == len(references) == len(convs)
        kinds = {groups == 1 for groups, _ in passes}
        assert kinds == ({True} if name == "resnet8" else {True, False})
        for (groups, out), ref in zip(passes, references):
            assert out.tobytes() == ref.tobytes()
            assert out.strides == ref.strides, groups
        for step in convs:
            stack = step._layer._stack
            if len(stack.engines) == 1:
                kernel = stack.engines[0].linear._kernel
                assert stack.kernel is kernel
                # ... the one-group pass over the engine's own codes.
                assert kernel.engine is stack.engines[0].linear.engine
                assert type(kernel) is TiledBitSerialKernel
                assert len(kernel._ranges) == 1


# ----------------------------------------------------------------------
# The stacked per-layer state follows the per-group engines it came from
# ----------------------------------------------------------------------
class TestStackedStateFreshness:
    """A grouped conv step keeps its groups' stacked kernel between
    runs, keyed on the identity of the per-group engines: whatever
    changes the engines — new weights, a ROM <-> SRAM move, another
    per-group sign pattern — must change the stack with them."""

    @staticmethod
    def _assert_matches_reference(compiled, model, x):
        out, stats = compiled.run(x)
        ref, ref_stats = reference_forward(model, x)
        assert out.tobytes() == ref.tobytes()
        assert stats == ref_stats
        return out

    def test_in_place_weight_update_then_ensure_fresh(self):
        model = zoo_model("mobilenet")
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        x = zoo_input()
        before = self._assert_matches_reference(compiled, model, x)
        conv = model.features[2].depthwise.conv
        conv.weight.data *= -1.5  # in place: same array object
        assert compiled.ensure_fresh() == conv.groups
        after = self._assert_matches_reference(compiled, model, x)
        assert not np.array_equal(before, after)

    def test_requires_grad_flip_moves_the_stack_between_macros(self):
        model = zoo_model("mobilenet")
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        x = zoo_input()
        _, sram_stats = compiled.run(x)
        conv = model.features[1].depthwise.conv
        for frozen in (True, False, True):
            conv.weight.requires_grad = not frozen
            out, stats = compiled.run(x)
            ref, ref_stats = reference_forward(model, x)
            assert out.tobytes() == ref.tobytes()
            assert stats == ref_stats
            # The cells differ in read energy, so a stale stack shows.
            assert (stats == sram_stats) == (not frozen)

    def test_sign_pattern_change_between_batches(self):
        rng = np.random.default_rng(6)
        conv = nn.Conv2d(6, 6, 3, padding=1, groups=6, bias=False, rng=rng)
        model = nn.Sequential(conv)
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        base = rng.normal(size=(2, 6, 5, 5))
        unsigned = np.abs(base)
        mixed = unsigned.copy()
        mixed[:, ::2] = base[:, ::2]
        other = unsigned.copy()
        other[:, 1::2] = base[:, 1::2]
        for x in (base, unsigned, mixed, other, mixed, unsigned):
            self._assert_matches_reference(compiled, model, x)

    def test_two_threads_from_a_cold_stack(self, monkeypatch):
        """One thread is held inside its first stack build while the
        other runs the whole model (building and publishing every
        stack), then finishes over the other's published stacks."""
        model = mobilenet(num_classes=4, width_mult=0.25, rng=np.random.default_rng(2))
        model.eval()
        fold_batchnorm(model)
        x = zoo_input(n=2, seed=5)
        cache = EngineCache(capacity=2048)
        expected, expected_stats = compile_model(model, RuntimeConfig(), cache=cache).run(x)
        assert expected.tobytes() == reference_forward(model, x)[0].tobytes()

        compiled = compile_model(model, RuntimeConfig(), cache=cache)  # cold stacks
        building, other_done = threading.Event(), threading.Event()
        real_init = engine_module._GroupStack.__init__
        builds = []

        def held_init(stack, engines):
            builds.append(threading.current_thread().name)
            if not building.is_set():
                building.set()
                assert other_done.wait(DEADLINE)
            real_init(stack, engines)

        monkeypatch.setattr(engine_module._GroupStack, "__init__", held_init)
        results = {}

        def first():
            results["first"] = compiled.run(x)

        def second():
            assert building.wait(DEADLINE)
            try:
                results["second"] = compiled.run(x)
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
        n_conv = sum(
            node.op.kind in ("conv", "grouped_conv") for node in compiled._nodes
        )
        # The held thread built one stack, the other one per conv layer (a
        # plain conv's is a one-group stack); the rest of the held
        # thread's layers found them published.
        assert builds == ["first"] + ["second"] * n_conv
        for name in ("first", "second"):
            out, stats = results[name]
            assert out.tobytes() == expected.tobytes(), name
            assert stats == expected_stats, name


# ----------------------------------------------------------------------
# Range-walk composition: the one plan walk, cut anywhere legal
# ----------------------------------------------------------------------
def rebranch_converted_model(seed=0):
    """A pretrained-style conv stack converted to ReBranch diamonds."""
    rng = np.random.default_rng(seed)
    model = nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(8 * (HW // 2) ** 2, 4, rng=rng),
    )
    assert convert_to_rebranch(model, d=2, u=2, skip_last=False, rng=rng) == 3
    return model


RANGE_WALK_MODELS = {
    "resnet8": lambda: zoo_model("resnet8"),
    "mobilenet": lambda: zoo_model("mobilenet"),
    "rebranch": rebranch_converted_model,
}


class TestRangeWalk:
    @staticmethod
    def _setup(name, noisy):
        model = RANGE_WALK_MODELS[name]()
        config = noisy_runtime_config() if noisy else RuntimeConfig()
        compiled = compile_model(model, config, cache=EngineCache())
        x = zoo_input()
        expected = reference_forward(
            model,
            x,
            rom_config=config.resolved_rom(),
            sram_config=config.resolved_sram(),
            rng=np.random.default_rng(9),
        )
        nodes = compiled._nodes
        legal = _legal_cuts(nodes, compiled._output_index)
        cuts = [k for k in range(1, len(nodes)) if legal[k - 1]]
        return compiled, x, expected, cuts

    @staticmethod
    def _state(compiled):
        return _RunState(
            rng=np.random.default_rng(9), encoding=compiled.config.encoding
        )

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    @pytest.mark.parametrize("name", sorted(RANGE_WALK_MODELS))
    def test_every_legal_cut_composes_to_reference(self, name, noisy):
        """[0, k) then [k, n) on one run state == the reference walker,
        for every k the plan allows — the RNG draw order is the
        contract, so the noisy leg must match too."""
        compiled, x, (expected, expected_stats), cuts = self._setup(name, noisy)
        n = len(compiled._nodes)
        assert cuts
        # Diamonds close boundaries: exactly the plans with a fan-in
        # have some illegal cut.
        has_fan_in = any(node.op.kind == "add" for node in compiled._nodes)
        assert (len(cuts) < n - 1) == has_fan_in
        for k in cuts:
            state = self._state(compiled)
            mid = compiled._walk(0, k, x, state)
            out = compiled._walk(k, n, mid, state)
            assert np.array_equal(out, expected), f"cut at {k}"
            assert state.stats == expected_stats, f"cut at {k}"

    @pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
    def test_replay_resumes_strictly_inside_a_stage(self, noisy):
        """A displaced micro-batch re-enters a 2-shard pipeline at a
        node strictly inside stage 1: stage 0 is skipped (no link
        charge), stage 1 runs only its suffix."""
        compiled, x, (expected, expected_stats), cuts = self._setup(
            "resnet8", noisy
        )
        sharded = shard(compiled, 2, input_shape=(1, 3, HW, HW))
        lo, hi = sharded._bounds[1]
        k = next(k for k in cuts if lo < k < hi)
        state = self._state(compiled)
        item = _StreamItem(0, compiled._walk(0, k, x, state), state, 2)
        item.start_node = k
        (done,), displaced, deaths = sharded._pipeline([item], 2, None)
        assert not displaced and not deaths
        assert np.array_equal(done.x, expected)
        assert done.state.stats == expected_stats
        assert done.compute_ns[0] == 0.0 and done.compute_ns[1] > 0.0


# ----------------------------------------------------------------------
# DAG-aware sharding
# ----------------------------------------------------------------------
class TestDagSharding:
    def test_residual_diamond_is_atomic(self):
        compiled = compile_model(zoo_model("resnet8"), cache=EngineCache())
        plan = plan_shards(compiled, 4)
        nodes = compiled._nodes
        # Every add node (the residual fan-in) sits in the same segment
        # as the convs of its diamond — no segment boundary splits one.
        for segment in plan.segments:
            indices = set(segment.step_indices)
            for i in segment.step_indices:
                if nodes[i].op.kind == "add":
                    assert all(j in indices for j in nodes[i].inputs)

    def test_too_many_shards_counts_diamonds_not_convs(self):
        # resnet8 has 5 weight-anchored blocks (stem, 3 diamonds, fc):
        # 11 conv/linear layers do NOT make 11 cuttable blocks.
        compiled = compile_model(zoo_model("resnet8"), cache=EngineCache())
        assert compiled.n_weight_layers >= 8
        plan_shards(compiled, 5)
        with pytest.raises(ValueError, match="weight-anchored blocks"):
            plan_shards(compiled, 6)

    def test_illegal_boundary_rejected(self):
        from repro.runtime.sharded import ShardPlan, ShardSegment

        compiled = compile_model(zoo_model("resnet8"), cache=EngineCache())
        nodes = compiled._nodes
        add_index = next(
            i for i, node in enumerate(nodes) if node.op.kind == "add"
        )
        # Cut straight through the first residual diamond.
        first = tuple(range(add_index))
        rest = tuple(range(add_index, len(nodes)))
        plan = ShardPlan(
            n_shards=2,
            segments=(
                ShardSegment(0, first, (), 0.0, 0.0, 0.0),
                ShardSegment(1, rest, (), 0.0, 0.0, 0.0),
            ),
        )
        with pytest.raises(ValueError, match="illegal shard boundary"):
            shard(compiled, 2, plan=plan)

    def test_plan_spec_topology(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            BasicBlock(4, 4, rng=rng), nn.Flatten(), nn.Linear(4 * HW * HW, 2, rng=rng)
        )
        model.eval()
        fold_batchnorm(model)
        compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
        spec = compiled.plan_spec()
        kinds = [node["op"] for node in spec["nodes"]]
        assert "add" in kinds
        assert spec["output"] == len(spec["nodes"]) - 1
        add = next(n for n in spec["nodes"] if n["op"] == "add")
        assert len(add["inputs"]) == 2
        # The shortcut consumes the same value as conv1: real fan-out.
        consumed = [j for n in spec["nodes"] for j in n["inputs"]]
        assert any(consumed.count(j) >= 2 for j in set(consumed))
