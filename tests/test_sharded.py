"""Tests for sharded pipeline-parallel execution across chiplets.

The load-bearing guarantees:

* **bitwise identity** — ``shard(compiled, n).run(batch)`` equals
  ``compiled.run(batch)`` bit for bit, for every shard count, including
  under bit-line noise (the RNG stream is consumed in plan order either
  way); pipelined streams replay bitwise against per-batch unsharded
  runs seeded by ``stream_rng``, independent of thread interleaving;
* **plan integrity** — shards cover every step exactly once, in order,
  each anchored on a weight layer, balanced over profile cost;
* **link accounting** — every shard boundary charges SIMBA-link
  transfer energy/latency into the ``link_*`` stats fields (and from
  there into sessions), and compute stats are untouched by sharding;
* **serving integration** — a sharded deployment registers and serves
  through the dynamic-batching server unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import models, nn
from repro.arch import ChipletLinkSpec, SIMBA_LINK
from repro.cim import BitlineModel, MacroConfig
from repro.cim.cells import ROM_1T
from repro.rebranch.branch import ReBranchConv2d
from repro.runtime import (
    RuntimeConfig,
    ShardedModel,
    compile_model,
    plan_shards,
    reference_forward,
    shard,
    stream_rng,
)
from repro.rebranch import convert_to_rebranch
from repro.runtime.programming import fold_batchnorm
from repro.runtime.sharded import _balanced_cuts
from repro.runtime.snapshot import to_meta
from repro.serve import BatchPolicy, InferenceServer, ModelRegistry

from .helpers import await_results

HW = 8  # input images are (3, HW, HW)


def conv_model(seed=0):
    """Four convs + classifier head: five weight-anchored blocks."""
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(6, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
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
        nn.Linear(32, 24, rng=rng),
        nn.Tanh(),
        nn.Linear(24, 16, rng=rng),
        nn.ReLU(),
        nn.Linear(16, 4, rng=rng),
    )


def rebranch_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        ReBranchConv2d(nn.Conv2d(8, 8, 3, padding=1, rng=rng), d=2, u=2, rng=rng),
        nn.ReLU(),
        ReBranchConv2d(nn.Conv2d(8, 8, 3, padding=1, rng=rng), d=2, u=2, rng=rng),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Flatten(),
        nn.Linear(8, 4, rng=rng),
    )


MODELS = {
    "conv": conv_model,
    "linear": linear_model,
    "rebranch": rebranch_model,
}


def model_input(name, n=3, seed=1):
    x = np.random.default_rng(seed).normal(size=(n, 3, HW, HW))
    if name == "linear":
        return x.reshape(n, -1)
    return x


def input_shape(name):
    return (1, 3 * HW * HW) if name == "linear" else (1, 3, HW, HW)


# ----------------------------------------------------------------------
# Bitwise identity
# ----------------------------------------------------------------------
class TestBitwiseIdentity:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_run_matches_unsharded(self, name, n_shards):
        compiled = compile_model(MODELS[name]())
        x = model_input(name)
        expected, expected_stats = compiled.run(x, rng=np.random.default_rng(9))
        sharded = shard(compiled, n_shards, input_shape=input_shape(name))
        got, got_stats = sharded.run(x, rng=np.random.default_rng(9))
        assert np.array_equal(expected, got)
        # Compute accounting is untouched; only link_* fields are added.
        assert got_stats.latency_ns == expected_stats.latency_ns
        assert got_stats.cycles == expected_stats.cycles
        assert got_stats.macs == expected_stats.macs
        for field in (
            "wl_energy_fj",
            "bitline_energy_fj",
            "adc_energy_fj",
            "peripheral_energy_fj",
        ):
            assert getattr(got_stats, field) == getattr(expected_stats, field)

    def test_identity_under_bitline_noise(self):
        """The RNG stream is consumed in plan order on both paths."""
        config = RuntimeConfig(
            rom_config=MacroConfig(
                cell=ROM_1T,
                bitline=BitlineModel(max_rows=128, noise_sigma_counts=0.5),
            )
        )
        compiled = compile_model(conv_model(), config)
        x = model_input("conv")
        expected, _ = compiled.run(x, rng=np.random.default_rng(3))
        sharded = shard(compiled, 3)
        got, _ = sharded.run(x, rng=np.random.default_rng(3))
        assert np.array_equal(expected, got)

    def test_matches_seed_reference_path(self):
        model = conv_model()
        compiled = compile_model(model)
        x = model_input("conv")
        expected, _ = reference_forward(model, x)
        got, _ = shard(compiled, 2).run(x)
        assert np.array_equal(expected, got)

    def test_compile_with_shards_returns_sharded(self):
        sharded = compile_model(conv_model(), shards=2)
        assert isinstance(sharded, ShardedModel)
        assert sharded.n_shards == 2
        # shards=1 is the serial baseline of a sweep — same type, no
        # link crossings — and both entry points agree on it.
        baseline = compile_model(conv_model(), shards=1)
        assert isinstance(baseline, ShardedModel)
        assert baseline.n_shards == 1
        compiled = compile_model(conv_model())
        x = model_input("conv")
        assert np.array_equal(compiled.run(x)[0], sharded.run(x)[0])


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_segments_cover_plan_in_order(self):
        compiled = compile_model(conv_model())
        plan = plan_shards(compiled, 3)
        covered = [i for seg in plan.segments for i in seg.step_indices]
        assert covered == list(range(len(compiled._nodes)))
        assert all(seg.layer_ids for seg in plan.segments)

    def test_mac_balance_uses_profile(self):
        compiled = compile_model(conv_model())
        plan = plan_shards(compiled, 2, input_shape=input_shape("conv"))
        assert plan.total_macs > 0
        # The DP minimizes the max segment cost: no segment may carry
        # more than the whole plan minus the smallest block.
        costs = [seg.cost for seg in plan.segments]
        assert max(costs) < plan.total_macs
        assert plan.balance >= 1.0

    def test_weight_bits_fallback_without_shape(self):
        compiled = compile_model(linear_model())
        plan = plan_shards(compiled, 2)
        assert plan.total_macs == 0
        assert plan.total_weight_bits > 0
        assert all(seg.cost == seg.weight_bits for seg in plan.segments)

    def test_too_many_shards_rejected(self):
        compiled = compile_model(conv_model())
        with pytest.raises(ValueError, match="weight-anchored blocks"):
            plan_shards(compiled, 64)

    def test_bad_shard_count_rejected(self):
        compiled = compile_model(conv_model())
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(compiled, 0)

    def test_plan_mismatch_rejected(self):
        compiled = compile_model(conv_model())
        plan = plan_shards(compiled, 2)
        with pytest.raises(ValueError, match="plan has 2 shards"):
            shard(compiled, 3, plan=plan)

    def test_reshard_recuts_underlying_model(self):
        compiled = compile_model(conv_model())
        sharded = shard(compiled, 4)
        recut = shard(sharded, 2)
        assert recut.n_shards == 2
        assert recut.compiled is compiled

    def test_balanced_cuts_minimize_max_run(self):
        assert _balanced_cuts([1, 1, 1, 1], 2) == [2, 2]
        assert _balanced_cuts([4, 1, 1, 1, 1], 2) == [1, 4]
        assert sum(_balanced_cuts([5, 1, 1, 5], 3)) == 4


#: (zoo model, width, input px) of the pinned MAC-balanced cuts.
#: Mobilenet at widths 0.75 and 0.3 has group counts that are not
#: powers of two.
CUT_CASES = [
    ("resnet8", 1.0, 32),
    ("mobilenet", 1.0, 32),
    ("mobilenet", 0.75, 32),
    ("mobilenet", 0.3, 32),
    ("vgg8", 0.5, 32),
    ("resnet18", 0.5, 32),
    ("tiny_yolo", 0.25, 64),
]
#: (zoo model, width, ReBranch-converted) -> sha256 prefix of the cut's
#: ``to_meta`` segments at 2, 3 and 4 shards.
CUT_DIGESTS = {
    ("resnet8", 1.0, False): ("82d1a069fa42258b", "edf0f6eaae9b2a60", "711244b4e2698b1f"),
    ("resnet8", 1.0, True): ("f9f5ec480afb456b", "9b1fd3c476111244", "7e51ac11548517d8"),
    ("mobilenet", 1.0, False): ("d7739d2592dd8f42", "bf87182e59edb5e2", "9276ccb17ecda0ba"),
    ("mobilenet", 1.0, True): ("22ac97b7c236c8ba", "e7c68f57377b8744", "2f75517b0001c4df"),
    ("mobilenet", 0.75, False): ("fa3c97e7e81fd3b7", "d820df2081ab4dee", "062056fcd62dbd7e"),
    ("mobilenet", 0.75, True): ("db5d5bfdfd948b13", "e773e5ebd646d309", "2e1fe681b56f0d6e"),
    ("mobilenet", 0.3, False): ("e1df93de38a62844", "b8c01fcf15a33d90", "f7a3a1884e99ce36"),
    ("mobilenet", 0.3, True): ("d9391e625eb9cb1d", "67b5b0f99cb24caf", "d6fe523887f8c52e"),
    ("vgg8", 0.5, False): ("51d26bf286cb92c3", "675f6b82e3a0e965", "a658b2d1071cea7b"),
    ("vgg8", 0.5, True): ("2c82d40351598a34", "8c0d8d1c80c982e6", "9e8357f2f9a540f2"),
    ("resnet18", 0.5, False): ("6de1d6c944b6f880", "345554296b44ee38", "d481f6bc46d0a3ce"),
    ("resnet18", 0.5, True): ("88308214bd4772b4", "c6c34772d2919b49", "b9041e5f9b7835a5"),
    ("tiny_yolo", 0.25, False): ("d902c2251cf2ce1d", "b3ac0adc39f7f118", "870cd1a678c135e9"),
    ("tiny_yolo", 0.25, True): ("3e924d3a31605ad6", "0264a83698a37e60", "314906bd80074d5f"),
}


@pytest.mark.parametrize("rebranch", [False, True], ids=["plain", "rebranch"])
@pytest.mark.parametrize("name,width,px", CUT_CASES)
def test_zoo_cuts_are_pinned(name, width, px, rebranch):
    model = models.build_model(name, width_mult=width, rng=np.random.default_rng(0))
    fold_batchnorm(model)
    if rebranch:
        convert_to_rebranch(model, rng=np.random.default_rng(1))
    compiled = compile_model(model)
    digests = []
    for n_shards in (2, 3, 4):
        plan = plan_shards(compiled, n_shards, input_shape=(1, 3, px, px))
        metas = json.dumps([to_meta(s) for s in plan.segments], sort_keys=True)
        digests.append(hashlib.sha256(metas.encode()).hexdigest()[:16])
    assert tuple(digests) == CUT_DIGESTS[name, width, rebranch]


# ----------------------------------------------------------------------
# Link accounting
# ----------------------------------------------------------------------
class TestLinkAccounting:
    def test_single_shard_has_no_link_traffic(self):
        compiled = compile_model(conv_model())
        _, stats = shard(compiled, 1).run(model_input("conv"))
        assert stats.link_bits == 0
        assert stats.link_energy_fj == 0
        assert stats.link_latency_ns == 0

    def test_boundary_crossings_charge_simba_link(self):
        compiled = compile_model(conv_model())
        sharded = shard(compiled, 3)
        x = model_input("conv")
        _, stats = sharded.run(x)
        # Replay the boundaries by hand: run each stage serially and
        # measure the tensors crossing the two cuts.
        expected_bits = 0.0
        y = x
        for s, (lo, hi) in enumerate(sharded._bounds):
            y = compiled._walk(lo, hi, y, _fresh_state(compiled))
            if s < sharded.n_shards - 1:
                expected_bits += y.size * compiled.config.activation_bits
        assert stats.link_bits == expected_bits
        assert stats.link_energy_fj == pytest.approx(
            SIMBA_LINK.transfer_energy_pj(expected_bits) * 1e3
        )
        # Transfer time is linear in bits, so the per-boundary sum
        # collapses to one transfer of the total payload.
        assert stats.link_latency_ns == pytest.approx(
            SIMBA_LINK.transfer_time_ns(expected_bits)
        )
        assert stats.total_energy_fj > stats.link_energy_fj > 0

    def test_custom_link_spec(self):
        link = ChipletLinkSpec(energy_pj_per_bit=2.34, pins_per_link=16)
        compiled = compile_model(conv_model())
        _, default_stats = shard(compiled, 2).run(model_input("conv"))
        _, custom_stats = shard(compiled, 2, link=link).run(model_input("conv"))
        assert custom_stats.link_bits == default_stats.link_bits
        assert custom_stats.link_energy_fj == pytest.approx(
            2 * default_stats.link_energy_fj
        )
        assert custom_stats.link_latency_ns == pytest.approx(
            2 * default_stats.link_latency_ns
        )

    def test_session_accumulates_link_energy(self):
        compiled = compile_model(conv_model())
        sharded = shard(compiled, 2)
        session = sharded.new_session()
        x = model_input("conv")
        sharded.run(x, session=session)
        sharded.run(x, session=session)
        assert session.batches == 2
        assert session.samples == 2 * x.shape[0]
        assert session.stats.link_energy_fj > 0
        assert session.energy_per_sample_fj > 0


def _fresh_state(compiled):
    from repro.runtime.compiled import _RunState

    return _RunState(rng=np.random.default_rng(0), encoding=compiled.config.encoding)


# ----------------------------------------------------------------------
# Pipelined streams
# ----------------------------------------------------------------------
class TestRunStream:
    def stream(self, n_batches=6, n=2, seed=0):
        return [model_input("conv", n=n, seed=100 + i) for i in range(n_batches)]

    def test_outputs_bitwise_match_per_batch_unsharded(self):
        compiled = compile_model(conv_model())
        sharded = shard(compiled, 4, input_shape=input_shape("conv"))
        batches = self.stream()
        result = sharded.run_stream(batches, seed=7)
        assert len(result.outputs) == len(batches)
        for i, batch in enumerate(batches):
            expected, _ = compiled.run(batch, rng=stream_rng(7, i))
            assert np.array_equal(result.outputs[i], expected)

    def test_noisy_stream_is_deterministic(self):
        """Thread interleaving must never change outputs: each
        micro-batch owns its RNG."""
        config = RuntimeConfig(
            rom_config=MacroConfig(
                cell=ROM_1T,
                bitline=BitlineModel(max_rows=128, noise_sigma_counts=0.5),
            )
        )
        compiled = compile_model(conv_model(), config)
        sharded = shard(compiled, 3)
        batches = self.stream(n_batches=5)
        first = sharded.run_stream(batches, seed=3)
        second = sharded.run_stream(batches, seed=3)
        for a, b in zip(first.outputs, second.outputs):
            assert np.array_equal(a, b)

    def test_makespans(self):
        compiled = compile_model(conv_model())
        sharded = shard(compiled, 4, input_shape=input_shape("conv"))
        result = sharded.run_stream(self.stream(n_batches=8), seed=0)
        # Serial makespan is exactly the monolithic compute total.
        assert result.serial_makespan_ns == pytest.approx(
            float(result.compute_ns.sum())
        )
        # Pipelining can only help, and can never beat the critical
        # stage (the pipeline's steady-state bound).
        assert result.pipelined_makespan_ns < result.serial_makespan_ns
        slowest_stage = float(result.compute_ns.sum(axis=0).max())
        assert result.pipelined_makespan_ns >= slowest_stage
        assert result.pipeline_speedup > 1.0
        assert (
            result.sharded_serial_makespan_ns
            == result.serial_makespan_ns + result.link_ns.sum()
        )

    def test_stream_session_accounting(self):
        compiled = compile_model(conv_model())
        sharded = shard(compiled, 2)
        session = sharded.new_session()
        batches = self.stream(n_batches=4, n=3)
        result = sharded.run_stream(batches, seed=0, session=session)
        assert session.batches == 4
        assert session.samples == 12
        assert session.stats.link_energy_fj == pytest.approx(
            result.stats.link_energy_fj
        )

    def test_explicit_rngs_replay(self):
        compiled = compile_model(conv_model())
        sharded = shard(compiled, 2)
        batches = self.stream(n_batches=3)
        rngs = [np.random.default_rng(40 + i) for i in range(3)]
        result = sharded.run_stream(batches, rngs=rngs)
        for i, batch in enumerate(batches):
            expected, _ = compiled.run(batch, rng=np.random.default_rng(40 + i))
            assert np.array_equal(result.outputs[i], expected)

    def test_rng_count_mismatch_rejected(self):
        sharded = shard(compile_model(conv_model()), 2)
        with pytest.raises(ValueError, match="rngs"):
            sharded.run_stream(self.stream(n_batches=3), rngs=[np.random.default_rng(0)])

    def test_bad_queue_depth_rejected(self):
        sharded = shard(compile_model(conv_model()), 2)
        with pytest.raises(ValueError, match="queue_depth"):
            sharded.run_stream(self.stream(), queue_depth=0)

    def test_stage_error_propagates(self):
        sharded = shard(compile_model(conv_model()), 2)
        bad = [np.zeros((2, 3, HW, HW)), np.zeros((2, 5, HW, HW))]
        with pytest.raises(Exception):
            sharded.run_stream(bad)

    def test_empty_stream(self):
        sharded = shard(compile_model(conv_model()), 2)
        result = sharded.run_stream([])
        assert result.outputs == []
        assert result.serial_makespan_ns == 0.0
        assert result.pipelined_makespan_ns == 0.0


# ----------------------------------------------------------------------
# Serving integration
# ----------------------------------------------------------------------
class TestServeIntegration:
    def test_register_and_serve_sharded(self):
        registry = ModelRegistry()
        entry = registry.register(
            "sharded-conv",
            conv_model(),
            shards=2,
            shard_input_shape=input_shape("conv"),
        )
        assert entry.n_shards == 2
        assert isinstance(registry.get("sharded-conv"), ShardedModel)

        x = model_input("conv", n=1)
        policy = BatchPolicy(max_batch_size=4, max_wait_s=0.001)
        with InferenceServer(registry, policy, record_batches=True) as server:
            handles = [
                server.submit("sharded-conv", x, tenant="alice") for _ in range(4)
            ]
            results = await_results(handles)
        assert all(r.ok for r in results)
        # The serving layer adds scheduling, never arithmetic: executed
        # batches replay bitwise through the seed reference path.
        for batch in server.executed_batches:
            expected, _ = reference_forward(
                registry.get(batch.model).model, batch.inputs
            )
            assert np.array_equal(batch.outputs, expected)
        # Link energy reaches tenant accounting.
        assert server.session("alice").stats.link_energy_fj > 0

    def test_unsharded_entry_reports_one_shard(self):
        registry = ModelRegistry()
        entry = registry.register("mono", conv_model())
        assert entry.n_shards == 1
        assert not isinstance(entry.compiled, ShardedModel)

    def test_shards_one_registers_single_shard_deployment(self):
        registry = ModelRegistry()
        entry = registry.register("one", conv_model(), shards=1)
        assert entry.n_shards == 1
        assert isinstance(entry.compiled, ShardedModel)

    def test_hot_swap_to_sharded(self):
        registry = ModelRegistry()
        registry.register("m", conv_model())
        entry = registry.register("m", conv_model(), replace=True, shards=4)
        assert entry.generation == 1
        assert entry.n_shards == 4
