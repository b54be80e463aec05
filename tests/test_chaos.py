"""Differential tests for the chaos runtime.

Every guarantee here is a *differential witness* against the clean
runtime:

* **zero-magnitude identity** — a chaos-instrumented stream under a
  schedule of zero-magnitude faults is bitwise identical (outputs and
  stats) to the clean ``run_stream``, across the model matrix
  (synthetic conv stack + zoo resnet8/mobilenet), shard counts and
  seeds;
* **replay determinism** — the same ``(seed, schedule)`` produces an
  identical ``deterministic_trace()`` (fired faults, recovery
  structure, output SHA-256 digests) across two separate processes;
* **exactly-once failover** — every requested micro-batch index ends
  either delivered (exactly once, bitwise equal to the clean oracle)
  or dropped (recorded), never both, never twice;
* **surgical degradation windows** — faults perturb exactly the
  micro-batches inside their window and nothing else;
* **serve failover** — a shard death under the server re-plans the
  registry entry, replays the displaced batch exactly once, and a
  cancelling shutdown racing a failover drains deterministically.

Synchronization discipline: every blocking wait in the serve tests
goes through ``tests/helpers.py`` (``DEADLINE`` / ``await_results``) or
a real condition-variable wait — no wall-clock sleeps, no ``elapsed <``
assertions (``scripts/check_test_hygiene.py`` enforces this).
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.chaos import (
    ADC_DRIFT,
    BITLINE_NOISE,
    ChaosController,
    Degradation,
    FaultEvent,
    FaultSchedule,
    LINK_DEGRADE,
    SHARD_DEATH,
    generate_schedule,
)
from repro.chaos import inject as chaos_inject
from repro.chaos import stream as chaos_stream
from repro.chaos.schedule import ScheduleError
from repro.cim import AdcSpec, BitlineModel, CimMacro, CimTiledMatmul, MacroConfig
from repro.cim.macro import _bit_planes
from repro.cim.variation import apply_adc_errors
from repro.models import mobilenet, resnet8
from repro.runtime import (
    ArtifactStore,
    EngineCache,
    RuntimeConfig,
    ShardedModel,
    SnapshotCorruptError,
    SnapshotKeyError,
    artifact_key,
    compile_model,
    fold_batchnorm,
    get_default_cache,
    save,
    set_default_cache,
    shard,
    stream_rng,
)
from repro.runtime import snapshot as rt_snapshot
from repro.runtime.engine import ProgrammedLinear
from repro.serve import (
    BatchPolicy,
    InferenceServer,
    ModelRegistry,
    RequestStatus,
)

from .helpers import (
    DEADLINE,
    assert_one_metrics_model,
    audit_stopped_servers,
    await_results,
)

HW = 8  # input images are (3, HW, HW); zoo models are width-reduced
N_BATCHES = 6
BATCH = 2


def conv_model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 6, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Conv2d(6, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Conv2d(8, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.Flatten(),
        nn.Linear(8 * (HW // 2) ** 2, 4, rng=rng),
    )


def zoo_model(name, seed=0):
    builder = {"resnet8": resnet8, "mobilenet": mobilenet}[name]
    model = builder(
        num_classes=4, width_mult=0.125, rng=np.random.default_rng(seed)
    )
    model.eval()
    fold_batchnorm(model)
    return model


MODEL_BUILDERS = {
    "conv": conv_model,
    "resnet8": lambda seed=0: zoo_model("resnet8", seed),
    "mobilenet": lambda seed=0: zoo_model("mobilenet", seed),
}

_COMPILED = {}


def compiled_model(name):
    """Compile each matrix model once per test process."""
    if name not in _COMPILED:
        _COMPILED[name] = compile_model(
            MODEL_BUILDERS[name](), RuntimeConfig(), cache=EngineCache()
        )
    return _COMPILED[name]


def batches_for(seed, n=N_BATCHES):
    return [
        np.random.default_rng([seed + 1, i]).normal(size=(BATCH, 3, HW, HW))
        for i in range(n)
    ]


def oracle_outputs(compiled, batches, seed):
    """Per-batch unsharded replay with the stream's RNGs."""
    return [
        compiled.run(b, rng=stream_rng(seed, i))[0]
        for i, b in enumerate(batches)
    ]


INPUT_SHAPE = (1, 3, HW, HW)


def zero_magnitude_schedule(seed):
    """One event of every kind that *can* be a no-op, all inert."""
    return FaultSchedule(
        seed=seed,
        events=(
            FaultEvent(kind=BITLINE_NOISE, at_index=1, magnitude=0.0),
            FaultEvent(kind=ADC_DRIFT, at_index=0, magnitude=0.0, gain_slope=0.0),
            FaultEvent(
                kind=LINK_DEGRADE,
                shard=0,
                at_index=2,
                latency_factor=1.0,
                energy_factor=1.0,
            ),
        ),
    )


# ----------------------------------------------------------------------
# Schedule surface
# ----------------------------------------------------------------------
class TestScheduleSurface:
    def test_validation_rejects_malformed_events(self):
        with pytest.raises(ScheduleError):
            FaultEvent(kind="meteor_strike", at_index=0)
        with pytest.raises(ScheduleError):
            FaultEvent(kind=SHARD_DEATH, shard=0)  # no firing point
        with pytest.raises(ScheduleError):
            FaultEvent(kind=SHARD_DEATH, shard=0, at_index=1, at_chip_ns=1.0)
        with pytest.raises(ScheduleError):
            FaultEvent(kind=SHARD_DEATH, at_index=1)  # shard required
        with pytest.raises(ScheduleError):
            FaultEvent(kind=BITLINE_NOISE, at_index=1, drop=2)

    def test_version_gate(self):
        meta = FaultSchedule(seed=3).to_meta()
        meta["version"] = 99
        with pytest.raises(ScheduleError):
            FaultSchedule.from_meta(meta)

    def test_unknown_event_field_rejected(self):
        with pytest.raises(ScheduleError):
            FaultEvent.from_meta({"kind": BITLINE_NOISE, "at_index": 0, "blast": 1})

    def test_zero_magnitude_schedule_is_noop_and_controller_inert(self):
        schedule = zero_magnitude_schedule(0)
        assert schedule.is_noop
        controller = ChaosController(schedule)
        assert controller.is_inert
        # A death is never a no-op.
        assert not FaultSchedule(
            events=(FaultEvent(kind=SHARD_DEATH, shard=0, at_index=0),)
        ).is_noop


# ----------------------------------------------------------------------
# Zero-magnitude differential matrix
# ----------------------------------------------------------------------
class TestZeroMagnitudeIdentity:
    @pytest.mark.parametrize("seed", [0, pytest.param(7, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("n_shards", [2, pytest.param(4, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
    def test_bitwise_identical_to_clean_stream(self, name, n_shards, seed):
        compiled = compiled_model(name)
        sharded = shard(compiled, n_shards, input_shape=INPUT_SHAPE)
        batches = batches_for(seed)
        clean = sharded.run_stream(batches, seed=seed)
        chaotic = sharded.run_stream(
            batches,
            seed=seed,
            chaos=ChaosController(zero_magnitude_schedule(seed)),
        )
        assert chaotic.availability == 1.0
        assert chaotic.fired == []
        assert chaotic.recoveries == []
        assert chaotic.delivered_indexes == tuple(range(len(batches)))
        for got, want in zip(chaotic.outputs, clean.outputs):
            assert np.array_equal(got, want)
        assert chaotic.per_batch == clean.per_batch
        assert chaotic.stats == clean.stats
        np.testing.assert_array_equal(chaotic.compute_ns, clean.compute_ns)
        np.testing.assert_array_equal(chaotic.link_ns, clean.link_ns)

    def test_generated_zero_magnitude_schedule_is_inert(self):
        # generate_schedule with max_magnitude=0 over noise events
        # produces a fully inert campaign (drift ramps draw a nonzero
        # gain slope, so only the noise kind can be zeroed wholesale).
        schedule = generate_schedule(
            5,
            n_batches=N_BATCHES,
            n_shards=2,
            kinds=(BITLINE_NOISE,),
            max_magnitude=0.0,
        )
        assert schedule.is_noop
        compiled = compiled_model("conv")
        sharded = shard(compiled, 2, input_shape=INPUT_SHAPE)
        batches = batches_for(3, n=4)
        clean = sharded.run_stream(batches, seed=3)
        chaotic = sharded.run_stream(
            batches, seed=3, chaos=ChaosController(schedule)
        )
        for got, want in zip(chaotic.outputs, clean.outputs):
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# Failover
# ----------------------------------------------------------------------
class TestFailover:
    @pytest.mark.parametrize("seed", [0, pytest.param(7, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("n_shards", [2, pytest.param(4, marks=pytest.mark.slow)])
    @pytest.mark.parametrize("name", ["conv", "resnet8"])
    def test_death_failover_delivers_bitwise(self, name, n_shards, seed):
        compiled = compiled_model(name)
        sharded = shard(compiled, n_shards, input_shape=INPUT_SHAPE)
        batches = batches_for(seed)
        oracle = oracle_outputs(compiled, batches, seed)
        schedule = FaultSchedule(
            seed=seed,
            events=(FaultEvent(kind=SHARD_DEATH, shard=n_shards - 1, at_index=2),),
        )
        controller = ChaosController(schedule, input_shape=INPUT_SHAPE)
        result = sharded.run_stream(batches, seed=seed, chaos=controller)
        assert result.availability == 1.0
        assert len(result.recoveries) == 1
        recovery = result.recoveries[0]
        assert recovery.n_shards_before == n_shards
        assert recovery.n_shards_after == n_shards - 1
        assert recovery.dropped == ()
        # Every delivered output is bitwise equal to the clean oracle:
        # failover re-planning never changes arithmetic.
        for i, out in result.outputs_by_index.items():
            assert np.array_equal(out, oracle[i])

    def test_exactly_once_partition(self):
        compiled = compiled_model("conv")
        sharded = shard(compiled, 4, input_shape=INPUT_SHAPE)
        batches = batches_for(11, n=8)
        schedule = FaultSchedule(
            seed=11,
            events=(FaultEvent(kind=SHARD_DEATH, shard=1, at_index=3, drop=2),),
        )
        controller = ChaosController(schedule, input_shape=INPUT_SHAPE)
        result = sharded.run_stream(batches, seed=11, chaos=controller)
        delivered = set(result.delivered_indexes)
        dropped = set(result.dropped_indexes)
        # Partition: every index exactly once, in exactly one set.
        assert delivered.isdisjoint(dropped)
        assert delivered | dropped == set(range(len(batches)))
        assert len(result.delivered_indexes) == len(delivered)
        # drop=2 abandons exactly the two earliest displaced indexes.
        recovery = result.recoveries[0]
        assert len(recovery.dropped) == 2
        assert recovery.dropped == tuple(sorted(recovery.displaced)[:2])
        assert set(recovery.replayed) == set(recovery.displaced) - dropped
        # Replays resume mid-plan, never from node 0 (they crossed at
        # least the first stage before being displaced).
        assert all(node > 0 for node in recovery.resume_nodes)

    def test_chip_time_fired_death(self):
        compiled = compiled_model("conv")
        sharded = shard(compiled, 2, input_shape=INPUT_SHAPE)
        batches = batches_for(2)
        oracle = oracle_outputs(compiled, batches, 2)
        # Fire once the shard's cumulative chip time crosses half of a
        # clean run's: deterministic in simulated time, not wall time.
        clean = sharded.run_stream(batches, seed=2)
        threshold = float(clean.compute_ns[:, 0].sum()) / 2.0
        schedule = FaultSchedule(
            seed=2,
            events=(
                FaultEvent(kind=SHARD_DEATH, shard=0, at_chip_ns=threshold),
            ),
        )
        controller = ChaosController(schedule, input_shape=INPUT_SHAPE)
        result = sharded.run_stream(batches, seed=2, chaos=controller)
        assert len(result.fired) == 1
        assert result.availability == 1.0
        for i, out in result.outputs_by_index.items():
            assert np.array_equal(out, oracle[i])
        # Same schedule, fresh controller: the firing point replays.
        again = sharded.run_stream(
            batches,
            seed=2,
            chaos=ChaosController(schedule, input_shape=INPUT_SHAPE),
        )
        assert again.deterministic_trace() == result.deterministic_trace()

    def test_warm_restore_from_artifact_store(self, tmp_path):
        compiled = compiled_model("conv")
        sharded = shard(compiled, 2, input_shape=INPUT_SHAPE)
        store = ArtifactStore(tmp_path / "store")
        model = conv_model()
        config = RuntimeConfig()

        def key_fn(n_shards):
            return artifact_key(
                model, config, shards=n_shards, input_shape=INPUT_SHAPE
            )

        # Pre-populate the surviving topology, as a fleet warm-up would.
        save(
            shard(compiled, 1, input_shape=INPUT_SHAPE), store, key=key_fn(1)
        )
        batches = batches_for(4)
        oracle = oracle_outputs(compiled, batches, 4)
        schedule = FaultSchedule(
            seed=4, events=(FaultEvent(kind=SHARD_DEATH, shard=0, at_index=1),)
        )
        controller = ChaosController(
            schedule,
            store=store,
            artifact_key_fn=key_fn,
            input_shape=INPUT_SHAPE,
        )
        result = sharded.run_stream(batches, seed=4, chaos=controller)
        assert result.recoveries[0].warm_restored
        assert result.availability == 1.0
        for i, out in result.outputs_by_index.items():
            assert np.array_equal(out, oracle[i])

    def test_unrecoverable_fleet_drops_remaining(self):
        compiled = compiled_model("conv")
        sharded = shard(compiled, 2, input_shape=INPUT_SHAPE)
        batches = batches_for(6)
        schedule = FaultSchedule(
            seed=6,
            events=(
                FaultEvent(kind=SHARD_DEATH, shard=0, at_index=1),
                FaultEvent(kind=SHARD_DEATH, shard=0, at_index=2),
            ),
        )
        controller = ChaosController(schedule, input_shape=INPUT_SHAPE)
        result = sharded.run_stream(batches, seed=6, chaos=controller)
        # Second death kills the last surviving shard: everything still
        # in flight is dropped, availability reflects it, and the run
        # still terminates cleanly.
        assert result.recoveries[-1].n_shards_after == 0
        assert result.availability < 1.0
        assert set(result.delivered_indexes) | set(result.dropped_indexes) == set(
            range(len(batches))
        )

    def test_post_failover_suffix_bitwise(self):
        """Micro-batches not in flight at the fault point — the suffix
        admitted after recovery — are bitwise identical to a clean run
        (the numerics.md failover clause)."""
        compiled = compiled_model("conv")
        sharded = shard(compiled, 2, input_shape=INPUT_SHAPE)
        batches = batches_for(9, n=8)
        oracle = oracle_outputs(compiled, batches, 9)
        schedule = FaultSchedule(
            seed=9, events=(FaultEvent(kind=SHARD_DEATH, shard=1, at_index=2),)
        )
        controller = ChaosController(schedule, input_shape=INPUT_SHAPE)
        result = sharded.run_stream(batches, seed=9, chaos=controller)
        displaced = set(result.recoveries[0].displaced)
        suffix = [i for i in result.delivered_indexes if i not in displaced]
        assert suffix  # the campaign must actually exercise the suffix
        for i in suffix:
            assert np.array_equal(result.outputs_by_index[i], oracle[i])


# ----------------------------------------------------------------------
# Cross-process determinism
# ----------------------------------------------------------------------
_CAMPAIGN_SCRIPT = """
import json
import numpy as np
from repro import nn
from repro.chaos import (
    ADC_DRIFT, BITLINE_NOISE, ChaosController, FaultEvent, FaultSchedule,
    SHARD_DEATH,
)
from repro.runtime import RuntimeConfig, EngineCache, compile_model, shard

HW = 8
rng = np.random.default_rng(0)
model = nn.Sequential(
    nn.Conv2d(3, 6, 3, padding=1, rng=rng),
    nn.ReLU(),
    nn.Conv2d(6, 8, 3, padding=1, rng=rng),
    nn.ReLU(),
    nn.MaxPool2d(2),
    nn.Conv2d(8, 8, 3, padding=1, rng=rng),
    nn.ReLU(),
    nn.Flatten(),
    nn.Linear(8 * (HW // 2) ** 2, 4, rng=rng),
)
compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
sharded = shard(compiled, 2, input_shape=(1, 3, HW, HW))
batches = [
    np.random.default_rng([8, i]).normal(size=(2, 3, HW, HW))
    for i in range(6)
]
schedule = FaultSchedule(seed=7, events=(
    FaultEvent(kind=SHARD_DEATH, shard=1, at_index=2, drop=1),
    FaultEvent(kind=BITLINE_NOISE, at_index=1, magnitude=1.5, duration=2),
    FaultEvent(kind=ADC_DRIFT, at_index=3, magnitude=0.75, gain_slope=0.01),
))
controller = ChaosController(schedule, input_shape=(1, 3, HW, HW))
result = sharded.run_stream(batches, seed=7, chaos=controller)
print(json.dumps(result.deterministic_trace(), sort_keys=True))
"""


class TestCrossProcessDeterminism:
    def test_trace_identical_across_processes(self, tmp_path):
        script = tmp_path / "campaign.py"
        script.write_text(_CAMPAIGN_SCRIPT)
        env = dict(os.environ)
        traces = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                env=env,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            traces.append(json.loads(proc.stdout))
        assert traces[0] == traces[1]
        # The campaign is non-trivial: a fault fired, a recovery
        # happened, a micro-batch was dropped, outputs were digested.
        assert traces[0]["fired"]
        assert traces[0]["recoveries"]
        assert traces[0]["dropped"]
        assert traces[0]["output_sha256"]


# ----------------------------------------------------------------------
# Degradation windows
# ----------------------------------------------------------------------
class TestDegradationWindows:
    def run_pair(self, schedule, seed=1, n=N_BATCHES, n_shards=2):
        compiled = compiled_model("conv")
        sharded = shard(compiled, n_shards, input_shape=INPUT_SHAPE)
        batches = batches_for(seed, n=n)
        clean = sharded.run_stream(batches, seed=seed)
        chaotic = sharded.run_stream(
            batches, seed=seed, chaos=ChaosController(schedule)
        )
        return clean, chaotic

    def test_bitline_noise_window_is_surgical(self):
        schedule = FaultSchedule(
            seed=1,
            events=(
                FaultEvent(
                    kind=BITLINE_NOISE, at_index=2, magnitude=2.0, duration=2
                ),
            ),
        )
        clean, chaotic = self.run_pair(schedule)
        differs = [
            not np.array_equal(got, want)
            for got, want in zip(chaotic.outputs, clean.outputs)
        ]
        # Exactly the in-window micro-batches (2, 3) are perturbed.
        assert differs == [False, False, True, True, False, False]

    def test_adc_drift_window_is_surgical(self):
        schedule = FaultSchedule(
            seed=1,
            events=(
                FaultEvent(
                    kind=ADC_DRIFT,
                    at_index=1,
                    magnitude=1.0,
                    gain_slope=0.02,
                    duration=3,
                ),
            ),
        )
        clean, chaotic = self.run_pair(schedule)
        differs = [
            not np.array_equal(got, want)
            for got, want in zip(chaotic.outputs, clean.outputs)
        ]
        assert differs == [False, True, True, True, False, False]

    def test_link_degrade_scales_stats_never_outputs(self):
        factor = 4.0
        schedule = FaultSchedule(
            seed=1,
            events=(
                FaultEvent(
                    kind=LINK_DEGRADE,
                    shard=0,
                    at_index=2,
                    duration=1,
                    latency_factor=factor,
                    energy_factor=2.0,
                ),
            ),
        )
        clean, chaotic = self.run_pair(schedule)
        for got, want in zip(chaotic.outputs, clean.outputs):
            assert np.array_equal(got, want)  # stats-only fault
        for i, (got, want) in enumerate(zip(chaotic.per_batch, clean.per_batch)):
            if i == 2:
                assert got.link_latency_ns == factor * want.link_latency_ns
                assert got.link_energy_fj == 2.0 * want.link_energy_fj
            else:
                assert got == want

    def test_degraded_replay_stays_deterministic(self):
        # Noise windows draw from the micro-batch's own stream_rng, so
        # re-running the same campaign replays the noise exactly.
        schedule = FaultSchedule(
            seed=1,
            events=(
                FaultEvent(kind=BITLINE_NOISE, at_index=0, magnitude=1.0),
            ),
        )
        _, first = self.run_pair(schedule)
        _, second = self.run_pair(schedule)
        for got, want in zip(first.outputs, second.outputs):
            assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# ADC drift goes through the one conversion primitive
# ----------------------------------------------------------------------
class TestDriftReachesTheAdc:
    """The oracle digitises through ``adc.convert``; a drifted ADC that
    only overrode ``quantize_counts`` would forward ``convert`` to the
    undrifted spec and silently run clean."""

    DRIFT = Degradation(adc_offset=6.0, adc_gain=1.1)

    def test_convert_sees_gain_offset_and_rail_clip(self, monkeypatch):
        config = MacroConfig()
        rng = np.random.default_rng(0)
        macro = CimMacro(config, rng.integers(-128, 128, size=(40, 6)))
        x = rng.integers(0, 256, size=(40, 5))
        in_planes, _ = _bit_planes(x, config.input_bits, config.signed_inputs)
        counts = np.einsum("jrn,krc->jkcn", in_planes, macro._weight_planes)
        seen = []
        real = AdcSpec.convert

        def spy(adc, observed, full_scale):
            seen.append(observed)
            return real(adc, observed, full_scale)

        monkeypatch.setattr(AdcSpec, "convert", spy)
        drifted, _ = macro.with_config(self.DRIFT.apply(config)).matmul(x)
        clean, _ = macro.matmul(x)
        want = apply_adc_errors(counts, gain=1.1, offset=6.0, max_counts=40.0)
        assert [s.tobytes() for s in seen] == [want.tobytes(), counts.tobytes()]
        assert not np.array_equal(drifted, clean)

    def test_quantize_counts_is_convert_scaled(self):
        adc = self.DRIFT.apply(MacroConfig()).adc
        counts = np.linspace(0.0, 128.0, 53)
        codes, step = adc.convert(counts, 128.0)
        assert adc.quantize_counts(counts, 128.0).tobytes() == (codes * step).tobytes()
        clean_codes, _ = AdcSpec().convert(counts, 128.0)
        assert not np.array_equal(codes, clean_codes)

    def test_degraded_engine_equals_the_reference_macro_path(self):
        rng = np.random.default_rng(1)
        linear = ProgrammedLinear(rng.normal(size=(48, 200)))  # 2 x 2 tiles
        assert linear._kernel is not None  # clean runs take the fast kernel
        codes = rng.integers(0, 256, size=(200, 7))
        reference = CimTiledMatmul(
            linear.w_codes.T, self.DRIFT.apply(linear.run_config)
        )
        want, want_stats = reference.matmul(codes, rng=np.random.default_rng(7))
        got, stats = linear.matmul_codes(
            codes, np.random.default_rng(7), None, self.DRIFT
        )
        assert got.tobytes() == want.tobytes()
        assert stats == want_stats
        clean, _ = linear.matmul_codes(codes)
        assert not np.array_equal(got, clean)


# ----------------------------------------------------------------------
# Degradation is per-run state: the shared-config race
# ----------------------------------------------------------------------
class TestDegradeIsPerRunState:
    """A degraded run never leaks its drifted circuit into a concurrent
    clean run of the same cached engine.  (Degradation used to be
    swapped onto the engine's shared ``run_config`` under a lock clean
    runs never took, so a clean run on the reference path read it.)"""

    DEGRADE = Degradation(noise_sigma_counts=0.75, adc_offset=6.0, adc_gain=1.1)

    @pytest.fixture()
    def rig(self):
        noisy = MacroConfig(bitline=BitlineModel(noise_sigma_counts=0.5))
        model = nn.Sequential(nn.Linear(24, 6, rng=np.random.default_rng(0)))
        compiled = compile_model(
            model,
            RuntimeConfig(rom_config=noisy, sram_config=noisy),
            cache=EngineCache(),
        )
        (engine,) = compiled.programmed_engines().values()
        assert engine._kernel is None  # noisy bit line: reference macro path
        # Signed inputs, so runs execute the predicted (signed) engine.
        x = np.random.default_rng(1).normal(size=(3, 24))
        return compiled, engine, x

    @staticmethod
    def clean(engine, x):
        return engine.execute(x, rng=np.random.default_rng(7))

    def degraded(self, compiled, x):
        return compiled.run(x, rng=np.random.default_rng(7), degrade=self.DEGRADE)

    def test_clean_execute_inside_a_degraded_window_is_its_baseline(
        self, rig, monkeypatch
    ):
        compiled, engine, x = rig
        baseline_out, baseline_stats = self.clean(engine, x)
        adc, bitline = engine.run_config.adc, engine.run_config.bitline
        real = chaos_inject.apply_adc_errors
        inside = []

        def spy(counts, **kwargs):
            if not inside:  # the degraded matmul's first ADC conversion
                inside.append((engine.run_config.adc, engine.run_config.bitline))
                inside.append(self.clean(engine, x))
            return real(counts, **kwargs)

        monkeypatch.setattr(chaos_inject, "apply_adc_errors", spy)
        degraded_out, _ = self.degraded(compiled, x)
        during, (out, stats) = inside
        assert not np.array_equal(degraded_out, baseline_out)
        assert out.tobytes() == baseline_out.tobytes()
        assert stats == baseline_stats
        for seen in (during, (engine.run_config.adc, engine.run_config.bitline)):
            assert seen[0] is adc and seen[1] is bitline

    def test_concurrent_clean_thread_is_its_baseline(self, rig, monkeypatch):
        compiled, engine, x = rig
        baseline_out, baseline_stats = self.clean(engine, x)
        real = chaos_inject.apply_adc_errors
        mid_matmul, clean_done = threading.Event(), threading.Event()
        results = {}

        def spy(counts, **kwargs):
            if not mid_matmul.is_set():
                mid_matmul.set()
                # Hold the degraded matmul open until the clean run ends.
                assert clean_done.wait(DEADLINE)
            return real(counts, **kwargs)

        def clean_worker():
            assert mid_matmul.wait(DEADLINE)
            try:
                results["clean"] = self.clean(engine, x)
            finally:
                clean_done.set()

        def degraded_worker():
            results["degraded"] = self.degraded(compiled, x)

        monkeypatch.setattr(chaos_inject, "apply_adc_errors", spy)
        threads = [
            threading.Thread(target=degraded_worker, daemon=True),
            threading.Thread(target=clean_worker, daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(DEADLINE)
            assert not thread.is_alive()
        out, stats = results["clean"]
        assert out.tobytes() == baseline_out.tobytes()
        assert stats == baseline_stats
        assert not np.array_equal(results["degraded"][0], baseline_out)


# ----------------------------------------------------------------------
# The failover ladder (shared by the stream and the server)
# ----------------------------------------------------------------------
def ladder_key_fn(n_shards):
    return artifact_key(
        conv_model(), RuntimeConfig(), shards=n_shards, input_shape=INPUT_SHAPE
    )


def _store_warm(store, compiled):
    save(shard(compiled, 1, input_shape=INPUT_SHAPE), store, key=ladder_key_fn(1))


def _store_truncated(store, compiled):
    _store_warm(store, compiled)
    path = store.model_path(ladder_key_fn(1))
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _store_wrong_topology(store, compiled):
    # The key promises one shard; the artifact under it carries two.
    save(shard(compiled, 2, input_shape=INPUT_SHAPE), store, key=ladder_key_fn(1))


#: case -> (store preparation, what snapshot.load does, warm?)
LADDER_CASES = {
    "warm-hit": (_store_warm, ShardedModel, True),
    "key-absent": (lambda store, compiled: None, SnapshotKeyError, False),
    "truncated": (_store_truncated, SnapshotCorruptError, False),
    "wrong-shard-count": (_store_wrong_topology, ShardedModel, False),
}


class TestFailoverLadder:
    @pytest.fixture()
    def spies(self, monkeypatch):
        """Record what each rung did: the type ``snapshot.load`` returned
        or raised, and the shard count of every cold re-plan."""
        calls = {"load": [], "shard": []}
        real_load, real_shard = rt_snapshot.load, chaos_stream.shard

        def load(*args, **kwargs):
            try:
                restored = real_load(*args, **kwargs)
            except Exception as error:
                calls["load"].append(type(error))
                raise
            calls["load"].append(type(restored))
            return restored

        def shard_(*args, **kwargs):
            calls["shard"].append(args[1])
            return real_shard(*args, **kwargs)

        monkeypatch.setattr(rt_snapshot, "load", load)
        monkeypatch.setattr(chaos_stream, "shard", shard_)
        return calls

    @pytest.mark.parametrize("case", sorted(LADDER_CASES))
    def test_ladder(self, case, tmp_path, spies):
        prepare, load_outcome, expect_warm = LADDER_CASES[case]
        compiled = compiled_model("conv")
        store = ArtifactStore(tmp_path / "store")
        prepare(store, compiled)
        controller = ChaosController(
            FaultSchedule(seed=0, events=()),
            store=store,
            artifact_key_fn=ladder_key_fn,
            input_shape=INPUT_SHAPE,
        )
        current = shard(compiled, 2, input_shape=INPUT_SHAPE)
        model, warm, replan_s, restore_s = chaos_stream.recover(
            current, controller, 1
        )
        assert warm is expect_warm
        assert model.n_shards == 1
        assert spies["load"] == [load_outcome]
        assert restore_s > 0.0  # the restore rung was attempted and timed
        if expect_warm:
            assert spies["shard"] == [] and replan_s == 0.0
        else:
            assert spies["shard"] == [1] and replan_s > 0.0
            assert model.compiled is compiled  # re-cut over the live engines
        x = batches_for(0, n=1)[0]
        expected, _ = compiled.run(x, rng=stream_rng(0, 0))
        assert np.array_equal(model.run(x, rng=stream_rng(0, 0))[0], expected)

    def test_no_store_goes_straight_to_cold(self, spies):
        current = shard(compiled_model("conv"), 2, input_shape=INPUT_SHAPE)
        controller = ChaosController(FaultSchedule(seed=0, events=()))
        model, warm, replan_s, restore_s = chaos_stream.recover(
            current, controller, 1
        )
        assert (model.n_shards, warm, restore_s) == (1, False, 0.0)
        assert spies == {"load": [], "shard": [1]} and replan_s > 0.0

    def test_unrecoverable_returns_none(self, tmp_path, spies):
        compiled = compiled_model("conv")
        store = ArtifactStore(tmp_path / "store")
        _store_warm(store, compiled)
        controller = ChaosController(
            FaultSchedule(seed=0, events=()),
            store=store,
            artifact_key_fn=ladder_key_fn,
        )
        sharded = shard(compiled, 1, input_shape=INPUT_SHAPE)
        # No shard left, and a monolithic deployment: neither rung runs.
        assert chaos_stream.recover(sharded, controller, 0) == (None, False, 0.0, 0.0)
        assert chaos_stream.recover(compiled, controller, 1) == (None, False, 0.0, 0.0)
        assert spies == {"load": [], "shard": []}

    def test_warm_failover_restores_into_the_private_cache(self, tmp_path):
        """A deployment compiled against a private engine cache must not
        leak its warm-restored engines into the process-wide default."""
        compiled = compiled_model("conv")
        assert compiled.cache is not get_default_cache()
        store = ArtifactStore(tmp_path / "store")
        _store_warm(store, compiled)
        controller = ChaosController(
            FaultSchedule(
                seed=4, events=(FaultEvent(kind=SHARD_DEATH, shard=0, at_index=1),)
            ),
            store=store,
            artifact_key_fn=ladder_key_fn,
            input_shape=INPUT_SHAPE,
        )
        previous = set_default_cache(EngineCache())
        try:
            before = (len(get_default_cache()), get_default_cache().keys())
            result = shard(compiled, 2, input_shape=INPUT_SHAPE).run_stream(
                batches_for(4), seed=4, chaos=controller
            )
            after = (len(get_default_cache()), get_default_cache().keys())
        finally:
            set_default_cache(previous)
        assert result.recoveries[0].warm_restored
        assert after == before


# ----------------------------------------------------------------------
# Serve integration
# ----------------------------------------------------------------------
def serve_batches(n=6, seed=21):
    return [
        np.random.default_rng([seed, i]).normal(size=(1, 3, HW, HW))
        for i in range(n)
    ]


class TestServeChaos:
    @pytest.fixture(autouse=True)
    def one_metrics_model(self, monkeypatch):
        """Every server a test stops keeps the one-metrics-model identity,
        failovers included."""
        yield from audit_stopped_servers(monkeypatch)

    def test_server_failover_replays_exactly_once(self):
        model = conv_model()
        compiled = compiled_model("conv")
        oracle = [
            compiled.run(x, rng=np.random.default_rng(0))[0]
            for x in serve_batches()
        ]
        registry = ModelRegistry()
        registry.register("m", model, shards=2, shard_input_shape=INPUT_SHAPE)
        schedule = FaultSchedule(
            seed=0, events=(FaultEvent(kind=SHARD_DEATH, shard=1, at_index=2),)
        )
        controller = ChaosController(schedule, input_shape=INPUT_SHAPE)
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            n_workers=1,
            chaos=controller,
        )
        with server:
            results = await_results(
                [server.submit("m", x) for x in serve_batches()]
            )
        for i, result in enumerate(results):
            assert result.status is RequestStatus.COMPLETED
            assert np.array_equal(result.output, oracle[i])
        assert len(server.recoveries) == 1
        recovery = server.recoveries[0]
        assert recovery.n_shards_before == 2
        assert recovery.n_shards_after == 1
        assert len(recovery.replayed) == 1 and recovery.dropped == ()
        entry = registry.entry("m")
        assert entry.n_shards == 1
        assert entry.generation == 1  # swap bumped it
        snapshot = server.snapshot()
        assert snapshot.faults == {SHARD_DEATH: 1}
        assert snapshot.recoveries == 1
        assert snapshot.recovery_replayed == 1
        assert snapshot.recovery_dropped == 0
        # Every admitted request completed despite the failover.
        assert snapshot.completed == len(oracle)
        # The fault and its one replay are counted where they are
        # exported: snapshot and registry read the same instruments.
        _, samples = assert_one_metrics_model(server)
        assert samples[("repro_chaos_faults_total", (("kind", SHARD_DEATH),))] == 1
        assert samples[("repro_chaos_recovery_replayed_total", ())] == 1

    def test_server_warm_restore_from_artifact_store(self, tmp_path):
        """The server-side twin of the stream's warm-restore test: a
        pre-populated store makes the hot-swap a warm restore."""
        model = conv_model()
        compiled = compiled_model("conv")
        oracle = [
            compiled.run(x, rng=np.random.default_rng(0))[0]
            for x in serve_batches()
        ]
        store = ArtifactStore(tmp_path / "store")
        _store_warm(store, compiled)
        registry = ModelRegistry(cache=EngineCache())
        registry.register("m", model, shards=2, shard_input_shape=INPUT_SHAPE)
        controller = ChaosController(
            FaultSchedule(
                seed=0, events=(FaultEvent(kind=SHARD_DEATH, shard=1, at_index=2),)
            ),
            store=store,
            artifact_key_fn=ladder_key_fn,
            input_shape=INPUT_SHAPE,
        )
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            n_workers=1,
            chaos=controller,
        )
        with server:
            results = await_results(
                [server.submit("m", x) for x in serve_batches()]
            )
        for i, result in enumerate(results):
            assert result.status is RequestStatus.COMPLETED
            assert np.array_equal(result.output, oracle[i])
        assert server.recoveries[0].warm_restored
        assert server.recoveries[0].n_shards_after == 1
        assert registry.entry("m").n_shards == 1

    def test_server_zero_magnitude_identity(self):
        model = conv_model()
        compiled = compiled_model("conv")
        oracle = [
            compiled.run(x, rng=np.random.default_rng(0))[0]
            for x in serve_batches()
        ]
        registry = ModelRegistry()
        registry.register("m", model)
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            n_workers=1,
            chaos=ChaosController(zero_magnitude_schedule(0)),
        )
        with server:
            results = await_results(
                [server.submit("m", x) for x in serve_batches()]
            )
        for i, result in enumerate(results):
            assert np.array_equal(result.output, oracle[i])
        assert server.recoveries == []

    def test_server_degradation_window_perturbs_batches(self):
        model = conv_model()
        compiled = compiled_model("conv")
        oracle = [
            compiled.run(x, rng=np.random.default_rng(0))[0]
            for x in serve_batches()
        ]
        registry = ModelRegistry()
        registry.register("m", model)
        schedule = FaultSchedule(
            seed=0,
            events=(
                FaultEvent(
                    kind=ADC_DRIFT, at_index=1, magnitude=2.0, duration=2
                ),
            ),
        )
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            n_workers=1,
            chaos=ChaosController(schedule),
        )
        with server:
            results = await_results(
                [server.submit("m", x) for x in serve_batches()]
            )
        differs = [
            not np.array_equal(results[i].output, oracle[i])
            for i in range(len(oracle))
        ]
        assert differs == [False, True, True, False, False, False]

    def test_shutdown_mid_recovery_drains_deterministically(self):
        """Regression: a cancelling shutdown racing a failover must not
        strand the displaced batch or orphan worker threads.

        The recovery hook blocks the worker mid-failover; ``stop``
        closes the queue while it is blocked; on release, ``requeue``
        refuses (cancelling shutdown) and the worker completes the
        batch as CANCELLED itself — nothing is left behind
        ``drain_remaining``, and every worker joins.
        """
        recovery_started = threading.Event()
        release = threading.Event()

        def hook(record):
            recovery_started.set()
            assert release.wait(DEADLINE)

        model = conv_model()
        registry = ModelRegistry()
        registry.register("m", model, shards=2, shard_input_shape=INPUT_SHAPE)
        schedule = FaultSchedule(
            seed=0, events=(FaultEvent(kind=SHARD_DEATH, shard=0, at_index=0),)
        )
        controller = ChaosController(
            schedule, input_shape=INPUT_SHAPE, recovery_hook=hook
        )
        server = InferenceServer(
            registry,
            BatchPolicy(max_batch_size=1, max_wait_s=0.0),
            n_workers=1,
            chaos=controller,
        )
        server.start()
        workers = list(server._workers)
        handle = server.submit("m", serve_batches(1)[0])
        assert recovery_started.wait(DEADLINE)
        stopper = threading.Thread(
            target=lambda: server.stop(drain=False, timeout=DEADLINE)
        )
        stopper.start()
        # Event-ordered, not time-ordered: wait on the queue's condition
        # variable until stop() has actually closed it, then release the
        # blocked failover.
        assert server.queue.wait_closed(DEADLINE)
        release.set()
        stopper.join(DEADLINE)
        assert not stopper.is_alive()
        result = handle.result(timeout=DEADLINE)
        assert result.status is RequestStatus.CANCELLED
        for worker in workers:
            worker.join(DEADLINE)
            assert not worker.is_alive(), "orphaned worker thread"
        # The recovery record accounts the displaced batch as dropped.
        assert server.recoveries[0].dropped == (result.request_id,)
        assert server.recoveries[0].replayed == ()


# ----------------------------------------------------------------------
# Campaign study
# ----------------------------------------------------------------------
class TestChaosStudy:
    def test_fast_study_invariants(self):
        from repro.experiments import chaos_study

        config = chaos_study.ChaosStudyConfig(
            image_hw=8,
            channels=(4, 6),
            num_classes=4,
            n_batches=4,
            batch_size=2,
            n_campaigns=2,
            corners=(
                (BITLINE_NOISE, 0.0),
                (BITLINE_NOISE, 2.0),
                (ADC_DRIFT, 2.0),
            ),
        )
        result = chaos_study.run(config)
        assert len(result.campaigns) == 2
        for point in result.campaigns:
            # Single death, two shards, no drop budget: everything is
            # replayed and delivered, bitwise.
            assert point.availability == 1.0
            assert point.dropped == 0
            assert point.delivered_bitwise
            assert point.recovery_ms >= 0.0
        corners = {(p.kind, p.magnitude): p for p in result.corners}
        zero = corners[(BITLINE_NOISE, 0.0)]
        assert zero.bitwise_identical and zero.mean_rel_err == 0.0
        noisy = corners[(BITLINE_NOISE, 2.0)]
        assert not noisy.bitwise_identical and noisy.mean_rel_err > 0.0
        drift = corners[(ADC_DRIFT, 2.0)]
        assert not drift.bitwise_identical
        # Table plumbing stays aligned with the dataclasses.
        assert len(result.campaign_rows()) == 2
        assert len(result.corner_rows()) == 3
        summary = dict(result.recovery_summary())
        assert summary["availability_mean"] == 1.0
