"""Property-based tests on the architecture accounting invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import models
from repro.arch import (
    AreaBreakdown,
    EnergyBreakdown,
    RomChipletSystem,
    TrainingCostModel,
    YolocSystem,
)
from repro.arch.mapping import map_model


@pytest.fixture(scope="module")
def vgg_profile():
    model = models.build_model("vgg8", rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 32, 32))


positive = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)


class TestBreakdownInvariants:
    @given(positive, positive, positive, positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_energy_fractions_sum_to_one(self, a, b, c, d, e):
        breakdown = EnergyBreakdown(
            cim_pj=a, peripheral_pj=b, buffer_pj=c, dram_pj=d, interconnect_pj=e
        )
        fractions = breakdown.fractions()
        if breakdown.total_pj > 0:
            assert sum(fractions.values()) == pytest.approx(1.0)
        else:
            assert fractions == {}

    @given(positive, positive, positive, positive, positive)
    @settings(max_examples=60, deadline=None)
    def test_area_fractions_sum_to_one(self, a, b, c, d, e):
        breakdown = AreaBreakdown(
            array_mm2=a, adc_mm2=b, rw_mm2=c, buffer_mm2=d, ctrl_mm2=e
        )
        fractions = breakdown.fractions()
        if breakdown.total_mm2 > 0:
            assert sum(fractions.values()) == pytest.approx(1.0)
        assert breakdown.total_cm2 == pytest.approx(breakdown.total_mm2 / 100)

    @given(positive, positive, positive, positive, positive)
    @settings(max_examples=40, deadline=None)
    def test_energy_total_is_component_sum(self, a, b, c, d, e):
        breakdown = EnergyBreakdown(
            cim_pj=a, peripheral_pj=b, buffer_pj=c, dram_pj=d, interconnect_pj=e
        )
        assert breakdown.total_pj == pytest.approx(a + b + c + d + e)


class TestMappingInvariants:
    @given(st.sampled_from([1, 2, 4, 8, 16]), st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=20, deadline=None)
    def test_yoloc_mapping_conserves_trunk_macs(self, d, u):
        model = models.build_model("vgg8", rng=np.random.default_rng(0))
        profile = models.profile_model(model, (1, 3, 32, 32))
        yoloc = map_model(profile, "yoloc", d=d, u=u)
        all_sram = map_model(profile, "all_sram")
        # The branch only ever adds MACs on top of the trunk's.
        assert yoloc.total_macs >= all_sram.total_macs
        # Stronger compression means fewer SRAM-resident weights.
        assert 0 < yoloc.trainable_fraction <= 1

    def test_stronger_compression_fewer_sram_bits(self, vgg_profile):
        loose = map_model(vgg_profile, "yoloc", d=2, u=2)
        tight = map_model(vgg_profile, "yoloc", d=8, u=8)
        assert tight.sram_weight_bits < loose.sram_weight_bits

    def test_all_sram_has_no_rom(self, vgg_profile):
        mapping = map_model(vgg_profile, "all_sram")
        assert mapping.rom_weight_bits == 0
        assert mapping.rom_macs == 0


class TestSystemMonotonicity:
    @given(st.sampled_from([2, 4, 8]))
    @settings(max_examples=8, deadline=None)
    def test_rebranch_training_never_costlier_than_full(self, du):
        model = models.build_model("vgg8", rng=np.random.default_rng(0))
        profile = models.profile_model(model, (1, 3, 32, 32))
        cost_model = TrainingCostModel()
        full = cost_model.step_cost(profile, "full")
        rebranch = cost_model.step_cost(profile, "rebranch", d=du, u=du)
        assert rebranch.total_pj <= full.total_pj
        assert rebranch.trainable_bits < full.trainable_bits

    def test_yoloc_report_latency_positive(self, vgg_profile):
        report = YolocSystem().evaluate(vgg_profile)
        assert report.latency_ns > 0
        assert report.tops_per_w > 0
        assert report.throughput_gops > 0

    @given(st.sampled_from([20.0, 40.0, 80.0, 160.0]))
    @settings(max_examples=8, deadline=None)
    def test_rom_chiplet_count_monotone_in_die_area(self, die_area):
        model = models.build_model("vgg8", rng=np.random.default_rng(0))
        profile = models.profile_model(model, (1, 3, 32, 32))
        smaller = RomChipletSystem(die_area_mm2=die_area).evaluate(profile).n_chips
        larger = RomChipletSystem(die_area_mm2=2 * die_area).evaluate(profile).n_chips
        assert larger <= smaller
