"""Tests for the Fig. 1 technology model and subarray packing."""

import numpy as np
import pytest

from repro import models
from repro.arch import technology as tech
from repro.arch.packing import (
    WeightTile,
    compare_packings,
    pack_first_fit,
    pack_naive,
)
from repro.cim.macro import MacroConfig
from repro.cim.spec import rom_macro_spec, sram_macro_spec


@pytest.fixture(scope="module")
def small_profile():
    model = models.vgg8(width_mult=0.125, rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 32, 32))


class TestProcessNodes:
    def test_density_monotone_with_scaling(self):
        nodes = tech.node_table()
        densities = [n.sram_density_mb_mm2 for n in nodes]
        assert densities == sorted(densities)

    def test_cost_monotone_with_scaling(self):
        nodes = tech.node_table()
        costs = [n.tapeout_cost_musd for n in nodes]
        assert costs == sorted(costs)

    def test_get_node(self):
        assert tech.get_node(28).node_nm == 28

    def test_get_unknown_node(self):
        with pytest.raises(KeyError):
            tech.get_node(3)

    def test_rom28_beats_5nm_sram_cell(self):
        # The paper: "even denser than the commercial SRAM at the 5-7nm node".
        beaten = tech.nodes_beaten_by_rom28()
        assert 5 in beaten and 7 in beaten and 28 in beaten

    def test_rom28_macro_beats_28nm_sram_macro(self):
        beaten = tech.nodes_beaten_by_rom28(include_macro_overhead=True)
        assert 28 in beaten

    def test_scaling_curve_normalized(self):
        curve = tech.scaling_curve()
        assert curve[130] == (1.0, 1.0)
        density_5, cost_5 = curve[5]
        assert density_5 > 50  # ~70x denser
        assert cost_5 > 100  # cost explodes faster


class TestStandbyPower:
    def test_rom_standby_zero(self):
        assert rom_macro_spec().standby_power_w == 0.0

    def test_sram_standby_positive(self):
        assert sram_macro_spec().standby_power_w > 0.0

    def test_duty_cycle_advantage_grows_when_idle(self):
        busy = tech.duty_cycle_energy_ratio(1e-3, 30.0, 400_000_000, duty_cycle=1.0)
        idle = tech.duty_cycle_energy_ratio(1e-3, 30.0, 400_000_000, duty_cycle=0.01)
        assert idle["rom_advantage"] > busy["rom_advantage"]
        assert busy["rom_advantage"] >= 1.0

    def test_leakage_counts_every_macro_a_model_fills(self):
        """One bit past a macro's capacity fills a second macro, which
        leaks too."""
        sram = sram_macro_spec()
        entry = tech.duty_cycle_energy_ratio(0.0, 0.0, sram.capacity_bits + 1)
        assert entry["sram_j_per_s"] == 2 * sram.standby_power_w

    def test_duty_cycle_validation(self):
        with pytest.raises(ValueError):
            tech.duty_cycle_energy_ratio(1e-3, 30.0, 1_000_000, duty_cycle=0.0)
        with pytest.raises(ValueError):
            tech.duty_cycle_energy_ratio(1e-3, -1.0, 1_000_000)


class TestPacking:
    def test_naive_one_tile_per_subarray(self, small_profile):
        result = pack_naive(small_profile)
        assert result.n_subarrays == sum(len(a.tiles) for a in result.assignments)
        assert all(len(a.tiles) == 1 for a in result.assignments)

    def test_packed_never_more_subarrays(self, small_profile):
        naive = pack_naive(small_profile)
        packed = pack_first_fit(small_profile)
        assert packed.n_subarrays <= naive.n_subarrays

    def test_packed_preserves_all_words(self, small_profile):
        naive = pack_naive(small_profile)
        packed = pack_first_fit(small_profile)
        assert packed.total_words == naive.total_words
        words = sum(tile.words for a in packed.assignments for tile in a.tiles)
        assert words == packed.total_words

    def test_no_subarray_overflows(self, small_profile):
        config = MacroConfig()
        packed = pack_first_fit(small_profile, config)
        for assignment in packed.assignments:
            assert assignment.used_rows() <= config.rows
            for shelf in assignment.shelves:
                assert shelf.used_cols <= config.logical_columns
                for tile in shelf.tiles:
                    assert tile.rows <= shelf.height

    def test_utilization_improves(self, small_profile):
        report = compare_packings(small_profile)
        assert report["packed_array_utilization"] >= report["naive_array_utilization"]
        assert report["subarray_saving"] >= 1.0

    def test_passes_positive_and_packed_not_worse(self, small_profile):
        naive = pack_naive(small_profile)
        packed = pack_first_fit(small_profile)
        assert packed.total_passes <= naive.total_passes
        assert packed.total_passes > 0

    def test_utilization_bounded(self, small_profile):
        packed = pack_first_fit(small_profile)
        assert 0 < packed.array_utilization <= 1.0

    def test_tile_words(self):
        tile = WeightTile("layer", 10, 4)
        assert tile.words == 40

    def test_fragmented_case_packs_2d(self):
        """Many quarter-size tiles must share subarrays in both dims."""
        from repro import nn
        from repro.models.profile import profile_model

        rng = np.random.default_rng(0)
        layers = [nn.Conv2d(4, 8, 3, padding=1, rng=rng)]
        layers += [nn.Conv2d(8, 8, 3, padding=1, rng=rng) for _ in range(7)]
        model = nn.Sequential(*layers)
        # 72-row x 8-col tiles: four fit side by side per 128x32 subarray.
        profile = profile_model(model, (1, 4, 8, 8))
        naive = pack_naive(profile)
        packed = pack_first_fit(profile)
        assert naive.n_subarrays == 8
        assert packed.n_subarrays <= 3
