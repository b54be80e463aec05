"""Tests for the ROM-CiM chiplet system (section 4.3.3 future work)."""

import numpy as np
import pytest

from repro import models
from repro.arch import (
    RETICLE_LIMIT_MM2,
    RomChipletSystem,
    SramChipletSystem,
    YolocSystem,
    chiplet_scaling,
    partition_summary,
    reticle_escape_area_mm2,
)

from .helpers import fig13_reports


def four_systems(profile, die_area_mm2=50.0):
    """The Fig. 13 trio plus the section 4.3.3 ROM-chiplet assembly."""
    reports = fig13_reports(profile)
    reports["rom-chiplet"] = RomChipletSystem(die_area_mm2=die_area_mm2).evaluate(
        profile
    )
    return reports


@pytest.fixture(scope="module")
def vgg_profile():
    model = models.build_model("vgg8", rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 32, 32))


@pytest.fixture(scope="module")
def yolo_profile():
    model = models.build_model("yolo", rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 416, 416))


class TestRomChipletSystem:
    def test_small_model_fits_one_die(self, vgg_profile):
        report = RomChipletSystem(die_area_mm2=100.0).evaluate(vgg_profile)
        assert report.n_chips == 1
        assert report.interconnect_traffic_bits == 0
        assert report.energy.interconnect_pj == 0.0

    def test_large_model_needs_multiple_dies(self, yolo_profile):
        report = RomChipletSystem(die_area_mm2=25.0).evaluate(yolo_profile)
        assert report.n_chips > 1
        assert report.energy.interconnect_pj > 0.0

    def test_fewer_chips_than_sram_chiplets(self, yolo_profile):
        die = 25.0
        rom = RomChipletSystem(die_area_mm2=die).evaluate(yolo_profile)
        sram = SramChipletSystem(chiplet_area_mm2=die).evaluate(yolo_profile)
        # ROM-CiM is ~19x denser; the assembly should be ~an order of
        # magnitude smaller in die count.
        assert sram.n_chips >= 5 * rom.n_chips

    def test_less_total_area_than_sram_chiplets(self, yolo_profile):
        die = 25.0
        rom = RomChipletSystem(die_area_mm2=die).evaluate(yolo_profile)
        sram = SramChipletSystem(chiplet_area_mm2=die).evaluate(yolo_profile)
        assert rom.area.total_mm2 < sram.area.total_mm2 / 3

    def test_dram_free_except_boot(self, yolo_profile):
        report = RomChipletSystem(die_area_mm2=25.0).evaluate(yolo_profile)
        # Only the amortized branch-weight boot load touches DRAM.
        assert report.energy.dram_pj < 0.05 * report.energy.total_pj

    def test_bigger_dies_mean_fewer_chips(self, yolo_profile):
        small = RomChipletSystem(die_area_mm2=20.0).evaluate(yolo_profile).n_chips
        large = RomChipletSystem(die_area_mm2=80.0).evaluate(yolo_profile).n_chips
        assert large < small

    def test_invalid_die_area(self):
        with pytest.raises(ValueError, match="die area"):
            RomChipletSystem(die_area_mm2=0.0)

    def test_die_smaller_than_cache_rejected(self, vgg_profile):
        system = RomChipletSystem(die_area_mm2=0.1)
        with pytest.raises(ValueError, match="cache"):
            system.evaluate(vgg_profile)

    def test_invalid_boundary_fraction(self):
        with pytest.raises(ValueError, match="boundary"):
            RomChipletSystem(boundary_activation_fraction=1.5)

    def test_one_die_is_the_yoloc_chip(self, vgg_profile):
        """On one die the assembly is the YOLoC chip, bit for bit."""
        rom = RomChipletSystem(die_area_mm2=100.0).evaluate(vgg_profile)
        yoloc = YolocSystem().evaluate(vgg_profile)
        assert rom.n_chips == 1
        assert rom.area == yoloc.area
        assert rom.energy == yoloc.energy
        assert rom.latency_ns == yoloc.latency_ns

    def test_report_identity(self, vgg_profile):
        report = RomChipletSystem().evaluate(vgg_profile)
        assert report.system == "rom-chiplet"
        assert report.macs > 0
        assert report.latency_ns > 0


class TestScalingStudy:
    def test_scaling_points_cover_sweep(self, yolo_profile):
        result = chiplet_scaling(
            yolo_profile, die_areas_mm2=(25.0, 100.0), model_name="yolo"
        )
        assert [p.die_area_mm2 for p in result.points] == [25.0, 100.0]
        assert all(p.chip_count_ratio > 1 for p in result.points)

    def test_rom_assembly_energy_near_parity(self, yolo_profile):
        """ReBranch's extra MACs eat the link saving: parity, not a win."""
        result = chiplet_scaling(yolo_profile, die_areas_mm2=(50.0,))
        assert result.points[0].energy_ratio == pytest.approx(1.0, abs=0.15)

    def test_rom_assembly_wins_silicon(self, yolo_profile):
        result = chiplet_scaling(yolo_profile, die_areas_mm2=(50.0,))
        point = result.points[0]
        assert point.rom_area_cm2 < point.sram_area_cm2 / 5
        assert point.chip_count_ratio > 5

    def test_partition_summary_keys(self, yolo_profile):
        summary = partition_summary(yolo_profile, die_area_mm2=25.0)
        assert summary["rom_chips"] >= 1
        assert summary["chip_count_ratio"] > 1
        assert summary["monolithic_area_mm2"] > 0

    def test_reticle_escape_consistent_with_yoloc(self, vgg_profile):
        area = reticle_escape_area_mm2(vgg_profile)
        assert 0 < area < RETICLE_LIMIT_MM2  # VGG-8 fits a single die


class TestFourSystems:
    def test_four_reports(self, vgg_profile):
        reports = four_systems(vgg_profile)
        assert set(reports) == {
            "yoloc",
            "sram-single-chip",
            "sram-chiplet",
            "rom-chiplet",
        }
        for report in reports.values():
            assert report.energy.total_pj > 0
            assert report.area.total_mm2 > 0

    def test_rom_chiplet_matches_yoloc_on_small_model(self, vgg_profile):
        """A model that fits one die: the assembly is a YOLoC chip plus
        packaging control overhead, at identical compute energy."""
        reports = four_systems(vgg_profile, die_area_mm2=100.0)
        rom = reports["rom-chiplet"]
        yoloc = reports["yoloc"]
        assert rom.n_chips == 1
        assert rom.energy.cim_pj == pytest.approx(yoloc.energy.cim_pj)
