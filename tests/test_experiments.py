"""Integration tests: the figure/table runners reproduce the paper's shapes.

These use the fast configurations — seconds per runner — and assert the
*qualitative* claims (who wins, orderings, factor magnitudes), which is
the reproduction contract.
"""

import numpy as np
import pytest

from repro.experiments import fig6b, fig10, fig11, fig12, fig14, table1
from repro.experiments.common import format_table


class TestTable1:
    def test_all_rows_within_2_percent(self):
        result = table1.run()
        assert result.max_relative_error() < 0.02

    def test_cell_comparison_has_rom_first(self):
        result = table1.run()
        assert result.cell_comparison[0][0] == "rom-1t"

    def test_density_ratio_about_19x(self):
        result = table1.run()
        assert 17 < result.sram_density_ratio < 21

    def test_report_renders(self):
        text = table1.format_report(table1.run())
        assert "5" in text and "rom-1t" in text


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14.run(fig14.fast_config())

    def test_vgg8_fits_improvement_near_one(self, result):
        improvements = result.improvements()
        assert 0.7 < improvements["vgg8"] < 1.3

    def test_dram_bound_models_win_big(self, result):
        improvements = result.improvements()
        for model in ("resnet18", "tiny_yolo", "yolo"):
            assert improvements[model] > 4, model

    def test_improvements_monotone_with_model_size(self, result):
        improvements = result.improvements()
        assert (
            improvements["vgg8"]
            < improvements["resnet18"]
            < improvements["tiny_yolo"]
            < improvements["yolo"]
        )

    def test_chiplet_parity_and_area_saving(self, result):
        for comparison in result.comparisons:
            if comparison.model == "yolo":
                assert 0.9 < comparison.improvement_vs_chiplet < 1.3
                assert comparison.area_saving_vs_chiplet > 7

    def test_latency_overhead_below_8_percent(self, result):
        for model, overhead in result.latency_overheads.items():
            assert overhead < 0.08, model

    def test_energy_breakdown_dram_dominates_big_models(self, result):
        breakdown = result.energy_breakdown("yolo")
        assert breakdown["dram"] > 0.5
        vgg = result.energy_breakdown("vgg8")
        assert vgg["dram"] == 0.0

    def test_area_breakdown_fractions_sum_to_one(self, result):
        breakdown = result.yoloc_area_breakdown("yolo")
        assert sum(breakdown.values()) == pytest.approx(1.0)

    def test_report_renders(self, result):
        assert "yolo" in fig14.format_report(result)


@pytest.mark.slow
class TestFig10Fast:
    @pytest.fixture(scope="class")
    def result(self, fast_result):
        return fast_result(fig10)

    def test_source_pretrain_learned(self, result):
        assert result.source_accuracy["vgg8"] > 0.7

    def test_rebranch_beats_all_rom(self, result):
        table = result.accuracy_table()["vgg8"]["near"]
        assert table["rebranch"] > table["all_rom"]

    def test_rebranch_recovers_most_of_the_gap(self, result):
        # ReBranch must close at least half the All-ROM -> All-SRAM gap
        # (at full budget it closes nearly all of it).
        table = result.accuracy_table()["vgg8"]["near"]
        gap = table["all_sram"] - table["all_rom"]
        assert table["rebranch"] >= table["all_rom"] + 0.5 * gap

    def test_rebranch_area_saving(self, result):
        areas = result.area_table()["vgg8"]
        assert areas["rebranch"] < 0.35 * areas["all_sram"]

    def test_all_rom_smallest_area(self, result):
        areas = result.area_table()["vgg8"]
        assert areas["all_rom"] == min(areas.values())


@pytest.mark.slow
class TestFig6bFast:
    def test_transferability_decays_when_all_frozen(self, fast_result):
        result = fast_result(fig6b)
        accs = result.accuracies()
        # Freezing everything (classifier-only) must hurt vs training all.
        assert accs[-1] < accs[0] + 1e-9
        assert result.points[-1].trainable_params < result.points[0].trainable_params


@pytest.mark.slow
class TestFig11Fast:
    @pytest.fixture(scope="class")
    def result(self, fast_result):
        return fast_result(fig11)

    def test_area_decreases_with_compression(self, result):
        points = {p.du: p.normalized_area for p in result.ratio_points}
        assert points[16] < points[4]

    def test_trainable_params_shrink_with_compression(self, result):
        points = {p.du: p.trainable_params for p in result.ratio_points}
        assert points[16] < points[4]

    def test_split_sweep_covers_requested(self, result):
        splits = {(p.d, p.u) for p in result.split_points}
        assert (4, 4) in splits

    def test_accuracies_above_chance(self, result):
        # Target task has 8 classes -> chance is 0.125.
        for p in result.ratio_points + result.split_points:
            assert p.accuracy > 0.18


@pytest.mark.slow
class TestFig12Fast:
    @pytest.fixture(scope="class")
    def result(self, fast_result):
        return fast_result(fig12)

    def test_area_orderings(self, result):
        areas = result.area_by_method()
        # Paper: SRAM-CiM YOLO ~9.7x YOLoC; Tiny-YOLO ~2.4x YOLoC.
        assert areas["sram_cim"] / areas["yoloc"] > 5
        assert areas["tiny_yolo"] / areas["yoloc"] > 1.5
        assert areas["yoloc"] == min(areas.values())

    def test_yoloc_map_beats_tiny(self, result):
        table = result.map_table()["voc"]
        assert table["yoloc"] >= table["tiny_yolo"]

    def test_all_methods_ran(self, result):
        table = result.map_table()["voc"]
        assert set(table) == {"sram_cim", "tiny_yolo", "deep_conv", "yoloc"}


class TestCommon:
    def test_format_table(self):
        text = format_table([("a", 1.5), ("b", 2.0)], ["name", "value"])
        assert "name" in text and "1.500" in text
