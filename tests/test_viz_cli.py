"""Tests for the text visualization helpers and the CLI."""

import numpy as np
import pytest

from repro import viz
from repro.cli import COMMANDS, build_parser, main


class TestHbar:
    def test_full_bar(self):
        assert viz.hbar(1.0, 1.0, width=10) == "█" * 10

    def test_empty_bar(self):
        assert viz.hbar(0.0, 1.0, width=10).strip() == ""

    def test_clamps_above_max(self):
        assert viz.hbar(5.0, 1.0, width=4) == "█" * 4

    def test_invalid_max(self):
        with pytest.raises(ValueError):
            viz.hbar(1.0, 0.0)


class TestBarChart:
    def test_contains_labels_and_values(self):
        text = viz.bar_chart([("alpha", 2.0), ("b", 1.0)], title="t", unit="x")
        assert "t" in text
        assert "alpha" in text
        assert "2x" in text

    def test_longest_bar_is_max(self):
        text = viz.bar_chart([("a", 1.0), ("b", 4.0)], width=8)
        lines = text.splitlines()
        assert lines[1].count("█") == 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            viz.bar_chart([])


class TestLinePlot:
    def test_renders_points(self):
        text = viz.line_plot([0, 1, 2], [0.0, 0.5, 1.0], height=5, width=20)
        assert text.count("●") == 3

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            viz.line_plot([0, 1], [0.0])

    def test_constant_series_safe(self):
        text = viz.line_plot([0, 1], [1.0, 1.0])
        assert "●" in text

    def test_y_label(self):
        assert "acc" in viz.line_plot([0], [1.0], y_label="acc")


class TestStackedBar:
    def test_fractions_rendered(self):
        text = viz.stacked_fraction_bar({"cim": 0.6, "dram": 0.4}, width=10)
        assert "cim" in text and "60%" in text

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            viz.stacked_fraction_bar({"a": 0.0})

    def test_no_legend(self):
        text = viz.stacked_fraction_bar({"a": 1.0}, width=5, legend=False)
        assert "=" not in text


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        )
        assert {
            "info",
            "table1",
            "fig14",
            "fig10",
            "options",
            "packing",
            "chaos",
        } <= set(sub.choices)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c.name)
    def test_command_table_entry_binds(self, command):
        assert command.help
        assert callable(command.handler)
        required = {"compile": ["--store", "s"], "warm": ["--store", "s"]}
        args = build_parser().parse_args(
            [command.name, *required.get(command.name, [])]
        )
        assert args.command == command.name
        assert args.func is command.handler

    def test_command_table_is_the_whole_cli(self):
        sub = next(
            a for a in build_parser()._actions if hasattr(a, "choices") and a.choices
        )
        assert list(sub.choices) == [command.name for command in COMMANDS]

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "vgg8" in out and "yolo" in out

    def test_info_verbose(self, capsys):
        assert main(["info", "--verbose", "--model", "vgg8"]) == 0
        assert "total" in capsys.readouterr().out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        assert "rom-1t" in capsys.readouterr().out

    def test_packing_command(self, capsys):
        assert main(["packing"]) == 0
        assert "subarray_saving" in capsys.readouterr().out

    def test_fig14_command(self, capsys):
        assert main(["fig14"]) == 0
        out = capsys.readouterr().out
        assert "yolo" in out and "improvement" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])


class TestExtensionCommands:
    """CLI entries for the future-work / extension studies."""

    def test_encoding_command(self, capsys):
        assert main(["encoding"]) == 0
        out = capsys.readouterr().out
        assert "bit-serial" in out and "pulse-width" in out

    def test_designspace_command(self, capsys):
        assert main(["designspace"]) == 0
        out = capsys.readouterr().out
        assert "pareto frontier" in out

    def test_variation_command(self, capsys):
        assert main(["variation"]) == 0
        assert "tolerable cell mismatch" in capsys.readouterr().out

    def test_training_command(self, capsys):
        assert main(["training"]) == 0
        out = capsys.readouterr().out
        assert "yolo" in out and "rebranch_uJ" in out

    def test_pingpong_command(self, capsys):
        assert main(["pingpong"]) == 0
        assert "relief" in capsys.readouterr().out

    def test_chiplets_command(self, capsys):
        assert main(["chiplets", "--model", "tiny_yolo"]) == 0
        assert "rom_chips" in capsys.readouterr().out

    def test_runtime_command_over_zoo_model(self, capsys):
        assert main(["runtime", "--model", "resnet8"]) == 0
        out = capsys.readouterr().out
        assert "serving" in out and "True" in out  # bitwise verdicts

    def test_shard_command_over_zoo_model(self, capsys):
        assert main(["shard", "--model", "resnet8", "--batches", "3"]) == 0
        out = capsys.readouterr().out
        assert "pipelined_ms" in out and "True" in out

    def test_chaos_command(self, capsys):
        assert main(["chaos", "--batches", "4", "--campaigns", "1"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out and "bitwise" in out
        assert "recovery_ms_mean" in out

    @pytest.mark.slow
    def test_dusearch_command(self, capsys):
        assert main(["dusearch"]) == 0
        assert "selected: D=" in capsys.readouterr().out

    @pytest.mark.slow
    def test_subbit_command(self, capsys):
        assert main(["subbit"]) == 0
        out = capsys.readouterr().out
        assert "ternary" in out and "mobilenet" in out
