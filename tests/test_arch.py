"""Tests for the system-level architecture simulator."""

import numpy as np
import pytest

from repro import models, nn
from repro.arch import (
    CACHE_BITS_DEFAULT,
    ChipletLinkSpec,
    DramSpec,
    SIMBA_LINK,
    SramBufferModel,
    SramChipletSystem,
    SramSingleChipSystem,
    YolocSystem,
    map_model,
)
from repro.arch.mapping import (
    activation_traffic_bits,
    max_activation_bits,
    weight_reload_factor,
)
from repro.arch.romchiplet import RomChipletSystem
from repro.arch.system import macros_for
from repro.cim.macro import MacroStats
from repro.cim.spec import sram_macro_spec
from repro.experiments import fig12
from repro.runtime import EngineCache, RuntimeConfig, compile_model, fold_batchnorm

from .helpers import fig13_reports


@pytest.fixture(scope="module")
def vgg_profile():
    model = models.vgg8(rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 32, 32))


@pytest.fixture(scope="module")
def yolo_profile():
    model = models.yolo_v2(rng=np.random.default_rng(0))
    return models.profile_model(model, (1, 3, 416, 416))


class TestMemoryModels:
    def test_buffer_energy_grows_with_capacity(self):
        small = SramBufferModel(capacity_bits=1 << 20)
        big = SramBufferModel(capacity_bits=1 << 24)
        assert big.energy_pj_per_bit > small.energy_pj_per_bit

    def test_buffer_area_proportional_to_capacity(self):
        a = SramBufferModel(capacity_bits=1 << 20)
        b = SramBufferModel(capacity_bits=1 << 21)
        assert b.area_mm2 == pytest.approx(2 * a.area_mm2)

    def test_buffer_invalid_capacity(self):
        with pytest.raises(ValueError):
            SramBufferModel(capacity_bits=0)

    def test_dram_energy_linear(self):
        dram = DramSpec()
        assert dram.access_energy_pj(2e6) == pytest.approx(2 * dram.access_energy_pj(1e6))

    def test_dram_transfer_time(self):
        dram = DramSpec(bandwidth_gbps=100.0)
        assert dram.transfer_time_ns(1000) == pytest.approx(10.0)

    def test_simba_link_energy(self):
        assert SIMBA_LINK.energy_pj_per_bit == pytest.approx(1.17)
        assert SIMBA_LINK.transfer_energy_pj(100) == pytest.approx(117.0)

    def test_link_bandwidth(self):
        link = ChipletLinkSpec(bandwidth_gbps_per_pin=25, pins_per_link=32)
        assert link.link_bandwidth_gbps == 800


class TestMapping:
    def test_yoloc_mapping_splits_rom_sram(self, vgg_profile):
        mapping = map_model(vgg_profile, "yoloc")
        assert mapping.rom_weight_bits > 0
        assert mapping.sram_weight_bits > 0
        assert mapping.rom_weight_bits > mapping.sram_weight_bits

    def test_all_sram_mapping(self, vgg_profile):
        mapping = map_model(vgg_profile, "all_sram")
        assert mapping.rom_weight_bits == 0
        # CiM arrays hold conv/linear weights; BN params live in digital
        # registers and are excluded from the mapping.
        weight_params = sum(l.params for l in vgg_profile.weight_layers())
        assert mapping.sram_weight_bits == weight_params * 8

    def test_all_rom_keeps_tail_trainable(self, vgg_profile):
        mapping = map_model(vgg_profile, "all_rom", trainable_tail_layers=1)
        tail = mapping.placements[-1]
        assert tail.sram_bits > 0 and tail.rom_bits == 0
        assert all(p.rom_bits > 0 for p in mapping.placements[:-1])

    def test_trainable_fraction_small_for_yoloc(self, yolo_profile):
        mapping = map_model(yolo_profile, "yoloc", d=4, u=4)
        # Over 90% of parameters stay in ROM (the paper's claim).
        assert mapping.trainable_fraction < 0.10

    def test_branch_macs_are_fraction_of_trunk(self, vgg_profile):
        mapping = map_model(vgg_profile, "yoloc", d=4, u=4)
        branch_macs = mapping.sram_macs
        total = mapping.total_macs
        assert 0 < branch_macs / total < 0.15

    def test_larger_compression_means_fewer_sram_bits(self, vgg_profile):
        small = map_model(vgg_profile, "yoloc", d=2, u=2)
        large = map_model(vgg_profile, "yoloc", d=8, u=8)
        assert large.sram_weight_bits < small.sram_weight_bits

    def test_invalid_mode(self, vgg_profile):
        with pytest.raises(ValueError):
            map_model(vgg_profile, "hybrid")

    def test_invalid_ratio(self, vgg_profile):
        with pytest.raises(ValueError):
            map_model(vgg_profile, "yoloc", d=0)

    def test_activation_traffic_positive(self, vgg_profile):
        assert activation_traffic_bits(vgg_profile) > 0

    def test_reload_factor_one_for_small_images(self, vgg_profile):
        assert weight_reload_factor(vgg_profile, CACHE_BITS_DEFAULT) == 1

    def test_reload_factor_grows_for_detection(self, yolo_profile):
        factor = weight_reload_factor(yolo_profile, CACHE_BITS_DEFAULT)
        assert factor >= 2
        assert max_activation_bits(yolo_profile) > CACHE_BITS_DEFAULT

    def test_reload_factor_invalid_cache(self, vgg_profile):
        with pytest.raises(ValueError):
            weight_reload_factor(vgg_profile, 0)


class TestYolocSystem:
    def test_report_fields(self, vgg_profile):
        report = YolocSystem().evaluate(vgg_profile)
        assert report.system == "yoloc"
        assert report.area.total_mm2 > 0
        assert report.energy.total_pj > 0
        assert report.latency_ns > 0
        assert report.fits_on_chip

    def test_rom_area_dominates_sram_bits_but_not_area(self, yolo_profile):
        report = YolocSystem().evaluate(yolo_profile)
        mapping = report.mapping
        assert mapping.rom_weight_bits > 10 * mapping.sram_weight_bits

    def test_negligible_dram_energy(self, yolo_profile):
        report = YolocSystem().evaluate(yolo_profile)
        assert report.energy.dram_pj < 0.01 * report.energy.total_pj

    def test_latency_overhead_below_10_percent(self, yolo_profile):
        overhead = YolocSystem().latency_overhead(yolo_profile)
        assert 0 <= overhead < 0.10

    def test_area_breakdown_sums(self, vgg_profile):
        area = YolocSystem().evaluate(vgg_profile).area
        fractions = area.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_energy_efficiency_near_macro_limit(self, yolo_profile):
        # System TOPS/W must be below the macro's 11.5 but same order.
        report = YolocSystem().evaluate(yolo_profile)
        assert 5 < report.tops_per_w < 11.6


class TestSramSingleChip:
    def test_small_model_fits_no_dram(self, vgg_profile):
        system = SramSingleChipSystem(chip_area_mm2=400.0)
        report = system.evaluate(vgg_profile)
        assert report.fits_on_chip
        assert report.dram_traffic_bits == 0
        assert report.energy.dram_pj == 0

    def test_big_model_streams_weights(self, yolo_profile):
        system = SramSingleChipSystem(chip_area_mm2=200.0)
        report = system.evaluate(yolo_profile)
        assert not report.fits_on_chip
        assert report.dram_traffic_bits > 0
        assert report.energy.dram_pj > report.energy.cim_pj

    def test_iso_area_defaults_to_yoloc_area(self, vgg_profile):
        auto = SramSingleChipSystem().evaluate(vgg_profile)
        yoloc_area = YolocSystem().evaluate(vgg_profile).area.total_mm2
        assert auto.area.total_mm2 == pytest.approx(yoloc_area, rel=0.15)

    def test_dram_bound_latency(self, yolo_profile):
        system = SramSingleChipSystem(chip_area_mm2=200.0)
        report = system.evaluate(yolo_profile)
        dram_time = system.dram.transfer_time_ns(report.dram_traffic_bits)
        assert report.latency_ns >= dram_time

    def test_area_for_capacity_round_trip(self):
        system = SramSingleChipSystem()
        area = system.area_for_capacity(50_000_000)
        macros = system._macros_in(area, system.sram_spec)
        assert macros * system.sram_spec.capacity_bits >= 50_000_000 * 0.95

    @pytest.mark.parametrize("bits", [1, 1_000_000, 50_000_000, 300_000_000])
    def test_a_die_sized_for_n_macros_holds_n(self, bits):
        system = SramSingleChipSystem()
        area = system.area_for_capacity(bits)
        assert system._macros_in(area, system.sram_spec) == macros_for(
            bits, system.sram_spec
        )

    def test_iso_area_die_fits_the_yoloc_dies_sram_macros(self):
        # One weight layer: the YOLoC die holds one SRAM macro, no ROM.
        model = nn.Sequential(nn.Linear(16, 8, rng=np.random.default_rng(0)))
        profile = models.profile_model(model, (1, 16))
        yoloc = YolocSystem().evaluate(profile)
        assert (yoloc.area.rom_cim_mm2, yoloc.area.sram_cim_mm2) == (
            0.0,
            sram_macro_spec().area_mm2,
        )
        for system in (SramSingleChipSystem(), SramChipletSystem()):
            report = system.evaluate(profile)
            assert report.area.sram_cim_mm2 == yoloc.area.sram_cim_mm2
            assert report.area.total_mm2 == pytest.approx(yoloc.area.total_mm2)


class TestChipletSystem:
    def test_enough_chips_to_fit(self, yolo_profile):
        report = SramChipletSystem(chiplet_area_mm2=214.0).evaluate(yolo_profile)
        assert report.n_chips >= 5
        assert report.energy.dram_pj == 0

    def test_interconnect_energy_present(self, yolo_profile):
        report = SramChipletSystem(chiplet_area_mm2=214.0).evaluate(yolo_profile)
        assert report.energy.interconnect_pj > 0
        assert report.interconnect_traffic_bits > 0

    def test_single_chip_no_crossing(self, vgg_profile):
        report = SramChipletSystem(chiplet_area_mm2=800.0).evaluate(vgg_profile)
        assert report.n_chips == 1
        assert report.energy.interconnect_pj == 0

    def test_area_scales_with_chips(self, yolo_profile):
        report = SramChipletSystem(chiplet_area_mm2=214.0).evaluate(yolo_profile)
        assert report.area.total_mm2 > report.n_chips * 150

    def test_invalid_boundary_fraction(self):
        with pytest.raises(ValueError):
            SramChipletSystem(boundary_activation_fraction=1.5)

    def test_default_chiplet_is_sized_at_its_own_widths(self):
        """The default chiplet is the YOLoC chip at the system's own
        weight width, not at the 8-bit default."""
        model = models.build_model("resnet18", rng=np.random.default_rng(0))
        profile = models.profile_model(model, models.INPUT_SHAPES["resnet18"])
        yoloc_area = YolocSystem(weight_bits=4).evaluate(profile).area.total_mm2
        default = SramChipletSystem(weight_bits=4).evaluate(profile)
        explicit = SramChipletSystem(
            weight_bits=4, chiplet_area_mm2=yoloc_area
        ).evaluate(profile)
        assert default.n_chips == explicit.n_chips
        assert default.area == explicit.area
        assert default.energy == explicit.energy
        assert default.latency_ns == explicit.latency_ns


class TestDieBudget:
    """One die-budget check for every system: a die with no room for
    one macro beside its cache and control share is refused."""

    @pytest.mark.parametrize(
        "system",
        [
            SramSingleChipSystem(chip_area_mm2=4.0),
            SramChipletSystem(chiplet_area_mm2=4.0),
            RomChipletSystem(die_area_mm2=4.0),
        ],
        ids=lambda system: system.name,
    )
    def test_a_die_without_room_for_a_macro_is_refused(self, vgg_profile, system):
        with pytest.raises(ValueError, match=r"a 4\.0 mm\^2 die cannot fit one"):
            system.evaluate(vgg_profile)


class TestFig12Areas:
    def test_each_row_is_a_yoloc_die(self, yolo_profile):
        """Fig. 12's rows lay out dies as the systems do: the YOLoC row
        is the YOLoC chip, and the all-SRAM rows hold no ROM macro."""
        rows = {row.method: row for row in fig12.area_rows(4, 4)}
        chip = YolocSystem().evaluate(yolo_profile).area
        assert rows["yoloc"].total_cm2 == pytest.approx(chip.total_cm2, rel=1e-12)
        assert rows["yoloc"].rom_cim_cm2 == chip.rom_cim_mm2 / 100
        assert rows["sram_cim"].rom_cim_cm2 == rows["tiny_yolo"].rom_cim_cm2 == 0


class TestFig14Shape:
    """The headline system-level claims, asserted as orderings."""

    def test_yoloc_beats_single_chip_on_large_models(self, yolo_profile):
        reports = fig13_reports(yolo_profile)
        improvement = (
            reports["sram-single-chip"].energy.total_pj
            / reports["yoloc"].energy.total_pj
        )
        assert improvement > 4

    def test_yoloc_matches_chiplet_energy(self, yolo_profile):
        reports = fig13_reports(yolo_profile)
        ratio = (
            reports["sram-chiplet"].energy.total_pj / reports["yoloc"].energy.total_pj
        )
        assert 0.9 < ratio < 1.5

    def test_yoloc_saves_area_vs_chiplet(self, yolo_profile):
        reports = fig13_reports(yolo_profile)
        saving = (
            reports["sram-chiplet"].area.total_mm2 / reports["yoloc"].area.total_mm2
        )
        assert saving > 5


class TestPricedPassesAreTheChips:
    """``MacroSpec.matrix_stats`` over a profile's matrices counts the
    passes a compiled model runs: the same tiles at the same geometry,
    so every count that does not read the data is the run's."""

    #: (model, pixels) at full width.
    CASES = [("resnet8", 32), ("mobilenet", 32), ("tiny_yolo", 128)]

    @pytest.fixture(scope="class", params=CASES, ids=[name for name, _ in CASES])
    def case(self, request):
        name, px = request.param
        model = models.build_model(name, rng=np.random.default_rng(0))
        model.eval()
        fold_batchnorm(model)
        return compile_model(model, RuntimeConfig(), cache=EngineCache()), px

    @pytest.mark.parametrize("batch", [1, 2])
    def test_profile_prices_the_run(self, case, batch):
        compiled, px = case
        x = np.random.default_rng(1).normal(size=(batch, 3, px, px))
        _, run = compiled.run(x)

        spec = sram_macro_spec()
        mapping = map_model(models.profile_model(compiled, x.shape), "all_sram")
        priced = MacroStats()
        for _, rows, cols, vectors in mapping.matrices:
            priced += spec.matrix_stats(rows, cols, vectors)
        assert (priced.cycles, priced.adc_conversions, priced.macs) == (
            run.cycles,
            run.adc_conversions,
            run.macs,
        )
        assert priced.adc_energy_fj == pytest.approx(run.adc_energy_fj, rel=1e-12)
        assert priced.peripheral_energy_fj == pytest.approx(
            run.peripheral_energy_fj, rel=1e-12
        )

    def test_grouped_conv_is_one_matrix_per_group(self):
        model = models.build_model("mobilenet", rng=np.random.default_rng(0))
        profile = models.profile_model(model, (1, 3, 32, 32))
        layer = next(l for l in profile.weight_layers() if l.groups > 1)
        (placement,) = [
            p for p in map_model(profile, "all_sram").placements if p.layer is layer
        ]
        rows, cols = layer.matrix_shape
        positions = layer.out_shape[2] * layer.out_shape[3]
        assert placement.matrices == [
            ("sram", rows, cols // layer.groups, positions)
        ] * layer.groups
        assert sum(r * c * v for _, r, c, v in placement.matrices) == layer.macs
        # Branched, the depthwise trunk's res-conv keeps its 3x3 kernel.
        (branched,) = [
            p for p in map_model(profile, "yoloc").placements if p.layer is layer
        ]
        compress, res_conv, _ = branched.matrices[layer.groups :]
        assert res_conv[:2] == ("sram", compress[2] * 9)
        assert branched.sram_bits == res_conv[1] * res_conv[2] * 8
