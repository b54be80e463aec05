"""Tests for the circuit-level CiM simulation."""

import dataclasses

import numpy as np
import pytest

from repro.cim import (
    ROM_1T,
    SRAM_6T,
    SRAM_CIM_6T,
    AdcSpec,
    BitlineModel,
    CimMacro,
    CimTiledMatmul,
    MacroConfig,
    all_cim_cells,
    rom_macro_spec,
    sram_macro_spec,
)
from repro.cim.macro import MacroStats, _bit_planes, macro_pass_stats
from repro.cim.spec import TABLE1_PAPER
from repro.runtime import EngineCache

from .helpers import compiled_layer

RNG = np.random.default_rng(21)


class TestCells:
    def test_rom_cell_area_is_headline(self):
        assert ROM_1T.area_um2 == pytest.approx(0.014)

    def test_6t_sram_16x(self):
        assert SRAM_6T.relative_area(ROM_1T) == pytest.approx(16.0)

    def test_cim_6t_18_5x(self):
        assert SRAM_CIM_6T.relative_area(ROM_1T) == pytest.approx(18.5)

    def test_published_cells_span_paper_range(self):
        ratios = [c.relative_area(ROM_1T) for c in all_cim_cells() if c is not ROM_1T]
        assert min(ratios) == pytest.approx(14.5)
        assert max(ratios) == pytest.approx(29.5)

    def test_rom_non_volatile_zero_standby(self):
        assert not ROM_1T.volatile
        assert ROM_1T.standby_leakage_pw == 0.0

    def test_rom_density_beats_sram(self):
        assert ROM_1T.density_mb_per_mm2 > 10 * SRAM_CIM_6T.density_mb_per_mm2


class TestAdc:
    def test_quantize_exact_at_full_resolution(self):
        adc = AdcSpec(bits=7)
        counts = np.arange(0, 128)
        out = adc.quantize_counts(counts, full_scale=127)
        np.testing.assert_allclose(out[:128], counts, atol=1e-9)

    def test_quantize_5bit_step(self):
        adc = AdcSpec(bits=5)
        out = adc.quantize_counts(np.array([64.0]), full_scale=128)
        step = 128 / 31
        assert out[0] == pytest.approx(round(64 / step) * step)

    def test_clipping_at_top_code(self):
        adc = AdcSpec(bits=5)
        out = adc.quantize_counts(np.array([500.0]), full_scale=128)
        assert out[0] == pytest.approx(128.0)

    def test_invalid_full_scale(self):
        with pytest.raises(ValueError):
            AdcSpec().quantize_counts(np.array([1.0]), 0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            AdcSpec(bits=0)

    def test_shared_bank_mux_ratio(self):
        """16 ADCs shared by 256 bit lines: a pass converts every column
        once per input bit, in 256 / 16 rounds."""
        config = MacroConfig(n_adcs=16, phys_columns=256, input_bits=1)
        stats = macro_pass_stats(config, 128, 256 // config.weight_bits, 1, 0, 0.0)
        assert stats.adc_conversions == 256
        assert stats.cycles == 256 // 16

    def test_readout_time_scales_with_columns(self):
        """Reading 16 bit lines through 16 shared ADCs takes one round,
        reading 256 takes 16."""
        config = MacroConfig(n_adcs=16, phys_columns=256, input_bits=1, cycle_time_ns=1.0)
        words = [columns // config.weight_bits for columns in (16, 256)]
        latency = [macro_pass_stats(config, 128, w, 1, 0, 0.0).latency_ns for w in words]
        assert latency == [pytest.approx(1.0), pytest.approx(16.0)]


class TestBitline:
    def test_noise_zero_is_deterministic(self):
        model = BitlineModel(noise_sigma_counts=0.0)
        counts = np.array([5.0, 10.0])
        np.testing.assert_array_equal(model.observe(counts), counts)

    def test_noise_perturbs(self):
        model = BitlineModel(noise_sigma_counts=1.0)
        counts = np.full(1000, 50.0)
        observed = model.observe(counts, np.random.default_rng(0))
        assert observed.std() > 0.5

    def test_saturation_clips(self):
        model = BitlineModel(max_rows=128, saturation=0.5)
        observed = model.observe(np.array([100.0]))
        assert observed[0] == pytest.approx(64.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BitlineModel(max_rows=0)
        with pytest.raises(ValueError):
            BitlineModel(noise_sigma_counts=-1)


class TestMacroConfig:
    def test_logical_columns(self):
        config = MacroConfig()
        assert config.logical_columns == 32
        assert config.capacity_bits == 128 * 256

    def test_columns_must_divide(self):
        with pytest.raises(ValueError):
            MacroConfig(phys_columns=250)

    def test_weight_range_signed(self):
        assert MacroConfig().weight_range() == (-128, 127)

    def test_input_range_unsigned_default(self):
        assert MacroConfig().input_range() == (0, 255)


class TestBitPlanes:
    def test_unsigned_reconstruction(self):
        codes = np.arange(0, 16)
        planes, weights = _bit_planes(codes, 4, signed=False)
        recon = np.einsum("k,kn->n", weights, planes)
        np.testing.assert_array_equal(recon, codes)

    def test_signed_twos_complement_reconstruction(self):
        codes = np.arange(-8, 8)
        planes, weights = _bit_planes(codes, 4, signed=True)
        recon = np.einsum("k,kn->n", weights, planes)
        np.testing.assert_array_equal(recon, codes)


class TestCimMacro:
    def _exact_config(self, rows=127, **kwargs):
        # full_scale = rows = 2^bits - 1 makes the ADC lossless.
        return MacroConfig(
            rows=rows, phys_columns=64, n_adcs=16, adc=AdcSpec(bits=7), **kwargs
        )

    def test_exact_matmul_with_lossless_adc(self):
        config = self._exact_config(signed_inputs=True)
        weights = RNG.integers(-128, 128, size=(127, 8))
        macro = CimMacro(config, weights)
        x = RNG.integers(-128, 128, size=(127, 4))
        out, _ = macro.matmul(x)
        np.testing.assert_array_equal(out, macro.exact_matmul(x))

    def test_vector_input_squeezed(self):
        config = self._exact_config()
        macro = CimMacro(config, RNG.integers(-10, 10, size=(127, 8)))
        x = RNG.integers(0, 4, size=127)
        out, _ = macro.matmul(x)
        assert out.shape == (8,)

    def test_5bit_adc_introduces_bounded_error(self):
        rng = np.random.default_rng(5)
        config = MacroConfig(rows=128, phys_columns=64, n_adcs=16, adc=AdcSpec(bits=5))
        weights = rng.integers(-128, 128, size=(128, 8))
        macro = CimMacro(config, weights)
        x = rng.integers(0, 256, size=(128, 4))
        approx, _ = macro.matmul(x)
        exact = macro.exact_matmul(x)
        error = np.abs(approx - exact)
        assert error.max() > 0  # 5 bits cannot be lossless over 128 rows
        # Worst case: half an ADC step on every (input bit, weight bit)
        # partial, amplified by the shift-and-add weights.
        step = 128 / 31
        bound = (step / 2) * 255 * 255
        assert error.max() <= bound

    def test_weight_range_enforced(self):
        with pytest.raises(ValueError):
            CimMacro(MacroConfig(), np.array([[300]]))

    def test_input_range_enforced(self):
        macro = CimMacro(MacroConfig(), np.zeros((4, 2), dtype=int))
        with pytest.raises(ValueError):
            macro.matmul(np.full(4, -1))

    def test_capacity_enforced(self):
        with pytest.raises(ValueError):
            CimMacro(MacroConfig(), np.zeros((300, 2), dtype=int))

    def test_rom_cannot_be_reprogrammed(self):
        macro = CimMacro(MacroConfig(cell=ROM_1T), np.zeros((4, 2), dtype=int))
        with pytest.raises(RuntimeError, match="ROM"):
            macro.program(np.ones((4, 2), dtype=int))

    def test_sram_can_be_reprogrammed(self):
        macro = CimMacro(MacroConfig(cell=SRAM_CIM_6T), np.zeros((4, 2), dtype=int))
        macro.program(np.ones((4, 2), dtype=int))
        np.testing.assert_array_equal(macro.weights, np.ones((4, 2)))

    def test_stats_energy_positive_and_decomposed(self):
        macro = CimMacro(MacroConfig(), RNG.integers(-8, 8, size=(128, 32)))
        _, stats = macro.matmul(RNG.integers(0, 16, size=(128, 2)))
        assert stats.total_energy_fj > 0
        assert stats.adc_energy_fj > 0
        assert stats.peripheral_energy_fj > 0
        assert stats.macs == 128 * 32 * 2
        assert stats.latency_ns > 0

    def test_stats_addition(self):
        macro = CimMacro(MacroConfig(), RNG.integers(-8, 8, size=(128, 32)))
        _, a = macro.matmul(RNG.integers(0, 16, size=(128, 1)))
        _, b = macro.matmul(RNG.integers(0, 16, size=(128, 1)))
        total = a + b
        assert total.macs == a.macs + b.macs
        assert total.total_energy_fj == pytest.approx(
            a.total_energy_fj + b.total_energy_fj
        )

    def test_noise_injection_changes_result(self):
        config = MacroConfig(
            rows=128,
            phys_columns=64,
            n_adcs=16,
            adc=AdcSpec(bits=7),
            bitline=BitlineModel(max_rows=128, noise_sigma_counts=2.0),
        )
        weights = RNG.integers(-64, 64, size=(128, 8))
        macro = CimMacro(config, weights, rng=np.random.default_rng(1))
        x = RNG.integers(0, 200, size=(128, 2))
        noisy, _ = macro.matmul(x)
        assert not np.array_equal(noisy, macro.exact_matmul(x))


class TestTiledMatmul:
    def test_matches_exact_with_lossless_adc(self):
        config = MacroConfig(
            rows=128, phys_columns=256, n_adcs=16, adc=AdcSpec(bits=7), signed_inputs=True
        )
        # rows per tile = 128 > 127 full-scale codes... use 127-row tiles:
        config = MacroConfig(
            rows=127, phys_columns=256, n_adcs=16, adc=AdcSpec(bits=7), signed_inputs=True
        )
        weights = RNG.integers(-100, 100, size=(400, 70))
        engine = CimTiledMatmul(weights, config)
        x = RNG.integers(-50, 50, size=(400, 3))
        out, stats = engine.matmul(x)
        np.testing.assert_array_equal(out, weights.T @ x)  # the ideal product
        assert stats.macs == 400 * 70 * 3

    def test_tile_count(self):
        config = MacroConfig()  # 128 rows x 32 logical cols
        engine = CimTiledMatmul(np.zeros((200, 50), dtype=int), config)
        assert engine.n_subarrays == 2 * 2
        assert engine.n_row_tiles == 2

    @pytest.mark.parametrize("rows", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("cols", [1, 31, 32, 33, 70])
    def test_tile_count_is_arithmetic_before_and_after_layout(self, rows, cols):
        """Tiles are laid out on first read; the count needs no layout
        and agrees with it, ragged edges included."""
        config = MacroConfig(phys_columns=16 * 8)  # 128 rows x 16 logical cols
        engine = CimTiledMatmul(np.ones((rows, cols), dtype=int), config)
        before = engine.n_subarrays
        assert engine._tiles is None
        assert before == len(engine.tiles) == engine.n_subarrays
        assert [(t.row_start, t.row_stop, t.col_start, t.col_stop) for t in engine.tiles] == (
            engine.tile_bounds()
        )

    def test_with_config_before_layout(self):
        """A view of an engine no read has laid out yet senses through
        its own config; the engine keeps its own."""
        config = MacroConfig(adc=AdcSpec(bits=8))
        coarse = dataclasses.replace(config, adc=AdcSpec(bits=4))
        weights = RNG.integers(-128, 128, size=(200, 40))
        x = RNG.integers(0, 256, size=(200, 5))
        engine = CimTiledMatmul(weights, config)
        assert engine._tiles is None
        view = engine.with_config(coarse)
        assert all(tile.macro.config is coarse for tile in view.tiles)
        assert all(tile.macro.config is config for tile in engine.tiles)
        for tiled, fresh in ((view, coarse), (engine, config)):
            out, stats = tiled.matmul(x)
            ref, ref_stats = CimTiledMatmul(weights, fresh).matmul(x)
            assert out.tobytes() == ref.tobytes()
            assert stats == ref_stats

    def test_latency_is_parallel_max_not_sum(self):
        config = MacroConfig()
        single = CimTiledMatmul(np.zeros((128, 32), dtype=int), config)
        tiled = CimTiledMatmul(np.zeros((256, 64), dtype=int), config)
        _, s1 = single.matmul(np.zeros(128, dtype=int))
        _, s4 = tiled.matmul(np.zeros(256, dtype=int))
        assert s4.latency_ns == pytest.approx(s1.latency_ns)

    def test_row_mismatch_rejected(self):
        engine = CimTiledMatmul(np.zeros((64, 8), dtype=int), MacroConfig())
        with pytest.raises(ValueError):
            engine.matmul(np.zeros(65, dtype=int))

    def test_non_2d_weights_rejected(self):
        with pytest.raises(ValueError):
            CimTiledMatmul(np.zeros(8, dtype=int), MacroConfig())


class TestMacroStats:
    def test_fields_cannot_be_assigned(self):
        """Immutable, so the served requests of one batch can share one
        stats object (see ``InferenceServer._execute_batch``)."""
        stats = MacroStats(cycles=3, macs=7, latency_ns=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.macs = 8
        assert stats.macs == 7

    def test_add_and_replace_build_new_values(self):
        a = MacroStats(cycles=3, macs=7, wl_energy_fj=0.5, latency_ns=2.0)
        b = MacroStats(cycles=1, macs=2, wl_energy_fj=0.25, link_bits=4.0)
        total = a + b
        assert total == MacroStats(
            cycles=4, macs=9, wl_energy_fj=0.75, latency_ns=2.0, link_bits=4.0
        )
        unlinked = dataclasses.replace(total, link_bits=0.0)
        assert unlinked.link_bits == 0.0 and total.link_bits == 4.0
        assert dataclasses.replace(unlinked, link_bits=4.0) == total


class TestFloatPaths:
    def test_cim_linear_close_to_float(self):
        x = RNG.normal(size=(6, 40))
        w = RNG.normal(size=(10, 40))
        layer = compiled_layer(w, MacroConfig(adc=AdcSpec(bits=8)), cache=EngineCache())
        out, stats = layer.run(x)
        ref = x @ w.T
        rel = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert rel < 0.05
        assert stats.macs == 40 * 10 * 6

    def test_cim_linear_handles_unsigned_activations(self):
        x = np.abs(RNG.normal(size=(4, 30)))
        w = RNG.normal(size=(5, 30))
        layer = compiled_layer(w, MacroConfig(adc=AdcSpec(bits=8)), cache=EngineCache())
        out, _ = layer.run(x)
        ref = x @ w.T
        assert np.abs(out - ref).mean() / np.abs(ref).mean() < 0.05

    def test_cim_conv2d_close_to_float(self):
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor

        x = RNG.normal(size=(2, 3, 8, 8))
        w = RNG.normal(size=(4, 3, 3, 3))
        layer = compiled_layer(
            w, MacroConfig(adc=AdcSpec(bits=8)), padding=1, cache=EngineCache()
        )
        out, _ = layer.run(x)
        ref = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        rel = np.abs(out - ref).mean() / np.abs(ref).mean()
        assert rel < 0.08
        assert out.shape == (2, 4, 8, 8)


class TestMacroSpec:
    def test_table1_within_2_percent(self):
        table = rom_macro_spec().table()
        for key, paper in TABLE1_PAPER.items():
            if paper == 0:
                assert table[key] == 0
            else:
                assert table[key] == pytest.approx(paper, rel=0.02), key

    def test_density_ratio_about_19x(self):
        ratio = rom_macro_spec().density_mb_mm2 / sram_macro_spec().density_mb_mm2
        assert 17 < ratio < 21

    def test_ops_per_inference(self):
        assert rom_macro_spec().ops_per_inference == 256

    def test_sram_standby_power_positive(self):
        assert sram_macro_spec().standby_power_w > 0
        assert rom_macro_spec().standby_power_w == 0

    def test_invalid_efficiency(self):
        from repro.cim.spec import MacroSpec

        with pytest.raises(ValueError):
            MacroSpec(name="x", array_efficiency=0)

    def test_capacity_below_subarray_rejected(self):
        from repro.cim.spec import MacroSpec

        with pytest.raises(ValueError):
            MacroSpec(name="x", capacity_bits=1000)

    def test_bank_narrower_than_a_weight_rejected(self):
        """A Table I pass resolves ``n_adcs // weight_bits`` whole weights
        per cycle; a bank narrower than one weight would price an empty
        pass."""
        from repro.cim.spec import MacroSpec

        with pytest.raises(ValueError, match="ADC bank"):
            MacroSpec(name="x", config=MacroConfig(weight_bits=32))
