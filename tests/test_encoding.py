"""Tests for the word-line activation encodings (section 3.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cim import (
    AdcSpec,
    BitlineModel,
    BitSerialEncoding,
    CimMacro,
    MacroConfig,
    PulseWidthEncoding,
    UnaryPulseEncoding,
    encoding_by_name,
)
from repro.experiments import encoding_study
from repro.runtime import EngineCache
from repro.runtime.cache import weight_fingerprint
from repro.runtime.engine import EngineCircuit, program_engine

from .helpers import compiled_layer

RNG = np.random.default_rng(7)

#: The three encodings of the section 3.1 design space.
ENCODINGS = (
    BitSerialEncoding(),
    UnaryPulseEncoding(),
    PulseWidthEncoding(jitter_sigma_slots=0.25),
)


def small_macro(input_bits=2, rows=4, cols=2, adc_bits=8, signed_inputs=False, **kw):
    """A macro small enough that the ADC resolves every count exactly."""
    config = MacroConfig(
        rows=max(rows, 1),
        phys_columns=cols * 8,
        n_adcs=cols * 8 if (cols * 8) % 16 else 16,
        adc=AdcSpec(bits=adc_bits),
        input_bits=input_bits,
        signed_inputs=signed_inputs,
        **kw,
    )
    weights = RNG.integers(-128, 128, size=(rows, cols))
    return CimMacro(config, weights, rng=np.random.default_rng(3))


class TestExactness:
    """With a fine-enough ADC every encoding reduces to exact integers."""

    def test_bit_serial_exact(self):
        macro = small_macro(input_bits=4, rows=8, adc_bits=8)
        x = RNG.integers(0, 16, size=(8, 5))
        approx, _ = BitSerialEncoding().matmul(macro, x)
        np.testing.assert_array_equal(approx, macro.exact_matmul(x))

    def test_unary_exact_when_adc_resolves(self):
        # full scale = rows * (2^b - 1) = 4 * 3 = 12 <= 255 levels.
        macro = small_macro(input_bits=2, rows=4, adc_bits=8)
        x = RNG.integers(0, 4, size=(4, 6))
        approx, _ = UnaryPulseEncoding().matmul(macro, x)
        np.testing.assert_allclose(approx, macro.exact_matmul(x), atol=1e-9)

    def test_pulse_width_without_jitter_matches_unary(self):
        macro_a = small_macro(input_bits=2, rows=4)
        macro_b = CimMacro(
            macro_a.config, macro_a.weights, rng=np.random.default_rng(3)
        )
        x = RNG.integers(0, 4, size=(4, 6))
        unary, _ = UnaryPulseEncoding().matmul(macro_a, x)
        pw, _ = PulseWidthEncoding(jitter_sigma_slots=0.0).matmul(macro_b, x)
        np.testing.assert_allclose(pw, unary, atol=1e-9)

    def test_vector_input_round_trip(self):
        macro = small_macro(input_bits=2, rows=4)
        x = np.array([0, 1, 2, 3])
        out, _ = UnaryPulseEncoding().matmul(macro, x)
        assert out.shape == (macro.cols_used,)
        np.testing.assert_allclose(out, macro.exact_matmul(x), atol=1e-9)


class TestValidation:
    def test_unary_rejects_signed_inputs(self):
        macro = small_macro(input_bits=4, rows=8, signed_inputs=True)
        x = RNG.integers(-8, 8, size=(8, 2))
        with pytest.raises(ValueError, match="unsigned"):
            UnaryPulseEncoding().matmul(macro, x)

    def test_pulse_width_rejects_signed_inputs(self):
        macro = small_macro(input_bits=4, rows=8, signed_inputs=True)
        x = RNG.integers(-8, 8, size=(8, 2))
        with pytest.raises(ValueError, match="unsigned"):
            PulseWidthEncoding().matmul(macro, x)

    def test_out_of_range_input_rejected(self):
        macro = small_macro(input_bits=2, rows=4)
        with pytest.raises(ValueError, match="input codes"):
            UnaryPulseEncoding().matmul(macro, np.full((4, 1), 4))

    def test_wrong_row_count_rejected(self):
        macro = small_macro(input_bits=2, rows=4)
        with pytest.raises(ValueError, match="rows"):
            UnaryPulseEncoding().matmul(macro, np.zeros((5, 1), dtype=int))

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError, match="jitter"):
            PulseWidthEncoding(jitter_sigma_slots=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_jitter_rejected(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            PulseWidthEncoding(jitter_sigma_slots=sigma)

    def test_registry_lookup(self):
        assert isinstance(encoding_by_name("bit-serial"), BitSerialEncoding)
        assert isinstance(encoding_by_name("unary-pulse"), UnaryPulseEncoding)
        pw = encoding_by_name("pulse-width", jitter_sigma_slots=0.5)
        assert pw.jitter_sigma_slots == 0.5

    def test_registry_unknown_name(self):
        with pytest.raises(KeyError, match="unknown encoding"):
            encoding_by_name("pwm-2")

    def test_default_encodings_cover_design_space(self):
        names = [e.name for e in ENCODINGS]
        assert names == ["bit-serial", "unary-pulse", "pulse-width"]


class TestTradeoffShape:
    """The speed-accuracy axes the paper's remark predicts."""

    def test_cycle_counts(self):
        assert BitSerialEncoding().wl_cycles(8) == 8
        assert UnaryPulseEncoding().wl_cycles(8) == 255
        assert PulseWidthEncoding().wl_cycles(8) == 1

    def test_conversion_counts(self):
        assert BitSerialEncoding().conversions_per_column(8) == 8
        assert UnaryPulseEncoding().conversions_per_column(8) == 1
        assert PulseWidthEncoding().conversions_per_column(8) == 1

    def test_pulse_encodings_save_adc_energy(self):
        config = MacroConfig(input_bits=8)
        weights = RNG.integers(-128, 128, size=(128, 16))
        x = RNG.integers(0, 256, size=(128, 8))
        macro = CimMacro(config, weights, rng=np.random.default_rng(0))
        _, serial = BitSerialEncoding().matmul(macro, x)
        _, unary = UnaryPulseEncoding().matmul(macro, x)
        assert unary.adc_energy_fj == pytest.approx(serial.adc_energy_fj / 8)

    def test_unary_slower_than_bit_serial_at_8_bits(self):
        config = MacroConfig(input_bits=8)
        weights = RNG.integers(-128, 128, size=(128, 16))
        x = RNG.integers(0, 256, size=(128, 4))
        macro = CimMacro(config, weights, rng=np.random.default_rng(0))
        _, serial = BitSerialEncoding().matmul(macro, x)
        _, unary = UnaryPulseEncoding().matmul(macro, x)
        assert unary.latency_ns > serial.latency_ns

    def test_pulse_width_fastest(self):
        config = MacroConfig(input_bits=8)
        weights = RNG.integers(-128, 128, size=(128, 16))
        x = RNG.integers(0, 256, size=(128, 4))
        macro = CimMacro(config, weights, rng=np.random.default_rng(0))
        _, serial = BitSerialEncoding().matmul(macro, x)
        _, pw = PulseWidthEncoding(jitter_sigma_slots=0.0).matmul(macro, x)
        assert pw.latency_ns < serial.latency_ns

    def test_jitter_degrades_pulse_width(self):
        rows = encoding_study.jitter_sweep(sigmas=(0.0, 4.0))
        assert rows[1]["rel_error"] > rows[0]["rel_error"]

    def test_jitter_hidden_behind_coarse_adc(self):
        """Behind the macro's 5-bit ADC, quantization dominates jitter."""
        config = encoding_study.EncodingStudyConfig(adc_bits=5)
        rows = encoding_study.jitter_sweep(sigmas=(0.0, 0.5), config=config)
        assert rows[1]["rel_error"] == pytest.approx(
            rows[0]["rel_error"], rel=0.05
        )

    def test_stats_macs_match(self):
        config = MacroConfig(input_bits=4)
        weights = RNG.integers(-128, 128, size=(32, 4))
        x = RNG.integers(0, 16, size=(32, 3))
        macro = CimMacro(config, weights, rng=np.random.default_rng(0))
        for encoding in ENCODINGS:
            _, stats = encoding.matmul(macro, x)
            assert stats.macs == 32 * 4 * 3

    def test_zero_input_zero_activity(self):
        config = MacroConfig(input_bits=4)
        weights = RNG.integers(-128, 128, size=(16, 2))
        macro = CimMacro(config, weights, rng=np.random.default_rng(0))
        x = np.zeros((16, 2), dtype=int)
        for encoding in (UnaryPulseEncoding(), PulseWidthEncoding()):
            out, stats = encoding.matmul(macro, x)
            np.testing.assert_allclose(out, 0.0, atol=1e-9)
            assert stats.row_activations == 0
            assert stats.wl_energy_fj == 0.0

    @pytest.mark.parametrize("zero", [False, True], ids=["random", "zero"])
    @pytest.mark.parametrize("input_bits", [2, 4, 8])
    @pytest.mark.parametrize("encoding", ENCODINGS, ids=lambda e: e.name)
    def test_stats_follow_the_pass_structure(self, encoding, input_bits, zero):
        """Every encoding's stats are its declared pass structure priced
        per ADC round, and ``row_activations`` is in bit-serial word-line
        activations: a pulse slot is ``1 / (2**b - 1)`` of one."""
        config = MacroConfig(input_bits=input_bits)
        rows, words, vectors = 32, 24, 3
        phys_cols = words * config.weight_bits
        rounds = -(-phys_cols // config.n_adcs)
        assert rounds > 1  # 192 columns over 16 ADCs: 12 rounds per read
        weights = RNG.integers(-128, 128, size=(rows, words))
        x = RNG.integers(0, 2**input_bits, size=(rows, vectors))
        if zero:
            x = np.zeros_like(x)
        macro = CimMacro(config, weights, rng=np.random.default_rng(0))
        _, stats = encoding.matmul(macro, x)

        reads, integration_cycles = encoding.pass_structure(input_bits)
        assert stats.adc_conversions == reads * phys_cols * vectors
        assert stats.cycles == (integration_cycles + reads * rounds) * vectors
        if isinstance(encoding, BitSerialEncoding):
            on_bits = sum(int((x >> k & 1).sum()) for k in range(input_bits))
            assert stats.row_activations == on_bits
        else:
            assert stats.row_activations == x.sum() / (2**input_bits - 1)
        assert stats.wl_energy_fj == stats.row_activations * config.wl_energy_fj
        assert (stats.row_activations == 0) == zero


class TestEncodingProperties:
    @given(
        st.integers(1, 6),
        st.integers(2, 4),
        st.integers(1, 4),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_unary_exact_on_small_macros(self, rows, input_bits, cols, seed):
        """Whenever rows*(2^b-1) fits the ADC code space, unary is exact."""
        rng = np.random.default_rng(seed)
        config = MacroConfig(
            rows=max(rows, 1),
            phys_columns=cols * 8,
            n_adcs=cols * 8,
            adc=AdcSpec(bits=10),
            input_bits=input_bits,
        )
        weights = rng.integers(-128, 128, size=(rows, cols))
        macro = CimMacro(config, weights, rng=np.random.default_rng(seed + 1))
        x = rng.integers(0, 2**input_bits, size=(rows, 3))
        out, _ = UnaryPulseEncoding().matmul(macro, x)
        np.testing.assert_allclose(out, macro.exact_matmul(x), atol=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_noise_free_results_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        config = MacroConfig(input_bits=4)
        weights = rng.integers(-128, 128, size=(64, 8))
        x = rng.integers(0, 16, size=(64, 2))
        outs = []
        for trial in range(2):
            macro = CimMacro(config, weights, rng=np.random.default_rng(trial))
            out, _ = UnaryPulseEncoding().matmul(macro, x)
            outs.append(out)
        np.testing.assert_array_equal(outs[0], outs[1])


class TestEncodingStudy:
    def test_fast_study_runs_all_corners(self):
        result = encoding_study.run(encoding_study.fast_config())
        keys = result.by_key()
        assert len(result.points) == 9
        assert ("bit-serial", 8) in keys and ("pulse-width", 2) in keys

    def test_study_rows_shape(self):
        result = encoding_study.run(encoding_study.fast_config())
        rows = result.rows()
        assert len(rows) == len(result.points)
        assert all(len(r) == 7 for r in rows)


class TestTiledEncodingIntegration:
    """Encodings plugged into the layer-level tiled execution path."""

    def test_tiled_matmul_accepts_encoding(self):
        from repro.cim import CimTiledMatmul, MacroConfig

        rng = np.random.default_rng(31)
        weights = rng.integers(-128, 128, size=(200, 40))
        x = rng.integers(0, 256, size=(200, 4))
        engine = CimTiledMatmul(weights, MacroConfig(), rng=np.random.default_rng(0))
        default, _ = engine.matmul(x)
        explicit, _ = engine.matmul(x, encoding=BitSerialEncoding())
        np.testing.assert_array_equal(default, explicit)

    def test_tiled_pulse_width_faster(self):
        from repro.cim import CimTiledMatmul, MacroConfig

        rng = np.random.default_rng(31)
        weights = rng.integers(-128, 128, size=(200, 40))
        x = rng.integers(0, 256, size=(200, 4))
        engine = CimTiledMatmul(weights, MacroConfig(), rng=np.random.default_rng(0))
        _, serial = engine.matmul(x)
        _, pw = engine.matmul(x, encoding=PulseWidthEncoding())
        assert pw.latency_ns < serial.latency_ns
        assert pw.adc_conversions < serial.adc_conversions

    def test_cim_linear_with_unary_encoding(self):
        rng = np.random.default_rng(3)
        x = np.abs(rng.normal(size=(4, 64)))  # post-ReLU: unsigned
        w = rng.normal(size=(10, 64))
        # An 8-bit ADC: the unary conversion's larger full scale
        # (rows * (2^b - 1)) still resolves well.  Behind the default
        # 5-bit ADC the single coarse conversion costs real fidelity —
        # the accuracy half of the section 3.1 trade-off.
        config = MacroConfig(adc=AdcSpec(bits=8))
        layer = compiled_layer(w, config, activation_bits=4, cache=EngineCache())
        y_ref, _ = layer.run(x)
        y_pulse, stats = layer.run(x, encoding=UnaryPulseEncoding())
        assert y_pulse.shape == y_ref.shape
        assert stats.macs > 0
        assert np.corrcoef(y_ref.ravel(), y_pulse.ravel())[0, 1] > 0.95

    def test_cim_linear_signed_input_rejected_for_pulse(self):
        """A compiled layer falls back to bit-serial for signed inputs;
        an engine handed a pulse encoding for them refuses."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 32))  # signed activations
        w = rng.normal(size=(4, 32))
        circuit = EngineCircuit(MacroConfig(), 8, True)
        key = circuit.engine_key("fc", weight_fingerprint(w))
        engine = EngineCache().get_or_program(key, lambda: program_engine(w, circuit))
        with pytest.raises(ValueError, match="unsigned"):
            engine.execute(x, encoding=UnaryPulseEncoding())
