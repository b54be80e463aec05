"""Tests for quantization: codecs, fake-quant STE, model export."""

import numpy as np
import pytest

from repro import models, nn
from repro.nn.tensor import Tensor
from repro.quant import (
    QuantSpec,
    FakeQuantize,
    dequantize,
    fake_quant,
    int_range,
    quantize,
    quantize_model_weights,
    quantize_symmetric,
    quantization_mse,
)

RNG = np.random.default_rng(9)


class TestIntRange:
    def test_signed_8bit(self):
        assert int_range(8) == (-128, 127)

    def test_unsigned_8bit(self):
        assert int_range(8, signed=False) == (0, 255)

    def test_1bit(self):
        assert int_range(1) == (-1, 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            int_range(0)


class TestQuantize:
    def test_round_trip_error_bounded(self):
        values = RNG.normal(size=(64,))
        codes, scale = quantize(values, QuantSpec(bits=8))
        recon = dequantize(codes, scale)
        assert np.abs(recon - values).max() <= scale / 2 + 1e-12

    def test_codes_within_range(self):
        values = RNG.normal(size=(100,)) * 10
        spec = QuantSpec(bits=4)
        codes, _ = quantize(values, spec)
        assert codes.min() >= spec.qmin
        assert codes.max() <= spec.qmax

    def test_zero_input_safe(self):
        codes, scale = quantize(np.zeros(8), QuantSpec(bits=8))
        assert (codes == 0).all()
        assert np.isfinite(scale)

    def test_per_channel_scales(self):
        values = np.stack([np.ones(4), 100 * np.ones(4)])
        codes, scale = quantize(values, QuantSpec(bits=8, per_channel_axis=0))
        assert scale.shape == (2, 1)
        np.testing.assert_allclose(dequantize(codes, scale), values, rtol=1e-2)

    def test_per_slice_signedness_equals_slice_by_slice(self):
        """A ``signed`` mask along the per-channel axis is bitwise what
        quantizing each slice alone with its own signedness gives (the
        grouped layer pass relies on it)."""
        values = RNG.normal(size=(3, 4, 5, 2))
        values[:, 1] = np.abs(values[:, 1])
        values[:, 3] = 0.0
        signed = [True, False, True, False]
        codes, scale = quantize(
            values, QuantSpec(bits=5, per_channel_axis=1), signed=signed
        )
        assert codes.dtype == np.int64 and scale.shape == (1, 4, 1, 1)
        for g, is_signed in enumerate(signed):
            alone, alone_scale = quantize(
                values[:, g], QuantSpec(bits=5, signed=is_signed)
            )
            assert codes[:, g].tobytes() == alone.tobytes()
            assert scale[0, g, 0, 0] == alone_scale

    def test_per_channel_better_than_per_tensor(self):
        values = np.stack([0.01 * RNG.normal(size=32), 10 * RNG.normal(size=32)])
        per_tensor = quantization_mse(values, QuantSpec(bits=8))
        per_channel = quantization_mse(values, QuantSpec(bits=8, per_channel_axis=0))
        assert per_channel < per_tensor

    def test_more_bits_less_error(self):
        values = RNG.normal(size=(256,))
        assert quantization_mse(values, QuantSpec(bits=8)) < quantization_mse(
            values, QuantSpec(bits=4)
        )

    def test_symmetric_convenience(self):
        values = RNG.normal(size=(16,))
        codes, scale = quantize_symmetric(values, bits=8)
        assert isinstance(scale, float)
        assert codes.dtype == np.int64

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantSpec(bits=0)


class TestFakeQuant:
    def test_forward_is_quantized(self):
        x = Tensor(RNG.normal(size=(32,)), requires_grad=True)
        out = fake_quant(x, bits=4)
        codes = np.unique(out.data)
        assert len(codes) <= 16

    def test_gradient_is_straight_through(self):
        x = Tensor(np.array([0.1, -0.2, 0.3]), requires_grad=True)
        fake_quant(x, bits=8).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_identityish_at_high_bits(self):
        x = Tensor(RNG.normal(size=(16,)))
        out = fake_quant(x, bits=16)
        np.testing.assert_allclose(out.data, x.data, atol=1e-3)

    def test_module_wrapper(self):
        fq = FakeQuantize(bits=2)
        out = fq(Tensor(RNG.normal(size=(64,))))
        assert len(np.unique(out.data)) <= 4
        assert "bits=2" in repr(fq)

    def test_qat_trains_through_fake_quant(self):
        # A 2-bit weight can still learn a simple sign function via STE.
        rng = np.random.default_rng(0)
        w = Tensor(rng.normal(0, 0.1, size=(1, 4)), requires_grad=True)
        X = rng.normal(size=(64, 4))
        y = (X[:, 0] > 0).astype(float)
        opt = nn.Adam([w], lr=5e-2)
        for _ in range(100):
            opt.zero_grad()
            logits = Tensor(X).matmul(fake_quant(w, bits=2).transpose())[:, 0]
            loss = nn.binary_cross_entropy_with_logits(logits, y)
            loss.backward()
            opt.step()
        with nn.no_grad():
            logits = Tensor(X).matmul(fake_quant(w, bits=2).transpose())[:, 0]
        acc = ((logits.data > 0) == y).mean()
        # STE training is noisy at 2 bits; well above chance is the bar.
        assert acc > 0.75
        # The informative feature should carry the dominant weight.
        assert np.abs(w.data).argmax() == 0


class TestExport:
    def test_export_covers_all_weight_layers(self):
        model = models.vgg8(width_mult=0.0625, rng=np.random.default_rng(0))
        layers = quantize_model_weights(model, bits=8)
        n_weights = sum(
            1 for m in model.modules() if isinstance(m, (nn.Conv2d, nn.Linear))
        )
        assert len(layers) == n_weights

    def test_conv_unroll_shape(self):
        model = nn.Sequential(nn.Conv2d(3, 8, 3, rng=np.random.default_rng(0)))
        layer = quantize_model_weights(model)[0]
        assert layer.codes.shape == (3 * 9, 8)
        assert layer.rows == 27 and layer.cols == 8

    def test_linear_unroll_shape(self):
        model = nn.Sequential(nn.Linear(5, 7, rng=np.random.default_rng(0)))
        layer = quantize_model_weights(model)[0]
        assert layer.codes.shape == (5, 7)

    def test_per_channel_scale_per_column(self):
        model = nn.Sequential(nn.Conv2d(3, 8, 3, rng=np.random.default_rng(0)))
        layer = quantize_model_weights(model, per_channel=True)[0]
        assert layer.scale.shape == (8,)

    def test_dequantized_weights_close(self):
        model = nn.Sequential(nn.Conv2d(2, 4, 3, rng=np.random.default_rng(0)))
        layer = quantize_model_weights(model, bits=8, per_channel=True)[0]
        recon = (layer.codes * layer.scale[None, :]).T.reshape(4, 2, 3, 3)
        np.testing.assert_allclose(
            recon, model[0].weight.data, atol=np.abs(model[0].weight.data).max() / 100
        )

    def test_weight_bits_total(self):
        model = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(0)))
        layer = quantize_model_weights(model, bits=8)[0]
        assert layer.codes.size * layer.bits == 16 * 8
