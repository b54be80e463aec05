"""Tests for quantization: codecs and the fake-quant STE."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor
from repro.quant import (
    QuantSpec,
    dequantize,
    fake_quant,
    int_range,
    quantize,
)

RNG = np.random.default_rng(9)


def mse(values, spec):
    """Mean squared error a quantize / dequantize round trip adds."""
    return float(((dequantize(*quantize(values, spec)) - values) ** 2).mean())


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
        per_tensor = mse(values, QuantSpec(bits=8))
        per_channel = mse(values, QuantSpec(bits=8, per_channel_axis=0))
        assert per_channel < per_tensor

    def test_more_bits_less_error(self):
        values = RNG.normal(size=(256,))
        assert mse(values, QuantSpec(bits=8)) < mse(values, QuantSpec(bits=4))

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

