"""Tests for the nn substrate extensions: label smoothing and EMA."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(17)


class TestLabelSmoothing:
    def test_zero_smoothing_unchanged(self):
        logits = Tensor(RNG.normal(size=(8, 5)))
        y = RNG.integers(0, 5, size=8)
        plain = F.cross_entropy(logits, y)
        smoothed = F.cross_entropy(logits, y, label_smoothing=0.0)
        assert smoothed.data == pytest.approx(plain.data)

    def test_smoothing_matches_manual_mixture(self):
        logits = Tensor(RNG.normal(size=(6, 4)))
        y = RNG.integers(0, 4, size=6)
        s = 0.2
        loss = F.cross_entropy(logits, y, label_smoothing=s)
        log_probs = F.log_softmax(logits, axis=1).data
        n, c = log_probs.shape
        target = np.full((n, c), s / c)
        target[np.arange(n), y] += 1.0 - s
        manual = -(target * log_probs).sum(axis=1).mean()
        assert loss.data == pytest.approx(manual)

    def test_smoothing_raises_loss_on_confident_model(self):
        logits = Tensor(np.eye(4) * 10.0)
        y = np.arange(4)
        plain = F.cross_entropy(logits, y)
        smoothed = F.cross_entropy(logits, y, label_smoothing=0.1)
        assert smoothed.data > plain.data

    def test_gradient_flows(self):
        logits = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
        F.cross_entropy(logits, np.array([0, 1, 2, 0]), label_smoothing=0.1).backward()
        assert logits.grad is not None
        # Softmax-CE gradient rows sum to zero either way.
        np.testing.assert_allclose(logits.grad.sum(axis=1), 0.0, atol=1e-12)

    def test_invalid_smoothing(self):
        logits = Tensor(RNG.normal(size=(2, 3)))
        with pytest.raises(ValueError, match="label_smoothing"):
            F.cross_entropy(logits, np.array([0, 1]), label_smoothing=1.0)

    @given(st.floats(0.0, 0.9), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_loss_bounded_below_by_entropy_floor(self, smoothing, seed):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.normal(size=(5, 6)))
        y = rng.integers(0, 6, size=5)
        loss = F.cross_entropy(logits, y, label_smoothing=smoothing)
        assert np.isfinite(loss.data)
        assert loss.data > 0


class TestEMA:
    def _model(self):
        return nn.Sequential(
            nn.Linear(4, 8, rng=np.random.default_rng(0)),
            nn.ReLU(),
            nn.Linear(8, 2, rng=np.random.default_rng(1)),
        )

    def test_shadow_initialized_to_parameters(self):
        model = self._model()
        ema = nn.ExponentialMovingAverage(model, decay=0.9)
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(ema.shadow[name], param.data)

    def test_update_moves_toward_new_values(self):
        model = self._model()
        ema = nn.ExponentialMovingAverage(model, decay=0.5)
        old = {n: p.data.copy() for n, p in model.named_parameters()}
        for param in model.parameters():
            param.data = param.data + 1.0
        ema.update()
        for name, param in model.named_parameters():
            np.testing.assert_allclose(ema.shadow[name], old[name] + 0.5)

    def test_context_swaps_and_restores(self):
        model = self._model()
        ema = nn.ExponentialMovingAverage(model, decay=0.0)
        live = {n: p.data.copy() for n, p in model.named_parameters()}
        for param in model.parameters():
            param.data = param.data * 3.0
        with ema.average_parameters():
            for name, param in model.named_parameters():
                np.testing.assert_array_equal(param.data, live[name])
        for name, param in model.named_parameters():
            np.testing.assert_allclose(param.data, 3.0 * live[name])

    def test_frozen_parameters_not_tracked(self):
        model = self._model()
        model._modules["0"].freeze()
        ema = nn.ExponentialMovingAverage(model)
        assert all(not name.startswith("0.") for name in ema.shadow)

    def test_restore_without_store_raises(self):
        ema = nn.ExponentialMovingAverage(self._model())
        with pytest.raises(RuntimeError, match="store"):
            ema.restore()

    def test_invalid_decay(self):
        with pytest.raises(ValueError, match="decay"):
            nn.ExponentialMovingAverage(self._model(), decay=1.0)

    @given(st.floats(0.0, 0.99), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_constant_parameters_fixed_point(self, decay, steps):
        model = self._model()
        ema = nn.ExponentialMovingAverage(model, decay=decay)
        for _ in range(steps):
            ema.update()
        for name, param in model.named_parameters():
            np.testing.assert_allclose(ema.shadow[name], param.data, atol=1e-12)
