"""Unit tests for the Module system and layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(7)


def _x(*shape):
    return Tensor(RNG.normal(size=shape))


class TestModuleSystem:
    def _small_model(self):
        rng = np.random.default_rng(0)
        return nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.BatchNorm2d(4),
            nn.ReLU(),
            nn.Flatten(),
            nn.Linear(4 * 8 * 8, 5, rng=rng),
        )

    def test_named_parameters_unique_and_complete(self):
        model = self._small_model()
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
        # conv w/b, bn w/b, linear w/b
        assert len(names) == 6

    def test_num_parameters(self):
        model = self._small_model()
        expected = 4 * 3 * 9 + 4 + 4 + 4 + 5 * 4 * 64 + 5
        assert model.num_parameters() == expected

    def test_freeze_unfreeze(self):
        model = self._small_model()
        model.freeze()
        assert model.num_parameters(trainable_only=True) == 0
        model.unfreeze()
        assert model.num_parameters(trainable_only=True) == model.num_parameters()

    def test_train_eval_propagates(self):
        model = self._small_model()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = self._small_model()
        out = model(_x(2, 3, 8, 8))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_round_trip(self):
        model_a = self._small_model()
        model_b = self._small_model()
        # Perturb B so the load is observable.
        for p in model_b.parameters():
            p.data = p.data + 1.0
        model_b.load_state_dict(model_a.state_dict())
        x = _x(1, 3, 8, 8)
        np.testing.assert_allclose(model_a(x).data, model_b(x).data)

    def test_state_dict_includes_buffers(self):
        model = self._small_model()
        state = model.state_dict()
        assert any("running_mean" in key for key in state)

    def test_load_state_dict_missing_key_raises(self):
        model = self._small_model()
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_shape_mismatch_raises(self):
        model = self._small_model()
        state = model.state_dict()
        first = next(iter(state))
        state[first] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_named_modules_prefixes(self):
        model = self._small_model()
        names = [n for n, _ in model.named_modules()]
        assert "" in names and "0" in names

    def test_repr_contains_children(self):
        assert "Conv2d" in repr(self._small_model())


class TestSequential:
    def test_len_and_getitem(self):
        seq = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(seq) == 2
        assert isinstance(seq[0], nn.ReLU)
        assert isinstance(seq[-1], nn.Tanh)


class TestConv2d:
    def test_output_shape(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        assert conv(_x(2, 3, 16, 16)).shape == (2, 8, 8, 8)

    def test_no_bias(self):
        conv = nn.Conv2d(3, 8, 3, bias=False, rng=np.random.default_rng(0))
        assert conv.bias is None
        assert len(list(conv.parameters())) == 1

    def test_invalid_channels_raise(self):
        with pytest.raises(ValueError):
            nn.Conv2d(0, 4, 3)

    def test_deterministic_with_seeded_rng(self):
        a = nn.Conv2d(2, 2, 3, rng=np.random.default_rng(5))
        b = nn.Conv2d(2, 2, 3, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestLinear:
    def test_forward_value(self):
        lin = nn.Linear(3, 2, rng=np.random.default_rng(0))
        x = _x(4, 3)
        expected = x.data @ lin.weight.data.T + lin.bias.data
        np.testing.assert_allclose(lin(x).data, expected)

    def test_no_bias(self):
        lin = nn.Linear(3, 2, bias=False, rng=np.random.default_rng(0))
        assert lin.bias is None


class TestBatchNorm2d:
    def test_normalizes_in_train_mode(self):
        bn = nn.BatchNorm2d(4)
        x = _x(8, 4, 6, 6)
        out = bn(x)
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(std, np.ones(4), atol=1e-3)

    def test_running_stats_update(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(RNG.normal(loc=3.0, size=(16, 2, 4, 4)))
        for _ in range(50):
            bn(x)
        assert abs(bn.running_mean.mean() - 3.0) < 0.3

    def test_eval_uses_running_stats(self):
        bn = nn.BatchNorm2d(2)
        x = _x(8, 2, 4, 4)
        for _ in range(10):
            bn(x)
        bn.eval()
        out_a = bn(x)
        out_b = bn(_x(8, 2, 4, 4) * 0 + Tensor(x.data))
        np.testing.assert_allclose(out_a.data, out_b.data)

    def test_rejects_non_4d(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2)(_x(3, 2))

    def test_gradients_flow_to_affine_params(self):
        bn = nn.BatchNorm2d(2)
        out = bn(_x(4, 2, 3, 3))
        out.sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None


class TestStatelessLayers:
    def test_flatten(self):
        assert nn.Flatten()(_x(2, 3, 4, 5)).shape == (2, 60)

    def test_identity(self):
        x = _x(3, 3)
        assert nn.Identity()(x) is x

    def test_pools(self):
        assert nn.MaxPool2d(2)(_x(1, 2, 8, 8)).shape == (1, 2, 4, 4)
        assert nn.AvgPool2d(2)(_x(1, 2, 8, 8)).shape == (1, 2, 4, 4)
        assert nn.GlobalAvgPool2d()(_x(1, 2, 8, 8)).shape == (1, 2, 1, 1)

    def test_dropout_respects_eval(self):
        drop = nn.Dropout(0.9, rng=np.random.default_rng(0))
        drop.eval()
        x = _x(5, 5)
        assert drop(x) is x

    def test_activation_modules(self):
        x = _x(3)
        np.testing.assert_allclose(nn.ReLU()(x).data, np.maximum(x.data, 0))
        np.testing.assert_allclose(nn.Tanh()(x).data, np.tanh(x.data))
        np.testing.assert_allclose(
            nn.Sigmoid()(x).data, 1 / (1 + np.exp(-x.data))
        )
        np.testing.assert_allclose(
            nn.LeakyReLU(0.2)(x).data, np.where(x.data > 0, x.data, 0.2 * x.data)
        )
