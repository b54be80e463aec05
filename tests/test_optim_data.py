"""Unit tests for optimizers, initializers, and data loading."""

import numpy as np
import pytest

from repro import nn
from repro.nn import init
from repro.nn.tensor import Tensor

RNG = np.random.default_rng(11)


def _quadratic_param():
    return Tensor(np.array([5.0, -3.0]), requires_grad=True)


def _step_quadratic(opt, param, steps):
    for _ in range(steps):
        opt.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        opt.step()
    return param


class TestSGD:
    def test_converges_on_quadratic(self):
        p = _quadratic_param()
        _step_quadratic(nn.SGD([p], lr=0.1), p, 100)
        assert np.abs(p.data).max() < 1e-6

    def test_momentum_accelerates(self):
        p_plain = _quadratic_param()
        p_mom = _quadratic_param()
        _step_quadratic(nn.SGD([p_plain], lr=0.01), p_plain, 30)
        _step_quadratic(nn.SGD([p_mom], lr=0.01, momentum=0.9), p_mom, 30)
        assert np.abs(p_mom.data).sum() < np.abs(p_plain.data).sum()

    def test_weight_decay_shrinks_weights(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = nn.SGD([p], lr=0.1, weight_decay=0.5)
        opt.zero_grad()
        (p * 0).sum().backward()
        opt.step()
        assert p.data[0] < 1.0

    def test_nesterov_requires_momentum(self):
        with pytest.raises(ValueError):
            nn.SGD([_quadratic_param()], lr=0.1, nesterov=True)

    def test_frozen_params_not_updated(self):
        p = _quadratic_param()
        frozen = Tensor(np.array([2.0]), requires_grad=False)
        opt = nn.SGD([p, frozen], lr=0.1)
        opt.zero_grad()
        (p * p).sum().backward()
        opt.step()
        np.testing.assert_array_equal(frozen.data, [2.0])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            nn.SGD([_quadratic_param()], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = _quadratic_param()
        _step_quadratic(nn.Adam([p], lr=0.3), p, 200)
        assert np.abs(p.data).max() < 1e-3

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            nn.Adam([_quadratic_param()], betas=(1.0, 0.999))

    def test_skips_params_without_grad(self):
        p = _quadratic_param()
        q = Tensor(np.array([1.0]), requires_grad=True)
        opt = nn.Adam([p, q], lr=0.1)
        (p * p).sum().backward()
        opt.step()
        np.testing.assert_array_equal(q.data, [1.0])

    def test_trains_small_network_to_fit(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Linear(4, 16, rng=rng), nn.Tanh(), nn.Linear(16, 2, rng=rng)
        )
        X = rng.normal(size=(32, 4))
        y = (X[:, 0] > 0).astype(int)
        opt = nn.Adam(model.parameters(), lr=1e-2)
        for _ in range(150):
            opt.zero_grad()
            loss = nn.cross_entropy(model(Tensor(X)), y)
            loss.backward()
            opt.step()
        preds = model(Tensor(X)).data.argmax(axis=1)
        assert (preds == y).mean() > 0.95


class TestInit:
    def test_kaiming_normal_std(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_normal((256, 128, 3, 3), rng)
        expected_std = np.sqrt(2.0 / (128 * 9))
        assert abs(w.std() - expected_std) / expected_std < 0.05

    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_uniform((64, 64), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 64)
        assert np.abs(w).max() <= bound

    def test_unsupported_shape_raises(self):
        with pytest.raises(ValueError):
            init.kaiming_normal((3,), np.random.default_rng(0))

    def test_zeros_ones(self):
        assert init.zeros((2, 2)).sum() == 0
        assert init.ones((2, 2)).sum() == 4


class TestData:
    def test_tensor_dataset_indexing(self):
        X = np.arange(10).reshape(5, 2)
        y = np.arange(5)
        ds = nn.TensorDataset(X, y)
        assert len(ds) == 5
        xi, yi = ds[2]
        np.testing.assert_array_equal(xi, [4, 5])
        assert yi == 2

    def test_tensor_dataset_single_array(self):
        ds = nn.TensorDataset(np.arange(4))
        assert ds[1] == 1

    def test_tensor_dataset_mismatched_lengths(self):
        with pytest.raises(ValueError):
            nn.TensorDataset(np.zeros(3), np.zeros(4))

    def test_tensor_dataset_empty_args(self):
        with pytest.raises(ValueError):
            nn.TensorDataset()

    def test_loader_batch_shapes(self):
        ds = nn.TensorDataset(np.zeros((10, 3)), np.zeros(10))
        loader = nn.DataLoader(ds, batch_size=4)
        batches = list(loader)
        assert len(batches) == 3
        assert batches[0][0].shape == (4, 3)
        assert batches[-1][0].shape == (2, 3)

    def test_loader_drop_last(self):
        ds = nn.TensorDataset(np.zeros((10, 3)))
        loader = nn.DataLoader(ds, batch_size=4, drop_last=True)
        assert len(loader) == 2
        assert all(b.shape[0] == 4 for b in loader)

    def test_loader_shuffle_deterministic_with_seed(self):
        ds = nn.TensorDataset(np.arange(20))
        a = [b.tolist() for b in nn.DataLoader(ds, batch_size=5, shuffle=True, seed=3)]
        b = [b.tolist() for b in nn.DataLoader(ds, batch_size=5, shuffle=True, seed=3)]
        assert a == b

    def test_loader_shuffle_covers_all(self):
        ds = nn.TensorDataset(np.arange(20))
        seen = np.concatenate(list(nn.DataLoader(ds, batch_size=6, shuffle=True, seed=0)))
        assert sorted(seen.tolist()) == list(range(20))

    def test_loader_invalid_batch_size(self):
        with pytest.raises(ValueError):
            nn.DataLoader(nn.TensorDataset(np.zeros(3)), batch_size=0)
