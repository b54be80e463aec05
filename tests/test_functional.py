"""Unit tests for functional ops: convolution, pooling, activations, losses."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor

from .helpers import check_gradients

RNG = np.random.default_rng(42)


def _rand(*shape, grad=True):
    return Tensor(RNG.normal(size=shape), requires_grad=grad)


def _reference_conv2d(x, w, b, stride, padding):
    """Direct nested-loop convolution used as ground truth."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, oc, out_h, out_w))
    for ni in range(n):
        for oi in range(oc):
            for yi in range(out_h):
                for xi in range(out_w):
                    patch = xp[ni, :, yi * sh : yi * sh + kh, xi * sw : xi * sw + kw]
                    out[ni, oi, yi, xi] = (patch * w[oi]).sum()
            if b is not None:
                out[ni, oi] += b[oi]
    return out


class TestIm2Col:
    def test_round_trip_shapes(self):
        x = RNG.normal(size=(2, 3, 8, 8))
        cols, (oh, ow) = F.im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 27, 64)
        assert (oh, ow) == (8, 8)

    def test_stride_two(self):
        x = RNG.normal(size=(1, 1, 6, 6))
        cols, (oh, ow) = F.im2col(x, (2, 2), (2, 2), (0, 0))
        assert (oh, ow) == (3, 3)
        assert cols.shape == (1, 4, 9)

    def test_empty_output_raises(self):
        x = RNG.normal(size=(1, 1, 2, 2))
        with pytest.raises(ValueError):
            F.im2col(x, (5, 5), (1, 1), (0, 0))

    def test_col2im_adjointness(self):
        # col2im is the adjoint of im2col: <im2col(x), c> == <x, col2im(c)>.
        x = RNG.normal(size=(2, 3, 7, 7))
        cols, _ = F.im2col(x, (3, 3), (2, 2), (1, 1))
        c = RNG.normal(size=cols.shape)
        lhs = (cols * c).sum()
        rhs = (x * F.col2im(c, x.shape, (3, 3), (2, 2), (1, 1))).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_col2im_on_a_transposed_view_is_byte_equal(self):
        # The input-gradient contraction hands col2im a transposed view.
        view = RNG.normal(size=(144, 2, 49)).transpose(1, 0, 2)
        assert not view.flags.c_contiguous
        args = ((2, 16, 7, 7), (3, 3), (1, 1), (1, 1))
        copy = np.ascontiguousarray(view)
        assert F.col2im(view, *args).tobytes() == F.col2im(copy, *args).tobytes()


class TestConv2d:
    @pytest.mark.parametrize(
        "stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), ((1, 2), (2, 1))]
    )
    def test_matches_reference(self, stride, padding):
        x = _rand(2, 3, 7, 8, grad=False)
        w = _rand(4, 3, 3, 3, grad=False)
        b = _rand(4, grad=False)
        out = F.conv2d(x, w, b, stride=stride, padding=padding)
        ref = _reference_conv2d(
            x.data, w.data, b.data, F._pair(stride), F._pair(padding)
        )
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_gradients(self):
        x, w, b = _rand(2, 2, 5, 5), _rand(3, 2, 3, 3), _rand(3)
        check_gradients(
            lambda a, ww, bb: F.conv2d(a, ww, bb, stride=1, padding=1), [x, w, b]
        )

    def test_gradients_stride2_no_bias(self):
        x, w = _rand(1, 2, 6, 6), _rand(2, 2, 3, 3)
        check_gradients(lambda a, ww: F.conv2d(a, ww, stride=2, padding=1), [x, w])

    def test_pointwise_conv_equals_matmul(self):
        # 1x1 convolution is a per-pixel channel mixing.
        x = _rand(2, 4, 3, 3, grad=False)
        w = _rand(5, 4, 1, 1, grad=False)
        out = F.conv2d(x, w)
        flat = np.einsum("oc,nchw->nohw", w.data[:, :, 0, 0], x.data)
        np.testing.assert_allclose(out.data, flat, rtol=1e-10)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(_rand(1, 3, 5, 5), _rand(2, 4, 3, 3))


class TestPooling:
    def test_max_pool_value(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient_routes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=float).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[[1, 1, 3, 3], [1, 3, 1, 3]] = 1.0
        np.testing.assert_allclose(x.grad[0, 0], expected)

    def test_max_pool_stride(self):
        x = _rand(2, 3, 6, 6)
        out = F.max_pool2d(x, 2, stride=2)
        assert out.shape == (2, 3, 3, 3)

    def test_avg_pool_value(self):
        x = Tensor(np.ones((1, 1, 4, 4)))
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 2)))

    def test_avg_pool_gradients(self):
        check_gradients(lambda a: F.avg_pool2d(a, 2), [_rand(1, 2, 4, 4)])

    def test_global_avg_pool(self):
        x = _rand(2, 3, 5, 5)
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(
            out.data[:, :, 0, 0], x.data.mean(axis=(2, 3)), rtol=1e-10
        )


class TestActivations:
    def test_relu_values(self):
        out = F.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradients(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        F.relu(x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])

    def test_leaky_relu_values(self):
        out = F.leaky_relu(Tensor([-2.0, 3.0]), 0.1)
        np.testing.assert_allclose(out.data, [-0.2, 3.0])

    def test_leaky_relu_gradients(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        F.leaky_relu(x, 0.1).sum().backward()
        np.testing.assert_allclose(x.grad, [0.1, 1.0])

    def test_sigmoid_range_and_gradients(self):
        check_gradients(lambda a: F.sigmoid(a), [_rand(4, 3)])
        out = F.sigmoid(Tensor([-100.0, 100.0]))
        assert 0.0 <= out.data[0] < 1e-20
        assert out.data[1] >= 1.0 - 1e-12

    def test_tanh_gradients(self):
        check_gradients(lambda a: F.tanh(a), [_rand(5)])


class TestDropout:
    def test_identity_in_eval(self):
        x = _rand(10, 10, grad=False)
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_identity_when_p_zero(self):
        x = _rand(10, grad=False)
        assert F.dropout(x, 0.0, training=True) is x

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            F.dropout(_rand(3), 1.5, training=True)

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)


class TestSoftmaxLosses:
    def test_softmax_normalizes(self):
        out = F.softmax(_rand(4, 7, grad=False), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), rtol=1e-12)

    def test_softmax_gradients(self):
        check_gradients(lambda a: F.softmax(a, axis=-1), [_rand(3, 5)])

    def test_log_softmax_matches_log_of_softmax(self):
        x = _rand(3, 6, grad=False)
        np.testing.assert_allclose(
            F.log_softmax(x, 1).data, np.log(F.softmax(x, 1).data), rtol=1e-10
        )

    def test_log_softmax_gradients(self):
        check_gradients(lambda a: F.log_softmax(a, axis=-1), [_rand(2, 4)])

    def test_log_softmax_stability(self):
        x = Tensor([[1000.0, 1000.0]])
        out = F.log_softmax(x, axis=1)
        np.testing.assert_allclose(out.data, np.log([[0.5, 0.5]]), rtol=1e-10)

    def test_cross_entropy_matches_manual(self):
        logits = _rand(5, 3, grad=False)
        targets = np.array([0, 1, 2, 0, 1])
        loss = F.cross_entropy(logits, targets)
        probs = F.softmax(logits, 1).data
        manual = -np.log(probs[np.arange(5), targets]).mean()
        np.testing.assert_allclose(loss.item(), manual, rtol=1e-10)

    def test_cross_entropy_gradients(self):
        logits = _rand(4, 3)
        targets = np.array([0, 2, 1, 1])
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        probs = F.softmax(Tensor(logits.data), 1).data
        expected = probs.copy()
        expected[np.arange(4), targets] -= 1.0
        np.testing.assert_allclose(logits.grad, expected / 4, rtol=1e-8)

    def test_cross_entropy_rejects_2d_targets(self):
        with pytest.raises(ValueError):
            F.cross_entropy(_rand(2, 3), np.zeros((2, 3), dtype=int))

    def test_bce_with_logits_matches_manual(self):
        logits = _rand(6, grad=False)
        targets = (RNG.random(6) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        p = 1 / (1 + np.exp(-logits.data))
        manual = -(targets * np.log(p) + (1 - targets) * np.log(1 - p)).mean()
        np.testing.assert_allclose(loss.item(), manual, rtol=1e-8)

    def test_bce_with_logits_gradients(self):
        logits = _rand(8)
        targets = (RNG.random(8) > 0.5).astype(float)
        loss = F.binary_cross_entropy_with_logits(logits, targets)
        loss.backward()
        p = 1 / (1 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (p - targets) / 8, rtol=1e-8)

    def test_bce_with_logits_extreme_values_finite(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), np.array([1.0, 0.0])
        )
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    def test_bce_weighting(self):
        logits = Tensor([0.0, 0.0])
        targets = np.array([1.0, 1.0])
        weighted = F.binary_cross_entropy_with_logits(
            logits, targets, weight=np.array([2.0, 0.0])
        )
        unweighted = F.binary_cross_entropy_with_logits(logits, targets)
        np.testing.assert_allclose(weighted.item(), unweighted.item())
