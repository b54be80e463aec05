"""Unit tests for the autograd tensor engine."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad, unbroadcast, tensor

from .helpers import check_gradients


RNG = np.random.default_rng(1234)


def _rand(*shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64
        assert not t.requires_grad

    def test_tensor_factory(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        assert t.requires_grad

    def test_construction_from_tensor_copies_reference(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert np.array_equal(a.data, b.data)

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_len(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_non_scalar_without_grad_raises(self):
        t = _rand(3)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_wrong_grad_shape_raises(self):
        t = _rand(3)
        out = t * 2
        with pytest.raises(ValueError):
            out.backward(np.ones((4,)))

    def test_grad_accumulates_across_backwards(self):
        t = _rand(2)
        (t.sum()).backward()
        (t.sum()).backward()
        np.testing.assert_allclose(t.grad, 2 * np.ones(2))

    def test_zero_grad(self):
        t = _rand(2)
        t.sum().backward()
        t.zero_grad()
        assert t.grad is None


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = _rand(3)
        with no_grad():
            b = a * 2
        assert not b.requires_grad

    def test_flag_restored_after_exception(self):
        a = _rand(3)
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert (a * 2).requires_grad

    def test_new_tensor_in_no_grad_does_not_require_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)

    def test_leading_dim(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, 4 * np.ones((2, 3)))

    def test_kept_one_dim(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (1, 3))
        np.testing.assert_allclose(out, 2 * np.ones((1, 3)))

    def test_scalar(self):
        g = np.ones((5, 5))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 25


class TestArithmeticGradients:
    def test_add(self):
        check_gradients(lambda a, b: a + b, [_rand(3, 4), _rand(3, 4)])

    def test_add_broadcast(self):
        check_gradients(lambda a, b: a + b, [_rand(3, 4), _rand(4)])

    def test_add_scalar(self):
        check_gradients(lambda a: a + 2.5, [_rand(3)])

    def test_radd(self):
        check_gradients(lambda a: 2.5 + a, [_rand(3)])

    def test_sub(self):
        check_gradients(lambda a, b: a - b, [_rand(2, 3), _rand(2, 3)])

    def test_rsub(self):
        check_gradients(lambda a: 1.0 - a, [_rand(3)])

    def test_neg(self):
        check_gradients(lambda a: -a, [_rand(3)])

    def test_mul(self):
        check_gradients(lambda a, b: a * b, [_rand(3, 4), _rand(3, 4)])

    def test_mul_broadcast(self):
        check_gradients(lambda a, b: a * b, [_rand(2, 3, 4), _rand(1, 3, 1)])

    def test_div(self):
        a = _rand(3, 4)
        b = Tensor(RNG.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        check_gradients(lambda x, y: x / y, [a, b])

    def test_rdiv(self):
        b = Tensor(RNG.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda y: 2.0 / y, [b])

    def test_pow(self):
        a = Tensor(RNG.uniform(0.5, 2.0, size=(3,)), requires_grad=True)
        check_gradients(lambda x: x**3, [a])

    def test_pow_non_scalar_exponent_raises(self):
        with pytest.raises(TypeError):
            _rand(3) ** _rand(3)

    def test_sqrt(self):
        a = Tensor(RNG.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        check_gradients(lambda x: x.sqrt(), [a])

    def test_abs(self):
        a = Tensor([1.5, -2.5, 3.0], requires_grad=True)
        check_gradients(lambda x: x.abs(), [a])

    def test_clip(self):
        a = Tensor([-2.0, -0.5, 0.5, 2.0], requires_grad=True)
        out = a.clip(-1.0, 1.0)
        out.sum().backward()
        np.testing.assert_allclose(out.data, [-1.0, -0.5, 0.5, 1.0])
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 1.0, 0.0])


class TestUnaryGradients:
    def test_exp(self):
        check_gradients(lambda x: x.exp(), [_rand(3, 2)])

    def test_log(self):
        a = Tensor(RNG.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        check_gradients(lambda x: x.log(), [a])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda x: x.sum(), [_rand(3, 4)])

    def test_sum_axis(self):
        check_gradients(lambda x: x.sum(axis=1), [_rand(3, 4)])

    def test_sum_axis_keepdims(self):
        check_gradients(lambda x: x.sum(axis=0, keepdims=True), [_rand(3, 4)])

    def test_sum_multiple_axes(self):
        check_gradients(lambda x: x.sum(axis=(0, 2)), [_rand(2, 3, 4)])

    def test_mean_all(self):
        check_gradients(lambda x: x.mean(), [_rand(5)])

    def test_mean_axis(self):
        check_gradients(lambda x: x.mean(axis=(2, 3), keepdims=True), [_rand(2, 3, 4, 4)])

    def test_max_all(self):
        a = Tensor([[1.0, 5.0], [3.0, 2.0]], requires_grad=True)
        out = a.max()
        out.backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [0, 0]])

    def test_max_axis(self):
        a = Tensor([[1.0, 5.0], [3.0, 2.0]], requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])

    def test_max_ties_split_gradient(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])


class TestShapeOps:
    def test_reshape(self):
        check_gradients(lambda x: x.reshape(6), [_rand(2, 3)])

    def test_reshape_tuple_arg(self):
        t = _rand(2, 3)
        assert t.reshape((3, 2)).shape == (3, 2)

    def test_reshape_minus_one(self):
        t = _rand(2, 3, 4)
        assert t.reshape(2, -1).shape == (2, 12)

    def test_transpose_default(self):
        check_gradients(lambda x: x.transpose(), [_rand(2, 3)])

    def test_transpose_axes(self):
        check_gradients(lambda x: x.transpose(2, 0, 1), [_rand(2, 3, 4)])

    def test_getitem_slice(self):
        check_gradients(lambda x: x[1:], [_rand(4, 3)])

    def test_getitem_fancy(self):
        t = _rand(4, 3)
        idx = (np.array([0, 1, 2]), np.array([2, 1, 0]))
        picked = t[idx]
        picked.sum().backward()
        expected = np.zeros((4, 3))
        expected[idx] = 1.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        t = _rand(3)
        picked = t[np.array([0, 0, 1])]
        picked.sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 1.0, 0.0])

    def test_concatenate(self):
        a, b = _rand(2, 3), _rand(4, 3)
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (6, 3)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((4, 3)))

    def test_concatenate_axis1_gradients(self):
        a, b = _rand(2, 3), _rand(2, 2)
        check_gradients(lambda x, y: Tensor.concatenate([x, y], axis=1), [a, b])


class TestMatmul:
    def test_2d(self):
        check_gradients(lambda a, b: a @ b, [_rand(3, 4), _rand(4, 5)])

    def test_matvec(self):
        check_gradients(lambda a, b: a @ b, [_rand(3, 4), _rand(4)])

    def test_batched(self):
        check_gradients(lambda a, b: a @ b, [_rand(2, 3, 4), _rand(2, 4, 5)])

    def test_value(self):
        a, b = _rand(3, 4), _rand(4, 5)
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)


class TestComparisons:
    def test_gt_returns_ndarray(self):
        result = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(result, np.ndarray)
        np.testing.assert_array_equal(result, [False, True])

    def test_le(self):
        np.testing.assert_array_equal(Tensor([1.0, 3.0]) <= 1.0, [True, False])


class TestGraph:
    def test_diamond_graph_gradient(self):
        # y = x*x + x*x must give dy/dx = 4x (shared subexpression).
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        z = y + y
        z.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [12.0])

    def test_long_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.01
        y.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, [1.01**50], rtol=1e-10)

    def test_no_grad_leaf_receives_nothing(self):
        a = Tensor([1.0])
        b = Tensor([2.0], requires_grad=True)
        (a * b).backward(np.ones(1))
        assert a.grad is None
        np.testing.assert_allclose(b.grad, [1.0])
