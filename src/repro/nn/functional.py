"""Functional neural-network operations with autograd support.

Convolution is implemented with im2col/col2im so the heavy lifting is a
single numpy matmul in both the forward and backward passes — the same
strategy cuDNN-free PyTorch builds use, and fast enough for the scaled
models in this reproduction.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return value
    return (int(value), int(value))


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def conv_output_size(
    h: int, w: int, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[int, int]:
    """``(out_h, out_w)`` of a convolution over an ``h x w`` input; a
    ``ValueError`` when the output would be empty."""
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"convolution output would be empty: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {sh}x{sw}, padding {ph}x{pw}"
        )
    return out_h, out_w


def sliding_windows(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], out_hw: Tuple[int, int]
) -> np.ndarray:
    """Read-only strided view ``(N, C, kh, kw, out_h, out_w)`` of the
    windows of an already padded ``x`` (N, C, H, W), of any dtype."""
    n, c = x.shape[:2]
    sn, sc, sh_b, sw_b = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c) + tuple(kernel) + tuple(out_hw),
        strides=(sn, sc, sh_b, sw_b, sh_b * stride[0], sw_b * stride[1]),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: Tuple[int, int]
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns.

    Returns an array of shape (N, C*kh*kw, out_h*out_w) and the output
    spatial size.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    ph, pw = padding
    out_h, out_w = conv_output_size(h, w, kernel, stride, padding)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    view = sliding_windows(x, kernel, stride, (out_h, out_w))
    cols = view.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back to an image."""
    n, c, h, w = input_shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    # One copy of a transposed view (an einsum output, say) is cheaper
    # than scattering from it kh * kw times; the sums are the same.
    reshaped = np.ascontiguousarray(cols).reshape(n, c, kh, kw, out_h, out_w)
    for ki in range(kh):
        for kj in range(kw):
            padded[:, :, ki : ki + sh * out_h : sh, kj : kj + sw * out_w : sw] += reshaped[
                :, :, ki, kj
            ]
    if ph or pw:
        return padded[:, :, ph : ph + h, pw : pw + w]
    return padded


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------
def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: IntPair = 1,
    padding: IntPair = 0,
    groups: int = 1,
) -> Tensor:
    """2-D cross-correlation, NCHW layout.

    ``weight`` has shape (out_channels, in_channels / groups, kh, kw);
    ``groups == in_channels`` with one filter per channel is depthwise
    convolution (the MobileNet building block of the related-work
    comparison).
    """
    stride_p = _pair(stride)
    padding_p = _pair(padding)
    n, c, h, w = x.shape
    oc, ic_per_group, kh, kw = weight.shape
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if c % groups != 0 or oc % groups != 0:
        raise ValueError(
            f"groups={groups} must divide both in ({c}) and out ({oc}) channels"
        )
    if ic_per_group != c // groups:
        raise ValueError(
            f"input has {c} channels in {groups} groups but weight expects "
            f"{ic_per_group} per group"
        )

    cols, (out_h, out_w) = im2col(x.data, (kh, kw), stride_p, padding_p)
    positions = out_h * out_w
    if groups == 1:
        w_mat = weight.data.reshape(oc, -1)
        out = np.einsum("ok,nkp->nop", w_mat, cols, optimize=True)
    else:
        # cols carry channel-major patches: regroup to (n, g, k_g, p).
        cols = cols.reshape(n, groups, ic_per_group * kh * kw, positions)
        w_mat = weight.data.reshape(groups, oc // groups, -1)
        out = np.einsum("gok,ngkp->ngop", w_mat, cols, optimize=True)
        out = out.reshape(n, oc, positions)
    if bias is not None:
        out = out + bias.data.reshape(1, oc, 1)
    out = out.reshape(n, oc, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad_mat = grad.reshape(n, oc, positions)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_mat.sum(axis=(0, 2)).reshape(bias.shape))
        if groups == 1:
            if weight.requires_grad:
                gw = np.einsum("nop,nkp->ok", grad_mat, cols, optimize=True)
                weight._accumulate(gw.reshape(weight.shape))
            if x.requires_grad:
                gcols = np.einsum("ok,nop->nkp", w_mat, grad_mat, optimize=True)
                gx = col2im(gcols, (n, c, h, w), (kh, kw), stride_p, padding_p)
                x._accumulate(gx)
            return
        grad_g = grad_mat.reshape(n, groups, oc // groups, positions)
        if weight.requires_grad:
            gw = np.einsum("ngop,ngkp->gok", grad_g, cols, optimize=True)
            weight._accumulate(gw.reshape(weight.shape))
        if x.requires_grad:
            gcols = np.einsum("gok,ngop->ngkp", w_mat, grad_g, optimize=True)
            gcols = gcols.reshape(n, c * kh * kw, positions)
            gx = col2im(gcols, (n, c, h, w), (kh, kw), stride_p, padding_p)
            x._accumulate(gx)

    return Tensor._make(out, parents, backward, "conv2d")


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Max pooling, NCHW.  ``stride`` defaults to ``kernel_size``."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols, _ = im2col(
        x.data.reshape(n * c, 1, h, w), (kh, kw), (sh, sw), (0, 0)
    )  # (N*C, kh*kw, out_h*out_w)
    arg = cols.argmax(axis=1)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out = out.reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gcols = np.zeros_like(cols)
        np.put_along_axis(
            gcols, arg[:, None, :], grad.reshape(n * c, 1, out_h * out_w), axis=1
        )
        gx = col2im(gcols, (n * c, 1, h, w), (kh, kw), (sh, sw), (0, 0))
        x._accumulate(gx.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward, "max_pool2d")


def avg_pool2d(x: Tensor, kernel_size: IntPair, stride: Optional[IntPair] = None) -> Tensor:
    """Average pooling, NCHW."""
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride if stride is not None else kernel_size)
    n, c, h, w = x.shape
    out_h = (h - kh) // sh + 1
    out_w = (w - kw) // sw + 1
    cols, _ = im2col(x.data.reshape(n * c, 1, h, w), (kh, kw), (sh, sw), (0, 0))
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g = grad.reshape(n * c, 1, out_h * out_w) / (kh * kw)
        gcols = np.broadcast_to(g, (n * c, kh * kw, out_h * out_w)).copy()
        gx = col2im(gcols, (n * c, 1, h, w), (kh, kw), (sh, sw), (0, 0))
        x._accumulate(gx.reshape(n, c, h, w))

    return Tensor._make(out, (x,), backward, "avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning (N, C, 1, 1)."""
    return x.mean(axis=(2, 3), keepdims=True)


# ----------------------------------------------------------------------
# Activations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (x.data > 0))

    return Tensor._make(data, (x,), backward, "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.1) -> Tensor:
    """LeakyReLU; the DarkNet family uses slope 0.1."""
    data = np.where(x.data > 0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0, 1.0, negative_slope))

    return Tensor._make(data, (x,), backward, "leaky_relu")


def sigmoid(x: Tensor) -> Tensor:
    data = 1.0 / (1.0 + np.exp(-np.clip(x.data, -60, 60)))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * data * (1.0 - data))

    return Tensor._make(data, (x,), backward, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - data**2))

    return Tensor._make(data, (x,), backward, "tanh")


def dropout(x: Tensor, p: float = 0.5, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout.  Identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(data, (x,), backward, "dropout")


# ----------------------------------------------------------------------
# Softmax / losses
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            dot = (grad * data).sum(axis=axis, keepdims=True)
            x._accumulate(data * (grad - dot))

    return Tensor._make(data, (x,), backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    data = shifted - log_sum
    soft = np.exp(data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(data, (x,), backward, "log_softmax")


def cross_entropy(
    logits: Tensor, targets: np.ndarray, label_smoothing: float = 0.0
) -> Tensor:
    """Mean cross-entropy over integer class targets (shape (N,)).

    ``label_smoothing`` mixes the one-hot target with the uniform
    distribution: ``(1 - s) * onehot + s / C`` — the standard
    regularizer for the small-data transfer runs.
    """
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-D integer class array")
    if not 0.0 <= label_smoothing < 1.0:
        raise ValueError(
            f"label_smoothing must be in [0, 1), got {label_smoothing}"
        )
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(n), targets]
    if label_smoothing == 0.0:
        return -picked.mean()
    uniform = log_probs.mean(axis=1)
    return -(
        (1.0 - label_smoothing) * picked + label_smoothing * uniform
    ).mean()


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, weight: Optional[np.ndarray] = None
) -> Tensor:
    """Numerically-stable sigmoid + BCE, averaged over all elements."""
    targets = np.asarray(targets, dtype=np.float64)
    z = logits.data
    # loss = max(z, 0) - z*t + log(1 + exp(-|z|))
    data = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    if weight is not None:
        data = data * weight

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            g = (sig - targets) * grad
            if weight is not None:
                g = g * weight
            logits._accumulate(g)

    per_element = Tensor._make(data, (logits,), backward, "bce_logits")
    return per_element.mean()
