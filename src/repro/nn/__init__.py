"""Minimal-yet-complete neural-network substrate built on numpy.

This package replaces PyTorch (unavailable offline) for the YOLoC
reproduction.  It provides a reverse-mode autograd tensor, the standard
CNN building blocks (convolution, batch norm, pooling, activations),
the SGD and Adam optimizers, a weight EMA and data loading utilities.
A trained model persists as a ``.rcma`` artifact
(:mod:`repro.runtime.snapshot`), not through this package.

The public surface mirrors the small subset of ``torch``/``torch.nn``
the paper's "custom workflow simulator by PyTorch" would have used::

    from repro import nn

    model = nn.Sequential(
        nn.Conv2d(3, 16, 3, padding=1), nn.BatchNorm2d(16), nn.ReLU(),
        nn.MaxPool2d(2), nn.Flatten(), nn.Linear(16 * 8 * 8, 10),
    )
    opt = nn.SGD(model.parameters(), lr=0.1, momentum=0.9)
    loss = nn.cross_entropy(model(x), y)
    loss.backward()
    opt.step()
"""

from repro.nn.tensor import Tensor, no_grad, tensor
from repro.nn.functional import (
    relu,
    leaky_relu,
    sigmoid,
    tanh,
    softmax,
    log_softmax,
    cross_entropy,
    binary_cross_entropy_with_logits,
    conv2d,
    max_pool2d,
    avg_pool2d,
    global_avg_pool2d,
    dropout,
)
from repro.nn.layers import (
    Module,
    Parameter,
    plan_serial,
    Sequential,
    Conv2d,
    Linear,
    BatchNorm2d,
    ReLU,
    LeakyReLU,
    Sigmoid,
    Tanh,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
    Dropout,
    Identity,
)
from repro.nn.optim import Optimizer, SGD, Adam
from repro.nn.ema import ExponentialMovingAverage
from repro.nn.data import Dataset, TensorDataset, DataLoader
from repro.nn import init

__all__ = [
    "Tensor",
    "tensor",
    "plan_serial",
    "no_grad",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "binary_cross_entropy_with_logits",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "dropout",
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "Optimizer",
    "SGD",
    "Adam",
    "ExponentialMovingAverage",
    "Dataset",
    "TensorDataset",
    "DataLoader",
    "init",
]
