"""Module system: composable layers with named parameters.

Mirrors the ``torch.nn.Module`` contract that the YOLoC training flows
need: recursive parameter discovery, train/eval modes, state dicts, and
parameter freezing (the mechanism by which trunk weights become "ROM").
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn import init as init_mod
from repro.nn.tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


class Parameter(Tensor):
    """A tensor registered as a learnable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    # -- registration ---------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _update_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} was never registered")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}.{name}" if prefix else name), param
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_parameters(child_prefix)

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(
            p.size
            for p in self.parameters()
            if p.requires_grad or not trainable_only
        )

    # -- modes -----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def freeze(self) -> "Module":
        """Mark every parameter non-trainable (ROM-resident in YOLoC terms)."""
        for param in self.parameters():
            param.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for param in self.parameters():
            param.requires_grad = True
        return self

    # -- state -----------------------------------------------------------
    def state_dict(self, prefix: str = "") -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {}
        for name, param in self._parameters.items():
            state[f"{prefix}{name}"] = param.data.copy()
        for name, buf in self._buffers.items():
            state[f"{prefix}{name}"] = np.array(buf, copy=True)
        for name, child in self._modules.items():
            state.update(child.state_dict(prefix=f"{prefix}{name}."))
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], prefix: str = "") -> None:
        for name, param in self._parameters.items():
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing parameter {key!r} in state dict")
            value = np.asarray(state[key], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()
        for name in self._buffers:
            key = f"{prefix}{name}"
            if key not in state:
                raise KeyError(f"missing buffer {key!r} in state dict")
            self._update_buffer(name, np.array(state[key], copy=True))
        for name, child in self._modules.items():
            child.load_state_dict(state, prefix=f"{prefix}{name}.")

    # -- call ------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        return "\n".join(lines) + ")"


def plan_serial(module: "Module", builder, x):
    """Declare a composite's dataflow as its child chain.

    Assign this function as a class attribute (``plan_forward =
    plan_serial``) on a composite whose custom ``forward`` applies the
    children in registration order — the deployment runtime then lowers
    the composite as that serial chain, and the artifact store may
    serialize it as a generic container.  Composites whose dataflow is
    *not* the serial chain (residual adds, parallel branches) implement
    their own ``plan_forward(builder, x)`` instead.
    """
    for name, child in module._modules.items():
        x = builder.child(child, name, x)
    return x


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            setattr(self, str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return self._modules[str(index % len(self._modules))]

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x


class Identity(Module):
    """Pass-through module."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Conv2d(Module):
    """2-D convolution over NCHW tensors.

    ``groups`` partitions channels into independent convolutions;
    ``groups == in_channels == out_channels`` is depthwise convolution.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: IntPair,
        stride: IntPair = 1,
        padding: IntPair = 0,
        bias: bool = True,
        groups: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError("channel counts must be positive")
        if groups < 1 or in_channels % groups or out_channels % groups:
            raise ValueError(
                f"groups={groups} must divide in ({in_channels}) and "
                f"out ({out_channels}) channels"
            )
        rng = rng if rng is not None else np.random.default_rng()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = F._pair(stride)
        self.padding = F._pair(padding)
        self.groups = groups
        fan_in = in_channels // groups * kh * kw
        self.weight = Parameter(
            init_mod.kaiming_normal(
                (out_channels, in_channels // groups, kh, kw), rng
            )
        )
        if bias:
            bound = 1.0 / math.sqrt(fan_in)
            self.bias: Optional[Parameter] = Parameter(
                rng.uniform(-bound, bound, size=out_channels)
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x, self.weight, self.bias, self.stride, self.padding, self.groups
        )

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"stride={self.stride}, padding={self.padding}, groups={self.groups}"
        )


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_mod.kaiming_uniform((out_features, in_features), rng))
        if bias:
            bound = 1.0 / math.sqrt(in_features)
            self.bias: Optional[Parameter] = Parameter(
                rng.uniform(-bound, bound, size=out_features)
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.transpose())
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        return f"{self.in_features}, {self.out_features}"


class BatchNorm2d(Module):
    """Batch normalization over the channel axis of NCHW tensors."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features))
        self.bias = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3), keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            self._update_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.reshape(-1),
            )
            n = x.shape[0] * x.shape[2] * x.shape[3]
            unbiased = var.data.reshape(-1) * (n / max(n - 1, 1))
            self._update_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
            normalized = centered * ((var + self.eps) ** -0.5)
        else:
            mean = self.running_mean.reshape(1, -1, 1, 1)
            var = self.running_var.reshape(1, -1, 1, 1)
            normalized = (x - mean) * ((var + self.eps) ** -0.5)
        scale = self.weight.reshape(1, self.num_features, 1, 1)
        shift = self.bias.reshape(1, self.num_features, 1, 1)
        return normalized * scale + shift

    def extra_repr(self) -> str:
        return f"{self.num_features}, eps={self.eps}, momentum={self.momentum}"


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.1):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return F.leaky_relu(x, self.negative_slope)

    def extra_repr(self) -> str:
        return f"negative_slope={self.negative_slope}"


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class MaxPool2d(Module):
    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def extra_repr(self) -> str:
        return f"kernel_size={self.kernel_size}, stride={self.stride}"


class AvgPool2d(Module):
    def __init__(self, kernel_size: IntPair, stride: Optional[IntPair] = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def extra_repr(self) -> str:
        return f"p={self.p}"
