"""Analytic model profiling: per-layer parameters, MACs and activations.

The system-level simulator (``repro.arch``) never runs the full-size
networks numerically — a 46M-weight YOLO forward pass in numpy would be
prohibitively slow.  Instead :func:`profile_model` walks the module tree
propagating shapes symbolically, producing a :class:`ModelProfile` whose
per-layer MAC/parameter/activation counts feed the area, latency, and
energy models.

Composites go through :func:`repro.runtime.reference.descend`, the
composite rule the compiler and the reference walker call, with a
``plan_forward`` builder whose values are shapes: rows carry the plan
nodes' names, and a composite the compiler refuses raises the same
:class:`~repro.runtime.errors.UnsupportedModuleError` here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import nn
from repro.models.common import conv_out_hw

Shape = Tuple[int, ...]  # (N, C, H, W) or (N, F)


@dataclass
class LayerProfile:
    """Static cost profile of one layer."""

    name: str
    kind: str  # "conv" | "linear" | "bn" | "pool" | "act" | "other"
    params: int
    macs: int
    in_shape: Shape
    out_shape: Shape
    trainable: bool = True
    #: Weight shape for CiM mapping, (rows, cols) of the unrolled matrix:
    #: conv -> (Cin/groups*kh*kw, Cout); linear -> (in, out); else None.
    matrix_shape: Optional[Tuple[int, int]] = None
    #: Channel groups of a conv: ``groups`` matrices of ``(rows,
    #: cols / groups)`` each.
    groups: int = 1

    @property
    def output_activations(self) -> int:
        count = 1
        for dim in self.out_shape[1:]:
            count *= dim
        return count


@dataclass
class ModelProfile:
    """Aggregated profile of a network."""

    layers: List[LayerProfile] = field(default_factory=list)
    input_shape: Shape = ()
    output_shape: Shape = ()

    @property
    def total_params(self) -> int:
        return sum(layer.params for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def trainable_params(self) -> int:
        return sum(layer.params for layer in self.layers if layer.trainable)

    def weight_layers(self) -> List[LayerProfile]:
        """Layers holding CiM-mappable weight matrices (conv + linear)."""
        return [l for l in self.layers if l.kind in ("conv", "linear")]

    def max_activation_footprint(self) -> int:
        """Largest single-layer output activation count (buffer sizing)."""
        if not self.layers:
            return 0
        return max(layer.output_activations for layer in self.layers)

    def summary(self) -> str:
        lines = [
            f"{'layer':<40}{'kind':<8}{'params':>12}{'MACs':>14}  out_shape",
            "-" * 90,
        ]
        for layer in self.layers:
            lines.append(
                f"{layer.name:<40}{layer.kind:<8}{layer.params:>12,}"
                f"{layer.macs:>14,}  {layer.out_shape}"
            )
        lines.append("-" * 90)
        lines.append(
            f"{'total':<40}{'':<8}{self.total_params:>12,}{self.total_macs:>14,}"
        )
        return "\n".join(lines)


def _is_trainable(module: nn.Module) -> bool:
    params = list(module.parameters())
    return any(p.requires_grad for p in params) if params else True


class _ShapeGraph:
    """The ``plan_forward`` builder surface over shapes: ``child``
    profiles the child on the shape, ``add`` returns its first operand."""

    __slots__ = ("_layers", "_prefix")

    def __init__(self, layers: List[LayerProfile], prefix: str):
        self._layers = layers
        self._prefix = prefix

    def child(self, module: nn.Module, name: str, shape: Shape) -> Shape:
        full = f"{self._prefix}.{name}" if self._prefix else name
        return _profile_module(module, full, shape, self._layers)

    def add(self, a: Shape, b: Shape, name: str = "add") -> Shape:
        return a


def _profile_module(
    module: nn.Module, name: str, shape: Shape, layers: List[LayerProfile]
) -> Shape:
    """Profile ``module`` (qualified ``name``) on ``shape``, appending its
    rows to ``layers``; returns the output shape."""
    if isinstance(module, nn.Conv2d):
        n, c, h, w = shape
        if c != module.in_channels:
            raise ValueError(
                f"{name!r} expects {module.in_channels} input "
                f"channels but the dataflow provides {c}"
            )
        oc = module.out_channels
        kh, kw = module.kernel_size
        groups = getattr(module, "groups", 1)
        c_per_group = c // groups
        out_h, out_w = conv_out_hw((h, w), module.kernel_size, module.stride, module.padding)
        params = oc * c_per_group * kh * kw + (oc if module.bias is not None else 0)
        macs = oc * out_h * out_w * c_per_group * kh * kw
        out_shape = (n, oc, out_h, out_w)
        layers.append(
            LayerProfile(
                name=name,
                kind="conv",
                params=params,
                macs=macs * n,
                in_shape=shape,
                out_shape=out_shape,
                trainable=_is_trainable(module),
                matrix_shape=(c_per_group * kh * kw, oc),
                groups=groups,
            )
        )
        return out_shape

    if isinstance(module, nn.Linear):
        n = shape[0]
        in_f, out_f = module.in_features, module.out_features
        params = out_f * in_f + (out_f if module.bias is not None else 0)
        out_shape = (n, out_f)
        layers.append(
            LayerProfile(
                name=name,
                kind="linear",
                params=params,
                macs=n * in_f * out_f,
                in_shape=shape,
                out_shape=out_shape,
                trainable=_is_trainable(module),
                matrix_shape=(in_f, out_f),
            )
        )
        return out_shape

    if isinstance(module, nn.BatchNorm2d):
        layers.append(
            LayerProfile(
                name=name,
                kind="bn",
                params=2 * module.num_features,
                macs=0,
                in_shape=shape,
                out_shape=shape,
                trainable=_is_trainable(module),
            )
        )
        return shape

    if isinstance(module, (nn.MaxPool2d, nn.AvgPool2d)):
        n, c, h, w = shape
        kernel = module.kernel_size
        stride = module.stride if module.stride is not None else kernel
        pair = lambda v: (v, v) if isinstance(v, int) else v  # noqa: E731
        out_h, out_w = conv_out_hw((h, w), pair(kernel), pair(stride), (0, 0))
        out_shape = (n, c, out_h, out_w)
        layers.append(LayerProfile(name, "pool", 0, 0, shape, out_shape))
        return out_shape

    if isinstance(module, nn.GlobalAvgPool2d):
        n, c = shape[0], shape[1]
        out_shape = (n, c, 1, 1)
        layers.append(LayerProfile(name, "pool", 0, 0, shape, out_shape))
        return out_shape

    if isinstance(module, nn.Flatten):
        n = shape[0]
        flat = 1
        for dim in shape[1:]:
            flat *= dim
        return (n, flat)

    if isinstance(
        module,
        (nn.ReLU, nn.LeakyReLU, nn.Sigmoid, nn.Tanh, nn.Dropout, nn.Identity),
    ):
        return shape

    # Imported here: repro.runtime imports repro.arch, which imports
    # this module.
    from repro.runtime.reference import descend

    return descend(module, name, _ShapeGraph(layers, name), shape)


def profile_model(model, input_shape: Shape) -> ModelProfile:
    """Profile ``model`` for an input of shape ``(N, C, H, W)`` or ``(N, F)``.

    Accepts either an :class:`~repro.nn.Module` or a compiled runtime
    model (:class:`~repro.runtime.CompiledModel`), which is profiled
    through its underlying (folded) module tree.  Returns a
    :class:`ModelProfile` with one entry per parameterized or
    shape-changing layer, in execution order.
    """
    if not isinstance(model, nn.Module):
        source = getattr(model, "model", None)
        if isinstance(source, nn.Module):
            model = source
        else:
            raise TypeError(
                f"cannot profile {type(model).__name__}: expected an "
                "nn.Module or a CompiledModel"
            )
    if len(input_shape) not in (2, 4):
        raise ValueError(f"expected (N, F) or (N, C, H, W), got {input_shape}")
    layers: List[LayerProfile] = []
    out_shape = _profile_module(model, "", tuple(input_shape), layers)
    return ModelProfile(
        layers=layers, input_shape=tuple(input_shape), output_shape=out_shape
    )
