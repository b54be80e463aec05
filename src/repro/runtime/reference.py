"""The seed per-call execution path, preserved as a bit-exact oracle.

The seed library rebuilt every tile and re-quantized every weight on
each forward call.  :func:`reference_forward` keeps that exact behaviour
— same arithmetic, same RNG consumption order — so tests can pin the
compiled runtime's outputs bitwise against it and benchmarks can
measure the compile-once speedup against the true baseline.

The walker understands the same dataflow protocol as the compiled
plan builder: composites declare their graph via ``plan_forward``
(see :mod:`repro.runtime.compiled`), which the walker executes
*eagerly* — ``builder.child`` runs the child right away, ``builder.add``
sums the arrays.  Because the compiled plan executes its nodes in
exactly the order ``plan_forward`` declared them, eager execution here
consumes the RNG stream identically, so residual and grouped-conv
models stay bitwise comparable across both paths.  A composite that
overrides ``forward`` without declaring a plan raises the same typed
:class:`~repro.runtime.errors.UnsupportedModuleError` the compiler
raises.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro import nn
from repro.cim.cells import ROM_1T, SRAM_CIM_6T
from repro.cim.encoding import ActivationEncoding
from repro.cim.macro import MacroConfig, MacroStats
from repro.cim.mvm import reference_cim_conv2d, reference_cim_linear
from repro.runtime.errors import InvalidBatchError, UnsupportedModuleError


class _EagerGraph:
    """The ``plan_forward`` builder surface, executed eagerly.

    Dataflow values are the actual activation arrays; ``child`` runs
    the child module immediately and ``add`` sums.  Declaration order
    is execution order — the same fixed topological order the compiled
    DAG uses — so RNG draws line up bit for bit.
    """

    __slots__ = ("_runner", "_prefix")

    def __init__(self, runner: "_ReferenceRunner", prefix: str):
        self._runner = runner
        self._prefix = prefix

    def child(self, module: nn.Module, name: str, x: np.ndarray) -> np.ndarray:
        full = f"{self._prefix}.{name}" if self._prefix else name
        return self._runner.run(module, x, full)

    def add(self, a: np.ndarray, b: np.ndarray, name: str = "add") -> np.ndarray:
        return a + b


class _ReferenceRunner:
    def __init__(self, rom_config, sram_config, activation_bits, rng, encoding):
        self.rom_config = rom_config
        self.sram_config = sram_config
        self.activation_bits = activation_bits
        self.rng = rng
        self.encoding = encoding
        self.stats = MacroStats()

    def _encoding_for(self, x: np.ndarray) -> Optional[ActivationEncoding]:
        if self.encoding is None or (x < 0).any():
            return None
        return self.encoding

    def _conv(self, x, conv, config):
        sh, sw = conv.stride
        ph, pw = conv.padding
        if sh != sw or ph != pw:
            raise ValueError("deployment supports square stride/padding only")
        out, stats = reference_cim_conv2d(
            x,
            conv.weight.data,
            stride=sh,
            padding=ph,
            config=config,
            activation_bits=self.activation_bits,
            rng=self.rng,
            encoding=self._encoding_for(x),
            groups=conv.groups,
        )
        self.stats = self.stats + stats
        if conv.bias is not None:
            out = out + conv.bias.data.reshape(1, -1, 1, 1)
        return out

    def run(self, module: nn.Module, x: np.ndarray, name: str = "") -> np.ndarray:
        if isinstance(module, (nn.Conv2d, nn.Linear)):
            # Fig. 9 placement, repeated here rather than shared with the
            # compiler: trainable -> SRAM, frozen -> ROM.
            config = (
                self.sram_config if module.weight.requires_grad else self.rom_config
            )
            if isinstance(module, nn.Conv2d):
                return self._conv(x, module, config)
            out, stats = reference_cim_linear(
                x,
                module.weight.data,
                config=config,
                activation_bits=self.activation_bits,
                rng=self.rng,
                encoding=self._encoding_for(x),
            )
            self.stats = self.stats + stats
            if module.bias is not None:
                out = out + module.bias.data
            return out
        op = pure_op(module)
        if op is not None:
            return op[0](module, x)
        return descend(module, name, _EagerGraph(self, name), x)


def pool2d(x: np.ndarray, kernel, stride, mode: str) -> np.ndarray:
    """The seed deployment pooling (stride == kernel only), shared by the
    reference and compiled paths so they cannot diverge."""
    k = kernel if isinstance(kernel, int) else kernel[0]
    s = k if stride is None else (stride if isinstance(stride, int) else stride[0])
    if s != k:
        raise ValueError("deployment supports stride == kernel pooling only")
    n, c, h, w = x.shape
    oh, ow = h // k, w // k
    view = x[:, :, : oh * k, : ow * k].reshape(n, c, oh, k, ow, k)
    return view.max(axis=(3, 5)) if mode == "max" else view.mean(axis=(3, 5))


#: The engine-free module kinds, ``class -> (fn(module, x), sign)``:
#: the float semantics both paths execute, and the compile-time sign
#: prediction of the output — ``False`` unsigned, ``True`` signed,
#: ``None`` whatever the input was.  ``fn`` reads module attributes per
#: call, so an in-place mutation between runs is picked up (seed
#: behaviour).  A new kind also needs a row in the artifact vocabulary
#: (``snapshot.MODULE_KINDS``); ``tests/test_module_kinds.py`` says so.
PURE_OPS = {
    nn.ReLU: (lambda m, x: np.maximum(x, 0.0), False),
    nn.LeakyReLU: (lambda m, x: np.where(x > 0, x, m.negative_slope * x), True),
    nn.Sigmoid: (lambda m, x: 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60))), False),
    nn.Tanh: (lambda m, x: np.tanh(x), True),
    nn.Identity: (lambda m, x: x, None),
    nn.Dropout: (lambda m, x: x, None),
    nn.MaxPool2d: (lambda m, x: pool2d(x, m.kernel_size, m.stride, "max"), None),
    nn.AvgPool2d: (lambda m, x: pool2d(x, m.kernel_size, m.stride, "avg"), None),
    nn.GlobalAvgPool2d: (lambda m, x: x.mean(axis=(2, 3), keepdims=True), None),
    nn.Flatten: (lambda m, x: x.reshape(x.shape[0], -1), None),
}


def pure_op(module: nn.Module):
    """``module``'s :data:`PURE_OPS` row (subclasses included) or ``None``."""
    for cls in type(module).__mro__:
        if cls in PURE_OPS:
            return PURE_OPS[cls]
    return None


#: Rank of the batch a leaf kind consumes; a kind not listed takes any.
_LEAF_RANK = {
    nn.Conv2d: 4,
    nn.MaxPool2d: 4,
    nn.AvgPool2d: 4,
    nn.GlobalAvgPool2d: 4,
    nn.Linear: 2,
}


class _FirstLeaf(Exception):
    """Unwinds :func:`input_rank`'s walk at the first leaf it reaches."""


class _LeafFinder:
    """The ``plan_forward`` builder surface that runs nothing: the first
    ``child`` that is a leaf ends the walk."""

    def child(self, module: nn.Module, name: str, x):
        if isinstance(module, tuple(_LEAF_RANK)) or pure_op(module) is not None:
            raise _FirstLeaf(module)
        return descend(module, name, self, x)

    def add(self, a, b, name: str = "add"):
        return a


def input_rank(model: nn.Module) -> Optional[int]:
    """Rank of the batch ``model``'s first node consumes — the first
    leaf in declaration order, which is execution order for both walkers
    — or ``None`` when any rank will do."""
    try:
        _LeafFinder().child(model, "", None)
    except _FirstLeaf as found:
        (leaf,) = found.args
        return next(
            (rank for kind, rank in _LEAF_RANK.items() if isinstance(leaf, kind)), None
        )
    return None


def check_batch(batch, rank: Optional[int]) -> np.ndarray:
    """``batch`` as the float64 array both walkers start from, or an
    :class:`~repro.runtime.errors.InvalidBatchError`: the one check of
    the model input, made before any engine runs."""
    x = np.asarray(batch)
    if x.dtype.kind not in "biuf":
        raise InvalidBatchError(
            f"batch dtype {x.dtype} is not numeric; expected real numbers"
        )
    if x.ndim == 0 or (rank is not None and x.ndim != rank):
        raise InvalidBatchError(
            f"batch of shape {x.shape} has rank {x.ndim}; the model's first "
            f"node takes {'a batch axis' if rank is None else f'rank {rank}'}"
        )
    if x.size == 0:
        raise InvalidBatchError(f"batch of shape {x.shape} is empty")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InvalidBatchError("batch contains NaN or infinite values")
    return x


def descend(module: nn.Module, name: str, graph, x):
    """The composite rule, one copy for the plan builder and this walker.

    ``graph`` is the ``plan_forward`` builder surface scoped to ``name``
    and ``x`` a dataflow value of its kind.  A ``Sequential`` (an empty
    one is a legal no-op placeholder) or a bare container that never
    overrode ``forward`` is its registration-order chain; any other
    composite must declare its dataflow through ``plan_forward``.
    """
    serial = isinstance(module, nn.Sequential)
    if not serial and getattr(type(module), "plan_forward", None) is not None:
        return module.plan_forward(graph, x)
    if serial or (module._modules and type(module).forward is nn.Module.forward):
        return nn.plan_serial(module, graph, x)
    raise UnsupportedModuleError(
        name,
        type(module).__name__,
        "the composite overrides forward() without declaring its "
        "dataflow; implement plan_forward(builder, x) (or set "
        "plan_forward = nn.plan_serial for a registration-order "
        "chain)"
        if module._modules
        else "no runtime lowering for this type",
    )


def reference_forward(
    model: nn.Module,
    x: np.ndarray,
    rom_config: Optional[MacroConfig] = None,
    sram_config: Optional[MacroConfig] = None,
    activation_bits: int = 8,
    rng: Optional[np.random.Generator] = None,
    encoding: Optional[ActivationEncoding] = None,
) -> Tuple[np.ndarray, MacroStats]:
    """Seed-semantics forward pass: rebuild and re-quantize per call.

    Returns ``(outputs, stats)``.  This is the baseline the compiled
    runtime must match bitwise (same inputs, configs, and RNG) and the
    yardstick its speedup is measured against.
    """
    runner = _ReferenceRunner(
        rom_config if rom_config is not None else MacroConfig(cell=ROM_1T),
        sram_config if sram_config is not None else MacroConfig(cell=SRAM_CIM_6T),
        activation_bits,
        rng if rng is not None else np.random.default_rng(),
        encoding,
    )
    out = runner.run(model, check_batch(x, input_rank(model)))
    return out, runner.stats
