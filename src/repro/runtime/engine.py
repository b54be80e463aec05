"""Programmed layer engines: quantize + place weights once, execute many.

A :class:`ProgrammedLinear` / :class:`ProgrammedConv` is the software
image of a set of fabricated subarrays: the float weights are
per-channel quantized, decomposed into bit planes, and placed onto
:class:`~repro.cim.mvm.CimTiledMatmul` tiles exactly once, at
*programming* time.  Execution then only quantizes the incoming
activation batch and streams it through the programmed tiles — through
the fast exact kernel when the configuration allows, or through the
reference macro path (with an execution-time RNG for bit-line noise
draws) when it does not.  A convolution is programmed as one
:class:`ProgrammedConv` per channel group (one for a plain conv) and
executed per layer by :class:`GroupedConv`.

:func:`linear_engine` / :func:`conv_engine` are the cache-aware
constructors: they key the engine by ``(layer id, weight fingerprint,
config)`` — the one :func:`engine_key` — and share programmed engines
across calls, sessions and models through an
:class:`~repro.runtime.cache.EngineCache`; :func:`engine_from_state` is
the snapshot restore's, over stored codes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.cim.encoding import ActivationEncoding
from repro.cim.macro import MacroConfig, MacroStats
from repro.cim.mvm import CimTiledMatmul, validate_groups
from repro.nn import functional as F
from repro.quant.quantizer import QuantSpec, quantize
from repro.runtime.cache import (
    EngineCache,
    EngineKey,
    macro_config_key,
    resolve_cache,
    weight_fingerprint,
)
from repro.runtime.backends.reference_fast import TiledBitSerialKernel
from repro.runtime.errors import SnapshotCorruptError

_UNSIGNED_ENGINE_ERROR = (
    "engine is programmed for unsigned activations but the "
    "input carries negative values; program a signed-input "
    "engine for this layer"
)


class ProgrammedLinear:
    """``y = x @ weight.T`` with the weights programmed into CiM tiles.

    Programming (this constructor) quantizes the float weights with the
    same per-channel spec the functional path uses and builds the tiled
    engine once.  :meth:`execute` is the per-batch hot path.

    ``signed_inputs`` is fixed at programming time: the macro's input
    bit-plane weights (two's complement MSB) are part of the programmed
    configuration, exactly as on silicon.

    The execution kernel is not a choice: a configuration the fast
    kernel is bit-exact for (:meth:`TiledBitSerialKernel.supported` — a
    noise-free bit line, shift-and-add sums below 2**53) gets it, every
    other one runs the reference macro path.
    """

    def __init__(
        self,
        weight: np.ndarray,
        config: Optional[MacroConfig] = None,
        activation_bits: int = 8,
        signed_inputs: bool = False,
    ):
        config = config if config is not None else MacroConfig()
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-D (out, in), got {weight.shape}")
        w_spec = QuantSpec(bits=config.weight_bits, signed=True, per_channel_axis=0)
        w_codes, w_scale = quantize(weight, w_spec)
        self._adopt(
            config, activation_bits, signed_inputs, w_codes, w_scale, CimTiledMatmul
        )

    @classmethod
    def from_state(
        cls,
        config: MacroConfig,
        activation_bits: int,
        signed_inputs: bool,
        w_codes: np.ndarray,
        w_scale: np.ndarray,
    ) -> "ProgrammedLinear":
        """The engine over *trusted* programmed state (a snapshot
        restore): integer ``(out, in)`` codes and per-channel scales are
        adopted unscanned; everything else derives from the codes as it
        does at programming time.
        """
        linear = cls.__new__(cls)
        linear._adopt(
            config,
            activation_bits,
            signed_inputs,
            w_codes,
            w_scale,
            CimTiledMatmul.from_state,
        )
        return linear

    def _adopt(
        self, config, activation_bits, signed_inputs, w_codes, w_scale, make_tiled
    ) -> None:
        """Bind the programmed state, derive the run configuration, and
        adopt the codes as a tiled engine (``make_tiled``: with or
        without the range scan)."""
        self.config = config
        self.activation_bits = int(activation_bits)
        self.signed_inputs = bool(signed_inputs)
        self.out_features, self.in_features = w_codes.shape
        self.w_codes, self.w_scale = w_codes, w_scale
        # Snapshot the bit-line model — the only mutable piece of the
        # config (CellSpec and AdcSpec are frozen) — so later in-place
        # mutation of the caller's bit line cannot desynchronize the
        # programmed kernel's LUT.
        bitline = replace(config.bitline) if config.bitline is not None else None
        self.run_config = replace(
            config,
            input_bits=self.activation_bits,
            signed_weights=True,
            signed_inputs=self.signed_inputs,
            bitline=bitline,
        )
        self.engine = make_tiled(w_codes.T, self.run_config)
        self._fast_kernel: Optional[TiledBitSerialKernel] = None

    @property
    def _kernel(self) -> Optional[TiledBitSerialKernel]:
        """The fast kernel, or ``None`` when the configuration forces
        the reference macro path: derived on first read (a grouped
        layer's engines run its kernel and never build one) and
        published by one attribute store, so racing threads build equal
        kernels."""
        if self._fast_kernel is None and TiledBitSerialKernel.supported(
            self.run_config
        ):
            self._fast_kernel = TiledBitSerialKernel(self.engine)
        return self._fast_kernel

    @_kernel.setter
    def _kernel(self, kernel: Optional[TiledBitSerialKernel]) -> None:
        self._fast_kernel = kernel

    @property
    def n_subarrays(self) -> int:
        return self.engine.n_subarrays

    def execute(
        self,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        encoding: Optional[ActivationEncoding] = None,
        *,
        degrade: Any = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """Run a float batch ``(N, in_features)`` through the tiles.

        Bitwise identical to the seed per-call functional path for the
        same inputs, configuration and RNG.

        ``degrade`` (duck-typed: :class:`repro.chaos.Degradation`) is
        this call's analog degradation.  Unless it ``is_noop``, the call
        takes the reference macro path (the exact LUT kernel is
        noise-free by construction) over a per-call view of the tiles
        bound to ``degrade.apply(run_config)`` — a *copy*; the engine,
        shared with concurrent runs through the cache, is never touched.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (N, {self.in_features}), got {x.shape}"
            )
        if not self.signed_inputs and x.size and bool((x < 0).any()):
            raise ValueError(_UNSIGNED_ENGINE_ERROR)
        act_spec = QuantSpec(bits=self.activation_bits, signed=self.signed_inputs)
        x_codes, x_scale = quantize(x, act_spec)
        y_codes, stats = self.matmul_codes(x_codes.T, rng, encoding, degrade)
        scale = float(x_scale) * self.w_scale.reshape(-1, 1)
        return (y_codes * scale).T, stats

    def matmul_codes(
        self,
        codes: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        encoding: Optional[ActivationEncoding] = None,
        degrade: Any = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """The back half of :meth:`execute`: already-quantized activation
        codes ``(in_features, N)`` through the tiles, as integer-valued
        ``(out_features, N)`` partial sums before rescaling."""
        degraded = degrade is not None and not degrade.is_noop
        if self._kernel is not None and encoding is None and not degraded:
            return self._kernel.matmul(codes)
        rng = rng if rng is not None else np.random.default_rng()
        tiled = self.engine
        if degraded:
            tiled = tiled.with_config(degrade.apply(self.run_config))
        return tiled.matmul(codes, encoding=encoding, rng=rng)


def conv_patches(
    x: np.ndarray,
    weight_shape: Tuple[int, int, int, int],
    stride: int,
    padding: int,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """im2col patches ``(N*P, C*kh*kw)`` and the output spatial shape.

    Signedness of a convolution's activations must be decided on these
    patches — not the raw input — because a stride larger than the
    kernel can skip the only negative pixels; the seed path quantized
    exactly the patches.  :meth:`GroupedConv.execute` reaches the same
    codes from the pixels the windows read and no longer calls this;
    the benchmark ledger's per-engine replay still does.
    """
    x = np.asarray(x, dtype=np.float64)
    _, ic, kh, kw = weight_shape
    cols, out_hw = F.im2col(
        x, (kh, kw), (stride, stride), (padding, padding)
    )  # (N, C*kh*kw, P)
    return cols.transpose(0, 2, 1).reshape(-1, ic * kh * kw), out_hw


class ProgrammedConv:
    """A convolution programmed as an im2col :class:`ProgrammedLinear`."""

    def __init__(
        self,
        weight: np.ndarray,
        stride: int = 1,
        padding: int = 0,
        config: Optional[MacroConfig] = None,
        activation_bits: int = 8,
        signed_inputs: bool = False,
    ):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 4:
            raise ValueError(f"weight must be 4-D (O, C, kh, kw), got {weight.shape}")
        linear = ProgrammedLinear(
            weight.reshape(weight.shape[0], -1),
            config,
            activation_bits,
            signed_inputs,
        )
        self._bind(linear, weight.shape, stride, padding)

    @classmethod
    def from_state(
        cls,
        linear: ProgrammedLinear,
        weight_shape: Tuple[int, int, int, int],
        stride: int,
        padding: int,
    ) -> "ProgrammedConv":
        """The convolution over an already-programmed im2col engine."""
        conv = cls.__new__(cls)
        conv._bind(linear, weight_shape, stride, padding)
        return conv

    def _bind(self, linear, weight_shape, stride, padding) -> None:
        self.out_channels, self.in_channels, self.kh, self.kw = weight_shape
        self.stride = int(stride)
        self.padding = int(padding)
        self.linear = linear

    @property
    def n_subarrays(self) -> int:
        return self.linear.n_subarrays

    @property
    def weight_shape(self) -> Tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.kh, self.kw)

    def execute(
        self,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        encoding: Optional[ActivationEncoding] = None,
        *,
        degrade: Any = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """Run a float batch ``(N, C, H, W)`` through this engine alone:
        the one-group :class:`GroupedConv` pass over itself, the body a
        compiled plan runs every conv through."""
        layer = GroupedConv(
            self.weight_shape, 1, self.stride, self.padding, lambda g, signed: self
        )
        return layer.execute(x, rng=rng, encoding=encoding, degrade=degrade)


class _GroupStack:
    """What one list of per-group engines contributes to every layer
    pass, gathered once: activation spec, input signedness, weight
    scales and — when the configuration allows the fast kernel — the
    one bit-serial pass with a group axis: one group's engine's own
    kernel, or a :class:`TiledBitSerialKernel` built once over the
    groups' tiled engines, in which a group's input signedness is one
    row of numbers (the input plane weights its input bits are folded
    with), so a mixed-sign layer is still one pass.

    Valid for exactly the engine objects it was built from
    (``engines``, held strongly and compared by identity): re-programmed
    weights, a ROM <-> SRAM move and a different per-group sign pattern
    all arrive as different engines.
    """

    def __init__(self, engines: List[ProgrammedConv]):
        self.engines = engines
        linears = [engine.linear for engine in engines]
        bits = linears[0].activation_bits
        self.act_spec = QuantSpec(bits=bits, per_channel_axis=1)
        #: The narrowest signed integer type holding either signedness'
        #: codes: [-2**(bits-1), 2**bits - 1] lies in [-2**bits, 2**bits).
        self.code_dtype = np.min_scalar_type(-(1 << bits))
        self.signed = np.array([lin.signed_inputs for lin in linears])
        self.w_scale = np.stack([lin.w_scale.reshape(-1) for lin in linears])
        if len(linears) == 1:
            self.kernel = linears[0]._kernel
        elif TiledBitSerialKernel.supported(linears[0].run_config):
            self.kernel = TiledBitSerialKernel(*(lin.engine for lin in linears))
        else:
            self.kernel = None


def _read_indices(size: int, kernel: int, stride: int, padding: int, out: int):
    """The indices of the ``size`` input rows (or columns) that some of
    a convolution's ``out`` windows along that axis read."""
    read = np.zeros(size + 2 * padding, dtype=bool)
    for i in range(kernel):
        read[i : i + stride * (out - 1) + 1 : stride] = True
    return np.flatnonzero(read[padding : padding + size])


class GroupedConv:
    """A convolution executed per layer over per-group engines; a plain
    convolution is the one-group case.

    ``weight_shape`` is the full conv's ``(out_channels, in_per_group,
    kh, kw)``; ``engine_for(g, signed)`` returns the
    :class:`ProgrammedConv` for group ``g`` programmed for that input
    signedness (callers route it through the engine cache, so each
    group's macros are programmed once and shared).  The engines stay
    the unit of programming, caching and persistence; only execution is
    per layer.

    Semantics — shared bit for bit with
    :func:`repro.cim.mvm.reference_cim_conv2d`: each group is an
    independent convolution over its channel slice, with **per-group**
    batch-global activation quantization and **per-group** signedness
    (decided on that group's im2col patches).  Stats sum over groups in
    index order (sequential word-line streaming; tiles within a group
    still run in parallel).

    One body serves every ``groups`` — signedness and ``amax`` as
    reductions over the group axis, one quantization, then one im2col —
    and runs once per feature-map pixel, not per patch entry: it
    quantizes the pixels some window reads (the patches hold exactly
    these, repeated, and padding zeros, so signedness, scale and every
    code are the patches'), narrows the codes into a zero code map and
    im2cols the codes.  It feeds either the groups' stacked fast kernel
    (one group's is its engine's own) or, for a noisy bit line, a pulse
    encoding or a live degradation, each group's
    :meth:`ProgrammedLinear.matmul_codes` in index order: the reference
    macro path against the shared ``rng`` (deterministic group-major
    draws).  One rescale writes the output
    in the reference's layout: one group keeps the GEMM's channel-major
    memory (the reference's ungrouped conv), several are NCHW-contiguous
    (the reference's concatenation of per-group outputs).

    An instance kept across calls (a compiled plan's conv step) reuses
    the :class:`_GroupStack` of its last engine list; it is built, then
    published with one attribute store, and never mutated, so
    concurrent runs share it safely.
    """

    def __init__(
        self,
        weight_shape: Tuple[int, int, int, int],
        groups: int,
        stride: int,
        padding: int,
        engine_for,
    ):
        self.weight_shape = weight_shape
        self.groups = groups
        self.stride = stride
        self.padding = padding
        self.engine_for = engine_for
        self._stack: Optional[_GroupStack] = None

    def _stack_for(self, engines: List[ProgrammedConv]) -> _GroupStack:
        stack = self._stack
        if stack is None or stack.engines != engines:
            stack = self._stack = _GroupStack(engines)
        return stack

    def execute(
        self,
        x: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        encoding: Optional[ActivationEncoding] = None,
        *,
        degrade: Any = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """Run a float batch ``(N, C, H, W)`` through the layer."""
        x = np.asarray(x, dtype=np.float64)
        oc, icg, kh, kw = self.weight_shape
        groups, stride, pad = self.groups, self.stride, self.padding
        validate_groups(oc, icg, groups, x.shape[1])
        n, c, h, w = x.shape
        ocg = oc // groups
        out_h, out_w = F.conv_output_size(h, w, (kh, kw), (stride,) * 2, (pad,) * 2)

        # The patches hold the pixels some window reads, each up to
        # kh*kw times, and padding zeros: signedness and max|x| over
        # these pixels are the patches', and each code is the same.
        rows = _read_indices(h, kh, stride, pad, out_h)
        cols = _read_indices(w, kw, stride, pad, out_w)
        whole = rows.size == h and cols.size == w
        if whole:
            seen = x
        elif rows.size and cols.size:
            seen = x[:, :, rows[:, None], cols]
        else:  # every window reads padding alone: all-zero patches
            seen = np.zeros((n, c, 1, 1))
        seen = seen.reshape((n, groups, icg) + seen.shape[2:])  # a view
        negative = (seen < 0).any(axis=(0, 2, 3, 4))
        stack = self._stack_for(
            [self.engine_for(g, signed) for g, signed in enumerate(negative.tolist())]
        )
        if (negative & ~stack.signed).any():
            raise ValueError(_UNSIGNED_ENGINE_ERROR)

        # Per-group batch-global quantization, narrowed into a zero
        # (padded) code map.  The narrowing saturates, so a code out of
        # range (a NaN's) stays out of range for the kernel's check.
        codes, x_scale = quantize(seen, stack.act_spec, signed=stack.signed)
        x_scale = x_scale.reshape(1, groups, 1, 1)
        info = np.iinfo(stack.code_dtype)
        shape = (n, c, h + 2 * pad, w + 2 * pad)
        fmap = (np.empty if whole and not pad else np.zeros)(shape, info.dtype)
        if whole:
            inner = fmap[:, :, pad : pad + h, pad : pad + w]
            codes = codes.reshape(inner.shape)
            np.clip(codes, info.min, info.max, out=inner, casting="unsafe")
        elif rows.size and cols.size:
            fmap[:, :, pad + rows[:, None], pad + cols] = np.clip(
                codes, info.min, info.max
            ).reshape(n, c, rows.size, cols.size)
        # im2col of the codes, straight into (G, K, N*P): each group's
        # ``x_codes.T`` (a view where the layout already is one).
        windows = F.sliding_windows(fmap, (kh, kw), (stride,) * 2, (out_h, out_w))
        windows = windows.reshape(n, groups, icg, kh, kw, out_h, out_w)
        codes = np.ascontiguousarray(windows.transpose(1, 2, 3, 4, 0, 5, 6))
        codes = codes.reshape(groups, icg * kh * kw, -1)

        degraded = degrade is not None and not degrade.is_noop
        if stack.kernel is not None and encoding is None and not degraded:
            y_codes, total = stack.kernel.matmul(codes)
        else:
            y_codes = np.empty((groups, ocg, codes.shape[2]))
            total = MacroStats()
            for g, engine in enumerate(stack.engines):
                y_codes[g], stats = engine.linear.matmul_codes(
                    codes[g], rng, encoding, degrade
                )
                total = total + stats

        # Rescale into the reference's layout, which later float
        # reductions see: one group keeps the GEMM's channel-major
        # (OC, N, oh*ow) memory, several the C-contiguous (N, OC, oh, ow)
        # one that concatenating the per-group outputs produces.
        if groups == 1:
            out = np.empty((groups, ocg, n, out_h * out_w)).transpose(2, 0, 1, 3)
        else:
            out = np.empty((n, groups, ocg, out_h * out_w))
        np.multiply(
            y_codes.reshape(groups, ocg, n, -1).transpose(2, 0, 1, 3),
            x_scale * stack.w_scale[:, :, None],
            out=out,
        )
        return out.reshape(n, oc, out_h, out_w), total


# ----------------------------------------------------------------------
# Cache-aware constructors
# ----------------------------------------------------------------------
def engine_key(
    layer_id: str,
    fingerprint: str,
    config: MacroConfig,
    activation_bits: int,
    signed_inputs: bool,
    *geometry: int,
) -> EngineKey:
    """The cache key of one programmed engine: a linear one's, or a conv
    one's when ``geometry`` is its ``(stride, padding)``."""
    return EngineKey(
        layer_id=layer_id,
        weight_hash=fingerprint,
        config_key=(
            "conv" if geometry else "linear",
            macro_config_key(config),
            int(activation_bits),
            bool(signed_inputs),
            *map(int, geometry),
        ),
    )


def engine_from_state(
    layer_id: str,
    weight_shape: Tuple[int, ...],
    codes: np.ndarray,
    scale: np.ndarray,
    config: MacroConfig,
    activation_bits: int,
    signed_inputs: bool,
    *geometry: int,
):
    """The engine of layer ``layer_id`` — linear over ``(out, in)``
    weights, or conv when ``geometry`` is its ``(stride, padding)`` —
    over stored codes and scales, once they agree with the layer."""
    # Copied off the container mapping: a live engine keeps no page of
    # the artifact file mapped, so overwriting an artifact cannot crash
    # a server restored from it.  The codes keep their stored width —
    # every consumer widens what it reads, none needs 8 bytes a weight.
    codes = np.array(codes)
    scale = np.array(scale, dtype=np.float64)
    rows = (weight_shape[0], math.prod(weight_shape[1:]))
    if codes.ndim != 2:
        problem = f"{codes.ndim}-D weight codes, expected (out, in)"
    elif scale.size != codes.shape[0]:
        problem = f"{scale.size} scales for {codes.shape[0]} output channels"
    elif codes.shape != rows or len(weight_shape) != (4 if geometry else 2):
        problem = f"{codes.shape} weight codes for weights {tuple(weight_shape)}"
    else:
        linear = ProgrammedLinear.from_state(
            config, activation_bits, signed_inputs, codes, scale
        )
        if not geometry:
            return linear
        return ProgrammedConv.from_state(linear, tuple(weight_shape), *geometry)
    raise SnapshotCorruptError(f"layer {layer_id!r} stores {problem}")


def linear_engine(
    weight: np.ndarray,
    config: Optional[MacroConfig] = None,
    activation_bits: int = 8,
    signed_inputs: bool = False,
    *,
    layer_id: str = "functional",
    cache: Optional[EngineCache] = None,
    fingerprint: Optional[str] = None,
) -> ProgrammedLinear:
    """Fetch (or program on first use) a cached linear engine."""
    config = config if config is not None else MacroConfig()
    cache = resolve_cache(cache)
    if fingerprint is None:
        fingerprint = weight_fingerprint(weight)
    key = engine_key(layer_id, fingerprint, config, activation_bits, signed_inputs)
    return cache.get_or_program(
        key,
        lambda: ProgrammedLinear(weight, config, activation_bits, signed_inputs),
    )


def conv_engine(
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    config: Optional[MacroConfig] = None,
    activation_bits: int = 8,
    signed_inputs: bool = False,
    *,
    layer_id: str = "functional",
    cache: Optional[EngineCache] = None,
    fingerprint: Optional[str] = None,
) -> ProgrammedConv:
    """Fetch (or program on first use) a cached convolution engine."""
    config = config if config is not None else MacroConfig()
    cache = resolve_cache(cache)
    if fingerprint is None:
        fingerprint = weight_fingerprint(weight)
    key = engine_key(
        layer_id, fingerprint, config, activation_bits, signed_inputs, stride, padding
    )
    return cache.get_or_program(
        key,
        lambda: ProgrammedConv(
            weight, stride, padding, config, activation_bits, signed_inputs
        ),
    )
