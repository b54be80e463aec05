"""Layer-level execution on tiled CiM subarrays.

A network layer's weight matrix (rows = flattened input patch, cols =
output channels) rarely fits one 128 x 32-word subarray.
:class:`CimTiledMatmul` splits it into subarray tiles, runs each tile
through the functional :class:`~repro.cim.macro.CimMacro`, accumulates
partial sums digitally across row tiles (the "Shift & Add" block of
Fig. 5 extended across subarrays), and aggregates energy/latency stats.

Row tiles of the same output column can live in different subarrays and
activate simultaneously, so latency counts one tile's serial passes
while energy counts all tiles — matching the paper's high-parallelism
mapping ("storing the weights of different layers to the same sub-array
... to achieve high ADC utilization").
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.cim.encoding import ActivationEncoding
from repro.cim.macro import CimMacro, MacroConfig, MacroStats, checked_weight_codes
from repro.nn import functional as F
from repro.quant.quantizer import QuantSpec, quantize


def validate_groups(out_channels: int, in_per_group: int, groups: int, in_channels: int) -> None:
    """Shared validation of a grouped convolution's channel layout.

    One source for both the reference path and the runtime's per-group
    lowering, so their error behaviour cannot drift.
    """
    if groups < 1 or out_channels % groups:
        raise ValueError(
            f"groups={groups} must be >= 1 and divide out channels "
            f"({out_channels})"
        )
    if in_channels != in_per_group * groups:
        raise ValueError(
            f"input has {in_channels} channels but the grouped weight "
            f"expects {in_per_group * groups} ({groups} groups x "
            f"{in_per_group})"
        )


@dataclass
class _Tile:
    macro: CimMacro
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int


class CimTiledMatmul:
    """An integer weight matrix mapped onto CiM subarray tiles.

    Parameters
    ----------
    weights:
        Integer matrix (R, C) — rows are inputs, columns outputs; held
        once, narrowed to ``config``'s storage width
        (:attr:`~repro.cim.macro.MacroConfig.codes_dtype`).
    config:
        Subarray configuration shared by all tiles.
    """

    def __init__(
        self,
        weights: np.ndarray,
        config: Optional[MacroConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.config = config if config is not None else MacroConfig()
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got {weights.shape}")
        # One range scan over the whole matrix; a tile is within capacity
        # by construction.
        self._adopt(checked_weight_codes(self.config, weights), rng)

    @classmethod
    def from_state(cls, weights: np.ndarray, config: MacroConfig) -> "CimTiledMatmul":
        """The tiled engine over *trusted* ``(R, C)`` integer codes
        already at the storage width (a snapshot restore):
        :meth:`__init__` minus the scan."""
        engine = cls.__new__(cls)
        engine.config = config
        engine._adopt(weights, None)
        return engine

    def _adopt(self, weights: np.ndarray, rng) -> None:
        """Adopt validated integer ``weights``; the subarray tiles are
        placed on the first read of :attr:`tiles`."""
        self.weights = weights
        self.shape = weights.shape
        self._rng = rng
        self._tiles: Optional[List[_Tile]] = None

    def tile_bounds(self) -> List[Tuple[int, int, int, int]]:
        """``(row_start, row_stop, col_start, col_stop)`` of every tile,
        row-major: the grid :attr:`tiles` places, read without placing it."""
        rows, cols = self.shape
        tile_r = self.config.rows
        tile_c = self.config.logical_columns
        return [
            (r0, min(r0 + tile_r, rows), c0, min(c0 + tile_c, cols))
            for r0 in range(0, rows, tile_r)
            for c0 in range(0, cols, tile_c)
        ]

    @property
    def tiles(self) -> List[_Tile]:
        """The programmed subarrays, laid out on the first read — the
        reference path's; the fast kernel reads the codes — and published
        by one attribute store, so racing threads lay out equal tiles.
        No tile derives a bit plane until the reference path reads it."""
        if self._tiles is None:
            # One generator shared by every tile; the runtime always
            # passes an execution rng, so it is only the fallback for
            # direct macro use.
            rng = self._rng if self._rng is not None else np.random.default_rng()
            tiles = []
            for r0, r1, c0, c1 in self.tile_bounds():
                codes = self.weights[r0:r1, c0:c1]
                macro = CimMacro.from_state(self.config, codes, rng)
                tiles.append(_Tile(macro, r0, r1, c0, c1))
            self._tiles = tiles
        return self._tiles

    def with_config(self, config: MacroConfig) -> "CimTiledMatmul":
        """A per-call view of this engine sensing through ``config``:
        every tile rebound to a :meth:`CimMacro.with_config` view, so a
        run that needs other circuit parameters (a chaos degradation
        window) never touches the shared engine."""
        view = copy.copy(self)
        view.config = config
        view._tiles = [
            replace(tile, macro=tile.macro.with_config(config)) for tile in self.tiles
        ]
        return view

    @property
    def n_subarrays(self) -> int:
        return self.n_row_tiles * -(-self.shape[1] // self.config.logical_columns)

    @property
    def n_row_tiles(self) -> int:
        return -(-self.shape[0] // self.config.rows)

    def matmul(
        self,
        x: np.ndarray,
        encoding: Optional["ActivationEncoding"] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> Tuple[np.ndarray, MacroStats]:
        """Compute ``weights.T @ x`` (x: (R,) or (R, N)) through all tiles.

        ``encoding`` selects the word-line activation scheme (section
        3.1); the default is the bit-serial stream of Table I.  The
        pulse encodings require unsigned activations.  ``rng``
        optionally overrides each tile's construction-time generator
        for this call's noise draws (used by the compile-once runtime
        to attach a session RNG to long-lived programmed engines).
        """
        x = np.asarray(x)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[:, None]
        if x.shape[0] != self.shape[0]:
            raise ValueError(
                f"input rows {x.shape[0]} do not match weight rows {self.shape[0]}"
            )
        out = np.zeros((self.shape[1], x.shape[1]))
        total = MacroStats()
        max_tile_latency = 0.0
        for tile in self.tiles:
            x_slice = x[tile.row_start : tile.row_stop]
            if encoding is None:
                partial, stats = tile.macro.matmul(x_slice, rng=rng)
            else:
                partial, stats = encoding.matmul(tile.macro, x_slice, rng=rng)
            out[tile.col_start : tile.col_stop] += partial
            max_tile_latency = max(max_tile_latency, stats.latency_ns)
            total = total + stats
        # Tiles run in parallel subarrays: wall-clock is the slowest tile
        # (a one-tile sum already says so; MacroStats is immutable).
        if total.latency_ns != max_tile_latency:
            total = replace(total, latency_ns=max_tile_latency)
        return (out[:, 0] if squeeze else out), total


def reference_cim_linear(
    x: np.ndarray,
    weight: np.ndarray,
    config: Optional[MacroConfig] = None,
    activation_bits: int = 8,
    rng: Optional[np.random.Generator] = None,
    encoding: Optional[ActivationEncoding] = None,
) -> Tuple[np.ndarray, MacroStats]:
    """The seed per-call linear path: re-quantize and rebuild every call.

    Kept verbatim as the bit-exact oracle for the compile-once runtime's
    engines and as the baseline the runtime benchmarks measure against.
    """
    config = config if config is not None else MacroConfig()
    x = np.asarray(x, dtype=np.float64)
    signed_inputs = bool((x < 0).any())
    act_spec = QuantSpec(bits=activation_bits, signed=signed_inputs)
    x_codes, x_scale = quantize(x, act_spec)

    w_spec = QuantSpec(bits=config.weight_bits, signed=True, per_channel_axis=0)
    w_codes, w_scale = quantize(np.asarray(weight), w_spec)

    run_config = replace(
        config,
        input_bits=activation_bits,
        signed_weights=True,
        signed_inputs=signed_inputs,
    )
    engine = CimTiledMatmul(w_codes.T, run_config, rng=rng)
    y_codes, stats = engine.matmul(x_codes.T, encoding=encoding)  # (out, N)
    scale = float(x_scale) * w_scale.reshape(-1, 1)
    return (y_codes * scale).T, stats


def reference_cim_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    config: Optional[MacroConfig] = None,
    activation_bits: int = 8,
    rng: Optional[np.random.Generator] = None,
    encoding: Optional[ActivationEncoding] = None,
    groups: int = 1,
) -> Tuple[np.ndarray, MacroStats]:
    """The seed per-call convolution path (see :func:`reference_cim_linear`).

    ``groups`` partitions channels into independent convolutions (a
    depthwise conv is ``groups == in_channels``): group ``g`` runs its
    channel slice through its own macro set, in group index order
    against the shared ``rng``, with per-group batch-global activation
    quantization and per-group signedness — the exact semantics the
    compiled runtime's per-group engines implement.  Stats sum over
    groups (sequential word-line streaming).
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n = x.shape[0]
    oc, icg, kh, kw = weight.shape
    if groups != 1:
        validate_groups(oc, icg, groups, x.shape[1])
        ocg = oc // groups
        outs = []
        total = MacroStats()
        for g in range(groups):
            out, stats = reference_cim_conv2d(
                x[:, g * icg : (g + 1) * icg],
                weight[g * ocg : (g + 1) * ocg],
                stride=stride,
                padding=padding,
                config=config,
                activation_bits=activation_bits,
                rng=rng,
                encoding=encoding,
            )
            total = total + stats
            outs.append(out)
        return np.concatenate(outs, axis=1), total
    cols, (out_h, out_w) = F.im2col(
        x, (kh, kw), (stride, stride), (padding, padding)
    )  # (N, C*kh*kw, P)
    patches = cols.transpose(0, 2, 1).reshape(-1, icg * kh * kw)  # (N*P, K)
    flat, stats = reference_cim_linear(
        patches, weight.reshape(oc, -1), config, activation_bits, rng, encoding
    )
    out = flat.reshape(n, out_h * out_w, oc).transpose(0, 2, 1)
    return out.reshape(n, oc, out_h, out_w), stats
