"""The ReBranch convolution (Fig. 7).

``out = trunk(x) + decompress(res_conv(compress(x)))``

* ``trunk`` — the pretrained convolution, frozen (ROM-CiM).
* ``compress`` — frozen point-wise conv N -> N/D (ROM-CiM).  Its weights
  are fixed at mask time, *before* any target task is known, so they are
  a task-agnostic random projection (scaled for variance preservation).
* ``res_conv`` — trainable conv N/D -> M/U with the trunk's kernel,
  stride and padding (SRAM-CiM).  Initialized to zero so the wrapped
  layer starts exactly equal to the pretrained trunk.
* ``decompress`` — frozen point-wise conv M/U -> M (ROM-CiM).

As Fig. 8 shows, the branch is algebraically a full-size convolution of
rank limited by the compression, so it can adjust the trunk "to a
certain extent" with only 1/(D*U) of the parameters trainable.
"""

from __future__ import annotations

import operator
from typing import Optional, Tuple

import numpy as np

from repro import nn


def _fixed_projection(
    out_channels: int, in_channels: int, rng: np.random.Generator
) -> np.ndarray:
    """Variance-preserving random point-wise projection (frozen in ROM)."""
    weight = rng.normal(0.0, 1.0 / np.sqrt(in_channels), size=(out_channels, in_channels))
    return weight.reshape(out_channels, in_channels, 1, 1)


def branch_widths(in_channels: int, out_channels: int, d: int, u: int) -> Tuple[int, int]:
    """The branch's compressed and decompressed widths: ``N / D`` and
    ``M / U`` channels, at least one each."""
    return max(1, in_channels // d), max(1, out_channels // u)


class ReBranchConv2d(nn.Module):
    """Drop-in replacement for a pretrained Conv2d with a residual branch."""

    def __init__(
        self,
        trunk: nn.Conv2d,
        d: int = 4,
        u: int = 4,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if d < 1 or u < 1:
            raise ValueError(f"compression ratios must be >= 1, got D={d}, U={u}")
        rng = rng if rng is not None else np.random.default_rng()

        in_channels = trunk.in_channels
        out_channels = trunk.out_channels
        compressed, decompressed = branch_widths(in_channels, out_channels, d, u)

        self.d = d
        self.u = u

        # Trunk: the pretrained weights, frozen (ROM).
        self.trunk = trunk
        self.trunk.freeze()

        # Branch: compress (frozen) -> res-conv (trainable) -> decompress
        # (frozen).
        self.compress = nn.Conv2d(in_channels, compressed, 1, bias=False, rng=rng)
        self.compress.weight.data = _fixed_projection(compressed, in_channels, rng)
        self.compress.freeze()

        self.res_conv = nn.Conv2d(
            compressed,
            decompressed,
            trunk.kernel_size,
            stride=trunk.stride,
            padding=trunk.padding,
            bias=False,
            rng=rng,
        )
        self.res_conv.weight.data = np.zeros_like(self.res_conv.weight.data)

        self.decompress = nn.Conv2d(decompressed, out_channels, 1, bias=False, rng=rng)
        self.decompress.weight.data = _fixed_projection(
            out_channels, decompressed, rng
        )
        self.decompress.freeze()

    #: The wrapped layer's geometry is its trunk's, read through.
    in_channels, out_channels, kernel_size, stride, padding = (
        property(operator.attrgetter(f"trunk.{name}"))
        for name in ("in_channels", "out_channels", "kernel_size", "stride", "padding")
    )

    def forward(self, x):
        return self.trunk(x) + self.decompress(self.res_conv(self.compress(x)))

    def plan_forward(self, builder, x):
        """The trunk, and compress -> res_conv -> decompress, joined by
        an add.  The compiler, the reference walker and the analytic
        profile all walk this, placing each conv by its own freeze flag
        (Fig. 9: the frozen trunk and projections on ROM, the trainable
        res-conv on SRAM)."""
        out = builder.child(self.trunk, "trunk", x)
        branch = builder.child(self.compress, "compress", x)
        branch = builder.child(self.res_conv, "res_conv", branch)
        branch = builder.child(self.decompress, "decompress", branch)
        return builder.add(out, branch, name="add")

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, D={self.d}, U={self.u}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}"
        )
