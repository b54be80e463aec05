"""ResNet-18 (and the small ResNet-8) classifiers.

The residual block here is also the *motivation* for the paper's
ReBranch structure (Fig. 3): a fixed trunk plus a parallel learnable
correction path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro import nn
from repro.models.common import ConvBNAct, scaled


class BasicBlock(nn.Module):
    """Two 3x3 convolutions with an identity (or 1x1-projected) shortcut."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.conv1 = ConvBNAct(in_channels, out_channels, 3, stride=stride, rng=rng)
        self.conv2 = ConvBNAct(out_channels, out_channels, 3, act="none", rng=rng)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: nn.Module = ConvBNAct(
                in_channels, out_channels, 1, stride=stride, padding=0, act="none", rng=rng
            )
        else:
            self.shortcut = nn.Identity()
        self.act = nn.ReLU()

    def forward(self, x):
        out = self.conv2(self.conv1(x))
        return self.act(out + self.shortcut(x))

    def plan_forward(self, builder, x):
        """Declare the residual dataflow for the deployment runtime.

        The input fans out to the main path and the shortcut; the two
        rejoin at an explicit add before the activation.  Declaration
        order (conv1, conv2, shortcut, add, act) fixes the execution
        and RNG-draw order on both the compiled and reference paths.
        """
        out = builder.child(self.conv1, "conv1", x)
        out = builder.child(self.conv2, "conv2", out)
        shortcut = builder.child(self.shortcut, "shortcut", x)
        out = builder.add(out, shortcut, name="add")
        return builder.child(self.act, "act", out)


class ResNet(nn.Module):
    """CIFAR-style ResNet: 3x3 stem, four stages of BasicBlocks, linear head."""

    STAGE_CHANNELS = (64, 128, 256, 512)

    def __init__(
        self,
        blocks_per_stage: Sequence[int],
        num_classes: int = 100,
        in_channels: int = 3,
        width_mult: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        widths = [scaled(c, width_mult) for c in self.STAGE_CHANNELS]
        self.stem = ConvBNAct(in_channels, widths[0], 3, rng=rng)

        stages: List[nn.Module] = []
        previous = widths[0]
        for stage_index, (width, depth) in enumerate(zip(widths, blocks_per_stage)):
            for block_index in range(depth):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                stages.append(BasicBlock(previous, width, stride=stride, rng=rng))
                previous = width
        self.stages = nn.Sequential(*stages)
        self.pool = nn.GlobalAvgPool2d()
        self.flatten = nn.Flatten()
        self.fc = nn.Linear(previous, num_classes, rng=rng)
        self.num_classes = num_classes
        self.stage_widths = widths

    def forward(self, x):
        x = self.stages(self.stem(x))
        return self.fc(self.flatten(self.pool(x)))

    #: forward applies the children in registration order.
    plan_forward = nn.plan_serial

    def feature_extractor(self) -> nn.Module:
        return nn.Sequential(self.stem, self.stages)


def resnet18(
    num_classes: int = 100,
    in_channels: int = 3,
    width_mult: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> ResNet:
    """ResNet-18: 2 blocks per stage (8 blocks, 17 convs + fc)."""
    return ResNet(
        (2, 2, 2, 2),
        num_classes=num_classes,
        in_channels=in_channels,
        width_mult=width_mult,
        rng=rng,
    )


def resnet8(
    num_classes: int = 100,
    in_channels: int = 3,
    width_mult: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> ResNet:
    """ResNet-8: 1 block in the first three stages (the paper's Fig. 10 text)."""
    return ResNet(
        (1, 1, 1, 0),
        num_classes=num_classes,
        in_channels=in_channels,
        width_mult=width_mult,
        rng=rng,
    )
