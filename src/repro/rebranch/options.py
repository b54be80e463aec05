"""The four flexibility options of section 3.2 as freezing/conversion policies.

Each ``apply_*`` function takes a *pretrained* model and mutates it into
the corresponding deployment: parameters that would live in ROM-CiM are
frozen, parameters that stay in SRAM-CiM remain trainable.  All return
the model for chaining.

The experiment runners (Figs. 6b, 10, 12) train only the parameters
with ``requires_grad=True`` afterwards, exactly like the paper's
transfer-learning protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro import nn
from repro.quant.fake_quant import fake_quant
from repro.rebranch.convert import convert_to_rebranch


def _weight_modules(model: nn.Module):
    return [
        (name, m)
        for name, m in model.named_modules()
        if isinstance(m, (nn.Conv2d, nn.Linear))
    ]


def _classifier_modules(model: nn.Module):
    """Heuristic: the trailing Linear layers (or final conv for FCNs)."""
    weights = _weight_modules(model)
    linears = [(n, m) for n, m in weights if isinstance(m, nn.Linear)]
    if linears:
        return linears
    return weights[-1:]


def apply_all_sram(model: nn.Module) -> nn.Module:
    """Baseline [3]: every layer trainable, everything in SRAM-CiM."""
    return model.unfreeze()


def apply_all_rom(model: nn.Module) -> nn.Module:
    """Option II extreme: only the classifier trains (feature extractor
    fully frozen in ROM).  The paper's Fig. 10 'All ROM' bar."""
    model.freeze()
    for _, module in _classifier_modules(model):
        module.unfreeze()
    return model


def apply_deep_conv(model: nn.Module) -> nn.Module:
    """Option II practical point: last conv group + classifier trainable
    ('DeepConv' in Figs. 10 and 12)."""
    model.freeze()
    convs = [(n, m) for n, m in _weight_modules(model) if isinstance(m, nn.Conv2d)]
    spatial = [(n, m) for n, m in convs if m.kernel_size != (1, 1)]
    if spatial:
        spatial[-1][1].unfreeze()
    elif convs:
        convs[-1][1].unfreeze()
    for _, module in _classifier_modules(model):
        module.unfreeze()
    return model


def apply_atl(model: nn.Module, n_frozen_convs: int) -> nn.Module:
    """Option II general: freeze the first ``n_frozen_convs`` conv layers
    (high transferability, Fig. 6b), train the rest."""
    if n_frozen_convs < 0:
        raise ValueError("cannot freeze a negative number of layers")
    model.unfreeze()
    convs = [(n, m) for n, m in _weight_modules(model) if isinstance(m, nn.Conv2d)]
    for _, module in convs[:n_frozen_convs]:
        module.freeze()
    return model


def apply_rebranch(
    model: nn.Module,
    d: int = 4,
    u: int = 4,
    skip_last: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> nn.Module:
    """Option IV (proposed): branch every feature conv, freeze everything
    except the res-convs, BN affine parameters, and the classifier."""
    convert_to_rebranch(model, d=d, u=u, skip_last=skip_last, rng=rng)
    # Conversion freezes trunks/projections; leave the rest trainable:
    # res-convs are trainable already, classifier + BN remain trainable.
    return model


# ----------------------------------------------------------------------
# Option III: SRAM-assisted parallel weight decoration (SPWD)
# ----------------------------------------------------------------------
class SpwdConv2d(nn.Module):
    """Frozen 8-bit ROM conv + trainable low-bit SRAM conv in parallel.

    ``out = trunk(x) + decoration(x)`` where the decoration weight is
    fake-quantized to ``bits`` (typically 2) during training — Fig. 6(c).
    The decoration has the same full shape as the trunk, so the area
    saving is bounded by the bit-width ratio (8/2 = 4x), the weakness
    ReBranch overcomes.
    """

    def __init__(
        self,
        trunk: nn.Conv2d,
        bits: int = 2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if bits < 1 or bits > 8:
            raise ValueError(f"decoration bits must be in [1, 8], got {bits}")
        rng = rng if rng is not None else np.random.default_rng()
        self.bits = bits
        self.trunk = trunk
        self.trunk.freeze()
        self.decoration = nn.Conv2d(
            trunk.in_channels,
            trunk.out_channels,
            trunk.kernel_size,
            stride=trunk.stride,
            padding=trunk.padding,
            bias=False,
            rng=rng,
        )
        self.decoration.weight.data = np.zeros_like(self.decoration.weight.data)

    def forward(self, x):
        quantized = fake_quant(self.decoration.weight, bits=self.bits)
        decorated = nn.conv2d(
            x, quantized, None, self.decoration.stride, self.decoration.padding
        )
        return self.trunk(x) + decorated

    def extra_repr(self) -> str:
        return f"bits={self.bits}"


def convert_to_spwd(
    model: nn.Module,
    bits: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> int:
    """Wrap every spatial conv with a low-bit decoration branch."""
    rng = rng if rng is not None else np.random.default_rng()
    # Snapshot candidates before mutating: inserting a SpwdConv2d nests
    # the original conv as its trunk, which a live walk would revisit.
    candidates = []
    for _, parent in model.named_modules():
        for child_name, child in parent._modules.items():
            if isinstance(child, nn.Conv2d) and child.kernel_size != (1, 1):
                candidates.append((parent, child_name, child))
    for parent, child_name, child in candidates:
        setattr(parent, child_name, SpwdConv2d(child, bits=bits, rng=rng))
    return len(candidates)


#: Method name -> applier, as used by the Fig. 10/12 experiment runners.
METHOD_APPLIERS: Dict[str, Callable[..., nn.Module]] = {
    "all_sram": apply_all_sram,
    "all_rom": apply_all_rom,
    "deep_conv": apply_deep_conv,
    "rebranch": apply_rebranch,
}
