"""Drift guard over the two module-kind tables.

A deployable module kind is declared in up to three places: a row of
the artifact vocabulary (``snapshot.MODULE_KINDS``), a row of the
engine-free op table (``reference.PURE_OPS``) or a weight-layer lowering
in ``_PlanBuilder.build`` / ``_ReferenceRunner.run``, and a
``profile_model`` rule.  These tests are generated from the tables, so a
kind added to one place and not the others fails here, by name
(docs/architecture.md, "Adding a module kind").
"""

import numpy as np
import pytest

from repro import nn
from repro.models.mobilenet import DepthwiseSeparable
from repro.models.profile import profile_model
from repro.models.resnet import BasicBlock
from repro.rebranch.branch import ReBranchConv2d
from repro.runtime import EngineCache, RuntimeConfig, compile_model, reference_forward
from repro.runtime.reference import PURE_OPS
from repro.runtime.snapshot import MODULE_KINDS, _restore_module, _TreeWriter

CHANNELS, HW = 2, 6


class SerialUnit(nn.Module):
    """A custom serial composite: the generic ``composite`` row."""

    plan_forward = nn.plan_serial

    def __init__(self, rng):
        super().__init__()
        self.conv = nn.Conv2d(CHANNELS, 3, 1, rng=rng)
        self.act = nn.ReLU()

    def forward(self, x):
        return self.act(self.conv(x))


#: kind -> a minimal instance taking a ``(N, CHANNELS, HW, HW)`` image
#: (``linear`` takes it flattened).  Pool geometry is spelled the three
#: ways the header stores it: an int, a pair, an unset stride.
MINIMAL = {
    "rebranch": lambda rng: ReBranchConv2d(
        nn.Conv2d(CHANNELS, 4, 3, padding=1, rng=rng), d=2, u=2, rng=rng
    ),
    "conv2d": lambda rng: nn.Conv2d(CHANNELS, 4, 3, stride=2, padding=1, groups=2, rng=rng),
    "linear": lambda rng: nn.Linear(CHANNELS * HW * HW, 3, bias=False, rng=rng),
    "batchnorm2d": lambda rng: nn.BatchNorm2d(CHANNELS, eps=1e-3, momentum=0.2),
    "leaky_relu": lambda rng: nn.LeakyReLU(0.2),
    "dropout": lambda rng: nn.Dropout(0.3),
    "max_pool": lambda rng: nn.MaxPool2d(2),
    "avg_pool": lambda rng: nn.AvgPool2d((3, 3), (3, 3)),
    "relu": lambda rng: nn.ReLU(),
    "sigmoid": lambda rng: nn.Sigmoid(),
    "tanh": lambda rng: nn.Tanh(),
    "identity": lambda rng: nn.Identity(),
    "flatten": lambda rng: nn.Flatten(),
    "global_avg_pool": lambda rng: nn.GlobalAvgPool2d(),
    "basic_block": lambda rng: BasicBlock(CHANNELS, 4, stride=2, rng=rng),
    "depthwise_separable": lambda rng: DepthwiseSeparable(CHANNELS, 4, rng=rng),
    "composite": SerialUnit,
}


def image(n=2):
    return np.random.default_rng(7).normal(size=(n, CHANNELS, HW, HW))


def model_around(kind, instance, rng):
    """A deployable model with ``instance`` on its dataflow path, behind
    a stem convolution (so a BatchNorm2d has a conv to fold into and a
    pure op has engine stats to agree on)."""
    layers = [nn.Conv2d(CHANNELS, CHANNELS, 3, padding=1, rng=rng)]
    if kind == "linear":
        layers.append(nn.Flatten())
    model = nn.Sequential(*layers, instance)
    model.eval()
    return model


def test_every_kind_has_a_minimal_instance():
    assert sorted(MINIMAL) == sorted(MODULE_KINDS)


@pytest.mark.parametrize("kind", list(MODULE_KINDS))
class TestCodecRow:
    def test_spec_restore_spec_is_the_identity(self, kind):
        instance = MINIMAL[kind](np.random.default_rng(0))
        assert isinstance(instance, MODULE_KINDS[kind].cls)
        writer = _TreeWriter()
        spec = writer.spec(instance)
        assert spec["kind"] == kind
        restored = _restore_module(spec, writer.arrays)
        again = _TreeWriter()
        assert again.spec(restored) == spec
        assert list(again.arrays) == list(writer.arrays)
        for name, array in writer.arrays.items():
            assert np.array_equal(again.arrays[name], array)
        assert [name for name, _ in restored.named_parameters()] == [
            name for name, _ in instance.named_parameters()
        ]

    def test_compiles_bitwise_equal_to_the_reference_and_profiles(self, kind):
        rng = np.random.default_rng(0)
        model = model_around(kind, MINIMAL[kind](rng), rng)
        config = RuntimeConfig(fold_bn=True)
        compiled = compile_model(model, config, cache=EngineCache())
        x = image()
        out, stats = compiled.run(x, rng=np.random.default_rng(1))
        expected, expected_stats = reference_forward(
            model, x, rng=np.random.default_rng(1)
        )
        assert np.array_equal(out, expected)
        assert stats == expected_stats
        assert profile_model(model, x.shape).output_shape == out.shape


@pytest.mark.parametrize("cls", list(PURE_OPS), ids=lambda cls: cls.__name__)
class TestPureOpRow:
    def test_has_a_codec_row(self, cls):
        assert [kind for kind, row in MODULE_KINDS.items() if row.cls is cls], (
            f"{cls.__name__} has a reference.PURE_OPS row but no "
            f"snapshot.MODULE_KINDS row: it would compile and never save"
        )

    def test_matches_the_training_layer_and_its_sign_claim(self, cls):
        (kind,) = [kind for kind, row in MODULE_KINDS.items() if row.cls is cls]
        module = MINIMAL[kind](np.random.default_rng(0))
        module.eval()
        fn, sign = PURE_OPS[cls]
        x = image()
        out = fn(module, x)
        np.testing.assert_allclose(out, module(nn.Tensor(x)).data, rtol=1e-12)
        if sign is False:
            assert (out >= 0).all()
