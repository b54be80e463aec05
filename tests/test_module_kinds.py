"""Drift guard over the module-kind tables and the dataflow declarations.

A deployable leaf kind is declared in up to three places: a row of the
artifact vocabulary (``snapshot.MODULE_KINDS``), a row of the
engine-free op table (``reference.PURE_OPS``) or a weight-layer lowering
in ``_PlanBuilder.build`` / ``_ReferenceRunner.run``, and a leaf rule of
``profile_model``.  A composite declares its dataflow once, in
``plan_forward``, which the compiler, the reference walker and the
profile all read through ``reference.descend``.  These tests are
generated from the tables and from every module class under ``repro``,
so a kind added to one place and not the others — or a composite whose
dataflow only ``forward`` knows — fails here, by name
(docs/architecture.md, "Adding a module kind").
"""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro import nn
from repro.models.mobilenet import DepthwiseSeparable
from repro.models.profile import profile_model
from repro.models.resnet import BasicBlock
from repro.rebranch.branch import ReBranchConv2d
from repro.rebranch.options import SpwdConv2d
from repro.runtime import (
    EngineCache,
    RuntimeConfig,
    UnsupportedModuleError,
    compile_model,
    reference_forward,
)
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


# ----------------------------------------------------------------------
# Dataflow declarations
# ----------------------------------------------------------------------
#: Leaves the walkers lower besides the ``PURE_OPS`` rows (a
#: BatchNorm2d is folded into its conv before lowering).
WEIGHT_LEAVES = (nn.Conv2d, nn.Linear, nn.BatchNorm2d)

#: Classes that override ``forward`` and that every walker refuses, with
#: the reason none declares a dataflow.
REFUSED = {
    SpwdConv2d: (
        "forward fake-quantizes the decoration; a plan_forward would "
        "lower it at full precision and compute something else"
    ),
}


def forward_overriders():
    """Every ``nn.Module`` subclass defined under ``repro`` that
    overrides ``forward``, all of the package imported first."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, stack = set(), [nn.Module]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls not in found:
                found.add(cls)
                stack.append(cls)
    return sorted(
        (
            cls
            for cls in found
            if cls.__module__.startswith("repro.") and "forward" in vars(cls)
        ),
        key=lambda cls: f"{cls.__module__}.{cls.__qualname__}",
    )


@pytest.mark.parametrize(
    "cls", forward_overriders(), ids=lambda cls: f"{cls.__module__}.{cls.__name__}"
)
def test_forward_has_a_declared_dataflow(cls):
    lowered = cls in WEIGHT_LEAVES or cls in PURE_OPS
    declared = issubclass(cls, nn.Sequential) or (
        getattr(cls, "plan_forward", None) is not None
    )
    assert lowered + declared + (cls in REFUSED) == 1, (
        f"{cls.__name__} overrides forward: make it a leaf the walkers "
        f"lower, declare plan_forward, or add it to REFUSED with a reason"
    )


class _Undeclared(nn.Module):
    """Sums two stride-2 convolutions; declares no dataflow."""

    def __init__(self, rng):
        super().__init__()
        self.a = nn.Conv2d(4, 4, 3, stride=2, padding=1, rng=rng)
        self.b = nn.Conv2d(4, 4, 3, stride=2, padding=1, rng=rng)

    def forward(self, x):
        return self.a(x) + self.b(x)


UNDECLARED = {
    "undeclared_composite": _Undeclared,
    "spwd_conv": lambda rng: SpwdConv2d(nn.Conv2d(4, 4, 3, padding=1, rng=rng), rng=rng),
}


def test_every_refused_kind_is_exercised():
    kinds = {type(make(np.random.default_rng(0))) for make in UNDECLARED.values()}
    assert set(REFUSED) <= kinds


@pytest.mark.parametrize("kind", list(UNDECLARED))
def test_undeclared_dataflow_is_refused_by_every_walker(kind):
    """Refused, never walked as a guessed chain: chaining
    ``_Undeclared``'s convs would report a (1, 4, 2, 2) output for a
    module that returns (1, 4, 4, 4)."""
    model = UNDECLARED[kind](np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(1, 4, 8, 8))
    with pytest.raises(UnsupportedModuleError):
        profile_model(model, x.shape)
    with pytest.raises(UnsupportedModuleError):
        compile_model(model, cache=EngineCache())
    with pytest.raises(UnsupportedModuleError):
        reference_forward(model, x)
