"""Tests for ReBranch and the alternative flexibility options."""

import numpy as np
import pytest

from repro import models, nn
from repro.nn.tensor import Tensor
from repro.rebranch import (
    ReBranchConv2d,
    SpwdConv2d,
    TcamDistanceClassifier,
    RoslClassifier,
    TrainConfig,
    TransferTrainer,
    apply_all_rom,
    apply_all_sram,
    apply_atl,
    apply_deep_conv,
    apply_rebranch,
    convert_to_rebranch,
    convert_to_spwd,
    evaluate_accuracy,
    method_footprint,
    rebranch_modules,
)

RNG = np.random.default_rng(17)


def _conv(in_c=8, out_c=8, k=3, stride=1):
    return nn.Conv2d(in_c, out_c, k, stride=stride, padding=k // 2, rng=np.random.default_rng(0))


def _x(*shape):
    return Tensor(RNG.normal(size=shape))


class TestReBranchConv2d:
    def test_initially_identical_to_trunk(self):
        trunk = _conv()
        reference = trunk.weight.data.copy()
        layer = ReBranchConv2d(trunk, rng=np.random.default_rng(1))
        x = _x(2, 8, 6, 6)
        expected = nn.conv2d(x, Tensor(reference), trunk.bias, 1, 1)
        np.testing.assert_allclose(layer(x).data, expected.data)

    def test_trunk_frozen_branch_trainable(self):
        layer = ReBranchConv2d(_conv(), rng=np.random.default_rng(1))
        assert not layer.trunk.weight.requires_grad
        assert not layer.compress.weight.requires_grad
        assert not layer.decompress.weight.requires_grad
        assert layer.res_conv.weight.requires_grad

    def test_compression_ratio_near_du(self):
        layer = ReBranchConv2d(_conv(16, 16), d=4, u=4, rng=np.random.default_rng(1))
        # Trunk weights per trainable branch weight: ~D*U (Fig. 11a).
        ratio = layer.trunk.weight.size / layer.res_conv.weight.size
        assert ratio == pytest.approx(16.0, rel=0.1)

    def test_stride_preserved(self):
        layer = ReBranchConv2d(_conv(8, 16, 3, stride=2), rng=np.random.default_rng(1))
        out = layer(_x(1, 8, 8, 8))
        assert out.shape == (1, 16, 4, 4)

    def test_branch_changes_output_after_update(self):
        layer = ReBranchConv2d(_conv(), rng=np.random.default_rng(1))
        x = _x(1, 8, 6, 6)
        before = layer(x).data.copy()
        layer.res_conv.weight.data += 0.1
        after = layer(x).data
        assert not np.allclose(before, after)

    def test_gradients_only_reach_res_conv(self):
        layer = ReBranchConv2d(_conv(), rng=np.random.default_rng(1))
        layer(_x(1, 8, 6, 6)).sum().backward()
        assert layer.res_conv.weight.grad is not None
        assert layer.trunk.weight.grad is None

    def test_invalid_ratios(self):
        with pytest.raises(ValueError):
            ReBranchConv2d(_conv(), d=0)

    def test_small_channel_counts_clamped(self):
        layer = ReBranchConv2d(_conv(2, 2), d=8, u=8, rng=np.random.default_rng(1))
        assert layer.res_conv.in_channels == 1
        assert layer(_x(1, 2, 4, 4)).shape == (1, 2, 4, 4)

    def test_profile_forward_counts_all_four_convs(self):
        layer = ReBranchConv2d(_conv(8, 8), rng=np.random.default_rng(1))
        profile = models.profile_model(layer, (1, 8, 6, 6))
        conv_layers = [l for l in profile.layers if l.kind == "conv"]
        assert len(conv_layers) == 4
        assert [l.name for l in conv_layers] == [
            "trunk",
            "compress",
            "res_conv",
            "decompress",
        ]
        trunk, compress = conv_layers[:2]
        assert compress.in_shape == trunk.in_shape == (1, 8, 6, 6)


class TestConvert:
    def test_converts_spatial_convs_only(self):
        model = models.vgg8(num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0))
        n = convert_to_rebranch(model, skip_last=False, rng=np.random.default_rng(1))
        assert n == 6
        assert len(rebranch_modules(model)) == 6

    def test_function_preserved_after_conversion(self):
        model = models.vgg8(num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0))
        model.eval()
        x = _x(2, 3, 16, 16)
        before = model(x).data.copy()
        convert_to_rebranch(model, skip_last=False, rng=np.random.default_rng(1))
        model.eval()
        np.testing.assert_allclose(model(x).data, before, atol=1e-10)

    def test_skip_last_leaves_final_conv(self):
        model = models.vgg8(num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0))
        n = convert_to_rebranch(model, skip_last=True, rng=np.random.default_rng(1))
        assert n == 5

    def test_resnet_shortcuts_untouched(self):
        model = models.resnet18(
            num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0)
        )
        convert_to_rebranch(model, skip_last=False, rng=np.random.default_rng(1))
        for block in model.modules():
            if isinstance(block, models.BasicBlock) and isinstance(
                block.shortcut, nn.Module
            ):
                assert not isinstance(block.shortcut, ReBranchConv2d)

    def test_forward_works_after_resnet_conversion(self):
        model = models.resnet18(
            num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0)
        )
        convert_to_rebranch(model, rng=np.random.default_rng(1))
        assert model(_x(1, 3, 16, 16)).shape == (1, 5)

    def test_custom_predicate(self):
        model = models.vgg8(num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0))
        n = convert_to_rebranch(
            model, predicate=lambda name, conv: False, rng=np.random.default_rng(1)
        )
        assert n == 0


class TestPolicies:
    def _model(self):
        return models.vgg8(num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0))

    def test_all_sram_everything_trainable(self):
        model = apply_all_sram(self._model())
        assert model.num_parameters(trainable_only=True) == model.num_parameters()

    def test_all_rom_only_classifier(self):
        model = apply_all_rom(self._model())
        trainable = {n for n, p in model.named_parameters() if p.requires_grad}
        assert trainable
        assert all(name.startswith("classifier") for name in trainable)

    def test_deep_conv_unfreezes_last_spatial_conv(self):
        model = apply_deep_conv(self._model())
        convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
        assert convs[-1].weight.requires_grad
        assert not convs[0].weight.requires_grad

    def test_atl_freezes_prefix(self):
        model = apply_atl(self._model(), 3)
        convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
        assert all(not c.weight.requires_grad for c in convs[:3])
        assert all(c.weight.requires_grad for c in convs[3:])

    def test_atl_negative_rejected(self):
        with pytest.raises(ValueError):
            apply_atl(self._model(), -1)

    def test_rebranch_policy_trainable_fraction(self):
        model = apply_rebranch(self._model(), rng=np.random.default_rng(1))
        trainable = model.num_parameters(trainable_only=True)
        assert 0 < trainable < 0.4 * model.num_parameters()


class TestSpwd:
    def test_decoration_initially_zero(self):
        layer = SpwdConv2d(_conv(), rng=np.random.default_rng(1))
        x = _x(1, 8, 6, 6)
        expected = layer.trunk(x)
        np.testing.assert_allclose(layer(x).data, expected.data)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            SpwdConv2d(_conv(), bits=0)

    def test_decoration_is_low_bit(self):
        layer = SpwdConv2d(_conv(), bits=2, rng=np.random.default_rng(1))
        layer.decoration.weight.data = RNG.normal(size=layer.decoration.weight.shape)
        out = layer(_x(1, 8, 6, 6))
        assert out.shape == (1, 8, 6, 6)

    def test_convert_counts(self):
        model = models.vgg8(num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0))
        assert convert_to_spwd(model, rng=np.random.default_rng(1)) == 6

    def test_footprint_counts_low_bits(self):
        model = nn.Sequential(_conv())
        convert_to_spwd(model, bits=2, rng=np.random.default_rng(1))
        footprint = method_footprint(model, weight_bits=8)
        layer = model[0]
        assert footprint.sram_bits == layer.decoration.weight.size * 2
        assert footprint.rom_bits == (layer.trunk.weight.size + layer.trunk.bias.size) * 8


class TestRosl:
    def test_tcam_stores_and_classifies(self):
        tcam = TcamDistanceClassifier(feature_dim=16, num_classes=3)
        rng = np.random.default_rng(0)
        prototypes = rng.normal(size=(3, 16))
        features = np.repeat(prototypes, 5, axis=0) + 0.05 * rng.normal(size=(15, 16))
        labels = np.repeat(np.arange(3), 5)
        tcam.fit(features, labels)
        assert (tcam.predict(features) == labels).mean() > 0.9

    def test_unfitted_classes_never_predicted(self):
        tcam = TcamDistanceClassifier(feature_dim=8, num_classes=4)
        tcam.fit(np.ones((2, 8)), np.array([0, 0]))
        preds = tcam.predict(np.random.default_rng(0).normal(size=(5, 8)))
        assert (preds == 0).all()

    def test_tcam_bits(self):
        tcam = TcamDistanceClassifier(feature_dim=10, num_classes=4)
        assert tcam.tcam_bits == 2 * 4 * 10

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            TcamDistanceClassifier(0, 3)

    def test_feature_dim_mismatch(self):
        tcam = TcamDistanceClassifier(8, 2)
        with pytest.raises(ValueError):
            tcam.fit(np.ones((2, 9)), np.array([0, 1]))

    def test_rosl_end_to_end(self):
        conv = nn.Conv2d(1, 4, 3, padding=1, rng=np.random.default_rng(0))
        # Deterministic mean-sign detectors: channels respond to the
        # input's global sign with alternating polarity.
        conv.weight.data = np.stack(
            [((-1.0) ** c / 9.0) * np.ones((1, 3, 3)) for c in range(4)]
        )
        conv.bias.data = np.zeros(4)
        extractor = nn.Sequential(conv, nn.GlobalAvgPool2d(), nn.Flatten())
        rosl = RoslClassifier(extractor, feature_dim=4, num_classes=2)
        rng = np.random.default_rng(1)
        x0 = rng.normal(loc=-1.0, size=(10, 1, 8, 8))
        x1 = rng.normal(loc=1.0, size=(10, 1, 8, 8))
        x = np.concatenate([x0, x1])
        y = np.array([0] * 10 + [1] * 10)
        rosl.fit(x, y)
        assert rosl.accuracy(x, y) > 0.8
        # Extractor must remain frozen (ROM).
        assert all(not p.requires_grad for p in extractor.parameters())


class TestTrainer:
    def test_requires_trainable_params(self):
        model = models.vgg8(num_classes=3, width_mult=0.0625, rng=np.random.default_rng(0))
        model.freeze()
        with pytest.raises(ValueError):
            TransferTrainer(model)

    def test_short_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Flatten(), nn.Linear(12, 16, rng=rng), nn.ReLU(), nn.Linear(16, 2, rng=rng)
        )
        x = rng.normal(size=(64, 3, 2, 2))
        y = (x.reshape(64, -1)[:, 0] > 0).astype(int)
        result = TransferTrainer(model, TrainConfig(epochs=12, lr=1e-2)).fit(x, y, x, y)
        assert result.losses[-1] < result.losses[0]
        assert result.test_accuracy > 0.8

    def test_frozen_weights_unchanged_during_training(self):
        rng = np.random.default_rng(0)
        model = models.vgg8(num_classes=3, width_mult=0.0625, rng=rng)
        apply_all_rom(model)
        frozen_before = model.features[0].conv.weight.data.copy()
        x = rng.normal(size=(32, 3, 16, 16))
        y = rng.integers(0, 3, size=32)
        TransferTrainer(model, TrainConfig(epochs=2)).fit(x, y)
        np.testing.assert_array_equal(model.features[0].conv.weight.data, frozen_before)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    def test_evaluate_accuracy(self):
        model = nn.Sequential(nn.Flatten(), nn.Linear(4, 2, rng=np.random.default_rng(0)))
        model[1].weight.data = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])
        model[1].bias.data = np.zeros(2)
        x = np.zeros((4, 1, 2, 2))
        x[:2, 0, 0, 0] = 5.0
        x[2:, 0, 0, 0] = -5.0
        y = np.array([0, 0, 1, 1])
        assert evaluate_accuracy(model, x, y) == 1.0


class TestFootprint:
    def test_rebranch_saves_area_vs_all_sram(self):
        base = models.vgg8(num_classes=5, width_mult=0.125, rng=np.random.default_rng(0))
        all_sram = method_footprint(apply_all_sram(base))
        branched = models.vgg8(num_classes=5, width_mult=0.125, rng=np.random.default_rng(0))
        apply_rebranch(branched, rng=np.random.default_rng(1))
        rebranch = method_footprint(branched)
        # Paper: ~10x memory area saving vs the all-SRAM baseline.
        assert rebranch.normalized_to(all_sram) < 0.35

    def test_all_rom_smallest(self):
        model = models.vgg8(num_classes=5, width_mult=0.125, rng=np.random.default_rng(0))
        apply_all_rom(model)
        footprint = method_footprint(model)
        assert footprint.rom_area_mm2 < footprint.sram_area_mm2 * 20
        assert footprint.total_bits == model.num_parameters() * 8
