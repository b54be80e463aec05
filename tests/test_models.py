"""Tests for the model zoo and the analytic profiler."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import models, nn
from repro.nn.tensor import Tensor
from repro.rebranch import convert_to_rebranch
from repro.runtime.programming import fold_batchnorm

RNG = np.random.default_rng(3)


def _x(*shape):
    return Tensor(RNG.normal(size=shape))


class TestVgg:
    def test_forward_shape(self):
        model = models.vgg8(num_classes=10, width_mult=0.0625, rng=np.random.default_rng(0))
        out = model(_x(2, 3, 16, 16))
        assert out.shape == (2, 10)

    def test_input_size_agnostic(self):
        model = models.vgg8(num_classes=5, width_mult=0.0625, rng=np.random.default_rng(0))
        assert model(_x(1, 3, 32, 32)).shape == (1, 5)
        assert model(_x(1, 3, 16, 16)).shape == (1, 5)

    def test_six_conv_layers(self):
        model = models.vgg8(rng=np.random.default_rng(0))
        convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
        assert len(convs) == 6

    def test_full_size_channels(self):
        model = models.vgg8(rng=np.random.default_rng(0))
        assert model.conv_channels == [128, 128, 256, 256, 512, 512]

    def test_odd_layer_count_rejected(self):
        with pytest.raises(ValueError):
            models.VGG(channels=(64, 64, 128), rng=np.random.default_rng(0))

    def test_feature_extractor_is_features(self):
        model = models.vgg8(rng=np.random.default_rng(0))
        assert model.feature_extractor() is model.features


class TestResNet:
    def test_forward_shape(self):
        model = models.resnet18(num_classes=7, width_mult=0.0625, rng=np.random.default_rng(0))
        assert model(_x(2, 3, 16, 16)).shape == (2, 7)

    def test_resnet18_param_count_magnitude(self):
        model = models.resnet18(rng=np.random.default_rng(0))
        # Published ResNet-18 ~11.7M; CIFAR-style stem gives ~11.2M.
        assert 10e6 < model.num_parameters() < 12e6

    def test_resnet18_block_count(self):
        model = models.resnet18(rng=np.random.default_rng(0))
        blocks = [m for m in model.modules() if isinstance(m, models.BasicBlock)]
        assert len(blocks) == 8

    def test_resnet8_smaller_than_resnet18(self):
        big = models.resnet18(width_mult=0.25, rng=np.random.default_rng(0))
        small = models.resnet8(width_mult=0.25, rng=np.random.default_rng(0))
        assert small.num_parameters() < big.num_parameters()

    def test_projection_shortcut_on_stride(self):
        block = models.BasicBlock(8, 16, stride=2, rng=np.random.default_rng(0))
        out = block(_x(1, 8, 8, 8))
        assert out.shape == (1, 16, 4, 4)

    def test_identity_shortcut_same_channels(self):
        block = models.BasicBlock(8, 8, rng=np.random.default_rng(0))
        assert isinstance(block.shortcut, nn.Identity)


class TestDarknet:
    def test_darknet19_has_19_convs_with_classifier_equivalent(self):
        backbone = models.darknet19(rng=np.random.default_rng(0))
        convs = [m for m in backbone.modules() if isinstance(m, nn.Conv2d)]
        assert len(convs) == 18  # +1 prediction conv in the detector = 19

    def test_downsample_factor(self):
        backbone = models.darknet19(rng=np.random.default_rng(0))
        assert backbone.downsample == 32
        tiny = models.darknet_tiny(rng=np.random.default_rng(0))
        assert tiny.downsample == 64

    def test_forward_shape(self):
        backbone = models.darknet_tiny(width_mult=0.05, rng=np.random.default_rng(0))
        out = backbone(_x(1, 3, 64, 64))
        assert out.shape[2] == 1
        assert out.shape[1] == backbone.out_channels

    def test_unknown_layer_kind_rejected(self):
        with pytest.raises(ValueError):
            models.DarknetBackbone((("dw", 32),), rng=np.random.default_rng(0))


class TestYolo:
    def test_detector_output_grid(self):
        det = models.tiny_yolo(num_classes=4, width_mult=0.05, rng=np.random.default_rng(0))
        out = det(_x(1, 3, 64, 64))
        assert out.shape[1] == 9  # 5 + 4 classes

    def test_yolo_v2_param_count_near_paper(self):
        det = models.yolo_v2(rng=np.random.default_rng(0))
        # The paper quotes 46M weights for YOLO (DarkNet-19).
        assert 40e6 < det.num_parameters() < 55e6

    def test_encode_targets_marks_centre_cell(self):
        boxes = [np.array([[0.1, 0.1, 0.3, 0.3]])]
        labels = [np.array([1])]
        target = models.yolo.encode_targets(boxes, labels, grid_size=4, num_classes=3)
        assert target.shape == (1, 8, 4, 4)
        assert target[0, 4, 0, 0] == 1.0  # objectness in cell (0,0)
        assert target[0, 6, 0, 0] == 1.0  # class 1 one-hot

    def test_encode_rejects_degenerate_box(self):
        with pytest.raises(ValueError):
            models.yolo.encode_targets(
                [np.array([[0.5, 0.5, 0.5, 0.6]])], [np.array([0])], 4, 2
            )

    def test_yolo_loss_decreases_on_perfect_prediction(self):
        rng = np.random.default_rng(0)
        boxes = [np.array([[0.2, 0.2, 0.6, 0.6]])]
        labels = [np.array([0])]
        targets = models.yolo.encode_targets(boxes, labels, 2, 2)
        bad = Tensor(rng.normal(size=(1, 7, 2, 2)))
        # Construct near-perfect logits for the target.
        good_np = np.full((1, 7, 2, 2), -6.0)
        obj = targets[0, 4] > 0
        good_np[0, 0][obj] = 0.0  # sigmoid -> 0.5 = tx
        good_np[0, 1][obj] = 0.0
        good_np[0, 2][obj] = np.log(0.4 / 0.6)  # sigmoid -> 0.4 = w
        good_np[0, 3][obj] = np.log(0.4 / 0.6)
        good_np[0, 4][obj] = 6.0
        good_np[0, 5][obj] = 6.0
        good = Tensor(good_np)
        loss_bad = models.yolo.yolo_loss(bad, targets).item()
        loss_good = models.yolo.yolo_loss(good, targets).item()
        assert loss_good < loss_bad

    def test_decode_predictions_thresholds(self):
        raw = np.full((1, 7, 2, 2), -8.0)
        raw[0, 4, 0, 0] = 8.0  # one confident cell
        raw[0, 5, 0, 0] = 4.0
        detections = models.decode_predictions(raw, score_threshold=0.5)
        assert len(detections) == 1
        assert len(detections[0]) == 1
        det = detections[0][0]
        assert det.class_id == 0
        assert 0 <= det.x1 <= det.x2 <= 1


class TestProfile:
    def test_profile_matches_runtime_params(self):
        model = models.vgg8(num_classes=10, width_mult=0.125, rng=np.random.default_rng(0))
        profile = models.profile_model(model, (1, 3, 16, 16))
        assert profile.total_params == model.num_parameters()

    def test_profile_matches_runtime_shape(self):
        model = models.resnet18(
            num_classes=6, width_mult=0.0625, rng=np.random.default_rng(0)
        )
        profile = models.profile_model(model, (2, 3, 16, 16))
        out = model(_x(2, 3, 16, 16))
        assert profile.output_shape == out.shape

    def test_macs_scale_with_resolution(self):
        model = models.vgg8(width_mult=0.0625, rng=np.random.default_rng(0))
        small = models.profile_model(model, (1, 3, 16, 16))
        big = models.profile_model(model, (1, 3, 32, 32))
        conv_small = sum(l.macs for l in small.layers if l.kind == "conv")
        conv_big = sum(l.macs for l in big.layers if l.kind == "conv")
        assert conv_big == pytest.approx(4 * conv_small, rel=0.01)

    def test_weight_layers_have_matrix_shapes(self):
        model = models.vgg8(width_mult=0.0625, rng=np.random.default_rng(0))
        profile = models.profile_model(model, (1, 3, 16, 16))
        for layer in profile.weight_layers():
            rows, cols = layer.matrix_shape
            assert rows > 0 and cols > 0

    def test_trainable_flag_respects_freeze(self):
        model = models.vgg8(width_mult=0.0625, rng=np.random.default_rng(0))
        model.features.freeze()
        profile = models.profile_model(model, (1, 3, 16, 16))
        frozen_convs = [l for l in profile.layers if l.kind == "conv"]
        assert all(not l.trainable for l in frozen_convs)
        assert profile.total_params > profile.trainable_params

    def test_summary_renders(self):
        model = models.vgg8(width_mult=0.0625, rng=np.random.default_rng(0))
        profile = models.profile_model(model, (1, 3, 16, 16))
        text = profile.summary()
        assert "total" in text and "conv" in text

    def test_bad_input_shape_rejected(self):
        model = models.vgg8(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            models.profile_model(model, (3, 16, 16))


def _plain(model):
    return model


def _rebranch(model):
    convert_to_rebranch(model, rng=np.random.default_rng(1))
    return model


def _folded_rebranch(model):
    fold_batchnorm(model)
    return _rebranch(model)


#: The three forms of a zoo model the system simulator profiles.
PREPARE = {"plain": _plain, "rebranch": _rebranch, "folded_rebranch": _folded_rebranch}

#: sha256 prefix of every profile row (all fields) and the output shape,
#: per (zoo model, form) at the model's paper-scale ``INPUT_SHAPES``.
PROFILE_DIGESTS = {
    ("mobilenet", "plain"): "1511094f69a41bd7",
    ("mobilenet", "rebranch"): "1c84f738ede941a5",
    ("mobilenet", "folded_rebranch"): "92590080c7647ed5",
    ("resnet18", "plain"): "03cc770bb2d86116",
    ("resnet18", "rebranch"): "0fe5c2935ee15555",
    ("resnet18", "folded_rebranch"): "db2fb70f4aa28e4d",
    ("resnet8", "plain"): "e79dfb36bb3e8598",
    ("resnet8", "rebranch"): "0fba9d555b406fb9",
    ("resnet8", "folded_rebranch"): "678cc0e20a1efd6d",
    ("tiny_yolo", "plain"): "438bbcd2b2a439c8",
    ("tiny_yolo", "rebranch"): "079a33981915a13e",
    ("tiny_yolo", "folded_rebranch"): "4c79dbf0b050f2bc",
    ("vgg8", "plain"): "c3465ef4a7293239",
    ("vgg8", "rebranch"): "06e73208a01046fc",
    ("vgg8", "folded_rebranch"): "d93ec888efd85bb1",
    ("yolo", "plain"): "02f99e63952596ca",
    ("yolo", "rebranch"): "9e45377ea931fde2",
    ("yolo", "folded_rebranch"): "edfe9cee27e3658e",
}


def profile_digest(profile):
    rows = [dataclasses.astuple(layer) for layer in profile.layers]
    return hashlib.sha256(repr((rows, profile.output_shape)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("form", list(PREPARE))
@pytest.mark.parametrize("name", models.available_models())
def test_profile_rows_are_pinned(name, form):
    """Every row the area, latency and energy models read stays put."""
    model = PREPARE[form](models.build_model(name, rng=np.random.default_rng(0)))
    profile = models.profile_model(model, models.INPUT_SHAPES[name])
    assert profile_digest(profile) == PROFILE_DIGESTS[name, form]


class TestRegistry:
    def test_available_models(self):
        names = models.available_models()
        assert set(names) == {
            "vgg8",
            "resnet18",
            "resnet8",
            "mobilenet",
            "yolo",
            "tiny_yolo",
        }

    def test_build_by_name(self):
        model = models.build_model("resnet8", num_classes=4, width_mult=0.0625)
        assert model(_x(1, 3, 16, 16)).shape == (1, 4)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model"):
            models.build_model("alexnet")
