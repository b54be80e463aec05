"""Tests for synthetic datasets and evaluation metrics."""

import numpy as np
import pytest

from repro.datasets import (
    DetectionTaskConfig,
    MotifBank,
    SyntheticDetectionTask,
    SyntheticTask,
    SyntheticTaskConfig,
    TransferSuite,
    classification_suite,
    detection_suite,
)
from repro.eval import (
    accuracy,
    average_precision,
    iou,
    mean_average_precision,
    nms,
)
from repro.models.yolo import Detection


class TestMotifBank:
    def test_shapes(self):
        bank = MotifBank(n_motifs=6, patch=5, channels=3, seed=0)
        assert bank.motifs.shape == (6, 3, 5, 5)
        assert len(bank) == 6

    def test_normalized(self):
        bank = MotifBank(seed=0)
        assert np.abs(bank.motifs).max() <= 1.0 + 1e-9

    def test_deterministic(self):
        a = MotifBank(seed=5).motifs
        b = MotifBank(seed=5).motifs
        np.testing.assert_array_equal(a, b)

    def test_too_few_motifs(self):
        with pytest.raises(ValueError):
            MotifBank(n_motifs=1)


class TestSyntheticTask:
    def test_sample_shapes_and_labels(self):
        task = SyntheticTask(SyntheticTaskConfig(num_classes=5, image_size=16))
        x, y = task.sample(20)
        assert x.shape == (20, 3, 16, 16)
        assert y.shape == (20,)
        assert y.min() >= 0 and y.max() < 5

    def test_values_bounded(self):
        task = SyntheticTask(SyntheticTaskConfig())
        x, _ = task.sample(10)
        assert np.abs(x).max() <= 1.0

    def test_deterministic_with_rng(self):
        task = SyntheticTask(SyntheticTaskConfig(seed=3))
        a, ya = task.sample(8, np.random.default_rng(0))
        b, yb = task.sample(8, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(ya, yb)

    def test_splits_are_disjoint_draws(self):
        task = SyntheticTask(SyntheticTaskConfig(seed=1))
        x_train, _, x_test, _ = task.splits(16, 16)
        assert not np.array_equal(x_train[:16], x_test[:16])

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SyntheticTaskConfig(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(domain_shift=1.5)
        with pytest.raises(ValueError):
            SyntheticTaskConfig(image_size=4)

    def test_classes_statistically_distinct(self):
        task = SyntheticTask(SyntheticTaskConfig(num_classes=2, noise=0.1, seed=0))
        x, y = task.sample(100, np.random.default_rng(0))
        mean0 = x[y == 0].mean(axis=0)
        mean1 = x[y == 1].mean(axis=0)
        assert np.abs(mean0 - mean1).max() > 0.1


class TestTransferSuite:
    def test_targets_present(self):
        suite = classification_suite(seed=0)
        assert set(suite.targets) == {"near", "simple", "medium", "far"}

    def test_source_splits_shapes(self):
        suite = classification_suite(seed=0)
        splits = suite.source_splits(n_train=32, n_test=16)
        assert splits.x_train.shape[0] == 32
        assert splits.x_test.shape[0] == 16
        assert splits.num_classes == 12

    def test_unknown_target(self):
        suite = classification_suite(seed=0)
        with pytest.raises(KeyError):
            suite.target_splits("imagenet")

    def test_targets_share_motif_bank(self):
        suite = classification_suite(seed=0)
        assert suite.targets["near"].bank is suite.source.bank

    def test_domain_shift_ordering(self):
        suite = classification_suite(seed=0)
        shifts = {
            name: task.config.domain_shift for name, task in suite.targets.items()
        }
        assert shifts["far"] > shifts["medium"] > shifts["near"]


class TestDetectionTask:
    def test_sample_contract(self):
        task = SyntheticDetectionTask(DetectionTaskConfig(image_size=32))
        images, boxes, labels = task.sample(6, np.random.default_rng(0))
        assert images.shape == (6, 3, 32, 32)
        assert len(boxes) == len(labels) == 6
        for box_arr, label_arr in zip(boxes, labels):
            assert box_arr.shape[1] == 4
            assert len(box_arr) == len(label_arr)
            assert (box_arr[:, 2] > box_arr[:, 0]).all()
            assert (box_arr >= 0).all() and (box_arr <= 1).all()

    def test_objects_brighter_than_background(self):
        task = SyntheticDetectionTask(DetectionTaskConfig(image_size=32, noise=0.05))
        images, boxes, _ = task.sample(4, np.random.default_rng(0))
        size = 32
        for image, box_arr in zip(images, boxes):
            x1, y1, x2, y2 = (box_arr[0] * size).astype(int)
            inside = np.abs(image[:, y1:y2, x1:x2]).mean()
            outside = np.abs(image).mean()
            assert inside > outside

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            DetectionTaskConfig(num_classes=0)
        with pytest.raises(ValueError):
            DetectionTaskConfig(max_objects=0)
        with pytest.raises(ValueError):
            DetectionTaskConfig(min_size_frac=0.5, max_size_frac=0.4)

    def test_suite_contains_migrations(self):
        suite = detection_suite(seed=0)
        assert set(suite) == {"source", "pedestrian", "traffic", "voc"}


class TestClassificationMetrics:
    def test_accuracy_from_ids(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_accuracy_from_logits(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))


class TestDetectionMetrics:
    def test_iou_identical(self):
        box = np.array([0.1, 0.1, 0.5, 0.5])
        assert iou(box, box) == pytest.approx(1.0)

    def test_iou_disjoint(self):
        assert iou(np.array([0, 0, 0.2, 0.2]), np.array([0.5, 0.5, 1, 1])) == 0.0

    def test_iou_half_overlap(self):
        a = np.array([0.0, 0.0, 1.0, 1.0])
        b = np.array([0.5, 0.0, 1.5, 1.0])
        assert iou(a, b) == pytest.approx(1 / 3)

    def _det(self, cls, score, x1, y1, x2, y2):
        return Detection(cls, score, x1, y1, x2, y2)

    def test_nms_suppresses_overlapping(self):
        detections = [
            self._det(0, 0.9, 0.1, 0.1, 0.5, 0.5),
            self._det(0, 0.8, 0.12, 0.12, 0.52, 0.52),
            self._det(0, 0.7, 0.6, 0.6, 0.9, 0.9),
        ]
        kept = nms(detections, 0.5)
        assert len(kept) == 2
        assert kept[0].score == pytest.approx(0.9)

    def test_nms_keeps_different_classes(self):
        detections = [
            self._det(0, 0.9, 0.1, 0.1, 0.5, 0.5),
            self._det(1, 0.8, 0.1, 0.1, 0.5, 0.5),
        ]
        assert len(nms(detections, 0.5)) == 2

    def test_nms_invalid_threshold(self):
        with pytest.raises(ValueError):
            nms([], 1.5)

    def test_perfect_detection_map_is_one(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.4]]), np.array([[0.5, 0.5, 0.9, 0.9]])]
        gt_labels = [np.array([0]), np.array([1])]
        detections = [
            [self._det(0, 0.95, 0.1, 0.1, 0.4, 0.4)],
            [self._det(1, 0.9, 0.5, 0.5, 0.9, 0.9)],
        ]
        assert mean_average_precision(detections, gt_boxes, gt_labels, 2) == pytest.approx(1.0)

    def test_wrong_class_scores_zero(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.4]])]
        gt_labels = [np.array([0])]
        detections = [[self._det(1, 0.95, 0.1, 0.1, 0.4, 0.4)]]
        ap = average_precision(
            detections[0], [0], gt_boxes, gt_labels, class_id=0
        )
        assert ap == 0.0

    def test_duplicate_detections_penalized(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.4]])]
        gt_labels = [np.array([0])]
        once = [[self._det(0, 0.9, 0.1, 0.1, 0.4, 0.4)]]
        twice = [
            [
                self._det(0, 0.9, 0.1, 0.1, 0.4, 0.4),
                self._det(0, 0.8, 0.11, 0.11, 0.41, 0.41),
            ]
        ]
        ap_once = mean_average_precision(once, gt_boxes, gt_labels, 1)
        ap_twice = mean_average_precision(twice, gt_boxes, gt_labels, 1)
        assert ap_once >= ap_twice

    def test_map_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mean_average_precision([[]], [np.zeros((0, 4))] * 2, [np.zeros(0)] * 2, 1)

    def test_map_no_detections_zero(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.4]])]
        gt_labels = [np.array([0])]
        assert mean_average_precision([[]], gt_boxes, gt_labels, 1) == 0.0
