"""Detection metrics: IoU, NMS, and PASCAL-VOC-style mAP."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.models.yolo import Detection


def iou(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Intersection-over-union of two (x1, y1, x2, y2) boxes."""
    ax1, ay1, ax2, ay2 = box_a
    bx1, by1, bx2, by2 = box_b
    inter_w = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    inter_h = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = inter_w * inter_h
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0


def nms(detections: Sequence["Detection"], iou_threshold: float = 0.5) -> List["Detection"]:
    """Class-wise greedy non-maximum suppression, highest score first."""
    if not 0 <= iou_threshold <= 1:
        raise ValueError(f"iou threshold must be in [0, 1], got {iou_threshold}")
    remaining = sorted(detections, key=lambda d: d.score, reverse=True)
    kept: List["Detection"] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [
            d
            for d in remaining
            if d.class_id != best.class_id
            or iou(d.as_array(), best.as_array()) < iou_threshold
        ]
    return kept


def average_precision(
    detections: Sequence["Detection"],
    image_ids: Sequence[int],
    gt_boxes: Sequence[np.ndarray],
    gt_labels: Sequence[np.ndarray],
    class_id: int,
    iou_threshold: float = 0.5,
) -> float:
    """All-point-interpolated AP for one class (VOC 2010+ protocol).

    ``detections[i]`` belongs to image ``image_ids[i]``; ``gt_boxes[j]``/
    ``gt_labels[j]`` describe image ``j``.
    """
    class_dets = [
        (det, img) for det, img in zip(detections, image_ids) if det.class_id == class_id
    ]
    class_dets.sort(key=lambda pair: pair[0].score, reverse=True)

    n_positive = sum(int((labels == class_id).sum()) for labels in gt_labels)
    if n_positive == 0:
        return 0.0

    matched = {img: np.zeros(len(gt_labels[img]), dtype=bool) for img in range(len(gt_labels))}
    tp = np.zeros(len(class_dets))
    fp = np.zeros(len(class_dets))
    for index, (det, img) in enumerate(class_dets):
        boxes = gt_boxes[img]
        labels = gt_labels[img]
        best_iou, best_j = 0.0, -1
        for j, (box, label) in enumerate(zip(boxes, labels)):
            if label != class_id or matched[img][j]:
                continue
            overlap = iou(det.as_array(), box)
            if overlap > best_iou:
                best_iou, best_j = overlap, j
        if best_iou >= iou_threshold and best_j >= 0:
            tp[index] = 1
            matched[img][best_j] = True
        else:
            fp[index] = 1

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recall = cum_tp / n_positive
    precision = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)

    # All-point interpolation: integrate precision envelope over recall.
    recall = np.concatenate([[0.0], recall, [recall[-1] if len(recall) else 0.0]])
    precision = np.concatenate([[1.0], precision, [0.0]])
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
    deltas = np.diff(recall)
    return float((deltas * precision[1:]).sum())


def mean_average_precision(
    per_image_detections: Sequence[Sequence["Detection"]],
    gt_boxes: Sequence[np.ndarray],
    gt_labels: Sequence[np.ndarray],
    num_classes: int,
    iou_threshold: float = 0.5,
) -> float:
    """mAP over classes for per-image detection lists."""
    if len(per_image_detections) != len(gt_boxes):
        raise ValueError("detections and ground truth must cover the same images")
    flat: List["Detection"] = []
    image_ids: List[int] = []
    for image_id, dets in enumerate(per_image_detections):
        for det in dets:
            flat.append(det)
            image_ids.append(image_id)
    aps = [
        average_precision(flat, image_ids, gt_boxes, gt_labels, c, iou_threshold)
        for c in range(num_classes)
    ]
    return float(np.mean(aps)) if aps else 0.0
