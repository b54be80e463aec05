"""YOLO-style single-stage object detector.

A YOLOv1-flavoured grid head on top of a DarkNet backbone: each of the
S x S cells predicts one box ``(tx, ty, tw, th, tobj)`` plus class
logits.  This is deliberately the simplest member of the YOLO family —
enough to train on the synthetic detection data and to exercise the
full YOLoC deployment path (backbone in ROM-CiM, prediction head in
SRAM-CiM, Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro import nn
from repro.models.common import ConvBNAct, scaled
from repro.models.darknet import DarknetBackbone, darknet19, darknet_tiny


@dataclass
class Detection:
    """One decoded box in normalized [0, 1] image coordinates."""

    class_id: int
    score: float
    x1: float
    y1: float
    x2: float
    y2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2])


class YoloDetector(nn.Module):
    """Backbone + detection head predicting (5 + num_classes) per cell."""

    def __init__(
        self,
        backbone: DarknetBackbone,
        num_classes: int,
        head_channels: int = 1024,
        deep_head: bool = False,
        width_mult: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        head_w = scaled(head_channels, width_mult)
        self.backbone = backbone
        layers = [ConvBNAct(backbone.out_channels, head_w, 3, act="leaky", rng=rng)]
        if deep_head:
            # YOLOv2 stacks two further 3x3/1024 convs before prediction,
            # bringing the full model to the paper's ~46M weights.
            layers.append(ConvBNAct(head_w, head_w, 3, act="leaky", rng=rng))
            layers.append(ConvBNAct(head_w, head_w, 3, act="leaky", rng=rng))
        layers.append(nn.Conv2d(head_w, 5 + num_classes, 1, rng=rng))
        self.head = nn.Sequential(*layers)
        self.num_classes = num_classes

    def forward(self, x):
        """Return raw predictions with shape (N, 5 + C, S, S)."""
        return self.head(self.backbone(x))

    #: backbone then head — the registration-order chain.
    plan_forward = nn.plan_serial


def yolo_v2(
    num_classes: int = 20,
    in_channels: int = 3,
    width_mult: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> YoloDetector:
    """YOLO with the DarkNet-19 backbone (the paper's headline model)."""
    rng = rng if rng is not None else np.random.default_rng()
    backbone = darknet19(in_channels, width_mult, rng)
    return YoloDetector(
        backbone, num_classes, deep_head=True, width_mult=width_mult, rng=rng
    )


def tiny_yolo(
    num_classes: int = 20,
    in_channels: int = 3,
    width_mult: float = 1.0,
    rng: Optional[np.random.Generator] = None,
) -> YoloDetector:
    """Tiny-YOLO: the smaller backbone in the same framework."""
    rng = rng if rng is not None else np.random.default_rng()
    backbone = darknet_tiny(in_channels, width_mult, rng)
    return YoloDetector(backbone, num_classes, width_mult=width_mult, rng=rng)


# ----------------------------------------------------------------------
# Target encoding / loss / decoding
# ----------------------------------------------------------------------
def encode_targets(
    boxes_per_image: Sequence[np.ndarray],
    labels_per_image: Sequence[np.ndarray],
    grid_size: int,
    num_classes: int,
) -> np.ndarray:
    """Encode ground truth into the (N, 5 + C, S, S) grid tensor.

    ``boxes`` are (x1, y1, x2, y2) in normalized [0, 1] coordinates.
    The cell containing a box centre is responsible for it; channels are
    ``[tx, ty, w, h, obj, one-hot classes]`` with tx/ty the offset of the
    centre inside the cell.
    """
    n = len(boxes_per_image)
    target = np.zeros((n, 5 + num_classes, grid_size, grid_size))
    for image_index, (boxes, labels) in enumerate(zip(boxes_per_image, labels_per_image)):
        for box, label in zip(boxes, labels):
            x1, y1, x2, y2 = box
            cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
            w, h = x2 - x1, y2 - y1
            if w <= 0 or h <= 0:
                raise ValueError(f"degenerate box {box}")
            col = min(int(cx * grid_size), grid_size - 1)
            row = min(int(cy * grid_size), grid_size - 1)
            target[image_index, 0, row, col] = cx * grid_size - col
            target[image_index, 1, row, col] = cy * grid_size - row
            target[image_index, 2, row, col] = w
            target[image_index, 3, row, col] = h
            target[image_index, 4, row, col] = 1.0
            target[image_index, 5 + int(label), row, col] = 1.0
    return target


def yolo_loss(
    predictions: "nn.Tensor",
    targets: np.ndarray,
    lambda_coord: float = 5.0,
    lambda_noobj: float = 0.5,
) -> "nn.Tensor":
    """YOLOv1-style composite loss.

    Coordinate and size terms apply only to responsible cells
    (``lambda_coord`` weighted); the objectness BCE down-weights empty
    cells by ``lambda_noobj``; classification is a per-cell BCE over the
    one-hot class vector on responsible cells.
    """
    obj_mask = targets[:, 4:5]  # (N,1,S,S)
    n_cells = targets.shape[0] * targets.shape[2] * targets.shape[3]
    n_obj = max(obj_mask.sum(), 1.0)

    pred_xy = nn.sigmoid(predictions[:, 0:2])
    pred_wh = nn.sigmoid(predictions[:, 2:4])
    pred_obj = predictions[:, 4:5]
    pred_cls = predictions[:, 5:]

    diff_xy = (pred_xy - nn.Tensor(targets[:, 0:2])) * nn.Tensor(obj_mask)
    diff_wh = (
        (pred_wh + 1e-8) ** 0.5 - nn.Tensor(np.sqrt(targets[:, 2:4] + 1e-8))
    ) * nn.Tensor(obj_mask)
    coord = ((diff_xy * diff_xy).sum() + (diff_wh * diff_wh).sum()) * (1.0 / n_obj)

    obj_weight = obj_mask + lambda_noobj * (1.0 - obj_mask)
    objectness = nn.binary_cross_entropy_with_logits(
        pred_obj, targets[:, 4:5], weight=obj_weight
    ) * (n_cells / n_obj)

    cls_bce = nn.binary_cross_entropy_with_logits(
        pred_cls,
        targets[:, 5:],
        weight=np.broadcast_to(obj_mask, targets[:, 5:].shape),
    ) * (n_cells * targets[:, 5:].shape[1] / n_obj)

    return lambda_coord * coord + objectness + cls_bce


def decode_predictions(
    raw: np.ndarray,
    score_threshold: float = 0.3,
    nms_iou: float = 0.5,
    max_detections: int = 20,
) -> List[List[Detection]]:
    """Decode raw (N, 5 + C, S, S) outputs into per-image detection lists.

    Applies sigmoid to xy/wh/objectness, softmax over classes, score
    thresholding, and class-wise non-maximum suppression.
    """
    from repro.eval.detection import nms  # local import avoids a cycle

    n, channels, s, _ = raw.shape
    num_classes = channels - 5
    cols, rows = np.meshgrid(np.arange(s), np.arange(s))
    results: List[List[Detection]] = []
    for image_index in range(n):
        grid = raw[image_index]
        xy = 1 / (1 + np.exp(-grid[0:2]))
        wh = 1 / (1 + np.exp(-grid[2:4]))
        obj = 1 / (1 + np.exp(-grid[4]))
        logits = grid[5:]
        logits = logits - logits.max(axis=0, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=0, keepdims=True)

        cx = (cols + xy[0]) / s
        cy = (rows + xy[1]) / s
        w, h = wh[0], wh[1]
        class_id = probs.argmax(axis=0)
        score = obj * probs.max(axis=0)

        keep = score > score_threshold
        detections = [
            Detection(
                class_id=int(class_id[r, c]),
                score=float(score[r, c]),
                x1=float(np.clip(cx[r, c] - w[r, c] / 2, 0, 1)),
                y1=float(np.clip(cy[r, c] - h[r, c] / 2, 0, 1)),
                x2=float(np.clip(cx[r, c] + w[r, c] / 2, 0, 1)),
                y2=float(np.clip(cy[r, c] + h[r, c] / 2, 0, 1)),
            )
            for r, c in zip(*np.nonzero(keep))
        ]
        results.append(nms(detections, nms_iou)[:max_detections])
    return results
