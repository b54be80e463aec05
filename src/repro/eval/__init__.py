"""Evaluation metrics: classification accuracy and detection mAP."""

from repro.eval.classification import accuracy
from repro.eval.detection import (
    iou,
    nms,
    average_precision,
    mean_average_precision,
)

__all__ = [
    "accuracy",
    "iou",
    "nms",
    "average_precision",
    "mean_average_precision",
]
