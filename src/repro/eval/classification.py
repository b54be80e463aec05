"""Classification metrics."""

from __future__ import annotations

import numpy as np


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy from predicted class ids (or logits)."""
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
        )
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float((predictions == targets).mean())

