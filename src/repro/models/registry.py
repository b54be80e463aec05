"""Name-based model construction for experiment configs and CLIs."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro import nn
from repro.models.mobilenet import mobilenet
from repro.models.resnet import resnet18, resnet8
from repro.models.vgg import vgg8
from repro.models.yolo import tiny_yolo, yolo_v2

_BUILDERS: Dict[str, Callable[..., nn.Module]] = {
    "vgg8": vgg8,
    "resnet18": resnet18,
    "resnet8": resnet8,
    "mobilenet": mobilenet,
    "yolo": yolo_v2,
    "tiny_yolo": tiny_yolo,
}

_CIFAR, _DETECTION = (1, 3, 32, 32), (1, 3, 416, 416)

#: Paper-resolution input shape per zoo model: classifiers run at CIFAR
#: scale, detectors at 416x416 (section 4.1).
INPUT_SHAPES: Dict[str, Tuple[int, int, int, int]] = {
    "vgg8": _CIFAR,
    "resnet18": _CIFAR,
    "resnet8": _CIFAR,
    "mobilenet": _CIFAR,
    "yolo": _DETECTION,
    "tiny_yolo": _DETECTION,
}


def available_models() -> List[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(_BUILDERS)


def build_model(name: str, **kwargs) -> nn.Module:
    """Instantiate a zoo model by name.

    Classification builders take ``num_classes``, ``in_channels``,
    ``width_mult`` and ``rng``; detectors take the same arguments with
    ``num_classes`` meaning object categories.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        ) from None
    return builder(**kwargs)
