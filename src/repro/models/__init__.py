"""Model zoo for the YOLoC benchmarks.

The four networks the paper evaluates (section 4.1):

* **VGG-8** — image classifier (Figs. 10, 11, 14).
* **ResNet-18** — image classifier (Figs. 10, 11, 14).
* **Tiny-YOLO** — object detector with a reduced backbone (Figs. 12, 14).
* **YOLO (DarkNet-19 backbone)** — the headline large model (Figs. 12, 14).

Every builder accepts ``width_mult`` so the same topology can be scaled
down for numpy training while the full-size topology feeds the analytic
area/energy models (see docs/architecture.md).
"""

from repro.models.common import ConvBNAct, conv_out_hw
from repro.models.vgg import VGG, vgg8
from repro.models.mobilenet import MobileNet, DepthwiseSeparable, mobilenet
from repro.models.resnet import BasicBlock, ResNet, resnet18, resnet8
from repro.models.darknet import darknet19, darknet_tiny, DarknetBackbone
from repro.models.yolo import YoloDetector, yolo_v2, tiny_yolo, decode_predictions
from repro.models.profile import LayerProfile, ModelProfile, profile_model
from repro.models.registry import INPUT_SHAPES, build_model, available_models

__all__ = [
    "ConvBNAct",
    "conv_out_hw",
    "VGG",
    "vgg8",
    "MobileNet",
    "DepthwiseSeparable",
    "mobilenet",
    "BasicBlock",
    "ResNet",
    "resnet18",
    "resnet8",
    "darknet19",
    "darknet_tiny",
    "DarknetBackbone",
    "YoloDetector",
    "yolo_v2",
    "tiny_yolo",
    "decode_predictions",
    "LayerProfile",
    "ModelProfile",
    "profile_model",
    "INPUT_SHAPES",
    "build_model",
    "available_models",
]
