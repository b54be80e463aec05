"""YOLoC reproduction: ROM-based computing-in-memory with ReBranch.

Reproduces Chen et al., "YOLoC: DeploY Large-Scale Neural Network by
ROM-based Computing-in-Memory using ResiduaL Branch on a Chip" (DAC 2022).

Top-level subpackages
---------------------
``repro.nn``
    Numpy autograd neural-network substrate (stands in for PyTorch).
``repro.models``
    VGG-8 / ResNet-18 / DarkNet-19 / Tiny-YOLO model zoo and profiling.
``repro.quant``
    Uniform quantization and quantization-aware training utilities.
``repro.cim``
    Circuit-level ROM-CiM / SRAM-CiM macro simulation (Table I).
``repro.runtime``
    Compile-once / execute-many deployment runtime: program macros
    once, stream batches through cached engines.
``repro.serve``
    Multi-tenant dynamic-batching inference serving: model registry,
    fair micro-batching scheduler, worker pool, metrics, load generator.
``repro.chaos``
    Deterministic fault injection: replayable fault schedules, degraded
    analog execution, shard failover for streams and the server.
``repro.arch``
    System-level area/latency/energy simulator (Figs. 12-14).
``repro.rebranch``
    The paper's core contribution: ReBranch and Options I-III baselines.
``repro.datasets``
    Synthetic classification / detection data with domain-shift control.
``repro.eval``
    Accuracy and detection (IoU/mAP) metrics.
``repro.experiments``
    One runner per paper table/figure.
"""

__version__ = "2.3.0"

__all__ = [
    "nn",
    "models",
    "quant",
    "cim",
    "runtime",
    "serve",
    "chaos",
    "arch",
    "rebranch",
    "datasets",
    "eval",
    "experiments",
]
