"""Fig. 12 — detection quality vs chip area.

Two halves, matching the paper's figure:

* **mAP bars** — train a source ("COCO-analog") detector, then migrate
  it to target tasks with four methods: fully-trainable SRAM-CiM YOLO,
  fully-trainable Tiny-YOLO, DeepConv (only last conv group + prediction
  trainable), and YOLoC (ReBranch).  Paper: 81.2 / 70.7 / 78.3 / 81.4 on
  PASCAL VOC — YOLoC matches the all-trainable baseline (-0.5%..+0.2%),
  DeepConv trails, Tiny-YOLO trails badly.
* **Chip area bars** — the area to hold *all* weights of the full-size
  models per method, from the analytic area model.  Paper: YOLoC is
  9.7x smaller than SRAM-CiM YOLO and 2.4x smaller than SRAM-CiM
  Tiny-YOLO.

The accuracy half runs scaled-down detectors on synthetic data; the
area half uses the full-size YOLO / Tiny-YOLO profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import models, viz
from repro.arch.mapping import WeightMapping, map_model
from repro.arch.system import YolocSystem
from repro.datasets.detection import detection_suite
from repro.experiments.common import Claim, check_claims, format_claims, format_table
from repro.experiments.detection import (
    DetectionTrainConfig,
    build_scaled_detector,
    evaluate_map,
    sample_task,
    train_detector,
)
from repro.rebranch import apply_rebranch
from repro.rebranch.options import apply_deep_conv

DETECTION_METHODS = ("sram_cim", "tiny_yolo", "deep_conv", "yoloc")


@dataclass
class Fig12Config:
    targets: tuple = ("pedestrian", "traffic", "voc")
    methods: tuple = DETECTION_METHODS
    image_size: int = 48
    n_train: int = 160
    n_test: int = 96
    pretrain_epochs: int = 12
    transfer_epochs: int = 8
    d: int = 4
    u: int = 4
    seed: int = 0


def fast_config() -> Fig12Config:
    return Fig12Config(
        targets=("voc",),
        image_size=32,
        n_train=80,
        n_test=48,
        pretrain_epochs=6,
        transfer_epochs=4,
    )


def full_config() -> Fig12Config:
    return Fig12Config()


@dataclass
class DetectionRow:
    method: str
    target: str
    map50: float
    trainable_params: int


@dataclass
class AreaRow:
    """Full-size chip area of one method (Fig. 12 bar chart)."""

    method: str
    rom_cim_cm2: float
    sram_cim_cm2: float
    cache_cm2: float
    peripheral_cm2: float

    @property
    def total_cm2(self) -> float:
        return (
            self.rom_cim_cm2 + self.sram_cim_cm2 + self.cache_cm2 + self.peripheral_cm2
        )


@dataclass
class Fig12Result:
    source_map: Dict[str, float] = field(default_factory=dict)
    rows: List[DetectionRow] = field(default_factory=list)
    areas: List[AreaRow] = field(default_factory=list)

    def map_table(self) -> Dict[str, Dict[str, float]]:
        table: Dict[str, Dict[str, float]] = {}
        for row in self.rows:
            table.setdefault(row.target, {})[row.method] = row.map50
        return table

    def area_by_method(self) -> Dict[str, float]:
        return {row.method: row.total_cm2 for row in self.areas}


def area_rows(d: int, u: int) -> List[AreaRow]:
    """The area half of Fig. 12 from the full-size profiles: each
    method's weights on one YOLoC die (:meth:`YolocSystem.die_layout`)."""
    chip = YolocSystem(d=d, u=u)
    rng = np.random.default_rng(0)
    yolo_profile = models.profile_model(
        models.yolo_v2(rng=rng), models.INPUT_SHAPES["yolo"]
    )
    tiny_profile = models.profile_model(
        models.tiny_yolo(rng=rng), models.INPUT_SHAPES["tiny_yolo"]
    )

    def row(method: str, mapping: WeightMapping) -> AreaRow:
        area, _ = chip.die_layout(mapping.rom_weight_bits, mapping.sram_weight_bits)
        macros_and_cache = area.rom_cim_mm2 + area.sram_cim_mm2 + area.buffer_mm2
        return AreaRow(
            method=method,
            rom_cim_cm2=area.rom_cim_mm2 / 100,
            sram_cim_cm2=area.sram_cim_mm2 / 100,
            cache_cm2=area.buffer_mm2 / 100,
            peripheral_cm2=(area.total_mm2 - macros_and_cache) / 100,
        )

    return [
        row("sram_cim", map_model(yolo_profile, "all_sram")),
        row("tiny_yolo", map_model(tiny_profile, "all_sram")),
        row("deep_conv", map_model(yolo_profile, "all_rom", trainable_tail_layers=2)),
        row("yoloc", map_model(yolo_profile, "yoloc", d=chip.d, u=chip.u)),
    ]


def run(config: Optional[Fig12Config] = None) -> Fig12Result:
    config = config if config is not None else fast_config()
    suite = detection_suite(seed=config.seed, image_size=config.image_size)
    result = Fig12Result()
    result.areas = area_rows(config.d, config.u)

    source = suite["source"]
    (src_imgs, src_boxes, src_labels), (src_t_imgs, src_t_boxes, src_t_labels) = (
        sample_task(source, config.n_train, config.n_test, seed=config.seed)
    )

    # Pretrain the big and tiny source detectors once.
    pretrain_cfg = DetectionTrainConfig(
        epochs=config.pretrain_epochs, seed=config.seed
    )
    base = build_scaled_detector(
        "yolo", source.config.num_classes, rng=np.random.default_rng(config.seed)
    )
    train_detector(base, src_imgs, src_boxes, src_labels, pretrain_cfg)
    result.source_map["yolo"] = evaluate_map(
        base, src_t_imgs, src_t_boxes, src_t_labels
    )
    base_state = base.state_dict()

    tiny_base = build_scaled_detector(
        "tiny", source.config.num_classes, rng=np.random.default_rng(config.seed + 1)
    )
    train_detector(tiny_base, src_imgs, src_boxes, src_labels, pretrain_cfg)
    result.source_map["tiny"] = evaluate_map(
        tiny_base, src_t_imgs, src_t_boxes, src_t_labels
    )
    tiny_state = tiny_base.state_dict()

    transfer_cfg = DetectionTrainConfig(
        epochs=config.transfer_epochs, seed=config.seed
    )
    for target_name in config.targets:
        task = suite[target_name]
        (imgs, boxes, labels), (t_imgs, t_boxes, t_labels) = sample_task(
            task, config.n_train, config.n_test, seed=config.seed + 10
        )
        num_classes = task.config.num_classes
        for method in config.methods:
            kind = "tiny" if method == "tiny_yolo" else "yolo"
            state = tiny_state if kind == "tiny" else base_state
            model = build_scaled_detector(
                kind, num_classes, rng=np.random.default_rng(config.seed + 2)
            )
            if num_classes == source.config.num_classes:
                model.load_state_dict(state)
            else:
                # Re-headed transfer: load backbone + shared head convs.
                partial = {
                    key: value
                    for key, value in state.items()
                    if not key.startswith("head.") or "head.0." in key
                }
                own = model.state_dict()
                own.update(partial)
                model.load_state_dict(own)

            if method == "deep_conv":
                apply_deep_conv(model)
            elif method == "yoloc":
                # Branch the backbone; head stays trainable in SRAM-CiM.
                apply_rebranch(
                    model.backbone,
                    d=config.d,
                    u=config.u,
                    skip_last=False,
                    rng=np.random.default_rng(config.seed + 3),
                )
            # sram_cim / tiny_yolo: leave fully trainable.

            train_detector(model, imgs, boxes, labels, transfer_cfg)
            result.rows.append(
                DetectionRow(
                    method=method,
                    target=target_name,
                    map50=evaluate_map(model, t_imgs, t_boxes, t_labels),
                    trainable_params=sum(
                        p.size for p in model.parameters() if p.requires_grad
                    ),
                )
            )
    return result


def _area_vs_yoloc(method: str):
    return lambda r: r.area_by_method()[method] / r.area_by_method()["yoloc"]


def _voc_map(result: Fig12Result) -> Dict[str, float]:
    return result.map_table()["voc"]


CLAIMS = (
    Claim(
        "yoloc_area_vs_sram_cim",
        "SRAM-CiM YOLO needs 9.7x YOLoC's area (> 5x)",
        _area_vs_yoloc("sram_cim"),
        lambda ratio: ratio > 5,
    ),
    Claim(
        "yoloc_area_vs_tiny_yolo",
        "SRAM-CiM Tiny-YOLO needs 2.4x YOLoC's area (> 1.5x)",
        _area_vs_yoloc("tiny_yolo"),
        lambda ratio: ratio > 1.5,
    ),
    Claim(
        "yoloc_smallest_area",
        "YOLoC has the smallest chip of the four methods (cm^2)",
        lambda r: r.area_by_method(),
        lambda areas: areas["yoloc"] == min(areas.values()),
    ),
    Claim(
        "source_detector_learned",
        "the source-pretrained YOLO detector learned (mAP > 0.05)",
        lambda r: r.source_map["yolo"],
        lambda map50: map50 > 0.05,
    ),
    Claim(
        "all_methods_compared",
        "VOC: SRAM-CiM, Tiny-YOLO, DeepConv and YOLoC all migrated",
        lambda r: list(_voc_map(r)),
        lambda methods: set(methods) == set(DETECTION_METHODS),
    ),
    Claim(
        "yoloc_map_beats_tiny_yolo",
        "VOC mAP: YOLoC 81.4 >= Tiny-YOLO 70.7",
        _voc_map,
        lambda t: t["yoloc"] >= t["tiny_yolo"],
    ),
    Claim(
        "yoloc_map_near_sram_cim",
        "VOC mAP: YOLoC 81.4 ~= SRAM-CiM 81.2 (within 0.25)",
        _voc_map,
        lambda t: t["yoloc"] >= t["sram_cim"] - 0.25,
    ),
)


def claims(result):
    return check_claims(CLAIMS, result)


def format_report(result: Fig12Result) -> str:
    rows = [(r.method, r.target, r.map50) for r in result.rows]
    return "\n".join(
        [
            format_table(rows, ["method", "target", "mAP@0.5"]),
            "",
            viz.bar_chart(
                [(a.method, round(a.total_cm2, 2)) for a in result.areas],
                title="chip area to hold all weights (cm^2)",
            ),
        ]
    ) + format_claims(claims(result))
