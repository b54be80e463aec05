"""Automated D/U search (section 3.2's optimization goal).

Runs :mod:`repro.rebranch.search` with the standard training-based
evaluator: pretrain once on the suite's source task, then for every
candidate (D, U) apply ReBranch, fine-tune on the target task, and
measure accuracy plus the SRAM/ROM footprint.  The selection rule is
the paper's: smallest SRAM area within an accuracy tolerance of the
best candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datasets import classification_suite
from repro.experiments.common import (
    clone_with_new_head,
    format_table,
    pretrain_classifier,
    transfer_and_evaluate,
)
from repro.rebranch import TrainConfig, apply_rebranch, method_footprint
from repro.rebranch.search import (
    DuCandidate,
    DuEvaluation,
    DuSearchResult,
    search,
)


@dataclass
class DuSearchConfig:
    model_name: str = "vgg8"
    target: str = "medium"
    width_mult: float = 0.125
    pretrain_epochs: int = 10
    transfer_epochs: int = 8
    n_train: int = 256
    n_test: int = 192
    #: Allowed accuracy drop below the best candidate.
    tolerance: float = 0.02
    candidates: Optional[Sequence[Tuple[int, int]]] = None
    seed: int = 0


def fast_config() -> DuSearchConfig:
    return DuSearchConfig(
        pretrain_epochs=6,
        transfer_epochs=4,
        n_train=160,
        n_test=128,
        candidates=((2, 2), (4, 4), (8, 8)),
    )


def full_config() -> DuSearchConfig:
    return DuSearchConfig(
        pretrain_epochs=16,
        transfer_epochs=12,
        n_train=512,
        n_test=256,
        candidates=((1, 4), (2, 2), (2, 8), (4, 4), (8, 2), (4, 16), (8, 8), (16, 4)),
    )


def run(config: Optional[DuSearchConfig] = None) -> DuSearchResult:
    """Search the (D, U) grid for the minimum-area working point."""
    config = config if config is not None else fast_config()
    suite = classification_suite(seed=config.seed)
    bundle = pretrain_classifier(
        config.model_name,
        suite,
        width_mult=config.width_mult,
        train_config=TrainConfig(
            epochs=config.pretrain_epochs, lr=2e-3, batch_size=64, seed=config.seed
        ),
        n_train=2 * config.n_train,
        n_test=config.n_test,
        seed=config.seed,
    )
    splits = suite.target_splits(
        config.target, n_train=config.n_train, n_test=config.n_test
    )
    train_cfg = TrainConfig(
        epochs=config.transfer_epochs, lr=2e-3, batch_size=64, seed=config.seed
    )

    def evaluate(candidate: DuCandidate) -> DuEvaluation:
        model = clone_with_new_head(bundle, splits.num_classes, seed=config.seed)
        apply_rebranch(
            model,
            d=candidate.d,
            u=candidate.u,
            rng=np.random.default_rng(config.seed + 1),
        )
        accuracy = transfer_and_evaluate(model, splits, train_cfg)
        footprint = method_footprint(model)
        return DuEvaluation(
            candidate=candidate,
            accuracy=accuracy,
            sram_area_mm2=footprint.sram_area_mm2,
            total_area_mm2=footprint.total_area_mm2,
            trainable_params=sum(
                p.size for p in model.parameters() if p.requires_grad
            ),
        )

    candidates = None
    if config.candidates is not None:
        candidates = [DuCandidate(d, u) for d, u in config.candidates]
    return search(evaluate, candidates=candidates, tolerance=config.tolerance)


def format_report(result: DuSearchResult) -> str:
    rows = [
        (
            f"D{e.candidate.d}-U{e.candidate.u}",
            e.accuracy,
            e.sram_area_mm2,
            e.trainable_params,
        )
        for e in result.evaluations
    ]
    selected = result.selected
    return (
        format_table(rows, ["candidate", "accuracy", "sram_mm2", "trainable"])
        + f"\n\nselected: D={selected.candidate.d} U={selected.candidate.u} "
        f"(accuracy floor {result.accuracy_floor:.3f})"
    )
