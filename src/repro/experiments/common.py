"""Shared infrastructure for the experiment runners."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn, models
from repro.datasets import TransferSuite, SuiteSplits
from repro.rebranch import TrainConfig, TransferTrainer
from repro.runtime import RuntimeConfig, stream_rng


@dataclass
class PretrainedBundle:
    """A source-task-pretrained model plus everything needed to clone it."""

    model_name: str
    width_mult: float
    state: Dict[str, np.ndarray]
    source_classes: int
    source_accuracy: float
    hidden: int = 64

    def fresh(self, rng_seed: int = 0) -> nn.Module:
        """A new model instance loaded with the pretrained weights."""
        model = models.build_model(
            self.model_name,
            num_classes=self.source_classes,
            width_mult=self.width_mult,
            rng=np.random.default_rng(rng_seed),
        )
        model.load_state_dict(self.state)
        return model


def pretrain_classifier(
    model_name: str,
    suite: TransferSuite,
    width_mult: float = 0.125,
    train_config: Optional[TrainConfig] = None,
    n_train: int = 600,
    n_test: int = 300,
    seed: int = 0,
) -> PretrainedBundle:
    """Pretrain a scaled classifier on the suite's source task."""
    src = suite.source_splits(n_train=n_train, n_test=n_test)
    model = models.build_model(
        model_name,
        num_classes=src.num_classes,
        width_mult=width_mult,
        rng=np.random.default_rng(seed),
    )
    config = train_config if train_config is not None else TrainConfig(
        epochs=12, lr=2e-3, batch_size=64, seed=seed
    )
    result = TransferTrainer(model, config).fit(
        src.x_train, src.y_train, src.x_test, src.y_test
    )
    return PretrainedBundle(
        model_name=model_name,
        width_mult=width_mult,
        state=model.state_dict(),
        source_classes=src.num_classes,
        source_accuracy=result.test_accuracy,
    )


def clone_with_new_head(
    bundle: PretrainedBundle, num_classes: int, seed: int = 1
) -> nn.Module:
    """Pretrained feature extractor + a freshly initialized classifier.

    The standard transfer-learning surgery: target tasks have different
    class counts, so the classifier is replaced before any freezing
    policy is applied.
    """
    model = bundle.fresh(rng_seed=seed)
    rng = np.random.default_rng(seed + 1)
    if hasattr(model, "classifier"):  # VGG
        in_features = model.classifier[0].in_features
        model.classifier = nn.Sequential(
            nn.Linear(in_features, bundle.hidden, rng=rng),
            nn.ReLU(),
            nn.Linear(bundle.hidden, num_classes, rng=rng),
        )
    elif hasattr(model, "fc"):  # ResNet
        model.fc = nn.Linear(model.fc.in_features, num_classes, rng=rng)
    else:
        raise TypeError(f"don't know how to re-head a {type(model).__name__}")
    return model


def transfer_and_evaluate(
    model: nn.Module,
    splits: SuiteSplits,
    train_config: TrainConfig,
) -> float:
    """Fine-tune the (already policy-prepared) model; return test accuracy."""
    result = TransferTrainer(model, train_config).fit(
        splits.x_train, splits.y_train, splits.x_test, splits.y_test
    )
    return result.test_accuracy


def format_table(rows, headers) -> str:
    """Plain-text table used by the example scripts and CLI reports."""
    widths = [len(h) for h in headers]
    text_rows = []
    for row in rows:
        cells = [
            f"{value:.3f}" if isinstance(value, float) else str(value)
            for value in row
        ]
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        text_rows.append(cells)
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(cells) for cells in text_rows)
    return "\n".join(lines)


def format_metrics(rows) -> str:
    """A ``(metric, value)`` table."""
    return format_table(rows, ["metric", "value"])


# -- the paper's claims, declared once per study -------------------


@dataclass(frozen=True)
class Claim:
    """One shape the paper states, as data: ``measure(result)`` reads
    what a study's run measured, ``holds(measured)`` says whether that
    reproduces the ``paper`` statement."""

    name: str
    paper: str
    measure: Callable[[object], object]
    holds: Callable[[object], bool]


@dataclass(frozen=True)
class Verdict:
    """A :class:`Claim` checked against one run."""

    name: str
    paper: str
    measured: object
    holds: bool


def on_every_cell(holds: Callable[[object], bool]) -> Callable[[Dict], bool]:
    """A claim predicate over a ``cell -> measured`` dict (a figure's
    migrations, targets or models): it holds when ``holds`` does on
    every cell, and there is one."""
    return lambda cells: bool(cells) and all(holds(c) for c in cells.values())


def check_claims(claims: Sequence[Claim], result) -> List[Verdict]:
    """Every claim of ``claims`` checked against ``result``, in order."""
    verdicts = []
    for claim in claims:
        measured = claim.measure(result)
        verdicts.append(
            Verdict(claim.name, claim.paper, measured, bool(claim.holds(measured)))
        )
    return verdicts


def _show(value) -> str:
    if isinstance(value, dict):
        return ", ".join(
            f"{key} ({_show(item)})" if isinstance(item, dict) else f"{key} {_show(item)}"
            for key, item in value.items()
        )
    if isinstance(value, (list, tuple)):
        return " / ".join(map(_show, value))
    return f"{value:.3g}" if isinstance(value, float) else str(value)


def format_claims(verdicts: Sequence[Verdict]) -> str:
    """The claims table that ends a paper study's report, set off by a
    blank line."""
    rows = [
        (v.name, v.paper, _show(v.measured), "yes" if v.holds else "NO")
        for v in verdicts
    ]
    return "\n\n" + format_table(rows, ["claim", "paper", "measured", "holds"])


# -- shared by the runtime studies (runtime / shard / chaos) -----


def zoo_model(name: str, seed: int = 0, **build) -> Tuple[nn.Module, RuntimeConfig]:
    """A zoo network in eval mode plus the config that deploys it."""
    model = models.build_model(name, rng=np.random.default_rng(seed), **build)
    model.eval()
    # Zoo models carry BatchNorm; deployment folds it exactly once.
    return model, RuntimeConfig(fold_bn=True)


def mlp_stack(config, rng: np.random.Generator) -> nn.Module:
    """``in_features -> layer_widths... -> num_classes`` ReLU classifier."""
    layers: List[nn.Module] = []
    width = config.in_features
    for next_width in config.layer_widths:
        layers += [nn.Linear(width, next_width, rng=rng), nn.ReLU()]
        width = next_width
    layers.append(nn.Linear(width, config.num_classes, rng=rng))
    return nn.Sequential(*layers)


def conv_stack(config, rng: np.random.Generator) -> nn.Module:
    """3x3 conv + ReLU per ``channels`` entry, 2x2 max-pool, linear head."""
    layers: List[nn.Module] = []
    width = 3
    for ch in config.channels:
        layers += [nn.Conv2d(width, ch, 3, padding=1, rng=rng), nn.ReLU()]
        width = ch
    hw = config.image_hw // 2
    layers += [
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(width * hw * hw, config.num_classes, rng=rng),
    ]
    return nn.Sequential(*layers)


def study_model(
    config, synthetic: Callable[[object, np.random.Generator], nn.Module]
) -> Tuple[nn.Module, RuntimeConfig]:
    """The network a study config deploys: the zoo model ``config.model``
    names (at ``width_mult``), else the study's ``synthetic`` stack."""
    if config.model is None:
        return synthetic(config, np.random.default_rng(config.seed)), RuntimeConfig()
    return zoo_model(
        config.model,
        config.seed,
        num_classes=config.num_classes,
        width_mult=config.width_mult,
    )


def study_requests(config) -> np.ndarray:
    """``n_requests`` samples shaped for :func:`study_model`'s network."""
    rng = np.random.default_rng(config.seed + 1)
    if config.model is not None:
        return rng.normal(
            size=(config.n_requests, 3, config.image_hw, config.image_hw)
        )
    return rng.normal(size=(config.n_requests, config.in_features))


def study_stream(config, compiled) -> Tuple[tuple, List[np.ndarray], List[np.ndarray]]:
    """``(input_shape, micro-batches, oracle)`` of a shard / chaos study.

    The oracle is the unsharded per-batch replay under the stream's
    per-batch RNGs: the bitwise witness for every sharded execution.
    """
    sample = (3, config.image_hw, config.image_hw)
    batches = [
        np.random.default_rng([config.seed + 1, i]).normal(
            size=(config.batch_size,) + sample
        )
        for i in range(config.n_batches)
    ]
    oracle = [
        compiled.run(batch, rng=stream_rng(config.seed, i))[0]
        for i, batch in enumerate(batches)
    ]
    return (1,) + sample, batches, oracle


def time_calls(fn: Callable, calls: Sequence, repeats: int) -> Tuple[float, list]:
    """Minimum wall-clock ms over ``repeats`` passes of ``fn`` over
    ``calls`` (the standard low-noise estimator); outputs of the last."""
    best = float("inf")
    outputs: list = []
    for _ in range(repeats):
        outputs = []
        start = time.perf_counter()
        for x in calls:
            outputs.append(fn(x))
        best = min(best, time.perf_counter() - start)
    return best * 1000.0, outputs
