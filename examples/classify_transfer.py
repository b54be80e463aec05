#!/usr/bin/env python
"""Fig. 10-style generalization study across all four target tasks.

Transfers a source-pretrained VGG-8 to every target of the synthetic
suite using the four deployment options and prints the accuracy / area
table the paper plots in Fig. 10.

Run:  python examples/classify_transfer.py [--full]

``--full`` uses the paper-scale budget (several minutes); the default
is a reduced budget (about a minute).  Setting ``REPRO_EXAMPLE_SMOKE=1``
shrinks it further to a seconds-scale smoke run (used by
``tests/test_examples.py``).
"""

import argparse
import os

from repro.experiments import fig10
from repro.experiments.common import format_table

SMOKE = bool(os.environ.get("REPRO_EXAMPLE_SMOKE"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="run the full paper-scale budget"
    )
    args = parser.parse_args()

    config = fig10.full_config() if args.full else fig10.fast_config()
    if SMOKE and not args.full:
        config.targets = ("near",)
        config.pretrain_epochs = 1
        config.transfer_epochs = 1
        config.n_train = 48
        config.n_test = 32
    elif not args.full:
        # The default fast config covers one target; widen to all four
        # while keeping the reduced training budget.
        config.targets = ("near", "simple", "medium", "far")
    result = fig10.run(config)

    print("source accuracy:", {k: round(v, 3) for k, v in result.source_accuracy.items()})
    print()
    rows = [
        (
            r.model,
            r.target,
            r.method,
            r.accuracy,
            r.normalized_area,
            r.trainable_params,
        )
        for r in result.rows
    ]
    print(
        format_table(
            rows, ["model", "target", "method", "accuracy", "norm_area", "trainable"]
        )
    )

    print("\nFig. 10(b) normalized memory area (All-SRAM = 1.0):")
    for cell, areas in result.cell_table("normalized_area").items():
        print(f"  {cell}: ", {k: round(v, 3) for k, v in areas.items()})


if __name__ == "__main__":
    main()
