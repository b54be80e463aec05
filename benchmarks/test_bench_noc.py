"""Bench: NoC transport share of compute energy (Fig. 9 floorplan).

The paper's energy accounting folds on-chip activation transport into
the buffer term.  This bench checks the simplification holds on every
benchmark model: NoC energy stays a single-digit percentage of the CiM
compute energy under a serpentine layer-to-tile floorplan.
"""

import numpy as np

from repro import models
from repro.arch import (
    MeshNocSpec,
    YolocSystem,
    map_layers_to_tiles,
    noc_share_of_compute,
)
from repro.experiments.common import format_table
from repro.experiments.fig14 import BENCHMARKS


def _shares():
    rng = np.random.default_rng(0)
    rows = []
    for name, shape in BENCHMARKS:
        profile = models.profile_model(models.build_model(name, rng=rng), shape)
        compute_pj = YolocSystem().evaluate(profile).energy.compute_pj
        report = map_layers_to_tiles(profile, MeshNocSpec(rows=4, cols=4))
        rows.append(
            (
                name,
                report.total_bits / 1e6,
                report.total_energy_pj / 1e6,
                noc_share_of_compute(profile, compute_pj),
                report.max_link_load_bits / 1e6,
            )
        )
    return rows


def test_bench_noc_share(benchmark):
    rows = benchmark.pedantic(_shares, rounds=1, iterations=1)
    print()
    print(
        format_table(
            rows,
            ["model", "traffic_Mb", "noc_uJ", "share_of_compute", "hot_link_Mb"],
        )
    )
    # The Fig. 9 simplification is sound for every benchmark model.
    for _, _, _, share, _ in rows:
        assert share < 0.10
