#!/usr/bin/env python
"""Regenerate the extension-study numbers at full budget.

Writes ``results/extension_results.txt`` — the extension studies at
full budget.  (The numbered
paper figures regenerate via ``run_full_experiments.py``.)

Run:  python scripts/run_extension_experiments.py
"""

import pathlib
import time

import numpy as np

from repro import models
from repro.arch import (
    MeshNocSpec,
    TrainingCostModel,
    YolocSystem,
    chiplet_scaling,
    map_layers_to_tiles,
    noc_share_of_compute,
)
from repro.cim import DesignSpaceConfig, explore, tolerable_cell_sigma, variation_sweep
from repro.experiments import (
    cim_accuracy,
    encoding_study,
    pipeline_study,
    related_work_quant,
)
from repro.experiments.fig14 import BENCHMARKS


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)
    report_path = out_dir / "extension_results.txt"
    lines = []
    started = time.time()

    def log(text: str = "") -> None:
        print(text, flush=True)
        lines.append(text)

    def header(title: str) -> None:
        log("")
        log("=" * 70)
        log(f"{title}  [t={time.time() - started:.0f}s]")
        log("=" * 70)

    header("Ext-1: activation encodings (sec. 3.1)")
    enc = encoding_study.run(encoding_study.full_config())
    for row in enc.rows():
        log(
            f"  {row[0]:11s} {row[1]}b cycles={row[2]:3d} conv/col={row[3]} "
            f"err={row[4]:.3f} fJ/mac={row[5]:.1f} ns/vec={row[6]:.1f}"
        )
    for r in encoding_study.jitter_sweep():
        log(f"  jitter sigma={r['jitter_sigma_slots']:.2f} err={r['rel_error']:.4f}")

    header("Ext-2: ADC count vs activated rows (sec. 4.3.1)")
    grid = explore(DesignSpaceConfig())
    for p in grid.points:
        log(
            f"  adcs={p.n_adcs:2d} rows={p.activated_rows:3d} err={p.rel_error:.3f} "
            f"ns={p.latency_ns:.1f} adc_mm2={p.adc_area_mm2 * 1e3:.2f}e-3"
        )
    log(f"  pareto frontier: {len(grid.frontier())}/{len(grid.points)}")

    header("Ext-3: ROM-CiM chiplets (sec. 4.3.3)")
    yolo = models.profile_model(
        models.build_model("yolo", rng=np.random.default_rng(0)), (1, 3, 416, 416)
    )
    for p in chiplet_scaling(yolo, model_name="yolo").points:
        log(
            f"  die={p.die_area_mm2:.0f}mm2 rom={p.rom_chips} sram={p.sram_chips} "
            f"rom_cm2={p.rom_area_cm2:.2f} sram_cm2={p.sram_area_cm2:.2f} "
            f"E_ratio={p.energy_ratio:.2f}"
        )

    header("Ext-4: ping-pong reload (sec. 4.3.3)")
    for row in pipeline_study.run(pipeline_study.full_config()).rows:
        log(
            f"  {row['model']:9s} resident={row['resident_fraction']:.2f} "
            f"relief={row['latency_relief']:.3f} "
            f"dram_uJ={row['serial_dram_pj'] / 1e6:.0f} (both schedules)"
        )

    header("Ext-5: on-chip training (sec. 3.3)")
    cost_model = TrainingCostModel()
    rng = np.random.default_rng(0)
    for name, shape in BENCHMARKS:
        profile = models.profile_model(models.build_model(name, rng=rng), shape)
        s = cost_model.summary(profile)
        log(
            f"  {name:9s} full={s['full_step_uj']:.0f}uJ "
            f"rebranch={s['rebranch_step_uj']:.0f}uJ saving={s['energy_saving']:.1f}x "
            f"trainableX={s['trainable_reduction']:.1f}"
        )

    header("Ext-6: device variation (sec. 2)")
    for v, r in variation_sweep():
        log(
            f"  cell={v.cell_sigma:.2f} offset={v.adc_offset_sigma:.1f} "
            f"mean={r.mean:.3f} p95={r.p95:.3f}"
        )
    log(f"  tolerable cell sigma @5% budget: {tolerable_cell_sigma(0.05):.2f}")

    header("Ext-7: automated D/U search (sec. 3.2)")
    from repro.experiments import du_search

    search = du_search.run(du_search.full_config())
    for e in search.evaluations:
        log(
            f"  D{e.candidate.d}-U{e.candidate.u} acc={e.accuracy:.3f} "
            f"sram_mm2={e.sram_area_mm2:.3f} trainable={e.trainable_params}"
        )
    log(
        f"  selected: D={search.selected.candidate.d} "
        f"U={search.selected.candidate.u} (floor {search.accuracy_floor:.3f})"
    )

    header("Ext-8: sub-8-bit quantization (sec. 2.3)")
    quant = related_work_quant.run(related_work_quant.full_config())
    log(f"  baselines: {quant.baselines}")
    for row in quant.rows():
        log(
            f"  {row[0]:9s} {row[1]:8s} acc={row[2]:.3f} drop={row[3]:+.3f} "
            f"w_err={row[4]:.3f}"
        )

    header("Ext-9: NoC transport (Fig. 9)")
    spec = MeshNocSpec(rows=4, cols=4)
    for name, shape in BENCHMARKS:
        profile = models.profile_model(models.build_model(name, rng=rng), shape)
        compute_pj = YolocSystem().evaluate(profile).energy.compute_pj
        report = map_layers_to_tiles(profile, spec)
        log(
            f"  {name:9s} traffic={report.total_bits / 1e6:.1f}Mb "
            f"noc={report.total_energy_pj / 1e6:.2f}uJ "
            f"share={noc_share_of_compute(profile, compute_pj):.4f}"
        )

    header("Ext-10: end-to-end CiM accuracy")
    acc = cim_accuracy.run(cim_accuracy.full_config())
    log(f"  float accuracy: {acc.float_accuracy:.3f}")
    for row in acc.rows():
        log(
            f"  adc={row[0]}b {row[1]:11s} noise={row[2]:.1f} "
            f"acc={row[3]:.3f} fJ/mac={row[4]:.1f}"
        )

    log("")
    log(f"total wall time: {time.time() - started:.0f}s")
    report_path.write_text("\n".join(lines))
    print(f"\nwritten to {report_path}")


if __name__ == "__main__":
    main()
