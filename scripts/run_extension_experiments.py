#!/usr/bin/env python
"""Regenerate the extension-study numbers at full budget.

Writes ``results/extension_results.txt`` — the extension studies at
full budget, each section the ``repro`` command's own report or the
study's ``format_report``.  (The numbered paper figures regenerate via
``run_full_experiments.py``.)

Run:  python scripts/run_extension_experiments.py
"""

import contextlib
import io
import pathlib
import time

import numpy as np

from repro import cli, models
from repro.arch import (
    MeshNocSpec,
    YolocSystem,
    map_layers_to_tiles,
    noc_share_of_compute,
)
from repro.experiments import cim_accuracy, encoding_study
from repro.experiments.common import format_table
from repro.experiments.fig14 import BENCHMARKS


def cli_report(*argv: str) -> str:
    """What ``repro <argv>`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue().rstrip("\n")


def noc_report() -> str:
    """Fig. 9's mesh NoC transport against each benchmark's compute."""
    spec = MeshNocSpec(rows=4, cols=4)
    rng = np.random.default_rng(0)
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
                100 * noc_share_of_compute(profile, compute_pj),
            )
        )
    return format_table(rows, ["model", "traffic_Mb", "noc_uJ", "share_pct"])


def encoding_report() -> str:
    """The encoding trade-off table, then its pulse-width jitter sweep."""
    return "\n\n".join(
        [
            cli_report("encoding", "--full"),
            encoding_study.format_jitter(encoding_study.jitter_sweep()),
        ]
    )


def cim_accuracy_report() -> str:
    return cim_accuracy.format_report(cim_accuracy.run(cim_accuracy.full_config()))


#: ``(title, report)`` of every section, in report order: a ``repro``
#: command line, or a function returning the report.
SECTIONS = (
    ("Ext-1: activation encodings (sec. 3.1)", encoding_report),
    ("Ext-2: ADC count vs activated rows (sec. 4.3.1)", ("designspace",)),
    ("Ext-3: ROM-CiM chiplets (sec. 4.3.3)", ("chiplets", "--model", "yolo")),
    ("Ext-4: ping-pong reload (sec. 4.3.3)", ("pingpong", "--full")),
    ("Ext-5: on-chip training (sec. 3.3)", ("training",)),
    ("Ext-6: device variation (sec. 2)", ("variation",)),
    ("Ext-7: automated D/U search (sec. 3.2)", ("dusearch", "--full")),
    ("Ext-8: sub-8-bit quantization (sec. 2.3)", ("subbit", "--full")),
    ("Ext-9: NoC transport (Fig. 9)", noc_report),
    ("Ext-10: end-to-end CiM accuracy", cim_accuracy_report),
)


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)
    report_path = out_dir / "extension_results.txt"
    lines = []
    started = time.time()

    def log(text: str = "") -> None:
        print(text, flush=True)
        lines.append(text)

    for title, report in SECTIONS:
        log("")
        log("=" * 70)
        log(f"{title}  [t={time.time() - started:.0f}s]")
        log("=" * 70)
        log(report() if callable(report) else cli_report(*report))

    log("")
    log(f"total wall time: {time.time() - started:.0f}s")
    report_path.write_text("\n".join(lines))
    print(f"\nwritten to {report_path}")


if __name__ == "__main__":
    main()
