#!/usr/bin/env python
"""Regenerate every paper table/figure at full budget.

Writes the reports to ``results/full_results.txt`` — the full-budget
counterpart of the fast configs the tests exercise.  Each section is
the ``repro`` command's own report; the extension studies regenerate
via ``run_extension_experiments.py``.

Run:  python scripts/run_full_experiments.py
"""

import contextlib
import io
import pathlib
import time

from repro import cli

#: ``(title, repro command line)`` of every section, in report order.
SECTIONS = (
    ("Table I", ("table1",)),
    ("Fig. 14 (system comparison)", ("fig14",)),
    ("Fig. 6(b) ATL sweep", ("fig6b", "--full")),
    ("Fig. 10 generalization", ("fig10", "--full")),
    ("Fig. 11 D/U sweeps", ("fig11", "--full")),
    ("Fig. 12 detection", ("fig12", "--full")),
)


def cli_report(*argv: str) -> str:
    """What ``repro <argv>`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return out.getvalue().rstrip("\n")


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parent.parent / "results"
    out_dir.mkdir(exist_ok=True)
    report_path = out_dir / "full_results.txt"
    lines = []
    started = time.time()

    def log(text: str = "") -> None:
        print(text, flush=True)
        lines.append(text)

    for title, argv in SECTIONS:
        log("")
        log("=" * 70)
        log(f"{title}  [t={time.time() - started:.0f}s]")
        log("=" * 70)
        log(cli_report(*argv))

    log("")
    log(f"total wall time: {time.time() - started:.0f}s")
    report_path.write_text("\n".join(lines))
    print(f"\nwritten to {report_path}")


if __name__ == "__main__":
    main()
