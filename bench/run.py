#!/usr/bin/env python3
"""The performance ledger's one command.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload in this process and prints every metric by name with
its unit; the last line of standard output is the JSON result the
benchmark contract (``BENCHMARK.json``) asks for.  ``--trace 0`` is the
end-to-end pass (``repro.obs.trace`` off), ``--trace 1`` the traced pass
that gives the per-layer numbers.

Without ``--workload`` it runs the whole suite — every workload, both
passes, each in its own subprocess — and writes the results to
``bench/out/results.json`` for ``bench/compare.py``.
"""

from __future__ import annotations

import os

# One BLAS thread: threaded BLAS spins both cores for the same wall time
# and doubles the run-to-run noise.  Set before numpy is first imported,
# and inherited by the suite's subprocesses.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy

from ledger.harness import (
    OUT_DIR,
    REPO_ROOT,
    Run,
    Spans,
    Tally,
    load_contract,
    median,
    result_line,
    tail,
)

WORKLOAD_MODULES = {
    "resnet8_batch": "conv",
    "mobilenet_small_engines": "conv",
    "serve_tenants": "serve",
    "rebranch_lifecycle": "lifecycle",
}


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and refuse any
    other ``repro``: the ledger measures the tree it sits in."""
    src = REPO_ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"bench: imported repro from {repro.__file__}, not from {src}")


def run_workload(args: argparse.Namespace) -> int:
    """One workload, one pass, in this process."""
    contract = load_contract()
    _import_program()
    module = importlib.import_module(f"ledger.{WORKLOAD_MODULES[args.workload]}")
    declared = contract["per_layer" if args.trace else "end_to_end"]
    tmp = OUT_DIR / "tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        seconds=0.0 if args.smoke else args.seconds,
        smoke=args.smoke,
        tmp=tmp,
        spans=Spans(args.workload),
        tally=Tally(),
    )
    try:
        metrics = (module.per_layer if args.trace else module.end_to_end)(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    run.spans.write(OUT_DIR / f"{args.workload}.{'trace' if args.trace else 'e2e'}.json")

    names = {spec["name"] for spec in declared}
    undeclared = sorted(set(metrics) - names)
    missing = sorted(names - set(metrics)) if not args.trace else []
    if undeclared or missing:
        sys.exit(
            f"bench: {args.workload} disagrees with BENCHMARK.json: "
            f"undeclared {undeclared}, missing {missing}"
        )
    units = {spec["name"]: spec["unit"] for spec in declared}
    for name, values in run.series.items():
        label, value = tail(values)
        print(f"series {name}: n={len(values)} median={median(values):.6g} {label}={value:.6g}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(result_line(run, metrics, declared))
    return 0 if run.tally.failed == 0 else 1


def environment() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_suite(args: argparse.Namespace) -> int:
    """Every workload × both passes (or the ``--trace`` one) ×
    ``--repeats`` seeds, one subprocess each, waited for before the
    next starts."""
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    runs: List[Dict[str, Any]] = []
    status = 0
    for repeat in range(args.repeats):
        for spec in contract["workloads"]:
            for traced in (0, 1) if args.trace is None else (args.trace,):
                command = [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload", spec["name"],
                    "--seed", str(args.seed + repeat),
                    "--seconds", str(seconds),
                    "--trace", str(traced),
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(command, capture_output=True, text=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode not in (0, 1) or not lines:
                    sys.stderr.write(done.stderr)
                    sys.exit(f"bench: {' '.join(command)} exited {done.returncode}")
                result = json.loads(lines[-1])
                status |= done.returncode
                print(f"== {spec['name']} seed={args.seed + repeat} trace={traced}: "
                      f"{result['attempted']} attempted, {result['failed']} failed")
                print("\n".join(lines[:-1]))
                runs.append(
                    {"workload": spec["name"], "seed": args.seed + repeat, "trace": traced, **result}
                )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps({"environment": environment(), "seconds": seconds, "runs": runs}, indent=1)
    )
    print(f"results written to {out}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 (default) end-to-end pass, 1 traced pass; suite: both unless given")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one iteration: exercises every metric in seconds")
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and metrics as JSON and exit")
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite only: run seeds SEED..SEED+REPEATS-1")
    parser.add_argument("--out", default=str(OUT_DIR / "results.json"),
                        help="suite only: where the results go")
    args = parser.parse_args()
    if args.list:
        contract = load_contract()
        print(json.dumps({
            "workloads": sorted(WORKLOAD_MODULES),
            "end_to_end": [m["name"] for m in contract["end_to_end"]],
            "per_layer": [m["name"] for m in contract["per_layer"]],
        }))
        return 0
    if args.workload is None:
        return run_suite(args)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    args.trace = args.trace or 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
