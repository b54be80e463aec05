"""The ledger's declaration and its harness agree, and a smoke pass of
every workload emits every declared metric — in seconds, so tier-1
collects it."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_declaration_is_well_formed():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == [BENCH_DIR.name]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_list_agrees_with_declaration():
    listed = json.loads(_run("--list")[-1])
    assert sorted(listed["workloads"]) == sorted(WORKLOADS)
    assert listed["end_to_end"] == [m["name"] for m in CONTRACT["end_to_end"]]
    assert listed["per_layer"] == [m["name"] for m in CONTRACT["per_layer"]]


@pytest.fixture(scope="module")
def smoke():
    """``(result, printed metric names)`` per ``(workload, trace)``."""
    passes = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines = _run("--workload", workload, "--trace", str(trace), "--smoke")
            printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
            passes[workload, trace] = (json.loads(lines[-1]), printed)
    return passes


def test_smoke_results_follow_the_contract(smoke):
    for (workload, trace), (result, _) in smoke.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, (workload, trace)
        assert result["attempted"] >= 1
        declared = CONTRACT["per_layer" if trace else "end_to_end"]
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_every_end_to_end_metric_is_measured_on_every_workload(smoke):
    for workload in WORKLOADS:
        result, printed = smoke[workload, 0]
        assert printed == {m["name"] for m in CONTRACT["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_every_layer_metric_is_measured_by_some_workload(smoke):
    measured = set().union(*(smoke[workload, 1][1] for workload in WORKLOADS))
    assert measured == {m["name"] for m in CONTRACT["per_layer"]}
