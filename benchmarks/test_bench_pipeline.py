"""Bench: ping-pong weight-reload relief (section 4.3.3).

The paper's perspectives paragraph claims ping-pong/pipelining "can
relieve the latency issue, but little could be done to the energy
overhead".  Both halves are asserted: latency relief > 1 on the
reload-bound models, DRAM energy bit-identical between schedules.
"""

import pytest

from repro.experiments import pipeline_study
from repro.experiments.common import format_table


def test_bench_pingpong_relief(benchmark):
    result = benchmark.pedantic(
        pipeline_study.run,
        args=(pipeline_study.full_config(),),
        rounds=1,
        iterations=1,
    )
    print()
    rows = [
        (
            r["model"],
            r["resident_fraction"],
            r["serial_ns"] / 1e6,
            r["pingpong_ns"] / 1e6,
            r["latency_relief"],
            r["serial_dram_pj"] / 1e6,
        )
        for r in result.rows
    ]
    print(
        format_table(
            rows,
            ["model", "resident", "serial_ms", "pingpong_ms", "relief", "dram_uJ"],
        )
    )
    by_model = result.by_model()
    # VGG-8 fits on chip: nothing to hide, schedules identical.
    assert by_model["vgg8"]["latency_relief"] == pytest.approx(1.0)
    # YOLO is reload-bound: overlap buys real latency.
    assert by_model["yolo"]["latency_relief"] > 1.1
    # And the energy half of the sentence: nothing changes.
    for row in result.rows:
        assert row["serial_dram_pj"] == row["pingpong_dram_pj"]


def test_bench_pingpong_slowdown_sensitivity(benchmark):
    rows = benchmark.pedantic(
        pipeline_study.slowdown_sensitivity, rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            [(r["compute_slowdown"], r["latency_relief"]) for r in rows],
            ["compute_slowdown", "latency_relief"],
        )
    )
    reliefs = [r["latency_relief"] for r in rows]
    assert reliefs == sorted(reliefs, reverse=True)
