"""Fig. 14 — chip-level comparison with SRAM-CiM systems.

Regenerates (a) the energy-efficiency/area comparison, (b) the YOLoC
area breakdown, and (c) the per-model energy breakdown + improvement
ratios.  Paper shape: improvements 1x / 4.8x / 10.2x / 14.8x for
VGG-8 / ResNet-18 / Tiny-YOLO / YOLO, ~2% vs chiplets at ~10x less
area, <8% branch latency overhead.
"""

import pytest

from repro.experiments import fig14


@pytest.fixture(scope="module")
def result():
    return fig14.run(fig14.full_config())


def test_bench_fig14a_energy_efficiency(benchmark, result):
    run_result = benchmark.pedantic(
        fig14.run, args=(fig14.full_config(),), rounds=1, iterations=1
    )
    print()
    print(fig14.format_report(run_result))
    improvements = run_result.improvements()
    # Crossover: VGG-8 fits on chip -> parity; everything else wins big.
    assert 0.7 < improvements["vgg8"] < 1.3
    assert improvements["resnet18"] > 4
    assert improvements["tiny_yolo"] > 4
    assert improvements["yolo"] > 4
    # Monotone in model size, the paper's qualitative trend.
    assert improvements["vgg8"] < improvements["resnet18"] < improvements["yolo"]


def test_bench_fig14a_chiplet_comparison(benchmark, result):
    benchmark(lambda: None)
    for comparison in result.comparisons:
        if comparison.model != "yolo":
            continue
        assert 0.9 < comparison.improvement_vs_chiplet < 1.3  # ~2% in paper
        assert comparison.area_saving_vs_chiplet > 7  # ~10x in paper
        assert comparison.chiplet.n_chips >= 5  # paper deploys 10 chiplets


def test_bench_fig14b_area_breakdown(benchmark, result):
    benchmark(lambda: None)
    breakdown = result.yoloc_area_breakdown("yolo")
    print()
    print("YOLoC area breakdown:", {k: round(v, 3) for k, v in breakdown.items()})
    # Paper: Array 37%, ADC 21%, R/W 20%, Buffer 10%, Peripheral 12%.
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert breakdown["array"] == max(breakdown.values())
    assert breakdown["adc"] > 0.1
    assert 0 < breakdown["rw"] < breakdown["array"]


def test_bench_fig14c_energy_breakdown(benchmark, result):
    benchmark(lambda: None)
    print()
    for model in ("vgg8", "resnet18", "tiny_yolo", "yolo"):
        breakdown = result.energy_breakdown(model)
        print(f"  {model:10s}", {k: round(v, 3) for k, v in breakdown.items()})
    # DRAM share grows with model size; VGG-8 has none (fits on chip).
    assert result.energy_breakdown("vgg8")["dram"] == 0.0
    assert (
        result.energy_breakdown("resnet18")["dram"]
        < result.energy_breakdown("yolo")["dram"]
    )
    assert result.energy_breakdown("yolo")["dram"] > 0.5


def test_bench_fig14_latency_overhead(benchmark, result):
    benchmark(lambda: None)
    print()
    print("branch latency overheads:", {
        k: f"{v * 100:.1f}%" for k, v in result.latency_overheads.items()
    })
    for model, overhead in result.latency_overheads.items():
        assert 0 <= overhead < 0.08, model
