"""Ablation benches: design choices the paper argues in prose.

Covers the ADC-resolution trade-off (section 4.3.1's future-work
paragraph), bit-line noise robustness, the section 4.3.2 subarray
packing optimization, the Fig. 1(a) technology-scaling motivation, and
the non-volatility standby-power claim.
"""

import pytest

from repro.arch import technology as tech
from repro.experiments import ablations
from repro.experiments.common import format_metrics, format_table


def test_bench_adc_resolution_sweep(benchmark):
    rows = benchmark(ablations.adc_resolution_sweep)
    print()
    print(
        format_table(
            [(r["adc_bits"], r["rel_error"], r["energy_per_mac_fj"]) for r in rows],
            ["adc_bits", "rel_error", "fJ_per_mac"],
        )
    )
    errors = {r["adc_bits"]: r["rel_error"] for r in rows}
    assert errors[8] < errors[5] < errors[3]
    assert errors[8] < 1e-9


def test_bench_bitline_noise_sweep(benchmark):
    rows = benchmark(ablations.bitline_noise_sweep)
    print()
    print(
        format_table(
            [(r["noise_sigma"], r["rel_error"]) for r in rows],
            ["noise_sigma", "rel_error"],
        )
    )
    assert rows[0]["rel_error"] < rows[-1]["rel_error"]


def test_bench_packing_ablation(benchmark):
    report = benchmark(ablations.packing_ablation)
    print()
    print(format_metrics(sorted(report.items())))
    assert report["subarray_saving"] > 1.0
    assert report["packed_array_utilization"] > report["naive_array_utilization"]


def test_bench_fig1a_technology_scaling(benchmark):
    curve = benchmark(tech.scaling_curve)
    print()
    rows = [(node, d, c) for node, (d, c) in sorted(curve.items(), reverse=True)]
    print(format_table(rows, ["node_nm", "density_x", "tapeout_cost_x"]))
    # Fig. 1(a): cost grows much faster than density below 16nm.
    density_5, cost_5 = curve[5]
    assert cost_5 > density_5
    # And the 28nm ROM cell already beats 5nm SRAM density.
    assert 5 in tech.nodes_beaten_by_rom28()


def test_bench_standby_power(benchmark):
    rows = benchmark(ablations.duty_cycle_ablation)
    print()
    print(
        format_table(
            [(r["duty_cycle"], r["rom_advantage"]) for r in rows],
            ["duty_cycle", "rom_advantage"],
        )
    )
    advantages = [r["rom_advantage"] for r in rows]
    assert advantages == sorted(advantages)  # grows as the system idles


def test_bench_options_study(benchmark):
    from repro.experiments import options_study

    config = options_study.fast_config()
    config.pretrain_epochs = 4
    config.transfer_epochs = 3
    config.n_train = 96
    result = benchmark.pedantic(
        options_study.run, args=(config,), rounds=1, iterations=1
    )
    print()
    rows = [
        (r.option, r.accuracy, r.normalized_area) for r in result.rows
    ]
    print(format_table(rows, ["option", "accuracy", "norm_area"]))
    by_option = result.by_option()
    assert by_option["rebranch"].normalized_area < by_option["spwd"].normalized_area
