"""Table I — the functional bit-serial macro kernel.

Micro-benchmarks one full subarray pass of the macro Table I specifies;
the Table I rows and their claims print with ``repro table1``.
"""

import numpy as np

from repro.cim import AdcSpec, CimMacro, MacroConfig


def test_bench_macro_mvm_kernel(benchmark):
    """Throughput of the functional bit-serial MVM (one full subarray)."""
    rng = np.random.default_rng(0)
    config = MacroConfig(adc=AdcSpec(bits=5))
    macro = CimMacro(config, rng.integers(-128, 128, size=(128, 32)), rng=rng)
    x = rng.integers(0, 256, size=(128, 8))

    out, stats = benchmark(macro.matmul, x)
    assert out.shape == (32, 8)
    assert stats.macs == 128 * 32 * 8
    # Energy model stays calibrated to Table I's order of magnitude.
    assert 20 < stats.energy_per_mac_fj < 500
