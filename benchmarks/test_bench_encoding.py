"""Bench: activation-encoding speed-accuracy trade-off (section 3.1).

Not a numbered figure — the paper flags the pulse-width alternative in
one sentence — but the axes it names (cycles vs accuracy) are measured
here for all three encodings at 2/4/8-bit activations.
"""

from repro.experiments import encoding_study


def test_bench_encoding_design_space(benchmark):
    """Times the fast study; its claims are
    ``encoding_study.CLAIMS``, asserted by ``tests/test_experiments.py``."""
    result = benchmark(encoding_study.run, encoding_study.fast_config())
    print()
    print(encoding_study.format_report(result))


def test_bench_pulse_width_jitter(benchmark):
    rows = benchmark(encoding_study.jitter_sweep)
    print()
    print(encoding_study.format_jitter(rows))
    assert rows[-1]["rel_error"] > rows[0]["rel_error"]
