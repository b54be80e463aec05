#!/usr/bin/env python
"""Activation encodings: bit-serial vs unary pulses vs pulse width.

Section 3.1 of the paper describes streaming activations as unary
pulses and remarks that "the input activation encoding method using the
pulse width may also be used with a different speed-accuracy
trade-off".  This example measures that trade-off on the functional
macro model:

1. run the same integer MVM workload through all three encodings at
   2/4/8-bit activations, printing cycles, conversions, error, and
   energy per MAC;
2. sweep pulse-width timing jitter behind a fine ADC to show where the
   "accuracy" half of the trade-off comes from — and why it is
   invisible behind the macro's own 5-bit column ADC.

Run:  python examples/pulse_encoding.py
"""

from repro.experiments import encoding_study


def design_space() -> None:
    print("=== Encoding design space (section 3.1) ===")
    result = encoding_study.run(encoding_study.full_config())
    print(encoding_study.format_report(result))
    keys = result.by_key()
    serial = keys[("bit-serial", 8)]
    unary = keys[("unary-pulse", 8)]
    pw = keys[("pulse-width", 8)]
    print(
        f"\nat 8-bit activations: pulse-width is "
        f"{serial.latency_ns / pw.latency_ns:.1f}x faster than bit-serial, "
        f"unary is {unary.latency_ns / serial.latency_ns:.1f}x slower; "
        f"both pulse encodings cut ADC conversions by "
        f"{serial.conversions_per_column}x."
    )


def jitter() -> None:
    print("\n=== Pulse-width timing jitter (fine 12-bit ADC) ===")
    rows = encoding_study.jitter_sweep()
    print(encoding_study.format_jitter(rows))
    print("\n=== Same sweep behind the macro's 5-bit ADC ===")
    coarse = encoding_study.EncodingStudyConfig(adc_bits=5)
    rows = encoding_study.jitter_sweep(config=coarse)
    print(encoding_study.format_jitter(rows))
    print(
        "\nBehind the 5-bit column ADC the quantization step (~4 counts)"
        "\nswallows slot-level jitter: the speed-accuracy trade-off only"
        "\nbites once the conversion path stops being the bottleneck."
    )


def main() -> None:
    design_space()
    jitter()


if __name__ == "__main__":
    main()
