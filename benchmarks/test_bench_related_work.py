"""Bench: the section 2.3 sub-8-bit quantization claim.

"Ultra-scaled networks below 8-bit quantization, such as TNN and BNN,
are still difficult to implement on modern networks like ResNet and
MobileNet."  Post-training weight quantization at int8/int4/ternary/
binary on VGG-8 vs MobileNet: int8 is free for both, the extreme
alphabets cost the depthwise model most.
"""

from repro.experiments import related_work_quant


def test_bench_sub8bit_quantization(benchmark):
    config = related_work_quant.fast_config()
    result = benchmark.pedantic(
        related_work_quant.run, args=(config,), rounds=1, iterations=1
    )
    print()
    print(related_work_quant.format_report(result))
    for model in config.model_names:
        # int8 post-training quantization is essentially free...
        assert result.at(model, "int8").accuracy_drop < 0.05
        # ...while the binary alphabet costs real accuracy.
        assert result.at(model, "binary").accuracy_drop > result.at(
            model, "int8"
        ).accuracy_drop
    # Weight-space damage of the extreme schemes is worst on MobileNet.
    assert (
        result.at("mobilenet", "ternary").weight_error
        > 0.8 * result.at("vgg8", "ternary").weight_error
    )
