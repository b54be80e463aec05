"""The paper's namesake network under the bitwise contract.

``models.tiny_yolo`` — the detector YOLoC deploys — compiled, cut in
two shards and round-tripped through an artifact must reproduce
:func:`repro.runtime.reference_forward` bit for bit, outputs *and*
``MacroStats``, plain and with the trunk frozen behind a ReBranch; and
the boxes decoded from the compiled outputs must be the boxes decoded
from the reference outputs.  The input is 128 px: the backbone strides
by 64, so the prediction grid is 2 x 2.
"""

import dataclasses

import numpy as np
import pytest

from repro import models
from repro.models.yolo import decode_predictions
from repro.rebranch import ReBranchConv2d, convert_to_rebranch
from repro.runtime import (
    ArtifactStore,
    EngineCache,
    RuntimeConfig,
    compile_model,
    fold_batchnorm,
    load,
    reference_forward,
    save,
    shard,
)

PX = 128


def detector(width_mult, rebranch):
    rng = np.random.default_rng(0)
    model = models.tiny_yolo(num_classes=4, width_mult=width_mult, rng=rng)
    model.eval()
    fold_batchnorm(model)
    if rebranch:
        assert convert_to_rebranch(model, rng=rng) > 0
        # A converted branch starts at zero; give it weights to carry.
        for module in model.modules():
            if isinstance(module, ReBranchConv2d):
                for param in module.parameters():
                    if param.requires_grad:
                        param.data[...] = rng.normal(0, 0.05, param.data.shape)
    return model


def compute_stats(stats):
    """``stats`` without the inter-chiplet link traffic a sharded run adds."""
    return dataclasses.replace(
        stats, link_bits=0.0, link_energy_fj=0.0, link_latency_ns=0.0
    )


@pytest.mark.parametrize(
    "width_mult",
    [0.125, pytest.param(0.25, marks=pytest.mark.slow)],
)
@pytest.mark.parametrize("rebranch", [False, True], ids=["plain", "rebranch"])
def test_tiny_yolo_is_bitwise_through_every_leg(tmp_path, rebranch, width_mult):
    model = detector(width_mult, rebranch)
    x = np.random.default_rng(1).normal(size=(2, 3, PX, PX))
    expected, expected_stats = reference_forward(model, x)
    assert expected.shape == (2, 9, 2, 2)

    compiled = compile_model(model, RuntimeConfig(), cache=EngineCache())
    sharded = shard(compiled, 2)
    store = ArtifactStore(tmp_path / "store")
    legs = {
        "compiled": compiled,
        "shard(2)": sharded,
        "loaded": load(store, save(compiled, store), cache=EngineCache()),
        "loaded shard(2)": load(store, save(sharded, store), cache=EngineCache()),
    }
    with np.errstate(over="ignore"):  # random weights saturate the sigmoids
        boxes = decode_predictions(expected, score_threshold=0.05)
        assert any(boxes), "the decode comparison needs boxes to compare"
        for name, leg in legs.items():
            out, stats = leg.run(x, rng=np.random.default_rng(0))
            assert np.array_equal(out, expected), name
            assert compute_stats(stats) == expected_stats, name
            assert decode_predictions(out, score_threshold=0.05) == boxes, name
