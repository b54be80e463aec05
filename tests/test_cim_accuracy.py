"""Tests for the end-to-end CiM accuracy experiment."""

import numpy as np
import pytest

from repro import nn
from repro.cim import MacroConfig, PulseWidthEncoding
from repro.experiments import cim_accuracy
from repro.runtime import RuntimeConfig, compile_model


def tiny_chain(num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(
        nn.Conv2d(3, 8, 3, padding=1, rng=rng),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(8 * 8 * 8, num_classes, rng=rng),
    )


class TestEncodingDeployment:
    PULSE = RuntimeConfig(encoding=PulseWidthEncoding())

    def test_deployed_model_accepts_encoding(self):
        x = np.random.default_rng(0).random((2, 3, 16, 16))
        compiled = compile_model(
            tiny_chain(), self.PULSE, rng=np.random.default_rng(1)
        )
        out, _ = compiled.run(x)
        assert out.shape == (2, 4)

    def test_signed_input_falls_back_to_bit_serial(self):
        """Images with negative values must not crash pulse encodings."""
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16))
        compiled = compile_model(
            tiny_chain(), self.PULSE, rng=np.random.default_rng(1)
        )
        out, _ = compiled.run(x)  # would raise without the fallback
        assert np.isfinite(out).all()

    def test_pulse_width_cheaper_per_mac(self):
        model = tiny_chain()
        x = np.random.default_rng(0).random((2, 3, 16, 16))
        _, serial = compile_model(model, rng=np.random.default_rng(1)).run(x)
        _, pulse = compile_model(
            model, self.PULSE, rng=np.random.default_rng(1)
        ).run(x)
        assert pulse.energy_per_mac_fj < serial.energy_per_mac_fj


class TestExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        config = cim_accuracy.fast_config()
        config.train_epochs = 6
        config.n_train = 192
        config.n_eval = 48
        return cim_accuracy.run(config)

    def test_grid_complete(self, result):
        assert len(result.points) == 4  # 2 adc_bits x 2 encodings

    def test_float_baseline_learned_something(self, result):
        assert result.float_accuracy > 0.5

    def test_finer_adc_no_worse(self, result):
        assert (
            result.at(8, "bit-serial").accuracy
            >= result.at(5, "bit-serial").accuracy
        )

    def test_8bit_adc_near_float(self, result):
        assert result.at(8, "bit-serial").accuracy >= result.float_accuracy - 0.15

    def test_pulse_width_saves_energy(self, result):
        assert (
            result.at(8, "pulse-width").energy_per_mac_fj
            < result.at(8, "bit-serial").energy_per_mac_fj
        )

    def test_missing_point_raises(self, result):
        with pytest.raises(KeyError):
            result.at(3, "bit-serial")
