"""Tests for the static device-variation Monte-Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cim import (
    CimMacro,
    MacroConfig,
    MonteCarloResult,
    VariationModel,
    monte_carlo,
    perturbed_matmul,
    tolerable_cell_sigma,
    variation_sweep,
)

RNG = np.random.default_rng(23)


class TestVariationModel:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigmas"):
            VariationModel(cell_sigma=-0.1)


class TestPerturbedMatmul:
    def _macro(self, **kw):
        config = MacroConfig(**kw)
        weights = RNG.integers(-128, 128, size=(config.rows, 8))
        return CimMacro(config, weights, rng=np.random.default_rng(1))

    def test_ideal_variation_matches_plain_macro(self):
        macro = self._macro()
        x = RNG.integers(0, 256, size=(128, 3))
        out = perturbed_matmul(macro, x, VariationModel(), rng=np.random.default_rng(0))
        plain, _ = macro.matmul(x)
        np.testing.assert_allclose(out, plain)

    def test_cell_mismatch_changes_result(self):
        macro = self._macro()
        x = RNG.integers(0, 256, size=(128, 3))
        ideal = perturbed_matmul(macro, x, VariationModel(), rng=np.random.default_rng(0))
        varied = perturbed_matmul(
            macro, x, VariationModel(cell_sigma=0.2), rng=np.random.default_rng(0)
        )
        assert not np.allclose(ideal, varied)

    def test_same_seed_same_chip(self):
        macro = self._macro()
        x = RNG.integers(0, 256, size=(128, 2))
        variation = VariationModel(cell_sigma=0.1, adc_offset_sigma=1.0)
        a = perturbed_matmul(macro, x, variation, rng=np.random.default_rng(7))
        b = perturbed_matmul(macro, x, variation, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_row_mismatch_rejected(self):
        macro = self._macro()
        with pytest.raises(ValueError, match="rows"):
            perturbed_matmul(macro, np.zeros((3, 1), dtype=int), VariationModel())

    def test_vector_input(self):
        macro = self._macro()
        x = RNG.integers(0, 256, size=128)
        out = perturbed_matmul(macro, x, VariationModel(cell_sigma=0.05))
        assert out.shape == (8,)


class TestMonteCarlo:
    def test_trial_count(self):
        result = monte_carlo(VariationModel(cell_sigma=0.05), n_trials=7, n_vectors=2)
        assert result.n_trials == 7

    def test_zero_variation_zero_spread(self):
        result = monte_carlo(VariationModel(), n_trials=4, n_vectors=2)
        assert result.std == pytest.approx(0.0)

    def test_error_grows_with_cell_sigma(self):
        small = monte_carlo(VariationModel(cell_sigma=0.01), n_trials=10, n_vectors=4)
        large = monte_carlo(VariationModel(cell_sigma=0.20), n_trials=10, n_vectors=4)
        assert large.mean > small.mean

    def test_error_grows_with_adc_offset_behind_fine_adc(self):
        """Offset is only visible once it beats the ADC step: test at
        8-bit resolution, where one count is one code."""
        from repro.cim import AdcSpec

        config = MacroConfig(adc=AdcSpec(bits=8))
        small = monte_carlo(
            VariationModel(adc_offset_sigma=0.0),
            config=config,
            n_trials=8,
            n_vectors=4,
        )
        large = monte_carlo(
            VariationModel(adc_offset_sigma=4.0),
            config=config,
            n_trials=8,
            n_vectors=4,
        )
        assert large.mean > small.mean

    def test_small_offset_hides_behind_coarse_adc(self):
        """Behind the macro's 5-bit ADC (step ~4 counts) a 1-count
        offset is absorbed — it can even dither quantization error."""
        baseline = monte_carlo(VariationModel(), n_trials=8, n_vectors=4)
        offset = monte_carlo(
            VariationModel(adc_offset_sigma=1.0), n_trials=8, n_vectors=4
        )
        assert offset.mean == pytest.approx(baseline.mean, rel=0.15)

    def test_statistics_consistent(self):
        result = MonteCarloResult(
            variation=VariationModel(), rel_errors=[0.1, 0.2, 0.3, 0.4]
        )
        assert result.mean == pytest.approx(0.25)
        assert result.worst == pytest.approx(0.4)
        assert result.mean <= result.p95 <= result.worst

    def test_invalid_trials(self):
        with pytest.raises(ValueError, match="n_trials"):
            monte_carlo(VariationModel(), n_trials=0)

    @given(st.floats(0.0, 0.3), st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_errors_finite_and_nonnegative(self, sigma, seed):
        result = monte_carlo(
            VariationModel(cell_sigma=sigma), n_trials=3, n_vectors=2, seed=seed
        )
        assert all(np.isfinite(e) and e >= 0 for e in result.rel_errors)


class TestSweepAndBudget:
    def test_sweep_covers_grid(self):
        results = variation_sweep(
            cell_sigmas=(0.0, 0.1), adc_offset_sigmas=(0.0, 2.0), n_trials=4
        )
        assert len(results) == 4

    def test_tolerable_sigma_positive_for_loose_budget(self):
        sigma = tolerable_cell_sigma(
            error_budget=1.0, sigmas=(0.0, 0.05, 0.1), n_trials=4
        )
        assert sigma == 0.1

    def test_tolerable_sigma_zero_for_impossible_budget(self):
        sigma = tolerable_cell_sigma(
            error_budget=1e-12, sigmas=(0.01, 0.05), n_trials=4
        )
        assert sigma == 0.0

    def test_invalid_budget(self):
        with pytest.raises(ValueError, match="budget"):
            tolerable_cell_sigma(error_budget=0.0)
