"""Tests for the area-constrained D/U search (section 3.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rebranch import (
    DuCandidate,
    DuEvaluation,
    default_candidates,
    search,
    select_minimum_area,
)


def evaluation(d, u, accuracy, sram):
    return DuEvaluation(
        candidate=DuCandidate(d, u),
        accuracy=accuracy,
        sram_area_mm2=sram,
        total_area_mm2=sram * 1.5,
        trainable_params=int(sram * 1e6),
    )


class TestCandidates:
    def test_default_grid_bounds(self):
        candidates = default_candidates(max_du=64)
        assert all(4 <= c.du <= 64 for c in candidates)
        assert DuCandidate(4, 4) in candidates
        assert DuCandidate(1, 16) in candidates

    def test_symmetric_only(self):
        candidates = default_candidates(max_du=64, symmetric_only=True)
        assert candidates == [DuCandidate(2, 2), DuCandidate(4, 4), DuCandidate(8, 8)]

    def test_invalid_max(self):
        with pytest.raises(ValueError, match="max_du"):
            default_candidates(max_du=2)

    def test_candidate_properties(self):
        candidate = DuCandidate(2, 8)
        assert candidate.du == 16
        assert (candidate.d, candidate.u) == (2, 8)

    def test_invalid_candidate(self):
        with pytest.raises(ValueError, match="ratios"):
            DuCandidate(0, 4)


class TestSelection:
    def test_absolute_floor(self):
        evals = [
            evaluation(2, 2, 0.92, 4.0),
            evaluation(4, 4, 0.91, 1.0),
            evaluation(8, 8, 0.80, 0.25),
        ]
        chosen = select_minimum_area(evals, accuracy_floor=0.90)
        assert chosen.candidate == DuCandidate(4, 4)

    def test_tolerance_relative_to_best(self):
        evals = [
            evaluation(2, 2, 0.92, 4.0),
            evaluation(4, 4, 0.91, 1.0),
            evaluation(8, 8, 0.80, 0.25),
        ]
        chosen = select_minimum_area(evals, tolerance=0.015)
        assert chosen.candidate == DuCandidate(4, 4)

    def test_loose_tolerance_takes_smallest(self):
        evals = [
            evaluation(4, 4, 0.91, 1.0),
            evaluation(8, 8, 0.80, 0.25),
        ]
        chosen = select_minimum_area(evals, tolerance=0.5)
        assert chosen.candidate == DuCandidate(8, 8)

    def test_infeasible_floor_raises(self):
        evals = [evaluation(4, 4, 0.5, 1.0)]
        with pytest.raises(ValueError, match="no candidate reaches"):
            select_minimum_area(evals, accuracy_floor=0.99)

    def test_requires_exactly_one_criterion(self):
        evals = [evaluation(4, 4, 0.9, 1.0)]
        with pytest.raises(ValueError, match="exactly one"):
            select_minimum_area(evals)
        with pytest.raises(ValueError, match="exactly one"):
            select_minimum_area(evals, accuracy_floor=0.5, tolerance=0.1)

    def test_area_tie_breaks_to_accuracy(self):
        evals = [
            evaluation(2, 8, 0.88, 1.0),
            evaluation(4, 4, 0.92, 1.0),
        ]
        chosen = select_minimum_area(evals, tolerance=0.5)
        assert chosen.candidate == DuCandidate(4, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            select_minimum_area([], tolerance=0.1)

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0.01, 10)),
            min_size=1,
            max_size=12,
        ),
        st.floats(0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_selected_is_feasible_and_minimal(self, rows, tolerance):
        evals = [
            evaluation(4, 4, acc, area) for acc, area in rows
        ]
        chosen = select_minimum_area(evals, tolerance=tolerance)
        floor = max(e.accuracy for e in evals) - tolerance
        assert chosen.accuracy >= floor
        feasible_areas = [
            e.sram_area_mm2 for e in evals if e.accuracy >= floor
        ]
        assert chosen.sram_area_mm2 == min(feasible_areas)


class TestSearchDriver:
    def test_search_with_synthetic_evaluator(self):
        """A synthetic accuracy/area landscape: accuracy decays with D*U,
        SRAM area shrinks with D*U — the classic Fig. 11(a) shape."""

        def evaluate(candidate):
            asymmetry = max(candidate.d, candidate.u) / min(candidate.d, candidate.u)
            penalty = 0.002 * candidate.du + 0.01 * (asymmetry - 1)
            return evaluation(
                candidate.d,
                candidate.u,
                accuracy=0.93 - penalty,
                sram=16.0 / candidate.du,
            )

        result = search(evaluate, tolerance=0.05)
        assert result.selected is not None
        # The feasible compressions are du <= 25; the largest of those
        # wins on area, and the symmetric split wins the tie — the
        # paper's D=U=4 answer.
        assert result.selected.candidate == DuCandidate(4, 4)

    def test_frontier_monotone(self):
        def evaluate(candidate):
            return evaluation(
                candidate.d,
                candidate.u,
                accuracy=0.9 - 0.001 * candidate.du,
                sram=16.0 / candidate.du,
            )

        result = search(evaluate, tolerance=0.2)
        frontier = sorted(result.frontier(), key=lambda e: e.sram_area_mm2)
        accs = [e.accuracy for e in frontier]
        assert accs == sorted(accs)

    @pytest.mark.slow
    def test_training_based_search_runs(self):
        from repro.experiments import du_search

        config = du_search.fast_config()
        config.candidates = ((2, 2), (8, 8))
        config.pretrain_epochs = 3
        config.transfer_epochs = 2
        config.n_train = 96
        config.n_test = 96
        result = du_search.run(config)
        assert len(result.evaluations) == 2
        assert result.selected is not None
        small, large = result.evaluations
        assert large.sram_area_mm2 < small.sram_area_mm2
