"""Area-constrained selection of the ReBranch ratios D and U.

Section 3.2 states the design problem: "the optimization goal is to
achieve minimum area occupation by designing proper Res-(De)Compression
layers, which leads to the reduction of the number of channels used in
Res-Conv".  Fig. 11 explores the grid by hand; this module automates
the choice:

1. :func:`default_candidates` enumerates power-of-two (D, U) splits up
   to a maximum compression D*U.
2. The caller evaluates each candidate (trained accuracy + memory
   footprint) — see ``repro.experiments.du_search`` for the standard
   training-based evaluator.
3. :func:`select_minimum_area` picks the smallest-SRAM candidate whose
   accuracy clears a floor (absolute, or relative to the best
   candidate — the paper's "almost no accuracy loss" criterion).

The paper's D=U=4 answer falls out of the same procedure: symmetric
splits dominate asymmetric ones at equal D*U (Fig. 11b), and 16x is
the largest compression that stays within tolerance of the all-SRAM
accuracy (Fig. 11a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


@dataclass(frozen=True)
class DuCandidate:
    """One (compression, decompression) ratio pair."""

    d: int
    u: int

    def __post_init__(self):
        if self.d < 1 or self.u < 1:
            raise ValueError(f"ratios must be >= 1, got D={self.d}, U={self.u}")

    @property
    def du(self) -> int:
        """Overall trainable-parameter compression ratio."""
        return self.d * self.u


@dataclass
class DuEvaluation:
    """Measured cost/quality of one candidate."""

    candidate: DuCandidate
    accuracy: float
    sram_area_mm2: float
    total_area_mm2: float
    trainable_params: int


@dataclass
class DuSearchResult:
    evaluations: List[DuEvaluation] = field(default_factory=list)
    selected: Optional[DuEvaluation] = None
    accuracy_floor: float = 0.0

    def best_accuracy(self) -> float:
        if not self.evaluations:
            raise ValueError("no candidates evaluated")
        return max(e.accuracy for e in self.evaluations)

    def frontier(self) -> List[DuEvaluation]:
        """Accuracy/area Pareto frontier of the evaluated grid."""
        return [
            e
            for e in self.evaluations
            if not any(
                o.accuracy >= e.accuracy
                and o.sram_area_mm2 < e.sram_area_mm2
                for o in self.evaluations
            )
        ]


def default_candidates(
    max_du: int = 64, symmetric_only: bool = False
) -> List[DuCandidate]:
    """Power-of-two (D, U) pairs with ``4 <= D*U <= max_du``.

    Covers both Fig. 11 sweeps: the symmetric diagonal (D=U) and, when
    ``symmetric_only`` is false, the asymmetric splits of Fig. 11(b).
    """
    if max_du < 4:
        raise ValueError(f"max_du must be >= 4, got {max_du}")
    candidates = []
    d = 1
    while d <= max_du:
        u = 1
        while d * u <= max_du:
            pair = DuCandidate(d, u)
            if pair.du >= 4 and (not symmetric_only or d == u):
                candidates.append(pair)
            u *= 2
        d *= 2
    return candidates


def select_minimum_area(
    evaluations: Sequence[DuEvaluation],
    accuracy_floor: Optional[float] = None,
    tolerance: Optional[float] = None,
) -> DuEvaluation:
    """Smallest-SRAM candidate whose accuracy clears the floor.

    Exactly one of ``accuracy_floor`` (absolute) or ``tolerance``
    (allowed drop below the best evaluated accuracy) must be given.
    Ties on area break toward higher accuracy.
    """
    if not evaluations:
        raise ValueError("no candidates to select from")
    if (accuracy_floor is None) == (tolerance is None):
        raise ValueError("give exactly one of accuracy_floor or tolerance")
    if tolerance is not None:
        if tolerance < 0:
            raise ValueError("tolerance cannot be negative")
        accuracy_floor = max(e.accuracy for e in evaluations) - tolerance
    feasible = [e for e in evaluations if e.accuracy >= accuracy_floor]
    if not feasible:
        raise ValueError(
            f"no candidate reaches accuracy {accuracy_floor:.3f}; "
            f"best is {max(e.accuracy for e in evaluations):.3f}"
        )
    return min(feasible, key=lambda e: (e.sram_area_mm2, -e.accuracy))


def search(
    evaluate: Callable[[DuCandidate], DuEvaluation],
    candidates: Optional[Sequence[DuCandidate]] = None,
    accuracy_floor: Optional[float] = None,
    tolerance: Optional[float] = 0.01,
) -> DuSearchResult:
    """Evaluate every candidate and select the minimum-area one.

    ``evaluate`` maps a candidate to its measured :class:`DuEvaluation`
    (typically: apply ReBranch at (D, U), fine-tune, measure accuracy
    and footprint).  The default tolerance of one accuracy point mirrors
    the paper's "<0.4% accuracy loss" working point.
    """
    candidates = (
        list(candidates) if candidates is not None else default_candidates()
    )
    result = DuSearchResult()
    for candidate in candidates:
        result.evaluations.append(evaluate(candidate))
    result.selected = select_minimum_area(
        result.evaluations, accuracy_floor=accuracy_floor, tolerance=tolerance
    )
    result.accuracy_floor = (
        accuracy_floor
        if accuracy_floor is not None
        else result.best_accuracy() - (tolerance or 0.0)
    )
    return result
