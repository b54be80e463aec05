"""The paper's claims hold on the fast runs of its tables and figures.

Each study module states its claims once, as data (``<study>.CLAIMS``:
a name, the paper's statement and a check); ``test_paper_claim`` asserts
every one of them — who wins, orderings, factor magnitudes, the
reproduction contract — against the session-shared fast run.  The
trained figures (6b, 10, 11, 12) carry the ``slow`` marker.
"""

import dataclasses

import pytest

from repro.experiments import encoding_study, fig6b, fig10, fig11, fig12, fig14, table1
from repro.experiments.common import format_table

STUDIES = (table1, fig14, encoding_study, fig6b, fig10, fig11, fig12)
TRAINED = (fig6b, fig10, fig11, fig12)


def verdict(study, result, name):
    (found,) = [v for v in study.claims(result) if v.name == name]
    return found


@pytest.mark.parametrize(
    "study, name",
    [
        pytest.param(
            study,
            claim.name,
            id=f"{study.__name__.rsplit('.', 1)[1]}-{claim.name}",
            marks=[pytest.mark.slow] if study in TRAINED else [],
        )
        for study in STUDIES
        for claim in study.CLAIMS
    ],
)
def test_paper_claim(study, name, fast_result):
    result = study.run() if study is table1 else fast_result(study)
    checked = verdict(study, result, name)
    assert checked.holds, f"{checked.paper}: measured {checked.measured}"


class TestTable1:
    def test_report_renders(self):
        text = table1.format_report(table1.run())
        assert "5" in text and "rom-1t" in text
        assert "rows_within_2pct" in text and "holds" in text

    def test_a_row_3pct_off_fails_the_2pct_claim(self):
        result = table1.run()
        key, (paper, _) = next((k, row) for k, row in result.rows.items() if row[0])
        result.rows[key] = (paper, paper * 1.03)
        assert not verdict(table1, result, "rows_within_2pct").holds


class TestFig14:
    def test_report_renders(self, fast_result):
        text = fig14.format_report(fast_result(fig14))
        assert "yolo" in text
        assert "improvement_grows_with_model_size" in text and "holds" in text

    def test_swapped_models_fail_the_ordering_claim(self, fast_result):
        """resnet18's system reports under tiny_yolo's name and back:
        the improvements no longer grow with model size."""
        result = fast_result(fig14)
        swap = {"resnet18": "tiny_yolo", "tiny_yolo": "resnet18"}
        swapped = dataclasses.replace(
            result,
            comparisons=[
                dataclasses.replace(c, model=swap.get(c.model, c.model))
                for c in result.comparisons
            ],
        )
        name = "improvement_grows_with_model_size"
        assert verdict(fig14, result, name).holds
        assert not verdict(fig14, swapped, name).holds


@pytest.mark.slow
class TestFig10:
    def test_one_losing_cell_fails_the_claims(self, fast_result):
        """A copy of the fast run with one more (model, target) cell, in
        which ReBranch loses to All-ROM on accuracy and area: every
        per-cell claim judges that cell too."""
        result = fast_result(fig10)
        cell = {r.method: r for r in result.rows}
        worse = {
            "all_sram": dict(accuracy=0.9, normalized_area=1.0),
            "all_rom": dict(accuracy=0.8, normalized_area=2.0),
            "rebranch": dict(accuracy=0.7, normalized_area=1.0),
        }
        extended = dataclasses.replace(
            result,
            rows=result.rows
            + [
                dataclasses.replace(cell[method], target="far", **values)
                for method, values in worse.items()
            ],
        )
        for name in (
            "rebranch_beats_all_rom",
            "rebranch_closes_half_the_gap",
            "rebranch_area_saving",
            "all_rom_smallest_area",
        ):
            assert verdict(fig10, result, name).holds, name
            assert not verdict(fig10, extended, name).holds, name


@pytest.mark.slow
class TestFig12:
    def test_one_losing_target_fails_the_claims(self, fast_result):
        """A copy of the fast run with one more target, on which YOLoC
        trails Tiny-YOLO and SRAM-CiM and DeepConv did not run."""
        result = fast_result(fig12)
        maps = {"sram_cim": 0.6, "tiny_yolo": 0.5, "yoloc": 0.3}
        extended = dataclasses.replace(
            result,
            rows=result.rows
            + [
                dataclasses.replace(r, target="traffic", map50=maps[r.method])
                for r in result.rows
                if r.method in maps
            ],
        )
        for name in (
            "all_methods_compared",
            "yoloc_map_beats_tiny_yolo",
            "yoloc_map_near_sram_cim",
        ):
            assert verdict(fig12, result, name).holds, name
            assert not verdict(fig12, extended, name).holds, name


class TestCommon:
    def test_format_table(self):
        text = format_table([("a", 1.5), ("b", 2.0)], ["name", "value"])
        assert "name" in text and "1.500" in text
