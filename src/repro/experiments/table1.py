"""Table I — ROM-CiM macro specification summary.

Derives every Table I row from the circuit model and reports it next to
the paper's printed value, plus the Fig. 2/4 cell density comparison
(ROM 1T vs 6T SRAM vs published SRAM-CiM cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cim.cells import ROM_1T, SRAM_6T, SRAM_CIM_6T, all_cim_cells
from repro.cim.spec import TABLE1_PAPER, rom_macro_spec, sram_macro_spec
from repro.experiments.common import Claim, check_claims, format_claims


@dataclass
class Table1Result:
    rows: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    cell_comparison: List[Tuple[str, float, float]] = field(default_factory=list)
    sram_density_ratio: float = 0.0

    def max_relative_error(self) -> float:
        """Worst paper-vs-model relative deviation over nonzero rows."""
        worst = 0.0
        for paper, model in self.rows.values():
            if paper:
                worst = max(worst, abs(model - paper) / abs(paper))
        return worst


def run() -> Table1Result:
    """Compute Table I and the supporting cell comparison."""
    rom = rom_macro_spec()
    sram = sram_macro_spec()
    model_table = rom.table()

    result = Table1Result()
    for key, paper_value in TABLE1_PAPER.items():
        result.rows[key] = (paper_value, float(model_table[key]))

    # Fig. 2/4: cell areas relative to the proposed ROM cell.
    result.cell_comparison.append(("rom-1t", ROM_1T.area_um2, 1.0))
    result.cell_comparison.append(
        ("sram-6t", SRAM_6T.area_um2, SRAM_6T.relative_area(ROM_1T))
    )
    for cell in all_cim_cells():
        if cell is ROM_1T:
            continue
        result.cell_comparison.append(
            (cell.name, cell.area_um2, cell.relative_area(ROM_1T))
        )
    result.sram_density_ratio = rom.density_mb_mm2 / sram.density_mb_mm2
    return result


CLAIMS = (
    Claim(
        "rows_within_2pct",
        "every non-zero Table I row as printed, within 2 %",
        lambda r: r.max_relative_error(),
        lambda worst: worst < 0.02,
    ),
    Claim(
        "cell_area_vs_rom_1t",
        "vs the ROM 1T cell: 6T SRAM 16x, SRAM-CiM 6T 18.5x the area",
        lambda r: {name: ratio for name, _, ratio in r.cell_comparison[:3]},
        lambda m: list(m) == ["rom-1t", "sram-6t", "sram-cim-6t"]
        and m["rom-1t"] == 1.0
        and math.isclose(m["sram-6t"], 16.0)
        and math.isclose(m["sram-cim-6t"], 18.5),
    ),
    Claim(
        "macro_density_19x",
        "ROM-CiM macro ~19x denser than SRAM-CiM (17-21x)",
        lambda r: r.sram_density_ratio,
        lambda ratio: 17 < ratio < 21,
    ),
)


def claims(result):
    return check_claims(CLAIMS, result)


def format_report(result: Table1Result) -> str:
    lines = ["Table I: ROM-CiM macro specification (paper vs model)", "-" * 60]
    for key, (paper, model) in result.rows.items():
        lines.append(f"{key:32s} paper={paper:<12g} model={model:.4g}")
    lines.append("")
    lines.append("Cell comparison (vs proposed ROM 1T cell)")
    for name, area, ratio in result.cell_comparison:
        lines.append(f"  {name:18s} {area:.3f} um^2  ({ratio:.1f}x)")
    lines.append(f"ROM vs SRAM-CiM macro density ratio: {result.sram_density_ratio:.1f}x")
    return "\n".join(lines) + format_claims(claims(result))
