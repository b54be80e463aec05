"""Text-mode visualization: render the paper's figures in a terminal.

The offline environment has no matplotlib, so the experiment runners
render their results as unicode bar charts and line plots.  These are
deliberately simple — fixed-width, no colour — but they make the
regenerated figures *look like figures* in CI logs and reports.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

_FULL = "█"
_PARTIAL = " ▏▎▍▌▋▊▉"


def hbar(value: float, max_value: float, width: int = 40) -> str:
    """One horizontal bar scaled to ``width`` characters."""
    if max_value <= 0:
        raise ValueError("max_value must be positive")
    fraction = max(0.0, min(1.0, value / max_value))
    cells = fraction * width
    full = int(cells)
    remainder = cells - full
    partial = _PARTIAL[int(remainder * len(_PARTIAL))] if full < width else ""
    return _FULL * full + partial


def bar_chart(
    items: Sequence[Tuple[str, float]],
    title: str = "",
    width: int = 40,
    unit: str = "",
) -> str:
    """Labelled horizontal bar chart.

    >>> print(bar_chart([("a", 1.0), ("b", 2.0)], width=4))
    a  ██    1
    b  ████  2
    """
    if not items:
        raise ValueError("nothing to plot")
    label_width = max(len(label) for label, _ in items)
    max_value = max(value for _, value in items)
    lines = [title] if title else []
    for label, value in items:
        bar = hbar(value, max_value, width)
        lines.append(
            f"{label.ljust(label_width)}  {bar.ljust(width)}  {value:g}{unit}"
        )
    return "\n".join(lines)


def line_plot(
    xs: Sequence[float],
    ys: Sequence[float],
    height: int = 10,
    width: int = 50,
    title: str = "",
    y_label: str = "",
) -> str:
    """Scatter/line plot on a character grid (x ascending)."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if not xs:
        raise ValueError("nothing to plot")
    y_min, y_max = min(ys), max(ys)
    x_min, x_max = min(xs), max(xs)
    y_span = (y_max - y_min) or 1.0
    x_span = (x_max - x_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - x_min) / x_span * (width - 1))
        row = int((y - y_min) / y_span * (height - 1))
        grid[height - 1 - row][col] = "●"
    lines = [title] if title else []
    for index, row in enumerate(grid):
        if index == 0:
            prefix = f"{y_max:8.3g} ┤"
        elif index == height - 1:
            prefix = f"{y_min:8.3g} ┤"
        else:
            prefix = " " * 8 + " │"
        lines.append(prefix + "".join(row))
    lines.append(" " * 9 + "└" + "─" * width)
    lines.append(" " * 10 + f"{x_min:<12g}{' ' * max(0, width - 24)}{x_max:>12g}")
    if y_label:
        lines.append(f"(y: {y_label})")
    return "\n".join(lines)


def stacked_fraction_bar(
    fractions: Dict[str, float], width: int = 50, legend: bool = True
) -> str:
    """A single 100%-stacked bar (for the Fig. 14 breakdowns)."""
    if not fractions:
        raise ValueError("nothing to plot")
    total = sum(fractions.values())
    if total <= 0:
        raise ValueError("fractions must sum to a positive value")
    markers = "█▓▒░▚▞▙"
    segments = []
    legend_parts = []
    for index, (label, value) in enumerate(fractions.items()):
        marker = markers[index % len(markers)]
        cells = int(round(value / total * width))
        segments.append(marker * cells)
        legend_parts.append(f"{marker}={label} {value / total * 100:.0f}%")
    bar = "".join(segments)[:width].ljust(width)
    if legend:
        return f"|{bar}|  " + "  ".join(legend_parts)
    return f"|{bar}|"
