"""Plain-text rendering for experiment results.

The paper's evaluation is two tables and four bar-chart figures; with
no plotting stack available offline, the experiment drivers render the
same rows and series as aligned text tables and unicode bar charts.
Every bench prints through these helpers so outputs stay uniform and
diffable (EXPERIMENTS.md embeds them verbatim).
"""

from __future__ import annotations

import typing as _t

from repro.errors import ConfigError

Row = _t.Sequence[_t.Any]


def _cell(value: _t.Any) -> str:
    """Uniform cell rendering: floats get one decimal, rest str()."""
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def format_table(
    headers: _t.Sequence[str],
    rows: _t.Iterable[Row],
    title: str = "",
    align_right: bool = True,
) -> str:
    """Render an aligned text table."""
    materialized = [[_cell(v) for v in row] for row in rows]
    for row in materialized:
        if len(row) != len(headers):
            raise ConfigError(
                f"row width {len(row)} does not match {len(headers)} headers"
            )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in materialized)) if materialized else len(headers[i])
        for i in range(len(headers))
    ]

    def fmt_row(cells: _t.Sequence[str]) -> str:
        out = []
        for i, cell in enumerate(cells):
            out.append(cell.rjust(widths[i]) if align_right else cell.ljust(widths[i]))
        return "  ".join(out)

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in materialized)
    return "\n".join(lines)


def format_barchart(
    series: _t.Mapping[str, float],
    title: str = "",
    unit: str = "",
    width: int = 40,
    infeasible: _t.Collection[str] = (),
) -> str:
    """Render a horizontal bar chart (the figures' stand-in).

    Entries named in *infeasible* render as the paper's Figure 5 does —
    a labelled empty bar — rather than as zero-valued data.
    """
    if width < 5:
        raise ConfigError(f"chart width must be >= 5, got {width}")
    label_width = max((len(k) for k in series), default=0)
    peak = max((v for k, v in series.items() if k not in infeasible), default=0.0)
    lines = []
    if title:
        lines.append(title)
    for name, value in series.items():
        label = name.ljust(label_width)
        if name in infeasible:
            lines.append(f"{label} | (cannot run the workload)")
            continue
        bar_len = int(round(width * value / peak)) if peak > 0 else 0
        bar = "█" * bar_len
        lines.append(f"{label} | {bar} {value:.1f}{unit}")
    return "\n".join(lines)


def format_ratio(numerator: float, denominator: float) -> str:
    """'4.7x'-style ratio rendering with sane degenerate cases."""
    if denominator <= 0:
        return "inf"
    return f"{numerator / denominator:.1f}x"
