"""Deterministic emitters: CSV trajectories, text tables, SVG charts.

Everything here is byte-reproducible: floats are written with ``repr``
(the shortest exact form), line endings are always ``\\n``, column and
row orders are canonical, and the SVG is assembled by hand with fixed
coordinate formatting so no renderer state can leak in.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Sequence

from .engine import RunResult
from .policies import ComparisonReport
from .validation import Finding

__all__ = [
    "format_float",
    "emit_run_csv",
    "emit_comparison_csv",
    "outcome_table",
    "findings_text",
    "render_chart_svg",
    "write_plot_data",
    "write_comparison_charts",
    "CHART_VARIABLES",
]

# the variables worth a panel each in a policy comparison
CHART_VARIABLES = (
    "installed_capacity",
    "penetration_rate",
    "suna_debt",
    "delay_in_debt_payment",
    "budget",
    "roi",
    "tendency_to_invest",
    "social_acceptance",
)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#8c564b", "#e377c2")


def format_float(value: float) -> str:
    """Shortest exact decimal form; reproducible across runs."""
    return repr(float(value))


def _columns(result: RunResult, variables) -> list[str]:
    if not variables:
        return result.column_order()
    unknown = [name for name in variables
               if name != "time" and name not in result.variables]
    if unknown:
        raise KeyError(f"unknown variables {unknown}; "
                       f"have {sorted(result.variables)}")
    columns = list(variables)
    if "time" not in columns:
        columns.insert(0, "time")
    return columns


def _series(result: RunResult, name: str) -> memoryview:
    return result.times if name == "time" else result[name]


def _write_rows(stream, prefix: str, columns) -> None:
    """Write one CSV line per record: ``prefix``, then each column's value.

    A column may be any sequence of floats; each is read as Python floats,
    so values are written as the text :func:`format_float` gives.
    """
    rows = zip(*[array("d", column) for column in columns])
    stream.writelines(prefix + ",".join(map(repr, row)) + "\n"
                      for row in rows)


def emit_run_csv(result: RunResult, stream, variables=()) -> None:
    """Write one trajectory as CSV: a time column plus one per variable."""
    columns = _columns(result, variables)
    stream.write(",".join(columns) + "\n")
    _write_rows(stream, "", [_series(result, name) for name in columns])


def emit_comparison_csv(report: ComparisonReport, stream,
                        variables=()) -> None:
    """Write all scenarios into one CSV with a leading scenario column."""
    names = [outcome.name for outcome in report.outcomes]
    columns = _columns(report.runs[names[0]], variables)
    stream.write(",".join(["scenario"] + columns) + "\n")
    for name in names:
        result = report.runs[name]
        _write_rows(stream, name + ",",
                    [_series(result, column) for column in columns])


def outcome_table(report: ComparisonReport) -> str:
    """Fixed-width end-of-horizon summary of a scenario comparison."""
    headers = ("scenario", "installed MW", "penetration", "tendency",
               "debt $", "delay yr")
    rows = [(outcome.name,
             f"{outcome.installed_capacity:.1f}",
             f"{outcome.penetration_rate:.4f}",
             f"{outcome.tendency_to_invest:.4f}",
             f"{outcome.suna_debt:.4g}",
             f"{outcome.delay_in_debt_payment:.3f}")
            for outcome in report.outcomes]
    widths = [max(len(headers[j]), *(len(row[j]) for row in rows))
              for j in range(len(headers))]
    def fmt(row):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * width for width in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def findings_text(findings: list[Finding]) -> str:
    return "\n".join(str(finding) for finding in findings)


def write_plot_data(report: ComparisonReport, directory,
                    variables=CHART_VARIABLES) -> list[str]:
    """One CSV per variable: a time column plus one column per scenario.

    The layout suits external plotters; re-emission is byte-identical.
    """
    os.makedirs(directory, exist_ok=True)
    names = [outcome.name for outcome in report.outcomes]
    times = report.runs[names[0]].times
    paths = []
    for variable in variables:
        columns = [times] + [report.runs[name][variable] for name in names]
        path = os.path.join(directory, f"{variable}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(",".join(["time"] + names) + "\n")
            _write_rows(handle, "", columns)
        paths.append(path)
    return paths


def _ticks(low: float, high: float, n: int = 5) -> list[float]:
    if high <= low:
        high = low + 1.0
    return [low + (high - low) * i / (n - 1) for i in range(n)]


def _tick_label(value: float) -> str:
    return f"{value:.6g}"


def render_chart_svg(times, series_by_label: dict[str, Sequence[float]],
                     title: str) -> str:
    """A minimal line chart; pure text assembly, no drawing library.

    Coordinates are formatted to two decimals, so identical inputs give
    identical bytes.
    """
    width, height = 640.0, 400.0
    left, right, top, bottom = 70.0, 20.0, 36.0, 46.0
    plot_w = width - left - right
    plot_h = height - top - bottom

    y_low = float(min(map(min, series_by_label.values())))
    y_high = float(max(map(max, series_by_label.values())))
    if y_high == y_low:
        y_low, y_high = y_low - 1.0, y_high + 1.0
    pad = 0.05 * (y_high - y_low)
    y_low, y_high = y_low - pad, y_high + pad
    x_low, x_high = float(times[0]), float(times[-1])

    def sx(x: float) -> float:
        return left + (x - x_low) / (x_high - x_low) * plot_w

    def sy(y: float) -> float:
        return top + (y_high - y) / (y_high - y_low) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333"/>',
    ]
    for tick in _ticks(x_low, x_high):
        x = sx(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" '
                     f'x2="{x:.2f}" y2="{top + plot_h + 5:.2f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_tick_label(tick)}</text>')
    for tick in _ticks(y_low, y_high):
        y = sy(tick)
        parts.append(f'<line x1="{left - 5:.2f}" y1="{y:.2f}" '
                     f'x2="{left:.2f}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_tick_label(tick)}</text>')

    xs = [sx(x) for x in times]
    for k, (label, series) in enumerate(series_by_label.items()):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join([f"{x:.2f},{sy(y):.2f}"
                           for x, y in zip(xs, series)])
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = top + 14.0 + 16.0 * k
        parts.append(f'<line x1="{left + 8:.2f}" y1="{ly - 4:.2f}" '
                     f'x2="{left + 28:.2f}" y2="{ly - 4:.2f}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{left + 33:.2f}" y="{ly:.2f}" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_comparison_charts(report: ComparisonReport, directory,
                            variables=CHART_VARIABLES) -> list[str]:
    """One SVG per variable, all scenarios overlaid; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    names = [outcome.name for outcome in report.outcomes]
    times = report.runs[names[0]].times
    paths = []
    for variable in variables:
        series = {name: report.runs[name][variable] for name in names}
        svg = render_chart_svg(times, series, variable)
        path = os.path.join(directory, f"{variable}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(svg)
        paths.append(path)
    return paths
