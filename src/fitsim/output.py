"""Deterministic emitters: CSV trajectories, text tables, SVG charts.

Everything here is byte-reproducible: floats are written with ``repr``
(the shortest exact form), line endings are always ``\\n``, column and
row orders are canonical, and the SVG is assembled by hand with fixed
coordinate formatting so no renderer state can leak in.

Formatting floats is most of an emitter's time, so each CSV column is
formatted once. A float column becomes text in one place, :func:`_text`,
a whole column at a time, and every CSV writer joins its lines from
columns of text through :func:`_write_rows`, in chunks of 128 lines per
``write``: a whole block in one join costs more in fresh pages than the
writes it saves. Text is addressed by content: the bytes of a column's
doubles key it (copied as they are from a buffer of doubles, such as an
engine column), and since the text is a pure function of those bytes a
key cannot hand back wrong text. :func:`emit_comparison_csv` formats each
distinct column once (``time`` repeats in every scenario, the exogenous
drivers in most), drops a column's text after the last scenario that
reads it, and returns the text of the plotted columns (``time`` and
:data:`CHART_VARIABLES`); :func:`write_plot_data` takes that text as an
argument and formats only what it does not find there. The module keeps
no state between calls. The x's of a comparison's charts are formatted
once, into text that each series of each chart fills with its y's.
"""

from __future__ import annotations

import os
from array import array
from collections.abc import Sequence
from itertools import islice

from .engine import RunResult
from .policies import ComparisonReport
from .validation import Finding

__all__ = [
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


def _key(column) -> bytes:
    """The bytes of a float column's doubles, which determine its text."""
    try:
        view = memoryview(column)
        if view.ndim == 1 and view.format == "d":
            return view.tobytes()
    except TypeError:
        pass
    return array("d", column).tobytes()


def _text(key: bytes) -> list[str]:
    """The column whose doubles are ``key`` as text, each value in the
    shortest exact form ``repr`` gives it."""
    return list(map(repr, array("d", key)))


def _text_of(key: bytes, texts: dict[bytes, list[str]]) -> list[str]:
    """The text of the column whose doubles are ``key``, formatted at most
    once per ``texts``."""
    text = texts.get(key)
    if text is None:
        text = texts[key] = _text(key)
    return text


def _write_rows(stream, prefix: str, columns) -> None:
    """Write one CSV line per record: ``prefix``, then each text column's
    entry."""
    lines = map(",".join, zip(*columns))
    while chunk := list(islice(lines, 128)):
        stream.write(prefix + ("\n" + prefix).join(chunk) + "\n")


def emit_run_csv(result: RunResult, stream, variables=()) -> None:
    """Write one trajectory as CSV: a time column plus one per variable."""
    columns = _columns(result, variables)
    stream.write(",".join(columns) + "\n")
    _write_rows(stream, "",
                [_text(_key(_series(result, name))) for name in columns])


def emit_comparison_csv(report: ComparisonReport,
                        stream) -> dict[bytes, list[str]]:
    """Write all scenarios into one CSV with a leading scenario column.

    Returns the text of the plotted columns, keyed by the bytes of their
    doubles, for :func:`write_plot_data`.
    """
    names = list(report.runs)
    columns = report.runs[names[0]].column_order()
    keys = [[_key(_series(report.runs[name], column)) for column in columns]
            for name in names]
    plotted = {key for row in keys
               for column, key in zip(columns, row)
               if column == "time" or column in CHART_VARIABLES}
    last_read = {key: i for i, row in enumerate(keys) for key in row}
    texts: dict[bytes, list[str]] = {}
    stream.write(",".join(["scenario"] + columns) + "\n")
    for i, (name, row) in enumerate(zip(names, keys)):
        _write_rows(stream, name + ",", [_text_of(key, texts) for key in row])
        for key in row:
            if last_read[key] == i and key not in plotted:
                texts.pop(key, None)
    return {key: texts[key] for key in plotted}


def outcome_table(report: ComparisonReport) -> str:
    """Fixed-width end-of-horizon summary of a scenario comparison."""
    headers = ("scenario", "installed MW", "penetration", "tendency",
               "debt $", "delay yr")
    rows = [(name,
             f"{run.final('installed_capacity'):.1f}",
             f"{run.final('penetration_rate'):.4f}",
             f"{run.final('tendency_to_invest'):.4f}",
             f"{run.final('suna_debt'):.4g}",
             f"{run.final('delay_in_debt_payment'):.3f}")
            for name, run in report.runs.items()]
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


def _shared_times(report: ComparisonReport, names) -> memoryview:
    """The first run's record times, once every run is shown to share
    them; plot data and charts draw all runs against one time axis."""
    times = report.runs[names[0]].times
    first = array("d", _key(times))
    for name in names[1:]:
        if array("d", _key(report.runs[name].times)) != first:
            raise ValueError(
                f"scenario {name!r} is recorded at other times than "
                f"{names[0]!r}; plot data and charts need one clock")
    return times


def write_plot_data(report: ComparisonReport, directory,
                    texts: dict[bytes, list[str]] | None = None) -> list[str]:
    """One CSV per chart variable: a time column plus one column per
    scenario; ``texts``, the text an :func:`emit_comparison_csv` returned,
    saves formatting the columns it holds.

    The layout suits external plotters; re-emission is byte-identical.
    Raises ``ValueError``, before writing anything, when the runs were
    recorded at different times.
    """
    names = list(report.runs)
    times = _shared_times(report, names)
    os.makedirs(directory, exist_ok=True)
    texts = dict(texts or ())  # the caller's text stays as it was
    header = ",".join(["time"] + names) + "\n"
    time_text = _text_of(_key(times), texts)
    paths = []
    for variable in CHART_VARIABLES:
        columns = [time_text] + [_text_of(_key(report.runs[name][variable]),
                                          texts) for name in names]
        path = os.path.join(directory, f"{variable}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(header)
            _write_rows(handle, "", columns)
        paths.append(path)
    return paths


def _ticks(low: float, high: float, n: int = 5) -> list[float]:
    if high <= low:
        high = low + 1.0
    return [low + (high - low) * i / (n - 1) for i in range(n)]


def _tick_label(value: float) -> str:
    return f"{value:.6g}"


# chart layout, in pixels
_WIDTH, _HEIGHT = 640.0, 400.0
_LEFT, _RIGHT, _TOP, _BOTTOM = 70.0, 20.0, 36.0, 46.0


def _x_slots(times) -> list[str]:
    """Each record's x coordinate followed by a slot for its y: the text
    every chart over ``times`` fills."""
    x_low, x_high = float(times[0]), float(times[-1])
    plot_w = _WIDTH - _LEFT - _RIGHT
    return [f"{_LEFT + (x - x_low) / (x_high - x_low) * plot_w:.2f},%.2f"
            for x in times]


def render_chart_svg(times, series_by_label: dict[str, Sequence[float]],
                     title: str) -> str:
    """A minimal line chart; pure text assembly, no drawing library.

    Coordinates are formatted to two decimals, so identical inputs give
    identical bytes.
    """
    return _render_chart(times, series_by_label, title)


def _render_chart(times, series_by_label: dict[str, Sequence[float]],
                  title: str, slots: list[str] | None = None) -> str:
    """:func:`render_chart_svg`, reusing ``slots``, the ``_x_slots`` of
    ``times``, when given."""
    width, height = _WIDTH, _HEIGHT
    left, right, top, bottom = _LEFT, _RIGHT, _TOP, _BOTTOM
    plot_w = width - left - right
    plot_h = height - top - bottom

    y_low = float(min(map(min, series_by_label.values())))
    y_high = float(max(map(max, series_by_label.values())))
    if y_high == y_low:
        y_low, y_high = y_low - 1.0, y_high + 1.0
    pad = 0.05 * (y_high - y_low)
    y_low, y_high = y_low - pad, y_high + pad
    x_low, x_high = float(times[0]), float(times[-1])
    span = y_high - y_low

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
        x = left + (tick - x_low) / (x_high - x_low) * plot_w
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" '
                     f'x2="{x:.2f}" y2="{top + plot_h + 5:.2f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_tick_label(tick)}</text>')
    for tick in _ticks(y_low, y_high):
        y = top + (y_high - tick) / span * plot_h
        parts.append(f'<line x1="{left - 5:.2f}" y1="{y:.2f}" '
                     f'x2="{left:.2f}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_tick_label(tick)}</text>')

    # each series fills the x texts' slots; islice truncates as zip
    if slots is None:
        slots = _x_slots(times)
    points_format = " ".join(slots)
    for k, (label, series) in enumerate(series_by_label.items()):
        color = _PALETTE[k % len(_PALETTE)]
        ys = tuple([top + (y_high - y) / span * plot_h
                    for y in islice(series, len(slots))])
        points = (points_format if len(ys) == len(slots)
                  else " ".join(slots[:len(ys)])) % ys
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


def write_comparison_charts(report: ComparisonReport,
                            directory) -> list[str]:
    """One SVG per chart variable, all scenarios overlaid; returns the paths.

    Raises ``ValueError``, before writing anything, when the runs were
    recorded at different times.
    """
    names = list(report.runs)
    times = _shared_times(report, names)
    os.makedirs(directory, exist_ok=True)
    slots = _x_slots(times)  # the charts share their x texts
    paths = []
    for variable in CHART_VARIABLES:
        series = {name: report.runs[name][variable] for name in names}
        svg = _render_chart(times, series, variable, slots)
        path = os.path.join(directory, f"{variable}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(svg)
        paths.append(path)
    return paths
