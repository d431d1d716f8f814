"""Deterministic emitters: CSV layout, tables, SVG charts, plot data.

The chart polylines and the column keys are built without per-value
Python calls; the per-point forms they replaced are kept here as
references (:func:`reference_render_chart_svg`, :func:`reference_key`),
and hypothesis properties hold the new forms to the same text and bytes.
"""

import io
import os
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fitsim.output
from fitsim import (
    ComparisonReport,
    RunResult,
    Scenario,
    ScenarioOutcome,
    SimulationClock,
    emit_comparison_csv,
    emit_run_csv,
    findings_text,
    format_float,
    outcome_table,
    render_chart_svg,
    replace,
    run_scenario_suite,
    write_comparison_charts,
    write_plot_data,
)
from fitsim.output import CHART_VARIABLES
from fitsim.validation import Finding

SCENARIO_NAMES = ["base", "p1_higher_fit", "p2_budget_adjusted_fit",
                  "p3_budget_adjusted_tax"]


@pytest.fixture
def toy_result():
    times = np.array([0.0, 1.0, 2.0])
    return RunResult(
        times=times,
        variables={"s": np.array([1.0, 2.0, 4.0]),
                   "f": np.array([0.5, 1.0, 2.0]),
                   "a": np.array([10.0, 10.0, 10.0])},
        stock_names=("s",),
        flow_names=("f",),
        aux_names=("a",),
    )


def test_format_float_is_shortest_exact():
    assert format_float(0.25) == "0.25"
    assert format_float(1.0 / 3.0) == repr(1.0 / 3.0)
    assert float(format_float(0.1 + 0.2)) == 0.1 + 0.2


def test_run_csv_layout(toy_result):
    stream = io.StringIO()
    emit_run_csv(toy_result, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "time,s,f,a"
    assert lines[1] == "0.0,1.0,0.5,10.0"
    assert len(lines) == 4


def test_run_csv_variable_subset_gets_an_implicit_time(toy_result):
    stream = io.StringIO()
    emit_run_csv(toy_result, stream, variables=("s",))
    lines = stream.getvalue().splitlines()
    assert lines[0] == "time,s"
    assert lines[2] == "1.0,2.0"


def test_run_csv_rejects_unknown_variables(toy_result):
    with pytest.raises(KeyError, match="unknown variables"):
        emit_run_csv(toy_result, io.StringIO(), variables=("bogus",))


def test_run_csv_reemission_is_byte_identical(base_run):
    first, second = io.StringIO(), io.StringIO()
    emit_run_csv(base_run, first)
    emit_run_csv(base_run, second)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().splitlines()
    assert len(lines) == 1 + base_run.n_records == 82
    assert lines[0].split(",") == base_run.column_order()


def test_run_csv_writes_format_float_of_every_value():
    # values whose text is easy to get wrong; 0.0 and -0.0 are equal
    # floats with different bytes and different text
    values = [0.1 + 0.2, -0.0, 1e22, 5e-324, 1.0 / 3.0]
    result = RunResult(
        times=np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
        variables={"a": np.array(values), "b": np.array([0.0] * 5),
                   "c": np.array(values[::-1])},
        stock_names=("a",), flow_names=("b",), aux_names=("c",))
    stream = io.StringIO()
    emit_run_csv(result, stream)
    columns = result.column_order()
    series = [result.times] + [result[name] for name in columns[1:]]
    expected = [",".join(columns)] + [
        ",".join(format_float(column[i]) for column in series)
        for i in range(result.n_records)]
    assert stream.getvalue() == "\n".join(expected) + "\n"


def test_comparison_csv_keys_text_by_bytes_not_value():
    def toy(column):
        return RunResult(times=memoryview(array("d", [0.0, 1.0])),
                         variables={"s": column},
                         stock_names=("s",), flow_names=(), aux_names=())
    outcome = ScenarioOutcome("x", 0.0, 0.0, 0.0, 0.0, 0.0)
    report = ComparisonReport(
        outcomes=tuple(replace(outcome, name=name) for name in "xyz"),
        runs={"x": toy(np.array([0.0, 1.5])),
              "y": toy(np.array([-0.0, 1.5])),
              # single precision: keyed by its values as doubles
              "z": toy(memoryview(array("f", [-0.0, 1.5])))},
        params={})
    stream = io.StringIO()
    emit_comparison_csv(report, stream)
    assert stream.getvalue() == ("scenario,time,s\n"
                                 "x,0.0,0.0\nx,1.0,1.5\n"
                                 "y,0.0,-0.0\ny,1.0,1.5\n"
                                 "z,0.0,-0.0\nz,1.0,1.5\n")


def test_comparison_csv_layout(canonical_report):
    stream = io.StringIO()
    emit_comparison_csv(canonical_report, stream,
                        variables=("installed_capacity",))
    lines = stream.getvalue().splitlines()
    assert lines[0] == "scenario,time,installed_capacity"
    assert len(lines) == 1 + 4 * 81
    assert lines[1].startswith("base,2015.0,")
    assert lines[82].startswith("p1_higher_fit,2015.0,")


def test_outcome_table_mentions_every_scenario(canonical_report):
    table = outcome_table(canonical_report)
    for name in SCENARIO_NAMES:
        assert name in table
    assert table.splitlines()[0].startswith("scenario")


def test_findings_text_format():
    text = findings_text([Finding("alpha", True, "fine"),
                          Finding("beta", False, "broken")])
    assert text == "PASS alpha: fine\nFAIL beta: broken"


def test_chart_svg_is_deterministic_and_complete(toy_result):
    series = {"one": toy_result["s"], "two": toy_result["f"]}
    svg = render_chart_svg(toy_result.times, series, "demo")
    assert svg == render_chart_svg(toy_result.times, series, "demo")
    assert svg.count("<polyline") == 2
    assert ">demo</text>" in svg
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")


def test_chart_svg_handles_constant_series():
    svg = render_chart_svg([0.0, 1.0], {"flat": np.array([5.0, 5.0])}, "t")
    assert "<polyline" in svg


def test_write_plot_data_layout(canonical_report, tmp_path):
    paths = write_plot_data(canonical_report, tmp_path)
    assert [os.path.basename(path) for path in paths] == [
        f"{variable}.csv" for variable in CHART_VARIABLES]
    with open(paths[0], encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "time," + ",".join(SCENARIO_NAMES)
    assert len(lines) == 82


def test_write_plot_data_reruns_byte_identical(canonical_report, tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    write_plot_data(canonical_report, first)
    write_plot_data(canonical_report, second)
    for variable in CHART_VARIABLES:
        a = (first / f"{variable}.csv").read_bytes()
        b = (second / f"{variable}.csv").read_bytes()
        assert a == b


def _plot_bytes(directory):
    return {variable: (directory / f"{variable}.csv").read_bytes()
            for variable in CHART_VARIABLES}


def test_plot_data_reuses_the_comparison_text_and_keeps_the_bytes(
        canonical_report, tmp_path, monkeypatch):
    monkeypatch.setattr(fitsim.output, "_plot_text", {})
    write_plot_data(canonical_report, tmp_path / "alone")

    emit_comparison_csv(canonical_report, io.StringIO())
    formatted = []
    text = fitsim.output._text

    def counted_text(column):
        formatted.append(column)
        return text(column)

    monkeypatch.setattr(fitsim.output, "_text", counted_text)
    write_plot_data(canonical_report, tmp_path / "after")
    # every plotted column was formatted by the comparison CSV
    assert formatted == []
    # and the plot data released that text
    assert fitsim.output._plot_text == {}
    assert _plot_bytes(tmp_path / "after") == _plot_bytes(tmp_path / "alone")


def test_plot_data_after_another_comparison_keeps_its_own_bytes(
        default_doc, canonical_report, tmp_path, monkeypatch):
    monkeypatch.setattr(fitsim.output, "_plot_text", {})
    write_plot_data(canonical_report, tmp_path / "alone")

    scenarios = [replace(scenario,
                         overrides={**scenario.overrides,
                                    "capacity_factor": 0.2})
                 for scenario in default_doc.scenarios]
    other = run_scenario_suite(default_doc.params, scenarios)
    emit_comparison_csv(canonical_report, io.StringIO())
    emit_comparison_csv(other, io.StringIO())
    write_plot_data(canonical_report, tmp_path / "after")
    assert _plot_bytes(tmp_path / "after") == _plot_bytes(tmp_path / "alone")
    write_plot_data(other, tmp_path / "other")
    assert _plot_bytes(tmp_path / "other") != _plot_bytes(tmp_path / "alone")


@pytest.fixture(scope="module")
def two_clock_report(default_doc):
    """Scenario "a" recorded quarterly, "b" half-yearly."""
    return run_scenario_suite(default_doc.params, [
        Scenario("a", SimulationClock(2015.0, 2035.0, 0.25)),
        Scenario("b", SimulationClock(2015.0, 2035.0, 0.5))])


def test_plot_data_refuses_runs_on_different_clocks(two_clock_report,
                                                    tmp_path):
    with pytest.raises(ValueError, match="'b'"):
        write_plot_data(two_clock_report, tmp_path / "plots")
    assert not (tmp_path / "plots").exists()


def test_charts_refuse_runs_on_different_clocks(two_clock_report, tmp_path):
    with pytest.raises(ValueError, match="'b'"):
        write_comparison_charts(two_clock_report, tmp_path / "charts")
    assert not (tmp_path / "charts").exists()


def test_write_comparison_charts(canonical_report, tmp_path):
    paths = write_comparison_charts(canonical_report, tmp_path,
                                    variables=("installed_capacity",))
    assert paths == [os.path.join(tmp_path, "installed_capacity.svg")]
    content = (tmp_path / "installed_capacity.svg").read_text(
        encoding="utf-8")
    assert content.count("<polyline") == 4


# === the per-point forms the emitters replaced, kept as references ===

def reference_key(column) -> bytes:
    """The column key read value by value into doubles."""
    return array("d", column).tobytes()


def reference_render_chart_svg(times, series_by_label, title):
    """The chart with each point's coordinates formatted on their own."""
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

    def sx(x):
        return left + (x - x_low) / (x_high - x_low) * plot_w

    def sy(y):
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
    for tick in fitsim.output._ticks(x_low, x_high):
        x = sx(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{top + plot_h:.2f}" '
                     f'x2="{x:.2f}" y2="{top + plot_h + 5:.2f}" '
                     f'stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{top + plot_h + 18:.2f}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{fitsim.output._tick_label(tick)}'
                     f'</text>')
    for tick in fitsim.output._ticks(y_low, y_high):
        y = sy(tick)
        parts.append(f'<line x1="{left - 5:.2f}" y1="{y:.2f}" '
                     f'x2="{left:.2f}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{fitsim.output._tick_label(tick)}'
                     f'</text>')

    xs = [f"{sx(x):.2f}," for x in times]
    span = y_high - y_low
    for k, (label, series) in enumerate(series_by_label.items()):
        color = fitsim.output._PALETTE[k % len(fitsim.output._PALETTE)]
        points = " ".join([f"{x}{top + (y_high - y) / span * plot_h:.2f}"
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


def outcome(function, *args):
    """What ``function`` returns, or the type and text of what it raises."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


SPECIAL_VALUES = [0.0, -0.0, 5.0, 1e300, -1e300, 1e-300, -1e-300]
chart_values = st.one_of(st.sampled_from(SPECIAL_VALUES),
                         st.floats(allow_nan=False, allow_infinity=False))
# a series of one value repeated, or of values drawn one by one
chart_series = st.one_of(
    st.tuples(chart_values, st.integers(0, 12)).map(
        lambda drawn: [drawn[0]] * drawn[1]),
    st.lists(chart_values, max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=10,
                unique=True).map(sorted),
       st.lists(chart_series, min_size=1, max_size=4),
       st.booleans())
@example([0.0, 1.0, 2.0], [[1.0, -0.0, 1e300], [1e-300] * 2], False)
@example([0.0, 1.0], [[5.0, 5.0, 5.0, 5.0]], True)
def test_chart_svg_matches_the_per_point_reference(times, series, as_views):
    if as_views:
        times = memoryview(array("d", times))
        series = [memoryview(array("d", values)) for values in series]
    by_label = {f"s{k}": values for k, values in enumerate(series)}
    assert (outcome(render_chart_svg, times, by_label, "t")
            == outcome(reference_render_chart_svg, times, by_label, "t"))


def strided(values, step):
    """A read-only strided view of doubles, as the engine hands out."""
    buffer = array("d", [value for value in values for _ in range(step)])
    return memoryview(buffer).toreadonly()[::step]


def float32_array(values):
    """Single precision, where a double past its range becomes infinite."""
    with np.errstate(over="ignore"):
        return np.array(values, dtype=np.float64).astype(np.float32)


# the kinds of column a key is asked for, built from a list of doubles
KEY_COLUMNS = {
    "engine column": lambda values: strided(values, 3),
    "contiguous view": lambda values: memoryview(array("d", values)),
    "float64 array": lambda values: np.array(values, dtype=np.float64),
    "float64 every other": lambda values: np.array(
        values + values, dtype=np.float64)[::2],
    "big-endian array": lambda values: np.array(values, dtype=">f8"),
    "float32 array": float32_array,
    "float view": lambda values: memoryview(array("f", values)),
    "list": list,
    "tuple": tuple,
    "2-D view": lambda values: memoryview(array("d", values * 2)).cast(
        "B").cast("d", shape=[2, len(values)]),
    "2-D array": lambda values: np.array([values, values]),
    "0-D array": lambda values: np.array(values[0]),
}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=8),
       st.sampled_from(sorted(KEY_COLUMNS)))
@example([-0.0, 1.5, 1e39], "float view")
@example([1.0, 2.0], "2-D view")
@example([float("nan"), -0.0], "engine column")
def test_column_key_matches_the_value_by_value_reference(values, kind):
    column = KEY_COLUMNS[kind](values)
    assert (outcome(fitsim.output._key, column)
            == outcome(reference_key, column))


@pytest.mark.parametrize("n_lines", [0, 1, 127, 128, 129, 300])
def test_rows_are_written_in_chunks_with_the_same_bytes(n_lines):
    columns = [[str(i) for i in range(n_lines)],
               [str(-i) for i in range(n_lines)]]
    stream = io.StringIO()
    fitsim.output._write_rows(stream, "p,", columns)
    assert stream.getvalue() == "".join(
        f"p,{i},{-i}\n" for i in range(n_lines))
