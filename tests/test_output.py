"""Deterministic emitters: CSV layout, tables, SVG charts, plot data."""

import io
import os
from array import array

import numpy as np
import pytest

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
