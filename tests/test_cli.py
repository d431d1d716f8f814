"""End-to-end command line checks, driven through main(argv)."""

import sys

import pytest

from fitsim import (
    FitModel,
    PARAMETER_NAMES,
    POLICY_IDS,
    default_config_text,
    extreme_condition_suite,
    findings_text,
    load_default_config,
    scenario_model,
    sensitivity_suite,
)
from fitsim.cli import main

# the shipped clock, whose step a refused --horizon alone is named with
SHIPPED = load_default_config().clock
PLOT_FILES = ("installed_capacity.csv", "penetration_rate.csv",
              "suna_debt.csv", "delay_in_debt_payment.csv", "budget.csv",
              "roi.csv", "tendency_to_invest.csv", "social_acceptance.csv")


def test_run_streams_csv_to_stdout(capsys):
    assert main(["run", "--dt", "0.25"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("time,")
    assert len(lines) == 82


def test_run_variable_subset(capsys):
    assert main(["run", "--variables", "installed_capacity,suna_debt"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "time,installed_capacity,suna_debt"


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if the command simulates before it refuses."""
    def refuse(self, clock):
        raise AssertionError("simulated before refusing")
    monkeypatch.setattr(FitModel, "simulate", refuse)


UNKNOWN_BOGUS = ("error: unknown variables ['bogus']; have "
                 f"{sorted(FitModel.stock_names + FitModel.aux_names)}\n")


def test_run_refuses_unknown_variables_before_running(no_runs, capsys):
    assert main(["run", "--variables", "time,bogus"]) == 2
    assert capsys.readouterr().err == UNKNOWN_BOGUS


def test_run_refuses_repeated_variables_before_running(no_runs, capsys):
    assert main(["run", "--variables",
                 "time,installed_capacity,time,installed_capacity"]) == 2
    assert capsys.readouterr() == (
        "", "error: repeated variables ['installed_capacity', 'time']\n")


def test_validate_refuses_history_outside_the_clock_before_running(
        no_runs, tmp_path, capsys):
    history = tmp_path / "history.csv"
    history.write_text("year,value\n2016,150\n2050,150\n2060,400\n",
                       encoding="utf-8")
    assert main(["validate", "--historical", str(history)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {history}: year 2050.0 lies outside the simulated "
            f"window [2015.0, 2035.0]\n")


def test_run_refuses_a_config_with_a_non_finite_trend(tmp_path, capsys):
    config = tmp_path / "nan.cfg"
    config.write_text(default_config_text().replace(
        "electricity_consumption_slope = 2020000.0 ;",
        "electricity_consumption_slope = nan ;"), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr() == (
        "", "error: [parameters] electricity_consumption_slope: "
            "electricity_consumption_slope must be finite, got nan\n")


@pytest.mark.parametrize("command", ["run", "compare", "validate"])
def test_a_link_refused_in_a_run_names_it_and_the_time(command, tmp_path,
                                                        capsys):
    # the learning curve takes the capital cost to zero, which the ROI refuses
    config = tmp_path / "learning.cfg"
    config.write_text(default_config_text().replace(
        "learning_exponent = 0.135 ;", "learning_exponent = 1e6 ;"),
        encoding="utf-8")
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr() == (
        "", "error: capital_cost must be positive, got 0.0 "
            "(variable='roi', t=2015.25)\n")


def test_validate_refuses_an_unknown_historical_variable_before_running(
        no_runs, tmp_path, capsys):
    history = tmp_path / "history.csv"
    history.write_text("year,value\n2015,120\n2016,150\n", encoding="utf-8")
    assert main(["validate", "--historical", str(history),
                 "--historical-variable", "bogus"]) == 2
    captured = capsys.readouterr()
    assert captured.err == UNKNOWN_BOGUS
    assert captured.out == ""


def test_run_writes_into_out_dir(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run", "--scenario", "p1_higher_fit", "--dt", "0.25",
                 "--out", str(out)]) == 0
    path = out / "p1_higher_fit.csv"
    assert path.exists()
    assert len(path.read_text(encoding="utf-8").splitlines()) == 82
    assert "81 records" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["base", "p1_higher_fit",
                                  "p2_budget_adjusted_fit",
                                  "p3_budget_adjusted_tax"])
def test_run_matches_its_block_of_compare(name, capsys):
    # run and compare wire a scenario into the model the same way
    assert main(["compare", "--dt", "0.25"]) == 0
    compared = capsys.readouterr().out.splitlines()
    assert main(["run", "--scenario", name, "--dt", "0.25"]) == 0
    run = capsys.readouterr().out.splitlines()
    header = compared[0].removeprefix("scenario,")
    rows = [line.removeprefix(f"{name},") for line in compared[1:]
            if line.startswith(f"{name},")]
    assert len(rows) == 81
    assert run == [header] + rows


def test_run_rejects_unknown_scenario(capsys):
    assert main(["run", "--scenario", "p9"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys):
    assert main(["run", "--config", "/no/such/file.cfg"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--horizon", "--dt"])
def test_non_finite_clock_override_is_a_configuration_error(flag, capsys):
    assert main(["run", flag, "inf"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "must be finite" in err


def test_dt_longer_than_the_horizon_is_a_configuration_error(capsys):
    assert main(["run", "--dt", "1e12"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --dt: dt ")


@pytest.mark.parametrize("argv, message", [
    (["compare", "--dt", "-1"], "--dt: dt must be positive, got -1.0"),
    (["run", "--horizon", "2010"],
     "--horizon: end_year must exceed start_year, got [2015.0, 2010.0]"),
    (["validate", "--dt", "inf"], "--dt: dt must be finite, got inf"),
    (["run", "--horizon", "2016", "--dt", "0.75"],
     "--horizon with --dt: horizon of 1.0 years is not a whole number of "
     "steps at dt=0.75"),
    (["run", "--dt", "1e-320"],
     "--dt: horizon of 20.0 years is not a finite number of steps at "
     "dt=1e-320"),
    (["validate", "--horizon", "1e308"],
     "--horizon: horizon of 1e+308 years is not a finite number of steps "
     f"at dt={SHIPPED.dt}"),
    # a negative value is the flag's, not an option
    (["run", "--dt", "-inf"], "--dt: dt must be finite, got -inf"),
    (["run", "--dt", "-1e-3"], "--dt: dt must be positive, got -0.001"),
    (["run", "--horizon", "-inf"],
     "--horizon: end_year must be finite, got -inf"),
    # a step count over the ceiling is refused before anything is built
    (["run", "--dt", "1e-9"],
     "--dt: horizon of 20.0 years is 2e+10 steps at dt=1e-09, more than "
     "the 262144 a run may take"),
    (["compare", "--horizon", "1e12"],
     f"--horizon: horizon of {1e12 - SHIPPED.start_year} years is "
     f"{(1e12 - SHIPPED.start_year) / SHIPPED.dt:.6g} steps at "
     f"dt={SHIPPED.dt}, more than the 262144 a run may take"),
    # a value after an abbreviated clock flag is that flag's too
    (["run", "--hor", "-inf"],
     "--horizon: end_year must be finite, got -inf"),
    (["run", "--d", "-1e-3"], "--dt: dt must be positive, got -0.001"),
    (["compare", "--ho", "-inf"],
     "--horizon: end_year must be finite, got -inf"),
])
def test_a_refused_clock_flag_is_named(argv, message, capsys):
    # a value refused alone in the same words names its flag, else both
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_an_ambiguous_clock_flag_is_argparses_error(capsys):
    # --h could be --help or --horizon, and in validate --historical too
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--h", "-inf"])
    assert exc.value.code == 2
    assert ("error: ambiguous option: --h=-inf could match --help, "
            "--horizon, --historical" in capsys.readouterr().err)


@pytest.mark.parametrize("argv, dt", [
    (["run", "--dt", "2"], 2.0),
    (["compare", "--dt", "2"], 2.0),
    (["validate", "--dt", "2"], 2.0),
    (["run", "--dt", "1.6", "--horizon", "2031"], 1.6),
])
def test_dt_too_coarse_for_the_request_lag_is_a_configuration_error(
        argv, dt, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: dt must not exceed 1.5 times the one-year request lag, "
        f"got {dt}\n")


def test_a_step_of_one_and_a_half_years_runs(capsys):
    assert main(["run", "--dt", "1.5", "--horizon", "2036"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 15  # (2036 - 2015) / 1.5 + 1 records


def test_clock_overrides_change_the_grid(capsys):
    assert main(["run", "--dt", "0.5", "--horizon", "2025"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 21  # (2025 - 2015) / 0.5 + 1 records


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_compare_writes_all_products_and_passes_checks(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out)]) == 0
    assert (out / "comparison.csv").exists()
    for name in PLOT_FILES:
        assert (out / name).exists(), name
    err = capsys.readouterr().err
    assert "PASS capacity_ordering" in err
    assert "FAIL" not in err


def test_compare_charts_flag(tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out), "--charts"]) == 0
    assert (out / "installed_capacity.svg").exists()


def test_compare_charts_need_a_directory(capsys):
    assert main(["compare", "--charts"]) == 2
    assert "--charts needs --out" in capsys.readouterr().err


def test_compare_charts_refuse_before_running_the_suite(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("ran the suite before refusing")
    monkeypatch.setattr("fitsim.cli.run_scenario_suite", refuse)
    assert main(["compare", "--charts"]) == 2
    assert capsys.readouterr().err == "error: --charts needs --out DIR\n"


@pytest.mark.parametrize("flag, value, n_records", [
    ("--dt", "0.5", 41),         # (2035 - 2015) / 0.5 + 1
    ("--horizon", "2040", 101),  # (2040 - 2015) / 0.25 + 1
])
def test_compare_runs_every_scenario_on_the_overridden_clock(
        flag, value, n_records, capsys):
    # on the quarterly grid, unless the case sets its own step
    step = [] if flag == "--dt" else ["--dt", "0.25"]
    assert main(["compare", flag, value, *step]) != 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 4 * n_records


def test_compare_labels_its_findings_with_the_last_year(capsys):
    assert main(["compare", "--horizon", "2040"]) == 0
    err = capsys.readouterr().err
    assert "PASS capacity_ordering: 2040 installed capacity (MW): " in err
    assert "PASS debt_ordering: 2040 debt ($): " in err
    assert "2035" not in err


def test_compare_labels_an_end_year_off_the_quarter_grid_exactly(capsys):
    # five years are too short for the checks to hold; only labels matter
    assert main(["compare", "--horizon", "2020.125", "--dt", "0.125"]) == 1
    err = capsys.readouterr().err
    assert "FAIL capacity_ordering: 2020.125 installed capacity (MW): " in err
    assert "FAIL debt_ordering: 2020.125 debt ($): " in err


def test_compare_is_byte_deterministic(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["compare", "--out", str(first)]) == 0
    assert main(["compare", "--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("comparison.csv",) + PLOT_FILES:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_compare_tolerates_a_noncanonical_suite(tmp_path, capsys):
    cfg = tmp_path / "solo.cfg"
    cfg.write_text("[scenario:solo]\npolicy = base ; assumed\n",
                   encoding="utf-8")
    assert main(["compare", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("solo,")
    assert "capacity_ordering" not in captured.err


# sets the clock and om_cost, at the packaged values; every other
# parameter falls back on the packaged config
PARTIAL = """[clock]
start_year = 2015.0 ; paper
end_year = 2035.0 ; paper
dt = 0.25 ; assumed
[parameters]
om_cost = 1.64 ; assumed
"""


@pytest.mark.parametrize("command", ["run", "compare", "validate"])
def test_a_partial_config_logs_its_fallbacks_to_stderr(command, tmp_path,
                                                       capsys):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(PARTIAL, encoding="utf-8")
    assert main([command, "--config", str(cfg)]) == 0
    err = capsys.readouterr().err.splitlines()
    fallbacks = [line for line in err if "defaulted to" in line]
    assert len(fallbacks) == len(PARAMETER_NAMES) - 1
    assert f"{cfg}: parameters.initial_fit_price defaulted to 20.0" in err
    assert not any("om_cost" in line or "clock." in line for line in err)
    # the log comes first, before anything the command writes
    log = fallbacks + [f"{cfg}: no [scenario:NAME] sections; synthesized "
                       "neutral 'base'"]
    assert err[:len(log)] == log


def test_a_complete_config_logs_nothing(tmp_path, capsys):
    cfg = tmp_path / "complete.cfg"
    cfg.write_text(default_config_text(), encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_validate_exit_code_tracks_findings(capsys):
    code = main(["validate"])
    out = capsys.readouterr().out
    assert "PASS remuneration_1yr_capacity_declines" in out
    any_failed = any(line.startswith("FAIL") for line in out.splitlines())
    assert code == (1 if any_failed else 0)


@pytest.mark.parametrize("name", POLICY_IDS)
def test_validate_runs_the_scenarios_model_in_both_suites(name, capsys):
    # the shipped scenarios are named after their policies
    doc = load_default_config()
    model = scenario_model(doc.params, doc.scenario(name))
    findings = (extreme_condition_suite(model, doc.clock)
                + sensitivity_suite(model, doc.clock))
    code = main(["validate", "--scenario", name])
    out = capsys.readouterr().out
    assert out == findings_text(findings) + "\n"
    any_failed = any(line.startswith("FAIL") for line in out.splitlines())
    assert code == (1 if any_failed else 0)


def test_validate_scenario_runs_its_policy(capsys):
    # p1 overrides no parameter: only its policy tells it from base
    outs = []
    for name in ("base", "p1_higher_fit"):
        main(["validate", "--scenario", name])
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


def test_validate_reports_fit_metrics(tmp_path, capsys):
    history = tmp_path / "history.csv"
    history.write_text("year,capacity\n2016,150\n2018,400\n2020,1200\n",
                       encoding="utf-8")
    main(["validate", "--historical", str(history)])
    out = capsys.readouterr().out
    assert "r_squared" in out
    assert "theil um/us/uc" in out
    assert "3 points" in out


def test_validate_history_out_of_float_range_is_a_usage_error(tmp_path,
                                                              capsys):
    # relative errors near 1e202 overflow when squared
    history = tmp_path / "tiny.csv"
    history.write_text("2015,1e-200\n2016,2e-200\n2017,3e-200\n",
                       encoding="utf-8")
    assert main(["validate", "--historical", str(history)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "overflow" in captured.err
    assert captured.out == ""


def test_compare_refuses_a_clock_of_two_records_before_running(
        no_runs, tmp_path, capsys):
    # two records are too few for the behavior classifier the checks use
    out = tmp_path / "cmp"
    assert main(["compare", "--horizon", "2015.25", "--dt", "0.25",
                 "--out", str(out), "--charts"]) == 2
    assert capsys.readouterr() == (
        "", "error: the structural checks need at least 3 records, got 2 "
            "from 2015.0 to 2015.25 at dt 0.25\n")
    assert not out.exists()


def test_compare_runs_a_noncanonical_suite_on_two_records(tmp_path, capsys):
    cfg = tmp_path / "solo.cfg"
    cfg.write_text("[scenario:solo]\npolicy = base ; assumed\n",
                   encoding="utf-8")
    assert main(["compare", "--config", str(cfg), "--horizon", "2015.25",
                 "--dt", "0.25"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2


def test_validate_short_horizon_is_a_configuration_error(capsys):
    assert main(["validate", "--horizon", "2015.25"]) == 2
    captured = capsys.readouterr()
    assert "horizon of at least three years" in captured.err
    assert "2015.25" in captured.err
    assert captured.out == ""


def test_validate_refuses_a_horizon_before_year_three(no_runs, tmp_path,
                                                      capsys):
    # the inherited-debt check reads the tendency three years in; the
    # refusal comes before the fit against history is printed
    history = tmp_path / "history.csv"
    history.write_text("2015,120\n2016,300\n", encoding="utf-8")
    for extra in ([], ["--historical", str(history)]):
        assert main(["validate", "--horizon", "2017", *extra]) == 2
        assert capsys.readouterr() == (
            "", "error: the extreme-condition suite needs a horizon of at "
                "least three years, got 2015.0 to 2017.0\n")


def test_validate_reads_history_at_an_off_grid_end_year(tmp_path, capsys):
    # 2015.1 + 0.1 * 33 is 2018.3999999999999; the last record is 2018.4
    config = tmp_path / "clock.cfg"
    config.write_text("[clock]\nstart_year = 2015.1 ; assumed\n"
                      "end_year = 2018.4 ; assumed\ndt = 0.1 ; assumed\n",
                      encoding="utf-8")
    history = tmp_path / "history.csv"
    history.write_text("2015.1,120\n2018.4,900\n", encoding="utf-8")
    assert main(["validate", "--config", str(config),
                 "--historical", str(history)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"fit of installed_capacity against {history} "
                          f"(2 points):\n")


def _package_state() -> dict:
    """Every global of every loaded ``fitsim`` module: the object it names
    and, for a dict, list or set, a copy of its contents."""
    return {name: {key: (value, type(value)(value)
                         if isinstance(value, (dict, list, set)) else None)
                   for key, value in vars(module).items()}
            for name, module in sorted(sys.modules.items())
            if name == "fitsim" or name.startswith("fitsim.")}


@pytest.mark.parametrize("argv", [["compare", "--out", "DIR", "--charts"],
                                  ["compare", "--out", "-"]])
def test_a_command_leaves_every_module_as_it_found_it(argv, tmp_path,
                                                      capsys):
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    before = _package_state()
    assert main(argv) == 0
    after = _package_state()
    capsys.readouterr()
    assert list(after) == list(before)
    for module, names in before.items():
        assert list(after[module]) == list(names), module
        for key, (value, contents) in names.items():
            now, now_contents = after[module][key]
            assert now is value, f"{module}.{key} was rebound"
            assert now_contents == contents, f"{module}.{key} changed"
