"""Command line front end.

Three subcommands::

    fitsim run       one scenario, trajectory as CSV
    fitsim compare   all configured scenarios: CSV, plot data, checks
    fitsim validate  metrics against history plus the stress suites

``run`` and ``compare`` write into the directory named by ``--out``, or
stream the main CSV to stdout when it is ``-`` (the default). Exit codes:
0 on success, 1 when a check fails, 2 on bad usage or configuration;
the process entry (``fitsim.__main__``) adds 141 for a closed stdout.
Output is byte-deterministic for a given config and flag set.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigDocument, _named, load_config, load_default_config
from .engine import MAX_STEPS, ConfigurationError, SimulationError
from .model import FitModel
from .output import (
    emit_comparison_csv,
    emit_run_csv,
    findings_text,
    outcome_table,
    write_comparison_charts,
    write_plot_data,
)
from .policies import (
    POLICY_IDS,
    qualitative_checks,
    run_scenario_suite,
    scenario_model,
)
from .validation import (
    check_extreme_horizon,
    error_metrics,
    extreme_condition_suite,
    load_series_csv,
    sensitivity_suite,
)

__all__ = ["main", "build_parser"]

# the flag that sets each clock field, naming its refusals
_FLAGS = {"end_year": "--horizon:", "dt": "--dt:"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fitsim",
        description="Stock-flow simulator of a feed-in-tariff program")
    common = argparse.ArgumentParser(add_help=False)
    size = FitModel._record.size  # bytes of one record
    common.add_argument("--config", metavar="PATH",
                        help="configuration file (default: packaged config)")
    common.add_argument("--dt", type=float, metavar="YEARS",
                        help="override the integration step; over 1.5 "
                             "years is refused, too coarse for the one-year "
                             "request lag. Sterman (2000, App. A) puts dt at "
                             "1/4 to 1/10 of the shortest time constant, one "
                             "year here: halving dt 0.25 moves p2's stocks "
                             "by 15.8%%, and at dt 0.4 compare exits 1. A "
                             f"clock of more than {MAX_STEPS} steps is "
                             f"refused: a run holds {size} bytes of records "
                             f"per step, about {size * MAX_STEPS / 1e6:.0f} "
                             "MB at that ceiling")
    common.add_argument("--horizon", type=float, metavar="YEAR",
                        help="override the end year")

    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[common],
                         help="simulate one scenario and emit its trajectory")
    run.add_argument("--scenario", default="base", metavar="NAME")
    run.add_argument("--out", default="-", metavar="DIR",
                     help="output directory; '-' streams the CSV to stdout")
    run.add_argument("--variables", metavar="A,B,C",
                     help="comma-separated subset of columns")

    compare = sub.add_parser(
        "compare", parents=[common],
        help="run all configured scenarios and check the orderings")
    compare.add_argument("--out", default="-", metavar="DIR",
                         help="output directory for the combined CSV and "
                              "per-variable plot data; '-' streams the "
                              "combined CSV to stdout")
    compare.add_argument("--charts", action="store_true",
                         help="also write one SVG per key variable "
                              "(needs --out DIR)")

    validate = sub.add_parser(
        "validate", parents=[common],
        help="error metrics against history plus the stress suites")
    validate.add_argument("--scenario", default="base", metavar="NAME",
                          help="scenario whose model, its policy included, "
                               "runs in the stress suites and in the "
                               "--historical fit")
    validate.add_argument("--historical", metavar="CSV",
                          help="two-column year,value history")
    validate.add_argument("--historical-variable", metavar="NAME",
                          default="installed_capacity",
                          help="model variable the history refers to")
    return parser


def _load_document(args) -> ConfigDocument:
    doc = load_config(args.config) if args.config else load_default_config()
    for line in doc.log:  # a partial config's fallbacks; the packaged has none
        print(f"{args.config}: {line}", file=sys.stderr)
    given = {"end_year": args.horizon, "dt": args.dt}
    changes = {key: value for key, value in given.items() if value is not None}
    return doc._replace(clock=_named(doc.clock._replace, changes, _FLAGS.get,
                                     "--horizon with --dt:"))


def _check_variables(model, names) -> None:
    """Refuse, before any run, names that ``model`` does not record."""
    known = model.stock_names + model.aux_names
    if unknown := [name for name in names if name not in known]:
        raise ConfigurationError(
            f"unknown variables {unknown}; have {sorted(known)}")


def _cmd_run(args) -> int:
    doc = _load_document(args)
    scenario = doc.scenario(args.scenario)
    model = scenario_model(doc.params, scenario)
    variables = [name.strip() for name in (args.variables or "").split(",")
                 if name.strip()]
    if repeated := sorted({name for name in variables
                           if variables.count(name) > 1}):
        raise ConfigurationError(f"repeated variables {repeated}")
    _check_variables(model, [name for name in variables if name != "time"])
    result = model.simulate(doc.clock)
    if args.out == "-":
        emit_run_csv(result, sys.stdout, variables)
        return 0
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{scenario.name}.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        emit_run_csv(result, handle, variables)
    print(f"{scenario.name}: {result.n_records} records -> {path}",
          file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    doc = _load_document(args)
    if args.charts and args.out == "-":
        print("error: --charts needs --out DIR", file=sys.stderr)
        return 2
    # only the canonical four-scenario set has checks to run
    checked = {scenario.name for scenario in doc.scenarios} >= set(POLICY_IDS)
    clock = doc.clock
    if checked and clock.n_steps < 2:  # the behavior classifier's minimum
        raise ConfigurationError(
            f"the structural checks need at least 3 records, got "
            f"{clock.n_steps + 1} from {clock.start_year} to "
            f"{clock.end_year} at dt {clock.dt}")
    report = run_scenario_suite(doc.params, list(doc.scenarios), clock)
    if args.out == "-":
        emit_comparison_csv(report, sys.stdout)
    else:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "comparison.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            texts = emit_comparison_csv(report, handle)
        written = [path] + write_plot_data(report, args.out, texts)
        if args.charts:
            written += write_comparison_charts(report, args.out)
        for item in written:
            print(f"wrote {item}", file=sys.stderr)
    print(outcome_table(report), file=sys.stderr)
    if not checked:
        return 0
    findings = qualitative_checks(report)
    print(findings_text(findings), file=sys.stderr)
    return 0 if all(finding.passed for finding in findings) else 1


def _cmd_validate(args) -> int:
    doc = _load_document(args)
    scenario = doc.scenario(args.scenario)
    model = scenario_model(doc.params, scenario)
    # refused before the fit against history prints anything
    check_extreme_horizon(doc.clock)

    if args.historical:
        _check_variables(model, [args.historical_variable])
        years, values = load_series_csv(args.historical)
        start, end = doc.clock.start_year, doc.clock.end_year
        if outside := [year for year in years if not start <= year <= end]:
            raise ValueError(f"{args.historical}: year {outside[0]} lies "
                             f"outside the simulated window [{start}, {end}]")
        result = model.simulate(doc.clock)
        simulated = [result.at_year(args.historical_variable, year)
                     for year in years]
        report = error_metrics(simulated, values)
        print(f"fit of {args.historical_variable} against "
              f"{args.historical} ({len(years)} points):")
        print(f"  r_squared = {report.r_squared:.6f}")
        print(f"  mse       = {report.mse:.6g}")
        print(f"  rmspe     = {report.rmspe:.4f}%")
        print(f"  theil um/us/uc = {report.theil_um:.4f} "
              f"{report.theil_us:.4f} {report.theil_uc:.4f}")

    findings = extreme_condition_suite(model, doc.clock)
    findings += sensitivity_suite(model, doc.clock)
    print(findings_text(findings))
    return 0 if all(finding.passed for finding in findings) else 1


def _attach_clock_values(argv: list[str]) -> list[str]:
    """``argv`` with each ``--dt X`` and ``--horizon X`` written ``--dt=X``:
    a clock flag takes whatever follows it, where argparse would read
    ``-inf`` or ``-1e-3`` as an option and refuse the flag unnamed. A flag
    abbreviated to three characters or more (``--d``, ``--hor``) counts,
    and argparse resolves it; ``--h`` stays ambiguous with ``--help``."""
    attached = []
    for arg in argv:
        if attached and len(attached[-1]) >= 3 and any(
                flag.startswith(attached[-1])
                for flag in ("--dt", "--horizon")):
            attached[-1] += f"={arg}"
        else:
            attached.append(arg)
    return attached


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_clock_values(sys.argv[1:] if argv is None else argv))
    handlers = {"run": _cmd_run, "compare": _cmd_compare,
                "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        raise  # a closed stdout; the process entry ends quietly on it
    # a ConfigurationError is a ValueError
    except (SimulationError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
