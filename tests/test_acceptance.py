"""The committed acceptance battery: ten numbered criteria.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line before asserting,
so the log always carries an explicit verdict per criterion, timing
budgets included.
"""

import time

import numpy as np

from fitsim import (
    FitModel,
    annuity_factor,
    eval_inverted_sigmoid,
    extreme_condition_suite,
    qualitative_checks,
    run_scenario_suite,
    sensitivity_suite,
    theil_decomposition,
)
from fitsim.cli import main
from fitsim.validation import (
    ACCEPTANCE_BOUNDS as BOUNDS,
    calibration_story,
    policy_tendencies,
    step_halving,
)
from fitsim.model import (
    allocate_payments,
    compute_capital_cost,
    compute_fit_price,
    compute_roi,
    compute_social_acceptance,
)

REL_TOL = 1e-9


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _findings_verdict(number: int, claim: str, findings,
                      in_time: bool) -> None:
    """The verdict of ``claim``, which holds when every finding passes in
    the criterion's time budget."""
    _verdict(number, in_time and all(finding.passed for finding in findings),
             f"{claim}: " + "; ".join(map(str, findings)))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if b == 0.0:
        return a == 0.0
    return abs(a - b) <= rel * abs(b)


def _discounted_dollar_stream(rate: float, years: int) -> float:
    # one dollar a year, brute force, no closed form
    return sum((1.0 + rate) ** -k for k in range(1, years + 1))


def test_criterion_01_equation_oracles(default_params):
    start = time.perf_counter()
    ok = True
    details = []

    for rate, years in ((0.10, 20), (0.10, 24), (0.07, 15), (0.0, 10)):
        oracle = _discounted_dollar_stream(rate, years)
        if not _close(annuity_factor(rate, float(years)), oracle):
            ok, details = False, details + [f"annuity({rate},{years})"]

    project = default_params._replace(
        capacity_factor=0.25, om_cost=10.0, interest_rate=0.10,
        remuneration_period=20.0)
    capital = 1.5e6
    margin = 0.25 * 8760.0 * (100.0 - 10.0)
    roi_oracle = (margin * _discounted_dollar_stream(0.10, 20)
                  - capital) / capital
    if not _close(compute_roi(project, 100.0, capital), roi_oracle):
        ok, details = False, details + ["roi"]

    cost_oracle = (default_params.initial_capital_cost
                   * 2.0 ** (-default_params.learning_exponent))
    if not _close(compute_capital_cost(default_params, 240.0), cost_oracle):
        ok, details = False, details + ["learning curve"]
    launch = default_params.initial_installed_capacity
    if not _close(compute_capital_cost(default_params, launch),
                  default_params.initial_capital_cost):
        ok, details = False, details + ["learning curve at launch"]

    for installed, expected in ((0.0, 20.0), (2500.0, 10.0),
                                (4000.0, 5.0), (20000.0, 5.0)):
        if not _close(compute_fit_price(default_params, None, installed),
                      expected):
            ok, details = False, details + [f"fit price @ {installed}"]

    if not _close(compute_social_acceptance(default_params, 0.1, 0.0), 1.5):
        ok, details = False, details + ["acceptance vs penetration"]
    if not _close(compute_social_acceptance(default_params, 0.0, 0.05), 0.5):
        ok, details = False, details + ["acceptance vs levy"]

    for budget, debt, desired, expected in (
            (100.0, 30.0, 50.0, (80.0, 30.0, 50.0, 0.0)),
            (40.0, 30.0, 50.0, (40.0, 30.0, 10.0, 40.0)),
            (20.0, 30.0, 50.0, (20.0, 20.0, 0.0, 50.0))):
        got = allocate_payments(default_params, budget, debt, desired)
        if not all(_close(g, e) for g, e in zip(got, expected)):
            ok, details = False, details + [f"allocation {budget}"]

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(1, ok, "closed forms match brute-force oracles at 1e-9 "
             f"({elapsed * 1000:.0f} ms)"
             + (f"; mismatches: {details}" if details else ""))


def test_criterion_02_sigmoid_battery(default_params):
    start = time.perf_counter()
    rng = np.random.default_rng(20150101)
    ok = True
    for name in ("social_tolerance", "investor_trust", "om_activity"):
        y_max, x_50, p = (getattr(default_params, f"{name}_{part}")
                          for part in ("y_max", "x_50", "p"))
        ok = ok and _close(eval_inverted_sigmoid(y_max, x_50, p, 0.0), y_max)
        ok = ok and _close(eval_inverted_sigmoid(y_max, x_50, p, x_50),
                           y_max / 2.0)
        x = np.sort(rng.uniform(0.0, 10.0 * x_50, size=1200))
        y = np.array([eval_inverted_sigmoid(y_max, x_50, p, float(v))
                      for v in x])
        ok = ok and bool(np.all(np.diff(y) <= 0.0))
        ok = ok and bool(np.all((y >= 0.0) & (y <= y_max)))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _verdict(2, ok, "all three response curves anchor at y_max and "
             f"y_max/2 and decrease monotonically ({elapsed * 1000:.0f} ms)")


def test_criterion_03_conservation_ledgers(base_run):
    start = time.perf_counter()
    dt = float(base_run.times[1] - base_run.times[0])

    def ledger_residual(stock, inflow, outflow):
        values = base_run[stock]
        net = np.asarray(base_run[inflow]) - (base_run[outflow]
                                              if outflow else 0.0)
        rebuilt = values[0] + dt * np.concatenate(
            ([0.0], np.cumsum(net[:-1])))
        scale = max(float(np.max(np.abs(values))), 1.0)
        return float(np.max(np.abs(rebuilt - values))) / scale

    budget_residual = ledger_residual("budget", "budget_increase",
                                      "budget_decrease")
    debt_residual = ledger_residual("suna_debt", "debt_creation",
                                    "debt_payment")
    production_residual = ledger_residual("total_electricity_production",
                                          "electricity_production", None)
    cumulative_exact = bool(np.array_equal(
        base_run["cumulative_installed_capacity"],
        np.asarray(base_run["installed_capacity"])
        + base_run["depreciated_capacity"]))
    unclamped = base_run.clamp_events == ()

    elapsed = time.perf_counter() - start
    ok = (budget_residual <= REL_TOL and debt_residual <= REL_TOL
          and production_residual <= REL_TOL and cumulative_exact
          and unclamped and elapsed < 1.0)
    _verdict(3, ok, "fund, debt, and production ledgers reconstruct the "
             f"stocks (worst residual {max(budget_residual, debt_residual, production_residual):.2e}), "
             f"cumulative build exact: {cumulative_exact} "
             f"({elapsed * 1000:.0f} ms)")


def test_criterion_04_theil_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    ok = True
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 30))
        h = rng.normal(0.0, 5.0, size=n)
        s = h + rng.normal(0.0, 2.0, size=n)
        um, us, uc = theil_decomposition(s, h)
        worst = max(worst, abs(um + us + uc - 1.0))
        ok = ok and abs(um + us + uc - 1.0) <= 1e-9

    h = np.arange(1.0, 9.0)
    um, us, uc = theil_decomposition(h + 3.0, h)
    ok = ok and abs(um - 1.0) <= 1e-9 and abs(us) <= 1e-9 and abs(uc) <= 1e-9
    s = h.mean() + 3.0 * (h - h.mean())
    um, us, uc = theil_decomposition(s, h)
    ok = ok and abs(um) <= 1e-9 and abs(us - 1.0) <= 1e-9 and abs(uc) <= 1e-9

    elapsed = time.perf_counter() - start
    _verdict(4, ok, "bias/variance/covariance shares sum to one on 1000 "
             f"random pairs (worst gap {worst:.2e}) and isolate pure bias "
             f"and pure variance ({elapsed * 1000:.0f} ms)")


def test_criterion_05_committed_calibration_story(canonical_report):
    findings = [finding for finding in qualitative_checks(canonical_report)
                if finding.name == "base_debt_and_peak"]
    findings += calibration_story(canonical_report.runs["base"])
    _findings_verdict(5, "the fund and capacity grow, peak and decline, and "
                      "debt emerges after the target and ends above the "
                      "fund", findings, in_time=True)


def test_criterion_06_policy_orderings(default_doc):
    start = time.perf_counter()
    report = run_scenario_suite(default_doc.params,
                                list(default_doc.scenarios),
                                default_doc.clock)
    findings = [finding for finding in qualitative_checks(report)
                if finding.name in ("capacity_ordering", "debt_ordering")]
    findings += policy_tendencies(report.runs)
    elapsed = time.perf_counter() - start
    _findings_verdict(6, "2035 capacity p3>base>p2>p1 and debt p1>base>p2>p3 "
                      "with p3 debt-free throughout; p3 tendency rises, p1 "
                      f"tendency collapses ({elapsed:.1f} s)", findings,
                      elapsed < 10.0)


def test_criterion_07_extreme_conditions(default_doc):
    start = time.perf_counter()
    findings = extreme_condition_suite(FitModel(default_doc.params),
                                       default_doc.clock)
    elapsed = time.perf_counter() - start
    _findings_verdict(7, f"{len(findings)} extreme-condition checks hold "
                      f"({elapsed:.1f} s)", findings, elapsed < 5.0)


def test_criterion_08_perturbation_keeps_behavior_modes(default_doc):
    start = time.perf_counter()
    findings = sensitivity_suite(FitModel(default_doc.params),
                                 default_doc.clock)
    elapsed = time.perf_counter() - start
    _findings_verdict(8, "five-parameter perturbation keeps capacity and debt "
                      f"behavior modes ({elapsed:.1f} s)", findings,
                      elapsed < 10.0)


def test_criterion_09_step_halving(default_doc, base_run):
    clock = default_doc.clock
    fine = FitModel(default_doc.params).simulate(
        clock._replace(dt=clock.dt / 2))
    _findings_verdict(9, "halving the step moves no accounted stock by "
                      f"{BOUNDS['step_halving']:.0%} of its range",
                      step_halving(base_run, fine), in_time=True)


def test_criterion_10_byte_deterministic_cli(tmp_path, capsys):
    first = tmp_path / "first"
    second = tmp_path / "second"
    code_a = main(["compare", "--out", str(first)])
    code_b = main(["compare", "--out", str(second)])
    capsys.readouterr()
    files = sorted(path.name for path in first.iterdir())
    identical = files == sorted(path.name for path in second.iterdir())
    for name in files:
        identical = identical and ((first / name).read_bytes()
                                   == (second / name).read_bytes())
    ok = identical and code_a == code_b == 0
    _verdict(10, ok, f"two compare invocations emit identical bytes "
             f"across {len(files)} files")
