"""Validation toolkit: error metrics, behavior classification, stress suites.

Three layers of confidence checks:

* point metrics against a historical series (MSE, RMSPE, R squared) plus
  the Theil inequality decomposition of MSE into bias, variance, and
  covariance shares;
* a behavior-mode classifier that reduces a trajectory to a small
  signature (shape class, emergence, timing), used to ask whether
  parameter changes alter the *kind* of behavior rather than its exact
  numbers;
* extreme-condition and sensitivity suites that run the model under
  deliberately broken or perturbed parameters and check the structural
  expectations hold.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .engine import ConfigurationError, SimulationClock
from .model import FitModel, ModelParameters, apply_overrides, get_parameter

__all__ = [
    "Finding",
    "ACCEPTANCE_BOUNDS",
    "ErrorReport",
    "error_metrics",
    "theil_decomposition",
    "BehaviorSignature",
    "behavior_signature",
    "PerturbationSet",
    "TABLE_PERTURBATIONS",
    "check_extreme_horizon",
    "extreme_condition_suite",
    "sensitivity_suite",
    "calibration_story",
    "policy_tendencies",
    "step_halving",
]


class Finding(NamedTuple):
    """Outcome of one structural check, printed as its verdict and detail.

    ``margin``, relative and dimensionless, is the verdict: the check passes
    exactly when it is positive, and its size tells how far the check is
    from flipping. It is the smallest of the check's demands' margins, or
    ``math.inf`` for a flag that always passes; zero and NaN fail.
    """

    name: str
    detail: str
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin > 0.0

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


# === point metrics ===

class ErrorReport(NamedTuple):
    """Fit of a simulated series against a historical one.

    ``theil_um/us/uc`` are the bias, variance, and covariance shares of the
    MSE; they sum to one whenever ``mse > 0`` and are reported as zero for
    a perfect fit.
    """

    r_squared: float
    mse: float
    rmspe: float
    theil_um: float
    theil_us: float
    theil_uc: float


def _as_series(simulated, historical) -> tuple[list[float], list[float]]:
    try:
        s = [float(value) for value in simulated]
        h = [float(value) for value in historical]
    except TypeError:
        raise ValueError("series must be one-dimensional") from None
    if len(s) != len(h):
        raise ValueError(
            f"length mismatch: simulated has {len(s)}, historical {len(h)}")
    if len(s) < 2:
        raise ValueError(f"need at least 2 points, got {len(s)}")
    if not all(map(math.isfinite, s + h)):
        raise ValueError("series must be finite")
    return s, h


def _sum_of_squares(values: list[float], what: str) -> float:
    """``fsum`` of the squares of ``values``, which are not all zero.

    Raises ``ValueError`` when a square or the sum overflows, or when the
    squares underflow so far that their mean is zero: no metric is defined
    from such a sum.
    """
    try:
        total = math.fsum([value ** 2 for value in values])
    except OverflowError:
        total = math.inf
    if total == math.inf:  # a value that overflowed to inf squares to inf
        raise ValueError(f"the squares of the {what} overflow")
    if total / len(values) == 0.0:
        raise ValueError(f"the squares of the {what} underflow to zero")
    return total


def _mean(values: list[float], what: str) -> float:
    """``fsum(values) / len(values)``, as ``statistics.fmean`` computes it.

    Raises ``ValueError`` when the sum leaves float range.
    """
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise ValueError(f"the sum of the {what} overflows") from None


def theil_decomposition(simulated, historical) -> tuple[float, float, float]:
    """Theil shares ``(um, us, uc)`` of the mean squared error.

    Bias share ``um = (mean_s - mean_h)^2 / MSE``, variance share
    ``us = (sigma_s - sigma_h)^2 / MSE``, covariance share
    ``uc = 2 (1 - r) sigma_s sigma_h / MSE``. With population moments the
    three shares sum to one exactly.

    Raises ``ValueError`` on a perfect fit, which has nothing to
    decompose, when a series' sum or squared differences overflow, when
    squared differences or deviations underflow, and when the products of
    the deviations overflow, leaving the correlation or a share not finite.
    """
    s, h = _as_series(simulated, historical)
    if s == h:
        raise ValueError("MSE is zero; decomposition undefined on a "
                         "perfect fit")
    mse = _sum_of_squares([a - b for a, b in zip(s, h)],
                          "differences") / len(s)
    return _theil_shares(s, h, mse)


def _theil_shares(s, h, mse: float) -> tuple[float, float, float]:
    """Theil shares of checked series ``s`` and ``h``, whose MSE is ``mse``."""
    # imported here: only ``validate --historical`` needs it
    from statistics import StatisticsError, correlation, pstdev

    sigma_s, sigma_h = pstdev(s), pstdev(h)
    um = (_mean(s, "simulated series")
          - _mean(h, "historical series")) ** 2 / mse
    us = (sigma_s - sigma_h) ** 2 / mse
    if sigma_s == 0.0 or sigma_h == 0.0:
        uc = 0.0  # no co-movement to attribute
    else:
        try:
            r = correlation(s, h)
        except StatisticsError:
            # neither series is constant: their deviations underflowed
            raise ValueError("the squares of the deviations underflow to "
                             "zero") from None
        uc = 2.0 * (1.0 - r) * sigma_s * sigma_h / mse
    # a NaN correlation makes uc NaN too
    if not (math.isfinite(um) and math.isfinite(us) and math.isfinite(uc)):
        raise ValueError("the products of the deviations overflow")
    return um, us, uc


def error_metrics(simulated, historical) -> ErrorReport:
    """Standard fit metrics of a simulated series against history.

    RMSPE is the root mean square percentage error,
    ``100 * sqrt(mean(((s - h) / h)^2))``; a zero historical value is only
    tolerated where the simulated value matches it exactly. R squared is
    ``1 - SSE / SST`` with SST taken around the historical mean. Only
    ``s == h``, element by element, is a perfect fit; differences or
    deviations whose squares underflow, and sums or squares that
    overflow, raise ``ValueError``.
    """
    s, h = _as_series(simulated, historical)
    if s == h:
        return ErrorReport(r_squared=1.0, mse=0.0, rmspe=0.0,
                           theil_um=0.0, theil_us=0.0, theil_uc=0.0)
    diff = [a - b for a, b in zip(s, h)]
    sse = _sum_of_squares(diff, "differences")
    mse = sse / len(diff)

    if any(b == 0.0 and d != 0.0 for b, d in zip(h, diff)):
        raise ValueError("historical series has zero values where the "
                         "simulation differs; RMSPE undefined")
    relative = [d / b if b != 0.0 else 0.0 for b, d in zip(h, diff)]
    rmspe = 100.0 * math.sqrt(
        _sum_of_squares(relative, "relative errors") / len(relative))

    # a constant history: its mean need not round back to its value, so
    # SST can come out tiny but not 0
    if min(h) == max(h):
        raise ValueError("historical series is constant; R squared undefined")
    mean_h = _mean(h, "historical series")
    sst = _sum_of_squares([b - mean_h for b in h],
                          "deviations of the historical series")
    r_squared = 1.0 - sse / sst

    return ErrorReport(r_squared, mse, rmspe, *_theil_shares(s, h, mse))


def load_series_csv(path) -> tuple[list[float], list[float]]:
    """Read a two-column (year, value) CSV, header optional.

    Blank lines and ``#`` comments are skipped anywhere; the first row
    that is neither is a header if neither of its fields reads as a number.
    A non-numeric or non-finite row, or a year not after the year before,
    is refused by ``path:line``.
    """
    years: list[float] = []
    values: list[float] = []
    rows = 0
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows += 1
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected two columns, got {len(parts)}")
            numbers = []
            for part in parts:
                try:
                    numbers.append(float(part))
                except ValueError:
                    pass
            if len(numbers) != 2:
                if rows == 1 and not numbers:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-numeric row {line!r}")
            year, value = numbers
            if not (math.isfinite(year) and math.isfinite(value)):
                raise ValueError(f"{path}:{lineno}: non-finite row {line!r}")
            if years and year <= years[-1]:
                raise ValueError(f"{path}:{lineno}: year {year} does not "
                                 f"follow {years[-1]}")
            years.append(year)
            values.append(value)
    if len(years) < 2:
        raise ValueError(f"{path}: need at least 2 data rows")
    return years, values


# === behavior-mode classification ===

GROWTH_PEAK_DECLINE = "growth-peak-decline"
MONOTONE_GROWTH = "monotone-growth"
MONOTONE_DECLINE = "monotone-decline"
FLAT = "flat"

# relative rise/fall below this fraction of the series range is noise
_SHAPE_MARGIN = 0.02


class BehaviorSignature(NamedTuple):
    """Coarse mode of a trajectory, invariant to positive rescaling."""

    shape: str
    emerged: bool                      # ever meaningfully above zero
    first_positive_year: float | None  # None when never meaningfully positive
    peak_year: float | None            # argmax, None for flat series


def behavior_signature(times, values) -> BehaviorSignature:
    """Classify a trajectory into one of four coarse shapes.

    A series that rises to an interior maximum and gives a meaningful part
    of it back is growth-peak-decline; otherwise it is monotone growth,
    monotone decline, or flat. "Meaningful" is a fixed fraction of the
    series scale, so uniform positive scaling leaves the result unchanged.
    The values are classified as Python numbers: a numpy array goes
    through ``tolist()``, so a float32 series is smoothed in double
    precision.
    """
    if len(times) != len(values) or len(values) < 3:
        raise ValueError("need matching 1-d series of at least 3 points")

    # Python floats, converted at once from a buffer (a run's column)
    v = values.tolist() if hasattr(values, "tolist") else list(values)
    smooth = ([v[0]] + [(a + b + c) / 3.0 for a, b, c in zip(v, v[1:], v[2:])]
              + [v[-1]])
    high, low = max(smooth), min(smooth)
    scale = max(abs(high), abs(low))
    margin = _SHAPE_MARGIN * scale if scale > 0.0 else 0.0

    peak_index = smooth.index(high)  # the first maximum
    rise = smooth[peak_index] - smooth[0]
    fall = smooth[peak_index] - smooth[-1]
    if rise > margin and fall > margin:
        shape = GROWTH_PEAK_DECLINE
    elif smooth[-1] - smooth[0] > margin:
        shape = MONOTONE_GROWTH
    elif smooth[0] - smooth[-1] > margin:
        shape = MONOTONE_DECLINE
    else:
        shape = FLAT
    peak_year = float(times[peak_index]) if scale > 0.0 else None

    first_positive_year: float | None = None
    top = max(v)
    if top > 0.0:
        floor = 1e-9 * top
        for ti, vi in zip(times, v):
            if vi > floor:
                first_positive_year = float(ti)
                break
    return BehaviorSignature(shape, first_positive_year is not None,
                             first_positive_year, peak_year)


# === the bounds of acceptance criteria 05 to 09, and margins ===

# each bound written once, with its reason; the tests, the suites here,
# qualitative_checks and tools/calibrate.py read it from here
ACCEPTANCE_BOUNDS = {
    # 05, check (c): the crisis follows the 2021 target, with 3 years' slack
    "debt_emerges_after": 2018.0,
    # 05: the boom takes years to peak, and must decline before 2035
    "capacity_peak_window": (2018.0, 2033.0),
    # 05: capacity grows from launch to the program's 2021 target year
    "capacity_grows_from_to": (2015.0, 2021.0),
    # 06: p1's unfunded tariff costs trust, so its tendency all but dies
    "p1_tendency_collapse": 0.1,
    # 07: no project pays back in a year: under 1% of the launch tendency
    "remuneration_tendency": 0.01,
    # 07: about half the launch fund, enough to delay payments from launch
    "inherited_debt": 1.0e8,
    # 07: that delay costs investor trust from the first step ...
    "inherited_debt_tendency_at_start": 0.1,
    # 07: ... and leaves the tendency all but dead three years in
    "inherited_debt_tendency_year_3": 0.01,
    # 07: debt service takes the fund's income: a fifth gone within a year
    "inherited_debt_fund_year_1": 0.8,
    # 08: a base run takes off when its capacity triples
    "base_take_off": 3.0,
    # 08: a perturbed run that grows less than half again has changed regime
    "perturbed_take_off": 1.5,
    # 09: the step's integration error stays well inside the shapes checked
    "step_halving": 0.05,
}


def margin_above(a: float, b: float, floor: float = 0.0) -> float:
    """Margin of ``a > b``: the gap over the larger magnitude, or over
    ``floor`` if larger, so orderings near zero give no margin."""
    scale = max(abs(a), abs(b), floor)
    return (a - b) / scale if scale > 0.0 else 0.0


def margin_below(x: float, bound: float) -> float:
    """Margin of ``x < bound``, relative to a positive bound."""
    if bound <= 0.0:
        return -1.0 if x >= bound else 1.0
    return (bound - x) / bound


def _non_strict(margin: float) -> float:
    """Margin of ``a >= b`` from that of ``a > b``: equality has the least."""
    return margin or math.ulp(0.0)


def peak_decline_margin(values, shape: str) -> float:
    """Margin of the growth-peak-decline class, whose ``shape`` the
    classifier read: the peak's height above both ends over the largest
    magnitude, beyond the noise fraction, and at most zero off the class."""
    scale = max(map(abs, values))
    if scale == 0.0:
        return -1.0
    peak = max(values)
    margin = margin_above(min(peak - values[0], peak - values[-1]) / scale,
                          _SHAPE_MARGIN)
    return margin if shape == GROWTH_PEAK_DECLINE else min(margin, 0.0)


def margin_inside(x: float, low: float, high: float) -> float:
    """Margin of ``low < x < high``: the nearer edge over half the width."""
    return min(x - low, high - x) / (0.5 * (high - low))


def dry_fund_margin(budget) -> float:
    """Margin of a debt-free run towards debt: -final fund / launch fund."""
    return -budget[-1] / max(budget[0], 1.0)


def calibration_story(base) -> list[Finding]:
    """Criterion 05 beyond check (c) of ``qualitative_checks``, on the base
    run: the fund peaks and declines, and the debt ends above it; capacity
    grows to the target year and peaks inside its window."""
    budget = base["budget"]
    shape = behavior_signature(base.times, budget).shape
    debt, fund = base.final("suna_debt"), base.final("budget")
    peak = behavior_signature(base.times, base["installed_capacity"]).peak_year
    low, high = ACCEPTANCE_BOUNDS["capacity_peak_window"]
    first, then = ACCEPTANCE_BOUNDS["capacity_grows_from_to"]
    start, end = (base.at_year("installed_capacity", year)
                  for year in (first, then))
    return [
        Finding("fund_peak_decline", f"fund {shape}",
                peak_decline_margin(budget, shape)),
        Finding("debt_ends_above_fund",
                f"final debt {debt:.3g} $, fund {fund:.3g} $",
                margin_above(debt, fund, budget[0])),
        Finding("capacity_peak_window", f"capacity peaks at {peak}",
                margin_inside(peak, low, high)),
        Finding("capacity_grows_by_2021",
                f"capacity {start:.1f} -> {end:.1f} MW",
                margin_above(end, start)),
    ]


def policy_tendencies(runs) -> list[Finding]:
    """Criterion 06 beyond checks (a) and (b), on the runs by scenario name:
    p3's tendency to invest ends above its start, and p1's collapses."""
    p3 = runs["p3_budget_adjusted_tax"]["tendency_to_invest"]
    p1 = runs["p1_higher_fit"]["tendency_to_invest"]
    collapsed = ACCEPTANCE_BOUNDS["p1_tendency_collapse"] * p1[0]
    return [
        Finding("p3_tendency_rises",
                f"p3 tendency {p3[0]:.4f} -> {p3[-1]:.4f}",
                margin_above(p3[-1], p3[0])),
        Finding("p1_tendency_collapses",
                f"p1 tendency {p1[0]:.4f} -> {p1[-1]:.4f}",
                margin_below(p1[-1], collapsed)),
    ]


def step_halving(coarse, fine) -> list[Finding]:
    """Criterion 09: ``fine``, the model of ``coarse`` run at half its step,
    moves no accounted stock at the coarse records by the bound's share of
    its largest magnitude; ``ValueError`` if ``fine`` lacks a coarse record."""
    if fine.times[::2] != coarse.times:
        raise ValueError("fine must be the coarse run at half its step")
    worst = 0.0
    for stock in coarse.stock_names:
        scale = max(map(abs, fine[stock]))
        if scale > 0.0 and stock != "perceived_shortage":  # no ledger
            worst = max(worst, max(
                abs(a - b) for a, b in zip(coarse[stock], fine[stock][::2]))
                / scale)
    bound = ACCEPTANCE_BOUNDS["step_halving"]
    return [Finding("step_halving", f"worst {100.0 * worst:.2f}%",
                    margin_below(worst, bound))]


# === stress suites ===

class PerturbationSet(NamedTuple):
    """Named relative parameter changes applied together."""

    changes: tuple[tuple[str, float], ...]

    def resolve(self, params: ModelParameters) -> ModelParameters:
        overrides = {}
        for name, relative in self.changes:
            overrides[name] = get_parameter(params, name) * (1.0 + relative)
        return apply_overrides(params, overrides)


# the committed robustness battery: build time +70%, lifetime +30%,
# remuneration +20%, launch tariff -10%, learning strength halved
TABLE_PERTURBATIONS = PerturbationSet((
    ("time_to_build", 0.70),
    ("normal_equipment_lifetime", 0.30),
    ("remuneration_period", 0.20),
    ("initial_fit_price", -0.10),
    ("learning_exponent", -0.50),
))

def _base_run(params: ModelParameters, clock: SimulationClock):
    return FitModel(params, policy=None).simulate(clock)


def check_extreme_horizon(clock: SimulationClock) -> None:
    """Refuse a clock that ends before the last year
    :func:`extreme_condition_suite` reads, three years in."""
    if clock.end_year < clock.start_year + 3.0:
        raise ConfigurationError(
            f"the extreme-condition suite needs a horizon of at least three "
            f"years, got {clock.start_year} to {clock.end_year}")


def extreme_condition_suite(params: ModelParameters,
                            clock: SimulationClock) -> list[Finding]:
    """Run the model under deliberately broken conditions.

    (a) one-year remuneration: projects cannot pay back, so capacity must
        decline, the tendency to invest must die out, and the fund must
        grow monotonically once past the first year;
    (b) a large inherited debt (1e8 dollars): the tendency must fall from
        its launch value toward zero and the fund must drain steeply as
        everything goes to debt service.

    Check (b) reads the tendency three years in, the last year the suite
    reads, so a clock that ends before then raises
    :class:`ConfigurationError` before any run starts
    (:func:`check_extreme_horizon`).
    """
    check_extreme_horizon(clock)
    # three years hold a year of steps, which check (a) reads past
    steps_per_year = max(1, round(1.0 / clock.dt))
    findings = []

    bound = ACCEPTANCE_BOUNDS
    run = _base_run(apply_overrides(params, {"remuneration_period": 1.0}),
                    clock)
    installed = run["installed_capacity"]
    tendency = run["tendency_to_invest"]
    budget = run["budget"]
    findings.append(Finding(
        "remuneration_1yr_capacity_declines",
        f"installed {installed[0]:.1f} -> {installed[-1]:.1f} MW",
        margin_above(installed[0], installed[-1])))
    findings.append(Finding(
        "remuneration_1yr_no_tendency",
        f"final tendency {tendency[-1]:.3g}",
        margin_below(tendency[-1], bound["remuneration_tendency"])))
    later = budget[steps_per_year:]
    scale = max(1.0, max(later))
    steps = [b - a for a, b in zip(later, later[1:])]
    grows = all(step >= -1e-9 * scale for step in steps)
    margin = margin_above(budget[-1], budget[0])
    if not grows:  # the worst fall past the slack, on the slack's scale
        margin = min(margin, min(steps) / scale + 1e-9)
    findings.append(Finding(
        "remuneration_1yr_budget_grows",
        f"budget {budget[0]:.3g} -> {budget[-1]:.3g}, "
        f"monotone after year 1: {grows}", margin))

    run = _base_run(apply_overrides(
        params, {"initial_suna_debt": bound["inherited_debt"]}), clock)
    tendency = run["tendency_to_invest"]
    budget = run["budget"]
    t0 = tendency[0]
    t3 = run.at_year("tendency_to_invest", clock.start_year + 3.0)
    # The debt eventually clears out of levy income, so trust (and with it
    # the tendency) is allowed to recover late; the assertion is about the
    # collapse right after the start.
    at_start = bound["inherited_debt_tendency_at_start"]
    year_3 = bound["inherited_debt_tendency_year_3"]
    findings.append(Finding(
        "inherited_debt_kills_tendency",
        f"tendency {t0:.3g} at start -> {t3:.3g} (year 3)",
        min(margin_below(t0, at_start), margin_below(t3, year_3))))
    b0 = budget[0]
    b1 = run.at_year("budget", clock.start_year + 1.0)
    drained = bound["inherited_debt_fund_year_1"] * b0
    findings.append(Finding(
        "inherited_debt_drains_budget",
        f"budget {b0:.3g} -> {b1:.3g} within the first year",
        margin_below(b1, drained)))
    return findings


def sensitivity_suite(params: ModelParameters,
                      perturbations: PerturbationSet = TABLE_PERTURBATIONS,
                      *, clock: SimulationClock) -> list[Finding]:
    """Check that parameter perturbations keep the behavior modes.

    The base and perturbed runs are classified on installed capacity and
    debt. Capacity must keep its shape class (growth-peak-decline vs monotone)
    and debt must keep its emergence verdict; timing and amplitude may
    shift. A perturbation that pushes the model into a different regime
    entirely (no growth at all where the base takes off) is flagged as
    out-of-band rather than failed, since signature comparison is not
    meaningful across regimes.
    """
    base = _base_run(params, clock)
    perturbed = _base_run(perturbations.resolve(params), clock)
    findings = []

    base_ic = base["installed_capacity"]
    pert_ic = perturbed["installed_capacity"]
    base_took_off = (max(base_ic)
                     >= ACCEPTANCE_BOUNDS["base_take_off"] * base_ic[0])
    took_off = ACCEPTANCE_BOUNDS["perturbed_take_off"] * pert_ic[0]
    pert_took_off = max(pert_ic) >= took_off
    if base_took_off and not pert_took_off:
        findings.append(Finding(
            "sensitivity_out_of_band",
            "perturbation suppresses growth entirely; regime change, "
            "signatures not comparable", math.inf))
        return findings

    sig_base = behavior_signature(base.times, base_ic)
    sig_pert = behavior_signature(perturbed.times, pert_ic)
    # only the growth-peak-decline class has a measured margin; once the
    # base run takes off, so has the distance from out of band
    same = sig_base.shape == sig_pert.shape
    margin = (peak_decline_margin(pert_ic, sig_pert.shape)
              if sig_base.shape == GROWTH_PEAK_DECLINE
              else math.inf if same else -1.0)
    if base_took_off:
        margin = min(margin, _non_strict(margin_above(max(pert_ic),
                                                      took_off)))
    findings.append(Finding(
        "sensitivity_installed_capacity",
        f"base {sig_base.shape} (peak {sig_base.peak_year}), perturbed "
        f"{sig_pert.shape} (peak {sig_pert.peak_year})", margin))

    debt_base = behavior_signature(base.times, base["suna_debt"])
    debt_pert = behavior_signature(perturbed.times, perturbed["suna_debt"])
    if not debt_base.emerged:
        margin = -1.0 if debt_pert.emerged else math.inf
    elif debt_pert.emerged:  # the perturbed run's peak debt over the base's
        margin = max(perturbed["suna_debt"]) / max(base["suna_debt"])
    else:
        margin = dry_fund_margin(perturbed["budget"])
    findings.append(Finding(
        "sensitivity_suna_debt",
        f"base debt emerges {debt_base.first_positive_year}, perturbed "
        f"{debt_pert.first_positive_year}", margin))
    return findings
