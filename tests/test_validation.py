"""Error metrics, the Theil identity, behavior modes, stress suites."""

import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fitsim import (
    FitModel,
    PerturbationSet,
    RunResult,
    SimulationClock,
    TABLE_PERTURBATIONS,
    apply_overrides,
    behavior_signature,
    default_config_text,
    error_metrics,
    extreme_condition_suite,
    get_parameter,
    parse_config,
    qualitative_checks,
    run_scenario_suite,
    sensitivity_suite,
    theil_decomposition,
)
from fitsim.validation import (
    FLAT,
    Finding,
    GROWTH_PEAK_DECLINE,
    MONOTONE_DECLINE,
    MONOTONE_GROWTH,
    _SHAPE_MARGIN,
    calibration_story,
    load_series_csv,
    margin_above,
    peak_decline_margin,
    policy_tendencies,
    step_halving,
)


# === point metrics ===

def test_perfect_fit_metrics():
    h = [1.0, 2.0, 3.0, 4.0]
    report = error_metrics(h, h)
    assert report.r_squared == 1.0
    assert report.mse == 0.0
    assert report.rmspe == 0.0
    assert (report.theil_um, report.theil_us, report.theil_uc) == (0, 0, 0)


def test_error_metrics_hand_computed_fixture():
    h = np.array([1.0, 2.0, 4.0])
    s = np.array([1.5, 2.0, 3.0])
    report = error_metrics(s, h)
    assert report.mse == pytest.approx((0.25 + 0.0 + 1.0) / 3.0, rel=1e-12)
    expected_rmspe = 100.0 * np.sqrt((0.25 + 0.0 + 1.0 / 16.0) / 3.0)
    assert report.rmspe == pytest.approx(expected_rmspe, rel=1e-12)
    sst = float(np.sum((h - h.mean()) ** 2))
    assert report.r_squared == pytest.approx(1.0 - 1.25 / sst, rel=1e-12)
    assert (report.theil_um + report.theil_us
            + report.theil_uc) == pytest.approx(1.0, abs=1e-12)


def test_error_metrics_input_guards():
    with pytest.raises(ValueError):
        error_metrics([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        error_metrics([1.0], [1.0])
    with pytest.raises(ValueError):
        error_metrics([1.0, np.nan], [1.0, 2.0])
    # zero history where the simulation differs has no percentage error
    with pytest.raises(ValueError):
        error_metrics([1.0, 2.0], [0.0, 2.0])
    # constant history has no variance to explain
    with pytest.raises(ValueError):
        error_metrics([1.0, 2.0], [3.0, 3.0])
    # three 0.1s average to 0.10000000000000002, not to 0.1
    with pytest.raises(ValueError):
        error_metrics([0.2, 0.3, 0.1], [0.1, 0.1, 0.1])


@pytest.mark.parametrize("simulated, historical, message", [
    # differences of 1e-170 square to 0.0: not a perfect fit
    ([2e-170, 1e-170, 3e-170], [1e-170, 2e-170, 3e-170],
     "squares of the differences underflow"),
    ([1e-170] * 3, [1e-170, 2e-170, 3e-170],
     "squares of the differences underflow"),
    # the history's deviations from its mean square to 0.0
    ([1e-150, 2e-150, 4e-150], [1e-170, 2e-170, 3e-170],
     "squares of the deviations of the historical series underflow"),
    # the simulation's deviations square to 0.0 inside the Theil shares
    ([1e-170, 2e-170, 3e-170], [1.0, 2.0, 3.5],
     "squares of the deviations underflow"),
    # relative errors near 1e202 overflow when squared
    ([40.0, 150.0, 420.0], [1e-200, 2e-200, 3e-200],
     "squares of the relative errors overflow"),
    ([1e200, 2e200, 3e200], [-1e200, 1.0, 2.0],
     "squares of the differences overflow"),
    # a difference that overflows to inf squares to inf without raising
    ([1e308, 1.0, 2.0], [-1e308, 1.0, 3.0],
     "squares of the differences overflow"),
    # the history's sum leaves float range although its mean would not
    ([1e308, 1e308, 2.0], [1e308, 1e308, 1.0],
     "sum of the historical series overflows"),
])
def test_error_metrics_rejects_squares_out_of_float_range(
        simulated, historical, message):
    with pytest.raises(ValueError, match=message):
        error_metrics(simulated, historical)


def test_zero_history_tolerated_where_simulation_matches():
    report = error_metrics([0.0, 2.0, 4.0], [0.0, 1.0, 2.0])
    assert np.isfinite(report.rmspe)


def test_error_metrics_checks_and_sums_the_differences_once(monkeypatch):
    import fitsim.validation as validation
    calls = []
    for name in ("_as_series", "_sum_of_squares"):
        def counted(*args, real=getattr(validation, name)):
            calls.append(args[-1] if isinstance(args[-1], str) else "series")
            return real(*args)
        monkeypatch.setattr(validation, name, counted)
    s, h = [1.0, 2.5, 2.0, 4.0], [1.5, 2.0, 3.0, 3.5]
    report = error_metrics(s, h)
    assert calls.count("series") == 1
    assert calls.count("differences") == 1
    # and the shares are the public decomposition's, to the bit
    assert (report.theil_um, report.theil_us,
            report.theil_uc) == theil_decomposition(s, h)


# === Theil decomposition ===

def test_theil_shares_sum_to_one_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        h = rng.normal(0.0, 10.0, size=n)
        s = h + rng.normal(0.0, 5.0, size=n)
        um, us, uc = theil_decomposition(s, h)
        assert um + us + uc == pytest.approx(1.0, abs=1e-9)
        assert um >= 0.0 and us >= 0.0


def test_theil_pure_bias_case():
    h = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    um, us, uc = theil_decomposition(h + 2.5, h)
    assert um == pytest.approx(1.0, abs=1e-12)
    assert us == pytest.approx(0.0, abs=1e-12)
    assert uc == pytest.approx(0.0, abs=1e-12)


def test_theil_pure_variance_case():
    h = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    s = h.mean() + 2.0 * (h - h.mean())  # same mean, doubled spread, r = 1
    um, us, uc = theil_decomposition(s, h)
    assert um == pytest.approx(0.0, abs=1e-12)
    assert us == pytest.approx(1.0, abs=1e-12)
    assert uc == pytest.approx(0.0, abs=1e-12)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_theil_identity_property(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(0.0, 3.0, size=12)
    s = rng.normal(0.0, 3.0, size=12)
    if float(np.mean((s - h) ** 2)) == 0.0:
        return
    um, us, uc = theil_decomposition(s, h)
    assert um + us + uc == pytest.approx(1.0, abs=1e-9)


def test_theil_rejects_perfect_fit():
    with pytest.raises(ValueError):
        theil_decomposition([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="differences underflow"):
        theil_decomposition([2e-170, 1e-170], [1e-170, 2e-170])


def test_theil_rejects_a_sum_out_of_float_range():
    with pytest.raises(ValueError,
                       match="sum of the simulated series overflows"):
        theil_decomposition([1e308, 1e308, 2.0], [1e308, 1e308, 1.0])


def test_theil_rejects_deviations_whose_products_overflow():
    # the squares of the deviations (about 1e320) overflow inside the
    # correlation, which comes out NaN
    with pytest.raises(ValueError,
                       match="products of the deviations overflow"):
        theil_decomposition([1e160 + 1e150, 3e160 - 2e150, 2e160 + 5e149],
                            [1e160, 3e160, 2e160])


# === behavior-mode classifier ===

def triangle(n=41, peak=20):
    t = np.arange(n, dtype=float)
    v = np.where(t <= peak, t, 2.0 * peak - t)
    return t, np.maximum(v, 0.0)


def test_classifier_shapes():
    t, v = triangle()
    assert behavior_signature(t, v).shape == GROWTH_PEAK_DECLINE
    assert behavior_signature(t, t).shape == MONOTONE_GROWTH
    assert behavior_signature(t, t[::-1].copy()).shape == MONOTONE_DECLINE
    assert behavior_signature(t, np.ones_like(t)).shape == FLAT
    assert behavior_signature(t, np.zeros_like(t)).shape == FLAT


def test_classifier_peak_and_emergence():
    t, v = triangle()
    signature = behavior_signature(t, v)
    assert signature.peak_year == pytest.approx(20.0)
    assert signature.emerged
    assert signature.first_positive_year == 1.0  # v[0] is exactly zero
    dead = behavior_signature(t, np.zeros_like(t))
    assert not dead.emerged
    assert dead.first_positive_year is None
    assert dead.peak_year is None


def test_classifier_ignores_sub_margin_wiggles():
    t = np.arange(50, dtype=float)
    v = t.copy()
    v[-1] = v[-2] - 0.1  # a dip worth 0.2% of the scale, not a decline
    assert behavior_signature(t, v).shape == MONOTONE_GROWTH


def test_classifier_is_scale_invariant():
    rng = np.random.default_rng(99)
    t = np.linspace(0.0, 20.0, 81)
    for _ in range(200):
        v = np.abs(np.cumsum(rng.normal(0.0, 1.0, size=81)))
        base = behavior_signature(t, v)
        scaled = behavior_signature(t, v * float(rng.uniform(1e-6, 1e6)))
        assert scaled == base


def key_form_peak_year(times, v):
    """The peak year with the peak found as the first index of the smoothed
    maximum by key: the reference for the classifier's ``list.index``."""
    smooth = ([v[0]] + [(a + b + c) / 3.0 for a, b, c in zip(v, v[1:], v[2:])]
              + [v[-1]])
    if not max(map(abs, smooth)) > 0.0:
        return None
    return float(times[max(range(len(smooth)), key=smooth.__getitem__)])


_peak_values = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, math.inf, -math.inf])
    | st.floats(allow_nan=False), min_size=3, max_size=12)


@given(_peak_values, st.booleans())
def test_classifier_peak_is_the_first_maximum(values, leading_nan):
    if leading_nan:
        # max() then returns that NaN, which list.index finds only because
        # it is the same object
        values = [math.nan] + values
    times = [2015.0 + 0.25 * k for k in range(len(values))]
    assert (behavior_signature(times, values).peak_year
            == key_form_peak_year(times, values))


def former_behavior_signature(times, values):
    """The classifier as it was before it converted its input to a list:
    the reference the classifier is held to."""
    v = values
    smooth = ([v[0]] + [(a + b + c) / 3.0 for a, b, c in zip(v, v[1:], v[2:])]
              + [v[-1]])
    scale = max(map(abs, smooth))
    margin = _SHAPE_MARGIN * scale if scale > 0.0 else 0.0
    peak_index = smooth.index(max(smooth))
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
    first_positive_year = None
    top = max(v)
    if top > 0.0:
        floor = 1e-9 * top
        for ti, vi in zip(times, v):
            if vi > floor:
                first_positive_year = float(ti)
                break
    return (shape, first_positive_year is not None, first_positive_year,
            peak_year)


def strided_column(values):
    """``values`` as a read-only strided memoryview, as a run's column is."""
    rows = array("d")
    for value in values:
        rows.extend((-1.0, value))
    return memoryview(rows).toreadonly()[1::2]


@pytest.mark.parametrize("container", [list, np.array, strided_column])
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])
                | st.floats(min_value=-1e300, max_value=1e300),
                min_size=3, max_size=40))
@example([0.0] * 5)
@example([-3.0, -1.0, -2.0, -5.0])
@example([-0.0] * 4)
@example([0.0, -0.0, -0.0, 0.0])
@example([2.0] * 6)
def test_classifier_matches_its_former_formula(container, values):
    times = container([2015.0 + 0.25 * k for k in range(len(values))])
    series = container(values)
    assert (behavior_signature(times, series)
            == former_behavior_signature(times, series))


def test_a_float32_series_is_classified_in_double_precision():
    # the classifier works on the values as Python floats; in float32 the
    # two interior means round apart the other way, moving the peak
    times = np.array([2015.0, 2015.25, 2015.5, 2015.75], dtype=np.float32)
    values = np.array([0.05, 3.0, 0.051, 0.05], dtype=np.float32)
    signature = behavior_signature(times, values)
    assert signature.peak_year == 2015.25
    assert signature == former_behavior_signature(times.tolist(),
                                                  values.tolist())
    assert former_behavior_signature(times, values)[3] == 2015.5


def test_classifier_input_guards():
    with pytest.raises(ValueError):
        behavior_signature([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        behavior_signature([0.0, 1.0, 2.0], [1.0, 2.0])


# === perturbation plumbing ===

def test_perturbation_resolution_is_relative(default_params):
    perturbed = PerturbationSet((("time_to_build", 0.70),)).resolve(
        default_params)
    assert get_parameter(perturbed, "time_to_build") == pytest.approx(
        get_parameter(default_params, "time_to_build") * 1.70)


def test_empty_perturbation_changes_nothing(default_params):
    assert PerturbationSet(()).resolve(default_params) == default_params


def test_committed_battery_contents():
    names = dict(TABLE_PERTURBATIONS.changes)
    assert names["time_to_build"] == pytest.approx(0.70)
    assert names["initial_fit_price"] == pytest.approx(-0.10)
    assert names["learning_exponent"] == pytest.approx(-0.50)


# === stress suites ===

def test_extreme_condition_suite_passes(default_doc):
    findings = extreme_condition_suite(default_doc.params, default_doc.clock)
    failed = [str(finding) for finding in findings if not finding.passed]
    assert not failed, failed
    names = {finding.name for finding in findings}
    assert "remuneration_1yr_capacity_declines" in names
    assert "inherited_debt_drains_budget" in names


def test_sensitivity_suite_reports_both_signature_variables(default_doc):
    default_params, clock = default_doc.params, default_doc.clock
    findings = sensitivity_suite(default_params, clock=clock)
    by_name = {finding.name: finding for finding in findings}
    assert set(by_name) == {"sensitivity_installed_capacity",
                            "sensitivity_suna_debt"}
    # capacity keeps its boom-and-bust shape under the committed battery
    assert by_name["sensitivity_installed_capacity"].passed
    # the debt verdict is whatever the classifier says about emergence; the
    # finding must agree with a direct classification
    base = FitModel(default_params).simulate(clock)
    pert = FitModel(TABLE_PERTURBATIONS.resolve(default_params)).simulate(
        clock)
    base_sig = behavior_signature(base.times, base["suna_debt"])
    pert_sig = behavior_signature(pert.times, pert["suna_debt"])
    assert by_name["sensitivity_suna_debt"].passed == (
        base_sig.emerged == pert_sig.emerged)


def test_sensitivity_zero_magnitude_perturbation_passes(default_doc):
    findings = sensitivity_suite(default_doc.params, PerturbationSet(()),
                                 clock=default_doc.clock)
    assert all(finding.passed for finding in findings)


def test_sensitivity_flags_regime_change_as_out_of_band(default_doc):
    # gutting the tariff kills growth entirely; that is a regime change,
    # not a signature mismatch
    throttled = PerturbationSet((("initial_fit_price", -0.9),))
    findings = sensitivity_suite(default_doc.params, throttled,
                                 clock=default_doc.clock)
    assert len(findings) == 1
    assert findings[0].name == "sensitivity_out_of_band"
    assert findings[0].passed


def test_each_suite_needs_a_clock(default_doc):
    # the shipped clock lives in the config alone; no suite assumes one
    with pytest.raises(TypeError):
        extreme_condition_suite(default_doc.params)
    with pytest.raises(TypeError):
        sensitivity_suite(default_doc.params)
    with pytest.raises(TypeError):
        sensitivity_suite(default_doc.params, TABLE_PERTURBATIONS,
                          default_doc.clock)


# === margins ===

def all_findings(doc, clock, params=None, perturbations=TABLE_PERTURBATIONS):
    """Every finding the three checks build for one calibration."""
    params = doc.params if params is None else params
    report = run_scenario_suite(params, list(doc.scenarios), clock)
    return (qualitative_checks(report)
            + extreme_condition_suite(params, clock)
            + sensitivity_suite(params, perturbations, clock=clock))


def disagreements(findings):
    return [f"{finding} (margin {finding.margin!r})" for finding in findings
            if finding.passed != (finding.margin > 0.0)]


@pytest.mark.parametrize("dt", [0.25, 0.1, 1.0 / 64.0])
def test_each_shipped_finding_passes_exactly_when_its_margin_is_positive(
        default_doc, dt):
    findings = all_findings(default_doc, default_doc.clock._replace(dt=dt))
    assert len(findings) == 12
    assert all(finding.passed for finding in findings)
    assert not disagreements(findings)


def test_margins_agree_with_verdicts_across_the_assumed_box(default_doc):
    # 50 seeded draws of the +-20% box around every assumed model parameter
    keys = default_doc.assumed_keys
    rng = random.Random(2026)
    failed = set()
    for _ in range(50):
        params = apply_overrides(default_doc.params, {
            key: get_parameter(default_doc.params, key)
            * (1.0 + rng.uniform(-0.2, 0.2)) for key in keys})
        findings = all_findings(default_doc, default_doc.clock, params)
        assert not disagreements(findings)
        failed |= {finding.name for finding in findings if not finding.passed}
    assert failed  # the box reaches failing verdicts too


def test_margins_agree_with_verdicts_where_checks_fail(default_doc):
    short = SimulationClock(2015.0, 2020.0, 0.25)
    # no run reaches the 5000 MW target by 2020
    findings = all_findings(default_doc, short)
    target = next(finding for finding in findings
                  if finding.name == "p1_reaches_target_first")
    assert not target.passed and target.margin < 0.0
    assert not disagreements(findings)
    # a gutted tariff is out of band: a flag that cannot fail
    findings = all_findings(default_doc, default_doc.clock,
                            perturbations=PerturbationSet(
                                (("initial_fit_price", -0.9),)))
    assert findings[-1].name == "sensitivity_out_of_band"
    assert findings[-1].margin == math.inf
    assert not disagreements(findings)
    # a lower target, and no perturbation at all
    doc = parse_config(default_config_text().replace(
        "capacity_target = 5000.0 ;", "capacity_target = 4000.0 ;"))
    assert not disagreements(all_findings(doc, doc.clock))
    assert not disagreements(all_findings(default_doc, default_doc.clock,
                                          perturbations=PerturbationSet(())))


@pytest.mark.parametrize("margin, status", [
    (-0.0, "FAIL"), (0.0, "FAIL"), (-math.inf, "FAIL"), (math.nan, "FAIL"),
    (math.ulp(0.0), "PASS"), (math.inf, "PASS")])
def test_a_finding_passes_exactly_when_its_margin_is_positive(margin,
                                                              status):
    finding = Finding("edge", "detail", margin)
    assert Finding._fields == ("name", "detail", "margin")
    assert finding.passed is (status == "PASS")
    assert str(finding) == f"{status} edge: detail"


def test_a_non_strict_demand_holds_at_equality(default_doc):
    # p1 and base cross the target in the same record when both start on it
    doc = parse_config(default_config_text().replace(
        "capacity_target = 5000.0 ;", "capacity_target = 120.0 ;"))
    finding = next(finding for finding in qualitative_checks(
        run_scenario_suite(doc.params, list(doc.scenarios), doc.clock))
        if finding.name == "p1_reaches_target_first")
    assert finding.detail == "first year at 120 MW: p1=2015.0, base=2015.0"
    assert finding.passed and finding.margin == math.ulp(0.0)


@given(st.lists(st.floats(0.0, 1e6), min_size=3, max_size=40))
def test_peak_decline_margin_follows_the_classifier(values):
    shape = behavior_signature(list(range(len(values))), values).shape
    margin = peak_decline_margin(values, shape)
    assert (margin > 0.0) == (shape == GROWTH_PEAK_DECLINE)


def test_orderings_near_zero_count_against_the_floor():
    assert margin_above(2.0, 1.0) == 0.5
    assert margin_above(2.0, 1.0, floor=10.0) == 0.1
    assert margin_above(0.0, 0.0) == 0.0


# === the findings of criteria 05, 06 and 09 on constructed runs ===

YEARS = [2015.0 + year for year in range(21)]


def constructed_run(times, **columns) -> RunResult:
    """A run whose every column is a stock, laid out as the engine lays
    its columns out."""
    def view(values):
        return memoryview(array("d", values))
    return RunResult(view(times), {name: view(values)
                                   for name, values in columns.items()},
                     tuple(columns), (), ())


def path(corners: dict[float, float]) -> list[float]:
    """Piecewise linear through ``corners`` (year: value), on YEARS."""
    points = sorted(corners.items())
    values = []
    for year in YEARS:
        (t0, v0), (t1, v1) = next((a, b) for a, b in zip(points, points[1:])
                                  if a[0] <= year <= b[0])
        values.append(v0 + (v1 - v0) * (year - t0) / (t1 - t0))
    return values


STORY = {"budget": {2015: 100.0, 2020: 200.0, 2035: 20.0},
         "suna_debt": {2015: 0.0, 2022: 0.0, 2035: 80.0},
         "installed_capacity": {2015: 100.0, 2022: 300.0, 2035: 150.0}}


@pytest.mark.parametrize("name, column, corners", [
    ("fund_peak_decline", "budget", {2015: 200.0, 2035: 20.0}),
    ("debt_ends_above_fund", "suna_debt", {2015: 0.0, 2022: 0.0, 2035: 10.0}),
    ("capacity_peak_window", "installed_capacity",
     {2015: 100.0, 2016: 300.0, 2035: 150.0}),
    ("capacity_peak_window", "installed_capacity",
     {2015: 100.0, 2034: 300.0, 2035: 290.0}),
    ("capacity_peak_window", "installed_capacity",
     {2015: 100.0, 2017: 200.0, 2018: 300.0, 2019: 200.0, 2035: 150.0}),
    ("capacity_peak_window", "installed_capacity",
     {2015: 100.0, 2032: 280.0, 2033: 300.0, 2035: 260.0}),
    ("capacity_grows_by_2021", "installed_capacity",
     {2015: 100.0, 2021: 90.0, 2025: 300.0, 2035: 150.0}),
])
def test_calibration_story_fails_each_finding_alone(name, column, corners):
    findings = calibration_story(constructed_run(
        YEARS, **{key: path(value) for key, value in STORY.items()}))
    assert all(finding.passed and finding.margin > 0.0
               for finding in findings)
    findings = calibration_story(constructed_run(YEARS, **{
        key: path(corners if key == column else value)
        for key, value in STORY.items()}))
    assert [finding.name for finding in findings if not finding.passed] == [
        name]
    assert not disagreements(findings)


def tendencies(p3_end: float, p1_end: float):
    return {name: constructed_run([0.0, 1.0, 2.0],
                                  tendency_to_invest=[1.0, 0.5, end])
            for name, end in (("p3_budget_adjusted_tax", p3_end),
                              ("p1_higher_fit", p1_end))}


def test_policy_tendencies_pass_and_fail_apart():
    for runs, failed in ((tendencies(1.2, 0.05), []),
                         (tendencies(0.9, 0.05), ["p3_tendency_rises"]),
                         (tendencies(1.2, 0.2), ["p1_tendency_collapses"])):
        findings = policy_tendencies(runs)
        assert len(findings) == 2
        assert [finding.name for finding in findings
                if not finding.passed] == failed
        assert not disagreements(findings)


def test_step_halving_reads_every_accounted_stock_at_the_coarse_records():
    coarse = constructed_run([0.0, 1.0, 2.0],
                             installed_capacity=[100.0, 110.0, 120.0],
                             perceived_shortage=[0.0, 0.0, 0.0])
    fine = constructed_run([0.0, 0.5, 1.0, 1.5, 2.0],
                           installed_capacity=[100.0, 0.0, 111.0, 0.0, 121.0],
                           perceived_shortage=[0.0, 9.0, 9.0, 9.0, 9.0])
    (finding,) = step_halving(coarse, fine)
    # 1 MW of 121 MW; the perceived shortage is not an accounted stock
    assert finding.passed and finding.margin == (0.05 - 1.0 / 121.0) / 0.05
    moved = constructed_run([0.0, 0.5, 1.0, 1.5, 2.0],
                            installed_capacity=[100.0, 0.0, 130.0, 0.0, 121.0],
                            perceived_shortage=[0.0] * 5)
    (finding,) = step_halving(coarse, moved)
    assert not finding.passed and finding.margin < 0.0
    with pytest.raises(ValueError, match="half its step"):
        step_halving(coarse, coarse)


# === historical series loading ===

def test_load_series_csv_round_trip(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("year,value\n# comment\n2015,120\n2016,150.5\n2017,300\n",
                    encoding="utf-8")
    years, values = load_series_csv(path)
    assert list(years) == [2015.0, 2016.0, 2017.0]
    assert list(values) == [120.0, 150.5, 300.0]


def test_load_series_csv_header_may_follow_comments(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("# observed\n\nyear,value\n2015,100\n2016,110\n",
                    encoding="utf-8")
    assert load_series_csv(path) == ([2015.0, 2016.0], [100.0, 110.0])
    # only the first row may be a header
    with path.open("a", encoding="utf-8") as handle:
        handle.write("# again\nyear,value\n")
    with pytest.raises(ValueError, match="history.csv:7: non-numeric row"):
        load_series_csv(path)


def test_load_series_csv_guards(tmp_path):
    bad_columns = tmp_path / "bad.csv"
    bad_columns.write_text("2015,1,2\n2016,2,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_series_csv(bad_columns)
    non_numeric = tmp_path / "text.csv"
    non_numeric.write_text("2015,1\noops,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_series_csv(non_numeric)
    short = tmp_path / "short.csv"
    short.write_text("2015,1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_series_csv(short)
    # a header has no numeric field: a mistyped year is refused, not skipped
    typo = tmp_path / "typo.csv"
    typo.write_text("2O16,100\n2017,110\n2018,120\n", encoding="utf-8")
    with pytest.raises(ValueError, match="typo.csv:1: non-numeric row"):
        load_series_csv(typo)
    for row in ("2018,inf", "nan,120"):
        infinite = tmp_path / "infinite.csv"
        infinite.write_text(f"2016,100\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="infinite.csv:2: non-finite row"):
            load_series_csv(infinite)
    # the years must increase: a repeat or a step back is refused
    for rows, words in (
            ("2018,100\n2016,110\n2016,120\n", "2: year 2016.0 does not "
                                                 "follow 2018.0"),
            ("year,value\n2016,100\n2016,110\n", "3: year 2016.0 does not "
                                                  "follow 2016.0")):
        unordered = tmp_path / "h3.csv"
        unordered.write_text(rows, encoding="utf-8")
        with pytest.raises(ValueError, match=f"h3.csv:{words}"):
            load_series_csv(unordered)
    # a byte order mark is not part of the first year
    marked = tmp_path / "marked.csv"
    marked.write_text("2015,1\n2016,2\n", encoding="utf-8-sig")
    assert load_series_csv(marked) == ([2015.0, 2016.0], [1.0, 2.0])

