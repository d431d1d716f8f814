"""Policy controllers, scenario suites, and the qualitative battery."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fitsim import (
    ConfigurationError,
    ModelParameters,
    POLICY_IDS,
    PolicyControl,
    Scenario,
    SimulationClock,
    apply_policy,
    default_config_text,
    make_policy_fn,
    parse_config,
    qualitative_checks,
    replace,
    run_scenario_suite,
)

SHORT_CLOCK = SimulationClock(2015.0, 2020.0, 0.25)


# === controller behavior ===

def test_base_policy_is_neutral():
    control = PolicyControl("base")
    overrides = apply_policy(control, 5e5, base_tax=0.001)
    assert overrides.fit_price_delta == 0.0
    assert overrides.fit_price_multiplier == 1.0
    assert overrides.res_tax is None


def test_p1_adds_a_flat_tariff_increase():
    control = PolicyControl("p1_higher_fit", fit_price_delta=4.0)
    overrides = apply_policy(control, 1e9, base_tax=0.001)
    assert overrides.fit_price_delta == 4.0
    assert overrides.fit_price_multiplier == 1.0


def test_p2_scales_the_tariff_down_with_the_shortfall():
    control = PolicyControl("p2_budget_adjusted_fit", fit_controller_gain=2e-7)
    healthy = apply_policy(control, 0.0, base_tax=0.001)
    assert healthy.fit_price_multiplier == 1.0
    stressed = apply_policy(control, 5e6, base_tax=0.001)
    assert stressed.fit_price_multiplier == pytest.approx(1.0 / 2.0)
    # negative perceived shortfall reads as healthy, not as a tariff boost
    recovered = apply_policy(control, -1e6, base_tax=0.001)
    assert recovered.fit_price_multiplier == 1.0


def test_p3_raises_the_levy_within_its_clamp():
    control = PolicyControl("p3_budget_adjusted_tax",
                            tax_controller_gain=1e-9, tax_floor=0.001,
                            tax_cap=0.06)
    idle = apply_policy(control, 0.0, base_tax=0.03)
    assert idle.res_tax == pytest.approx(0.03)
    pushed = apply_policy(control, 1e7, base_tax=0.03)
    assert pushed.res_tax == pytest.approx(0.04)
    saturated = apply_policy(control, 1e12, base_tax=0.03)
    assert saturated.res_tax == 0.06


def test_policy_control_validation():
    with pytest.raises(ConfigurationError):
        PolicyControl("p9_unknown")
    with pytest.raises(ConfigurationError):
        PolicyControl("p2_budget_adjusted_fit", fit_controller_gain=-1.0)
    with pytest.raises(ConfigurationError):
        PolicyControl("p3_budget_adjusted_tax", tax_floor=0.05, tax_cap=0.01)
    with pytest.raises(ConfigurationError):
        PolicyControl("p3_budget_adjusted_tax", tax_cap=0.5)


def test_make_policy_fn_binds_control_and_tax():
    policy = make_policy_fn(PolicyControl("p3_budget_adjusted_tax",
                                          tax_controller_gain=0.0,
                                          tax_cap=0.06),
                            base_tax=0.03)
    assert policy(0.0).res_tax == pytest.approx(0.03)


def reference_policy_fn(control, base_tax):
    """The hook as a plain binding: a fresh record on every step."""
    return partial(apply_policy, control, base_tax=base_tax)


def policy_outcome(hook, shortage):
    """The record the hook returns, exact to the bit (a NaN levy included),
    or the type and text of what it raises."""
    try:
        record = hook(shortage)
    except Exception as exc:
        return type(exc), str(exc)
    return type(record), repr(record)


knob = st.one_of(st.sampled_from([0.0, 5e-324, 1e-9, 2e-7, 1.0, 1e300]),
                 st.floats(min_value=0.0, allow_infinity=False))
tax = st.floats(min_value=0.0, max_value=0.1)


@st.composite
def controls(draw):
    """A valid control of each policy, with its knobs anywhere they are
    allowed."""
    floor = draw(tax)
    return PolicyControl(
        draw(st.sampled_from(POLICY_IDS)),
        fit_price_delta=draw(st.floats(allow_nan=False,
                                       allow_infinity=False)),
        fit_controller_gain=draw(knob),
        tax_controller_gain=draw(knob),
        tax_floor=floor,
        tax_cap=draw(st.floats(min_value=floor, max_value=0.1)))


SHORTAGES = [-1e9, -5e-324, -0.0, 0.0, 5e-324, 2.2e-308, 1.0, 5e6, 1e300,
             math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(controls(), st.one_of(st.floats(), tax),
       st.lists(st.one_of(st.sampled_from(SHORTAGES), st.floats()),
                min_size=1, max_size=8))
@example(PolicyControl("p2_budget_adjusted_fit", fit_controller_gain=2e-7),
         0.001, [5e6, 0.0, 5e6])
# a multiplier driven to 0 still raises on its step
@example(PolicyControl("p2_budget_adjusted_fit", fit_controller_gain=1e300),
         0.001, [1e300, -1.0])
@example(PolicyControl("p3_budget_adjusted_tax", tax_controller_gain=1e-9,
                       tax_cap=0.06), 0.03, [1e7, -0.0, math.nan])
def test_the_hook_returns_what_apply_policy_returns(control, base_tax,
                                                     shortages):
    # building the hook never raises for a valid control, whatever the levy
    hook = make_policy_fn(control, base_tax)
    reference = reference_policy_fn(control, base_tax)
    for shortage in shortages:
        assert (policy_outcome(hook, shortage)
                == policy_outcome(reference, shortage))


# === zeroed policies reproduce the base run bit-exactly ===

@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_neutral_knobs_reproduce_the_base_run(policy_id, default_params):
    neutral = PolicyControl(policy_id)
    scenarios = [
        Scenario(name="plain", clock=SHORT_CLOCK),
        Scenario(name="zeroed", clock=SHORT_CLOCK, policy=neutral),
    ]
    report = run_scenario_suite(default_params, scenarios)
    plain, zeroed = report.runs["plain"], report.runs["zeroed"]
    for name in ("installed_capacity", "suna_debt", "budget",
                 "tendency_to_invest"):
        assert np.array_equal(plain[name], zeroed[name])


def test_p3_neutral_needs_matching_floor():
    # a zero-gain p3 still overrides the levy when its floor differs
    control = PolicyControl("p3_budget_adjusted_tax", tax_floor=0.002,
                            tax_cap=0.06)
    overrides = apply_policy(control, 0.0, base_tax=0.001)
    assert overrides.res_tax == 0.002


# === scenario suites ===

def test_suite_rejects_duplicate_names(default_params):
    scenarios = [Scenario(name="x", clock=SHORT_CLOCK),
                 Scenario(name="x", clock=SHORT_CLOCK)]
    with pytest.raises(ConfigurationError):
        run_scenario_suite(default_params, scenarios)


def test_empty_suite_gives_empty_report(default_params):
    report = run_scenario_suite(default_params, [])
    assert report.outcomes == ()
    assert report.runs == {}


def test_single_scenario_report(default_params):
    report = run_scenario_suite(
        default_params, [Scenario(name="only", clock=SHORT_CLOCK)])
    assert len(report.outcomes) == 1
    run = report.runs["only"]
    assert run.n_records == SHORT_CLOCK.n_steps + 1
    outcome = report.outcome("only")
    assert outcome.installed_capacity == run.final("installed_capacity")
    assert outcome.suna_debt == run.final("suna_debt")
    with pytest.raises(KeyError):
        report.outcome("missing")


def test_scenario_overrides_apply_per_run(default_params):
    scenarios = [
        Scenario(name="a", clock=SHORT_CLOCK),
        Scenario(name="b", clock=SHORT_CLOCK,
                 overrides={"initial_installed_capacity": 60.0}),
    ]
    report = run_scenario_suite(default_params, scenarios)
    assert report.runs["a"]["installed_capacity"][0] == 120.0
    assert report.runs["b"]["installed_capacity"][0] == 60.0


# === the canonical comparison ===

def test_qualitative_battery_passes_on_the_shipped_config(canonical_report):
    findings = qualitative_checks(canonical_report)
    names = [finding.name for finding in findings]
    assert names == ["capacity_ordering", "debt_ordering",
                     "base_debt_and_peak", "p1_reaches_target_first",
                     "p2_tendency_recovers"]
    failed = [str(finding) for finding in findings if not finding.passed]
    assert not failed, failed


def test_canonical_capacity_and_debt_orderings(canonical_report):
    capacity = {o.name: o.installed_capacity
                for o in canonical_report.outcomes}
    debt = {o.name: o.suna_debt for o in canonical_report.outcomes}
    assert (capacity["p3_budget_adjusted_tax"] > capacity["base"]
            > capacity["p2_budget_adjusted_fit"] > capacity["p1_higher_fit"])
    assert (debt["p1_higher_fit"] > debt["base"]
            > debt["p2_budget_adjusted_fit"] >= debt["p3_budget_adjusted_tax"])
    assert debt["p3_budget_adjusted_tax"] == 0.0
    assert max(canonical_report.runs["p3_budget_adjusted_tax"]
               ["suna_debt"]) == 0.0


def test_p1_boom_reaches_the_target_then_collapses(canonical_report):
    p1 = canonical_report.runs["p1_higher_fit"]
    assert max(p1["installed_capacity"]) >= 5000.0
    tendency = p1["tendency_to_invest"]
    assert float(tendency[-1]) < 0.1 * float(tendency[0])


def test_p3_tendency_ends_above_its_start(canonical_report):
    tendency = canonical_report.runs["p3_budget_adjusted_tax"][
        "tendency_to_invest"]
    assert float(tendency[-1]) > float(tendency[0])


def test_qualitative_checks_demand_the_canonical_set(default_params):
    report = run_scenario_suite(
        default_params, [Scenario(name="base", clock=SHORT_CLOCK)])
    with pytest.raises(ValueError):
        qualitative_checks(report)


def test_target_check_reads_the_base_runs_capacity_target():
    text = default_config_text().replace(
        "capacity_target = 5000.0 ;", "capacity_target = 4000.0 ;")
    doc = parse_config(text)
    assert doc.params.econ.capacity_target == 4000.0
    report = run_scenario_suite(doc.params, list(doc.scenarios))
    finding = next(finding for finding in qualitative_checks(report)
                   if finding.name == "p1_reaches_target_first")
    assert finding.detail.startswith("first year at 4000 MW: ")



def test_target_check_fails_when_no_run_reaches_the_target(default_doc):
    # every run stays below the 5000 MW target until 2020
    scenarios = [replace(scenario, clock=SHORT_CLOCK)
                 for scenario in default_doc.scenarios]
    report = run_scenario_suite(default_doc.params, scenarios)
    finding = next(finding for finding in qualitative_checks(report)
                   if finding.name == "p1_reaches_target_first")
    assert finding.detail == "first year at 5000 MW: p1=inf, base=inf"
    assert not finding.passed
