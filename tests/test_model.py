"""Economics oracles and full-run ledger identities.

The fixed-point fixtures are frozen from independent brute-force
computations (term-by-term discounted cash flows, hand-traced allocation
ledgers) rather than from the implementation itself.
"""

import logging
import math
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fitsim.model
from fitsim import (
    ClampEvent,
    ConfigurationError,
    PARAMETER_NAMES,
    SimulationClock,
    FitModel,
    PolicyControl,
    SimulationError,
    annuity_factor,
    apply_overrides,
    compute_fit_price,
    compute_roi,
    get_parameter,
    lag_indices,
    load_default_config,
    make_policy_fn,
    parse_config,
)
from fitsim.cli import main
from fitsim.model import (
    LINKS,
    RATES,
    REQUEST_LAG,
    PriceTaxOverrides,
    allocate_payments,
    compute_capital_cost,
    compute_social_acceptance,
    record_grid,
)
from engine_reference import run_simulation
from lag_reference import BisectLaggedSeries


DOC = load_default_config()
PACKAGED = DOC.params
# the grid of the cases whose counts, times and clamp events are quarterly
QUARTERLY = SimulationClock(2015.0, 2035.0, 0.25)


def link_values(params=PACKAGED, **values):
    """``values`` and every stateless entry of ``model.LINKS`` whose inputs
    they hold, evaluated in table order."""
    for link in LINKS:
        if not link.state and values.keys() >= set(link.inputs):
            values[link.name] = link.fn(params, *map(values.get, link.inputs))
    return values


def dcf_annuity(rate, years):
    """Brute-force present value of 1/year: the oracle for annuity_factor."""
    return sum((1.0 + rate) ** -k for k in range(1, years + 1))


# === annuity and ROI ===

def test_annuity_matches_term_by_term_discounting():
    assert annuity_factor(0.10, 20.0) == pytest.approx(dcf_annuity(0.10, 20),
                                                       rel=1e-9)
    assert annuity_factor(0.10, 24.0) == pytest.approx(dcf_annuity(0.10, 24),
                                                       rel=1e-9)
    assert annuity_factor(0.05, 10.0) == pytest.approx(dcf_annuity(0.05, 10),
                                                       rel=1e-9)


def test_annuity_reference_values():
    assert annuity_factor(0.10, 20.0) == pytest.approx(8.513564, abs=5e-7)
    assert annuity_factor(0.10, 24.0) == pytest.approx(8.984744, abs=5e-7)


def test_annuity_zero_interest_limit_is_the_horizon():
    assert annuity_factor(0.0, 20.0) == 20.0
    # the closed form converges to that limit as the rate vanishes;
    # cancellation caps the usable precision well above float epsilon
    assert annuity_factor(1e-7, 20.0) == pytest.approx(20.0, rel=1e-5)


def test_annuity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        annuity_factor(0.1, 0.5)
    with pytest.raises(ValueError):
        annuity_factor(-0.1, 20.0)


def test_roi_matches_discounted_cash_flow_oracle():
    params = apply_overrides(PACKAGED, {
        "capacity_factor": 0.25, "om_cost": 10.0, "interest_rate": 0.10,
        "remuneration_period": 20.0})
    price, capital = 100.0, 1.5e6
    margin = 0.25 * 8760.0 * (price - 10.0)
    oracle = (margin * dcf_annuity(0.10, 20) - capital) / capital
    assert compute_roi(params, price, capital) == pytest.approx(oracle,
                                                                rel=1e-9)
    assert oracle == pytest.approx(0.118682, abs=5e-7)


def test_roi_is_linear_in_price_above_om():
    capital = 1.4e5
    r1 = compute_roi(PACKAGED, 10.0, capital)
    r2 = compute_roi(PACKAGED, 11.0, capital)
    # one extra dollar per MWh adds cf * 8760 * annuity / capital
    slope = 0.25 * 8760.0 * annuity_factor(0.10, 20.0) / capital
    assert r2 - r1 == pytest.approx(slope, rel=1e-9)


def test_roi_rejects_non_positive_capital():
    with pytest.raises(ValueError):
        compute_roi(PACKAGED, 20.0, 0.0)


# === learning curve ===

def test_capital_cost_learning_fixture():
    params = apply_overrides(PACKAGED, {"initial_capital_cost": 1.5e6,
                                        "learning_exponent": 0.15})
    # doubling cumulative build from the launch base
    assert compute_capital_cost(params, 240.0) == pytest.approx(
        1.5e6 * 2.0 ** -0.15, rel=1e-12)
    assert compute_capital_cost(params, 120.0) == pytest.approx(1.5e6)


def test_capital_cost_is_monotone_decreasing():
    costs = [compute_capital_cost(PACKAGED, c)
             for c in (120.0, 240.0, 1000.0, 5000.0)]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_capital_cost_flat_when_learning_disabled():
    params = apply_overrides(PACKAGED, {"learning_exponent": 0.0})
    assert (compute_capital_cost(params, 5000.0)
            == params.initial_capital_cost)


def test_capital_cost_rejects_non_positive_build():
    with pytest.raises(ValueError):
        compute_capital_cost(PACKAGED, 0.0)


# === tariff rule ===

def test_fit_price_tracks_remaining_target_gap():
    def price(installed):
        return compute_fit_price(PACKAGED, None, installed)

    assert price(0.0) == pytest.approx(20.0)
    assert price(2500.0) == pytest.approx(10.0)
    # floor: a quarter of the launch tariff, even past the target
    assert price(5000.0) == pytest.approx(5.0)
    assert price(20000.0) == pytest.approx(5.0)


def test_fit_price_policy_overrides_scale_then_shift():
    overrides = PriceTaxOverrides(fit_price_delta=4.0,
                                  fit_price_multiplier=0.5)
    assert compute_fit_price(PACKAGED, overrides, 0.0) == pytest.approx(14.0)
    with pytest.raises(ValueError,
                       match="tariff must be non-negative, got -10.0"):
        compute_fit_price(PACKAGED, PriceTaxOverrides(fit_price_delta=-30.0),
                          0.0)
    with pytest.raises(ConfigurationError):
        PriceTaxOverrides(fit_price_multiplier=0.0)
    with pytest.raises(ConfigurationError):
        PriceTaxOverrides(fit_price_multiplier=1.5)


# === social responses ===

def test_social_acceptance_fixture():
    # tax-free levy keeps full tolerance; penetration adds its linear bonus
    assert compute_social_acceptance(PACKAGED, 0.1, 0.0) == pytest.approx(1.5)
    assert compute_social_acceptance(PACKAGED, 0.0, 0.05) == pytest.approx(
        0.5)
    with pytest.raises(ValueError):
        compute_social_acceptance(PACKAGED, 1.2, 0.0)
    with pytest.raises(ValueError):
        compute_social_acceptance(PACKAGED, -0.1, 0.0)


def test_delay_in_debt_payment():
    def delay(debt, desired):
        return link_values(suna_debt=debt, desired_production_payment=desired)[
            "delay_in_debt_payment"]

    assert delay(0.0, 100.0) == 0.0
    assert delay(50.0, 100.0) == pytest.approx(0.5)
    # obligations below the epsilon guard cannot blow the ratio up
    assert delay(50.0, 0.0) == pytest.approx(50.0)


def test_tendency_floors_negative_roi_at_zero():
    def tendency(roi, acceptance, trust):
        return link_values(roi=roi, social_acceptance=acceptance,
                           investor_trust=trust)["tendency_to_invest"]

    assert tendency(-0.5, 2.0, 1.0) == 0.0
    assert tendency(0.5, 2.0, 0.5) == pytest.approx(0.5)


# === request pipeline and retirement ===

def test_request_pipeline_trace():
    # requests compound on last year's level; approvals spread over the
    # build time
    params = apply_overrides(PACKAGED, {"rejection_fraction": 0.5,
                                        "time_to_build": 2.0})
    filed = next(link for link in LINKS if link.state == "lag").fn(
        params, 100.0, 1.0)
    values = link_values(params, annual_fit_requests=filed)
    assert (filed, values["approved_fit_requests"],
            values["construction_rate"]) == (100.0, 50.0, 25.0)


def lifetime(delay, params=PACKAGED):
    """Equipment lifetime at a payment delay, as ``model.LINKS`` composes
    it: maintenance activity, then the floored lifetime."""
    return link_values(params, delay_in_debt_payment=delay)[
        "effective_lifetime"]


def test_effective_lifetime_halves_at_the_sigmoid_midpoint():
    assert lifetime(0.0) == 20.0
    assert lifetime(5.0) == pytest.approx(10.0)
    # the floor stops retirement from becoming instantaneous
    assert lifetime(50.0) == 1.0


def test_depreciation_flow():
    # retirement is the installed base over the lifetime
    assert 120.0 / lifetime(5.0) == pytest.approx(12.0)


# === fund allocation ===

@pytest.mark.parametrize("budget,debt,desired,expected", [
    (100.0, 30.0, 50.0, (80.0, 30.0, 50.0, 0.0)),
    (40.0, 30.0, 50.0, (40.0, 30.0, 10.0, 40.0)),
    (20.0, 30.0, 50.0, (20.0, 20.0, 0.0, 50.0)),
])
def test_allocation_ledger_traces(budget, debt, desired, expected):
    assert allocate_payments(PACKAGED, budget, debt,
                             desired) == pytest.approx(expected)


def test_allocation_invariants_hold_on_random_ledgers():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        budget, debt, desired = rng.uniform(0.0, 1e8, size=3)
        available, paid, actual, created = allocate_payments(
            PACKAGED, budget, debt, desired)
        assert available <= budget + 1e-9
        assert available <= debt + desired + 1e-9
        assert 0.0 <= paid <= debt + 1e-9
        assert 0.0 <= actual <= desired + 1e-9
        # debt is settled before any production dollar flows
        if actual > 0.0:
            assert paid == pytest.approx(debt)
        assert paid + actual == pytest.approx(available)
        assert actual + created == pytest.approx(desired)


def test_allocation_rejects_negative_inputs():
    with pytest.raises(ValueError):
        allocate_payments(PACKAGED, -1.0, 0.0, 0.0)


# === vintage-average price and production ===

def test_average_fit_price_forms():
    def average(paid, produced, fallback_price):
        return link_values(total_fit_payment=paid,
                           total_electricity_production=produced,
                           fit_price=fallback_price)["average_fit_price"]

    assert average(0.0, 0.0, fallback_price=20.0) == 20.0
    assert average(200.0, 10.0, 20.0) == pytest.approx(20.0)
    assert average(150.0, 10.0, 20.0) == pytest.approx(15.0)


def test_production_and_payment_entitlement():
    out = link_values(installed_capacity=100.0,
                      total_electricity_production=0.0,
                      total_fit_payment=0.0, fit_price=20.0)
    production = out["electricity_production"]
    assert production == pytest.approx(100.0 * 0.25 * 8760.0)
    assert out["average_fit_price"] == 20.0  # no history yet, tariff stands in
    assert out["desired_production_payment"] == pytest.approx(production
                                                              * 20.0)
    assert out["fit_payment_inflow"] == pytest.approx(
        out["desired_production_payment"])


def test_desired_payment_uses_contracted_average_not_current_price():
    out = link_values(installed_capacity=100.0,
                      total_electricity_production=1000.0,
                      total_fit_payment=18000.0, fit_price=5.0)
    production = out["electricity_production"]
    assert out["average_fit_price"] == pytest.approx(18.0)
    assert out["desired_production_payment"] == pytest.approx(production
                                                              * 18.0)
    assert out["fit_payment_inflow"] == pytest.approx(production * 5.0)


# === parameter registry ===

def test_registry_round_trip():
    params = PACKAGED
    assert "initial_fit_price" in PARAMETER_NAMES
    assert "investor_trust_x_50" in PARAMETER_NAMES
    assert "electricity_consumption_slope" in PARAMETER_NAMES
    updated = apply_overrides(params, {
        "initial_fit_price": 25.0,
        "investor_trust_x_50": 4.0,
        "electricity_consumption_slope": 1e6,
        "penetration_gain": 3.0,
    })
    assert get_parameter(updated, "initial_fit_price") == 25.0
    assert get_parameter(updated, "investor_trust_x_50") == 4.0
    assert get_parameter(updated, "electricity_consumption_slope") == 1e6
    assert get_parameter(updated, "penetration_gain") == 3.0
    # the original is untouched
    assert get_parameter(params, "initial_fit_price") == 20.0


def test_registry_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        get_parameter(PACKAGED, "not_a_parameter")
    with pytest.raises(ConfigurationError):
        apply_overrides(PACKAGED, {"not_a_parameter": 1.0})


def test_parameter_validation_catches_bad_values():
    with pytest.raises(ConfigurationError):
        PACKAGED._replace(rejection_fraction=1.5)
    with pytest.raises(ConfigurationError):
        PACKAGED._replace(initial_fit_price=-1.0)
    with pytest.raises(ConfigurationError):
        PACKAGED._replace(remuneration_period=0.5)
    with pytest.raises(ConfigurationError):
        PACKAGED._replace(fit_price_floor=0.0)
    with pytest.raises(ConfigurationError):
        PACKAGED._replace(initial_budget=-1.0)


# === full-run ledger identities ===

def stock_ledger_residual(run, stock, inflow, outflow, dt):
    """Worst relative gap between a stock and its integrated flows."""
    integrated = np.cumsum((np.asarray(run[inflow][:-1])
                            - run[outflow][:-1]) * dt)
    reconstructed = run[stock][0] + np.concatenate(([0.0], integrated))
    scale = max(1.0, float(np.max(np.abs(run[stock]))))
    return float(np.max(np.abs(reconstructed - run[stock]))) / scale


def test_base_run_conserves_money_and_capacity(base_run):
    dt = DOC.clock.dt
    assert stock_ledger_residual(base_run, "budget", "budget_increase",
                                 "budget_decrease", dt) < 1e-9
    assert stock_ledger_residual(base_run, "suna_debt", "debt_creation",
                                 "debt_payment", dt) < 1e-9
    cumulative = (np.asarray(base_run["installed_capacity"])
                  + base_run["depreciated_capacity"])
    assert np.array_equal(base_run["cumulative_installed_capacity"],
                          cumulative)
    # retirements never outrun the ledger: no clamp ever fires in the base run
    assert base_run.clamp_events == ()


def test_base_run_stocks_stay_non_negative(base_run):
    for name in ("installed_capacity", "depreciated_capacity", "suna_debt",
                 "budget", "total_electricity_production",
                 "total_fit_payment", "perceived_shortage"):
        assert float(np.min(base_run[name])) >= 0.0


def test_base_run_has_expected_record_count(base_run):
    assert base_run.n_records == round(20.0 / DOC.clock.dt) + 1
    assert base_run.times[0] == 2015.0
    assert base_run.times[-1] == 2035.0


def test_runs_are_bit_reproducible(default_params):
    clock = SimulationClock(2015.0, 2020.0, 0.25)
    a = FitModel(default_params).simulate(clock)
    b = FitModel(default_params).simulate(clock)
    for name in a.variables:
        assert np.array_equal(a[name], b[name])


def test_model_instance_is_reusable(default_params):
    clock = SimulationClock(2015.0, 2020.0, 0.25)
    model = FitModel(default_params)
    a = model.simulate(clock)
    b = model.simulate(clock)
    assert np.array_equal(a["installed_capacity"], b["installed_capacity"])
    # a run keeps its memory to itself
    assert vars(model).keys() == {"params", "policy"}


def test_total_payment_ledger_matches_price_times_production(base_run):
    # payment inflow is production priced at the current tariff
    inflow = base_run["fit_payment_inflow"]
    production = np.asarray(base_run["electricity_production"])
    price = base_run["fit_price"]
    assert np.allclose(inflow, production * price, rtol=1e-12)


class _CountingPolicy:
    """A neutral policy hook that counts its calls, one per step."""

    calls = 0

    def __call__(self, shortage):
        self.calls += 1
        return PriceTaxOverrides()


@pytest.mark.parametrize("clock, trend, lines, year", [
    # positive at launch, negative by the horizon
    pytest.param(DOC.clock, "electricity_consumption", ["slope = -2.5e6"],
                 2035.0, id="electricity_consumption-slope = -2.5e6-2035.0"),
    pytest.param(DOC.clock, "total_generation_capacity",
                 ["intercept = -1.0"], 2015.0,
                 id="total_generation_capacity-intercept = -1.0-2015.0"),
])
def test_trend_positivity_is_checked_before_the_first_step(
        clock, trend, lines, year, tmp_path, capsys):
    text = "[clock]\n" + "".join(
        f"{name} = {value!r} ; assumed\n"
        for name, value in zip(clock._fields, clock))
    text += "[trends]\n" + "".join(
        f"{trend}_{line} ; assumed\n" for line in lines)
    doc = parse_config(text)
    assert doc.clock == clock
    policy = _CountingPolicy()
    with pytest.raises(ConfigurationError) as excinfo:
        FitModel(doc.params, policy).simulate(doc.clock)
    assert policy.calls == 0
    message = str(excinfo.value)
    assert message.startswith(f"{trend}: ")
    assert f"t={year!r}" in message
    config = tmp_path / "trend.cfg"
    config.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


def test_an_off_grid_clock_ends_at_its_end_year(tmp_path, capsys):
    # 2000.2 + 0.05 * 28 is 2001.6000000000001, where this trend is
    # negative; the last record is 2001.6 itself, where it is positive
    config = tmp_path / "off_grid.cfg"
    config.write_text(
        "[clock]\nstart_year = 2000.2 ; assumed\n"
        "end_year = 2001.6 ; assumed\ndt = 0.05 ; assumed\n[trends]\n"
        "electricity_consumption_intercept = 1e-300 ; assumed\n"
        "electricity_consumption_slope = -1e10 ; assumed\n"
        "electricity_consumption_reference_year = 2001.6 ; assumed\n",
        encoding="utf-8")
    assert main(["run", "--config", str(config),
                 "--variables", "electricity_consumption"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 29
    assert lines[-1] == "2001.6,1e-300"


@pytest.mark.parametrize("dt, end", [
    (2.0, 2035.0), (1.6, 2031.0),
    # one step, whose end_year the whole-steps tolerance lets lie 1e-9
    # years past start_year + dt: step 1's lag target is past the bound
    (1.5, 2016.500000001)])
def test_a_step_too_coarse_for_the_request_lag_fails_before_the_first_step(
        dt, end):
    clock = SimulationClock(2015.0, end, dt)
    # the lookup's own rule: step 1 would read past the history
    series = BisectLaggedSeries(lag=REQUEST_LAG, initial_value=0.0)
    t0, t1 = clock.times()[:2]
    series.record(t0, 0.0)
    with pytest.raises(RuntimeError):
        series.lookup(t1)
    policy = _CountingPolicy()
    with pytest.raises(ConfigurationError) as excinfo:
        FitModel(PACKAGED, policy).simulate(clock)
    assert str(excinfo.value) == (
        f"dt must not exceed 1.5 times the one-year request lag, got {dt}")
    # the reference shares begin_run, so this shows only that it runs it
    assert (outcome(ReferenceFitModel, PACKAGED, policy, clock)
            == (ConfigurationError, str(excinfo.value)))
    assert policy.calls == 0


@given(st.floats(min_value=2014.0, max_value=2048.0),
       st.just(1.5) | st.floats(min_value=1.45, max_value=1.55))
# just below 2048, start + 1.5 rounds on a coarser grid than start + 0.5, so
# from this start even dt = 1.5 looks ahead; ``dt > 1.5`` would let it pass
@example(2046.7903555703758, 1.5)
def test_the_coarse_step_check_is_the_lookups_own_rule(start, dt):
    # near dt = 1.5 the rounding of the step times decides; the check must
    # fail exactly the clocks whose second step's lookup would
    clock = SimulationClock(start, start + 2 * dt, dt)
    series = BisectLaggedSeries(lag=REQUEST_LAG, initial_value=0.0)
    t0, t1 = clock.times()[:2]
    series.record(t0, 0.0)
    try:
        series.lookup(t1)
        lookahead = False
    except RuntimeError:
        lookahead = True
    policy = _CountingPolicy()
    try:
        FitModel(PACKAGED, policy).simulate(clock)
        rejected = False
    except ConfigurationError:
        rejected = True
    assert rejected == lookahead
    assert policy.calls == (0 if rejected else 3)


# === the fused loop against model.LINKS evaluated on the generic engine ===

class ReferenceFitModel(FitModel):
    """The step as ``model.LINKS`` and ``model.RATES`` evaluated in table
    order, integrated by the generic ``run_simulation`` of
    ``tests/engine_reference.py``: the reference that ``FitModel.simulate``
    must match bit for bit. Its run memory lives on the instance, reset by
    ``begin_run``: the request history is the bisect reference, and the
    penetration warning latch a flag."""

    # every stock is clamped at zero
    non_negative = frozenset(FitModel.stock_names)

    def begin_run(self, clock):
        super().begin_run(clock)
        self._requests = BisectLaggedSeries(
            lag=REQUEST_LAG,
            initial_value=self.params.initial_annual_requests)
        self._penetration_warned = False

    def simulate(self, clock):
        return run_simulation(self, clock)

    def derivatives(self, stocks, t):
        """Rates and auxiliaries, in ``stock_names``/``aux_names`` order."""
        values = dict(zip(self.stock_names, stocks), t=t)
        asked = False  # the policy hook is asked once per step
        for link in LINKS:
            inputs = [values[name] for name in link.inputs]
            if link.state == "policy":
                if not asked:
                    overrides = (self.policy(inputs[0])
                                 if self.policy is not None else None)
                    asked = True
                inputs[0] = overrides
            elif link.state == "lag":
                inputs.insert(0, self._requests.lookup(t))
            try:
                value = link.fn(self.params, *inputs)
            except ValueError as exc:
                raise SimulationError(str(exc), variable=link.name,
                                      time=t) from None
            if link.state == "lag":
                self._requests.record(t, value)
            elif link.state == "clamp" and value > 1.0:
                if not self._penetration_warned:
                    logging.getLogger("fitsim.model").warning(
                        "installed capacity %.1f MW exceeds total generation "
                        "capacity %.1f MW at t=%.2f; penetration clamped",
                        *inputs, t)
                    self._penetration_warned = True
                value = 1.0
            values[link.name] = value
        return (tuple(rate.fn(self.params, *map(values.get, rate.inputs))
                      for rate in RATES),
                tuple(map(values.get, self.aux_names)))


# === the causal table: its order, its names and its feedback loops ===

def test_every_link_reads_stocks_t_or_earlier_links():
    known = {"t", *FitModel.stock_names}
    for link in LINKS:
        assert known >= set(link.inputs), link.name
        known.add(link.name)
    # a link named like a stock would drop a column from the record
    names = FitModel.stock_names + FitModel.aux_names
    assert len(set(names)) == len(names) == 37
    for rate in RATES:
        assert known - {"t"} >= set(rate.inputs), rate.name
    assert {link.name: link.state for link in LINKS if link.state} == {
        "fit_price": "policy", "res_tax": "policy",
        "penetration_rate": "clamp", "annual_fit_requests": "lag"}


def elementary_cycles(readers):
    """Every elementary cycle of the graph ``readers`` (node -> the nodes
    that read it), each once, from its first node in ``readers``' order: a
    depth-first search from each node through the nodes after it."""
    order = {node: i for i, node in enumerate(readers)}
    cycles = []

    def walk(path):
        for node in readers[path[-1]]:
            if node == path[0]:
                cycles.append(tuple(path))
            elif order[node] > order[path[0]] and node not in path:
                walk(path + [node])

    for node in readers:
        walk([node])
    return cycles


PIPELINE = ("tendency_to_invest", "annual_fit_requests",
            "approved_fit_requests", "construction_rate")
FUND = ("installed_capacity", "electricity_production",
        "desired_production_payment", "actual_production_payment",
        "budget_decrease", "budget", "debt_creation", "suna_debt",
        "delay_in_debt_payment")
# the module docstring's four loops, from installed capacity back to it
DOCSTRING_LOOPS = {
    "adoption": ("installed_capacity", "penetration_rate",
                 "social_acceptance", *PIPELINE),
    "learning": ("installed_capacity", "cumulative_installed_capacity",
                 "capital_cost", "roi", *PIPELINE),
    "price control": ("installed_capacity", "fit_price", "roi", *PIPELINE),
    "budget stress through trust": (*FUND, "investor_trust", *PIPELINE),
    "budget stress through maintenance": (
        *FUND, "om_activity", "effective_lifetime", "depreciation"),
}


def test_the_docstring_loops_are_cycles_of_the_links():
    readers = {name: [] for name in FitModel.stock_names}
    for link in LINKS + RATES:
        readers.setdefault(link.name, [])
        for name in link.inputs:
            if name != "t":
                readers[name].append(link.name)
    cycles = elementary_cycles(readers)
    for name, loop in DOCSTRING_LOOPS.items():
        assert loop in cycles, name
    # each runs through a stock, so no step reads its own value
    assert all(set(cycle) & set(FitModel.stock_names) for cycle in cycles)
    # any change to the wiring shows here; 236 of them run through the
    # policy hook's input, the perceived shortage
    assert len(cycles) == 338
    assert sum("perceived_shortage" in cycle for cycle in cycles) == 236


# the box the calibration and the sweep search: every `assumed` model value
ASSUMED_KEYS = DOC.assumed_keys
# the four canonical scenarios, plus a p1 whose tariff is negative from
# the first step
NEGATIVE_TARIFF = DOC.scenario("p1_higher_fit")._replace(
    policy=DOC.scenario("p1_higher_fit").policy._replace(
        fit_price_delta=-30.0))
SCENARIOS = DOC.scenarios + (NEGATIVE_TARIFF,)


def outcome(model_class, params, policy, clock=DOC.clock):
    """Every column's bytes and the clamp events, or the error raised."""
    model = model_class(params, policy)
    try:
        run = model.simulate(clock)
    except Exception as exc:
        return type(exc), str(exc)
    return ({name: bytes(column) for name, column in run.variables.items()},
            bytes(run.times), repr(run.clamp_events))


def run_outcome(model_class, params, scenario, dt):
    params = apply_overrides(params, scenario.overrides)
    return outcome(model_class, params,
                   make_policy_fn(scenario.policy, params.res_tax_base),
                   SimulationClock(2015.0, 2035.0, dt))


def test_assumed_keys_come_from_the_provenance_markers():
    assert len(ASSUMED_KEYS) == 12
    assert set(ASSUMED_KEYS) <= set(PARAMETER_NAMES)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-0.2, max_value=0.2),
                min_size=len(ASSUMED_KEYS), max_size=len(ASSUMED_KEYS)),
       st.sampled_from(SCENARIOS),
       st.sampled_from([0.25, 0.1, 0.4, 1 / 64]))
@example([0.0] * len(ASSUMED_KEYS), NEGATIVE_TARIFF, 0.25)
def test_step_matches_the_composed_links(shifts, scenario, dt):
    params = apply_overrides(DOC.params, {
        key: get_parameter(DOC.params, key) * (1.0 + shift)
        for key, shift in zip(ASSUMED_KEYS, shifts)})
    assert (run_outcome(FitModel, params, scenario, dt)
            == run_outcome(ReferenceFitModel, params, scenario, dt))


def test_negative_tariff_is_refused_where_the_tariff_is_computed(tmp_path,
                                                                capsys):
    for model_class in (FitModel, ReferenceFitModel):
        kind, message = run_outcome(model_class, DOC.params, NEGATIVE_TARIFF,
                                    0.25)
        assert kind is SimulationError
        assert message == ("tariff must be non-negative, got -10.48 "
                           "(variable='fit_price', t=2015.0)")
    # from a config: a delta of -100 takes the tariff below zero at once,
    # and the run exits 2 naming it; -6 leaves it positive, and it runs
    config = tmp_path / "tariff.cfg"
    for delta in (-100, -6):
        config.write_text(f"[scenario:x]\npolicy = p1_higher_fit ; assumed\n"
                          f"fit_price_delta = {delta} ; assumed\n",
                          encoding="utf-8")
        code = main(["run", "--config", str(config), "--scenario", "x",
                     "--dt", "0.25", "--variables", "fit_price"])
        out, err = capsys.readouterr()
        if delta == -100:
            assert code == 2
            assert err.splitlines()[-1] == (
                "error: tariff must be non-negative, got -80.48 "
                "(variable='fit_price', t=2015.0)")
            continue
        assert code == 0
        tariffs = [float(line.split(",")[1])
                   for line in out.splitlines()[1:]]
        assert len(tariffs) == 81
        assert 12.64 < min(tariffs) < max(tariffs) <= 13.52


def levy(tax: float):
    """A policy hook that sets the levy to ``tax`` at every step."""
    overrides = PriceTaxOverrides(res_tax=tax)
    return lambda shortage: overrides


def launch_tariff_cut():
    """A policy hook that takes the launch tariff off every step's tariff."""
    p = PACKAGED
    gap = ((p.capacity_target - p.initial_installed_capacity)
           / p.capacity_target)
    overrides = PriceTaxOverrides(fit_price_delta=-(
        p.initial_fit_price * min(1.0, max(p.fit_price_floor, gap))))
    return lambda shortage: overrides


# (parameter overrides, policy hook, clock, and the error raised, the clamp
# events, or the columns that read zero at every record because their
# sigmoid overflowed)
STEP_EDGES = {
    "nan levy": ({}, levy(math.nan), DOC.clock,
                 (SimulationError, "sigmoid input must be finite, got nan "
                                   "(variable='social_acceptance', "
                                   "t=2015.0)")),
    # production overflows at a zero tariff: the desired payment is
    # inf * 0, and the debt's delay over it NaN
    "nan delay": ({"capacity_factor": 1e305, "initial_suna_debt": 1e6},
                  launch_tariff_cut(), DOC.clock,
                  (SimulationError, "sigmoid input must be finite, got nan "
                                    "(variable='investor_trust', t=2015.0)")),
    "learning": ({"learning_exponent": 1e6}, None, DOC.clock,
                 (SimulationError, "capital_cost must be positive, got 0.0 "
                                   "(variable='roi', t=2015.25)")),
    "negative tariff": (
        {}, make_policy_fn(PolicyControl("p1_higher_fit",
                                         fit_price_delta=-100.0),
                           PACKAGED.res_tax_base), DOC.clock,
        (SimulationError, "tariff must be non-negative, got -80.48 "
                          "(variable='fit_price', t=2015.0)")),
    "huge levy": ({}, levy(1e100), DOC.clock, ("social_acceptance",)),
    "huge debt": ({"initial_suna_debt": 1e300}, None, DOC.clock,
                  ("investor_trust", "om_activity")),
    # the margin overflows, and the record's auxiliaries with it; the ROI
    # is the first of them in evaluation order
    "auxiliary overflow": ({"capacity_factor": 1e305}, None, DOC.clock,
                           (SimulationError, "non-finite auxiliary (variable="
                                             "'roi', t=2015.0)")),
    # the shortage's rate overflows while every stock stays finite
    "rate overflow": ({"shortage_smoothing_time": 1e-305,
                       "initial_budget": 0.0}, None, DOC.clock,
                      (SimulationError, "non-finite rate (variable="
                                        "'perceived_shortage', t=2015.0)")),
    # every rate stays finite until a stock overflows: named at the next
    # record, after the clamp
    "stock overflow": ({"capacity_factor": 1e302}, launch_tariff_cut(),
                       QUARTERLY,
                       (SimulationError, "non-finite stock (variable="
                                         "'total_electricity_production', "
                                         "t=2017.0)")),
    "clamp": ({"initial_budget": 1.0, "res_tax_base": 0.0}, None,
              SimulationClock(2015.0, 2033.0, 1.5),
              (ClampEvent(2015.0, "budget", -0.5),
               ClampEvent(2025.5, "installed_capacity", -841.5695008153414),
               ClampEvent(2028.5, "installed_capacity",
                          -4.806751852433679e-34),
               ClampEvent(2031.5, "installed_capacity",
                          -1.0258664800438845e-97))),
}


@pytest.mark.parametrize("overrides, policy, clock, expected",
                         STEP_EDGES.values(), ids=STEP_EDGES)
def test_step_matches_the_composed_links_at_its_edges(overrides, policy,
                                                      clock, expected):
    # the step's error branches, its overflow fallbacks, and the Euler
    # update's checks and clamp
    params = apply_overrides(PACKAGED, overrides)
    result = outcome(FitModel, params, policy, clock)
    assert result == outcome(ReferenceFitModel, params, policy, clock)
    if isinstance(expected[0], type):
        assert result == expected
        return
    if isinstance(expected[0], ClampEvent):
        assert result[2] == repr(expected)
        return
    for name in expected:
        assert set(array("d", result[0][name])) == {0.0}, name


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
def test_a_levy_override_reads_the_tolerance_at_its_own_value(scale):
    # the run computes the tolerance at the base levy once, and a step
    # reads it only when its levy is the base levy
    policy = levy(PACKAGED.res_tax_base * scale)
    assert (outcome(FitModel, PACKAGED, policy)
            == outcome(ReferenceFitModel, PACKAGED, policy))


def test_the_penetration_clamp_warns_once_per_run(caplog):
    # installed capacity outgrows this generation capacity at once; the clamp
    # is what keeps the penetration in [0, 1], where the step reads it
    params = apply_overrides(PACKAGED, {
        "total_generation_capacity_intercept": 150.0,
        "total_generation_capacity_slope": 1.0})
    model = FitModel(params)
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fitsim.model"):
            run = model.simulate(QUARTERLY)
        assert [record.name for record in caplog.records] == ["fitsim.model"]
        assert list(run["penetration_rate"]).count(1.0) == 80
        assert len(run.times) == 81
    assert (outcome(FitModel, params, None, QUARTERLY)
            == outcome(ReferenceFitModel, params, None, QUARTERLY))


# === the record grid, computed once per clock ===

@given(st.builds(lambda start, dt, n: SimulationClock(start, start + dt * n,
                                                      dt),
                 st.floats(min_value=1900.0, max_value=2100.0),
                 st.floats(min_value=0.01, max_value=2.0),
                 st.integers(min_value=1, max_value=400))
       | st.builds(lambda start, n, dt: SimulationClock(start, start + n, dt),
                   st.integers(min_value=1900, max_value=2100),
                   st.integers(min_value=1, max_value=40),
                   st.sampled_from([1, 0.5, 0.25, 0.1])))
@example(SimulationClock(2015, 2035, 0.25))
@example(SimulationClock(-1.0, -0.0, 0.25))
def test_the_record_grid_is_the_clocks_own(clock):
    times = clock.times()
    for _ in range(2):  # computed, then read from the cache
        grid = record_grid(clock)
        assert grid == (tuple(times), tuple(lag_indices(times, REQUEST_LAG)))
        assert list(map(repr, grid[0])) == list(map(repr, times))


# equal clocks that record different times: the last is 2017 or 2017.0,
# where this run's first non-finite stock is named, or -0.0 or 0.0
EQUAL_CLOCKS = {
    "int and float": ({"capacity_factor": 1e302}, launch_tariff_cut(),
                      SimulationClock(2015, 2017, 0.25),
                      SimulationClock(2015.0, 2017.0, 0.25)),
    "negative and positive zero": (
        {"total_generation_capacity_reference_year": 0.0,
         "electricity_consumption_reference_year": 0.0}, None,
        SimulationClock(-1.0, -0.0, 0.25), SimulationClock(-1.0, 0.0, 0.25)),
}


@pytest.mark.parametrize("overrides, policy, first, second",
                         EQUAL_CLOCKS.values(), ids=EQUAL_CLOCKS)
def test_equal_clocks_keep_their_own_grids(overrides, policy, first, second):
    assert first == second and hash(first) == hash(second)
    params = apply_overrides(PACKAGED, overrides)
    outcomes = []
    for order in ((first, second), (second, first)):
        fitsim.model._record_grid.cache_clear()
        outcomes.append({repr(clock): outcome(FitModel, params, policy, clock)
                         for clock in order})
    assert outcomes[0] == outcomes[1]
    a, b = (outcomes[0][repr(clock)] for clock in (first, second))
    assert a != b
    assert a == outcome(ReferenceFitModel, params, policy, first)
    assert b == outcome(ReferenceFitModel, params, policy, second)


# === the module's constants: unit conversions and modelling choices ===

# every module-level number of model.py. A unit conversion gives its value
# and unit. A modelling choice gives its value, unit and reason, and the
# step of ROADMAP.md that gives it a provenance: the config's provenance
# markers cover only the parameter records.
UNIT_CONVERSIONS = {
    "ANNUAL_HOURS": (8760.0, "h/yr, 365 days of 24 hours"),
    "KWH_PER_MWH": (1000.0, "kWh/MWh"),
}
MODELLING_CHOICES = {
    "DELAY_PAYMENT_EPSILON": (
        1.0, "$/yr",
        "a numerical guard: the least desired payment the debt's delay is "
        "divided by, for obligations that vanish while debt remains; from 1 "
        "to 1e6 it moves no scenario's 2035 capacity",
        "item 22 step 2 keeps it a constant, with this reason"),
    "MINIMUM_LIFETIME": (
        1.0, "years",
        "the shortest equipment lifetime when maintenance stalls; from "
        "2027.25 it sets the retirements of p1's whole fleet, and the "
        "capacity ordering passes only while it lies below a value between "
        "6 and 7 years",
        "item 22 step 2: [parameters] minimum_equipment_lifetime, assumed"),
    "REQUEST_LAG": (
        1.0, "years",
        "investors file requests on last year's level, an annual "
        "information delay",
        "item 22 step 2, unless item 4 replaces the annual pipeline"),
}


def test_every_model_constant_is_a_unit_conversion_or_a_listed_choice():
    numbers = {name: value for name, value in vars(fitsim.model).items()
               if type(value) in (int, float)}
    assert numbers == {name: entry[0] for name, entry in
                       {**UNIT_CONVERSIONS, **MODELLING_CHOICES}.items()}
    for _, unit, reason, provenance in MODELLING_CHOICES.values():
        assert unit and reason and provenance


def test_the_readme_states_every_modelling_choice():
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    for name, (value, unit, *_) in MODELLING_CHOICES.items():
        assert f"`{name}` = {value} {unit}" in readme, name
