"""Policy scenario lab.

Three interventions are modeled on top of the base tariff and levy rules,
each expressed as a :class:`~fitsim.model.PriceTaxOverrides` produced once
per step from the perceived budget shortage:

* ``p1_higher_fit``: a flat tariff increase, paid regardless of the fund.
* ``p2_budget_adjusted_fit``: the tariff is scaled down smoothly while a
  budget shortfall is perceived, and recovers as the fund heals.
* ``p3_budget_adjusted_tax``: the electricity levy is raised with the
  perceived shortfall, clamped between a floor and a cap.

Both budget-reactive policies act on the model's first-order perceived
shortage, so they respond with roughly a one-year delay. Policies with all
gains and deltas at zero reproduce the base run bit-exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .engine import (
    DEFAULT_CLOCK,
    CheckedRecord,
    ConfigurationError,
    RunResult,
    SimulationClock,
)
from .model import (
    FitModel,
    ModelParameters,
    PolicyFn,
    PriceTaxOverrides,
    apply_overrides,
)
from .validation import Finding, GROWTH_PEAK_DECLINE, behavior_signature

POLICY_IDS = (
    "base",
    "p1_higher_fit",
    "p2_budget_adjusted_fit",
    "p3_budget_adjusted_tax",
)

MAX_RES_TAX = 0.1  # $/kWh; beyond this the tolerance sigmoid saturates


class _ControlFields(NamedTuple):
    policy_id: str = "base"
    fit_price_delta: float = 0.0       # $/MWh, p1
    fit_controller_gain: float = 0.0   # 1/$ of perceived shortage, p2
    tax_controller_gain: float = 0.0   # ($/kWh) per $ of perceived shortage, p3
    tax_floor: float = 0.0             # $/kWh, p3 clamp
    tax_cap: float = MAX_RES_TAX       # $/kWh, p3 clamp


class PolicyControl(CheckedRecord, _ControlFields):
    """Knobs of one policy; zeroed knobs make every policy the base run."""

    __slots__ = ()

    def _check(self):
        if self.policy_id not in POLICY_IDS:
            raise ConfigurationError(
                f"unknown policy_id {self.policy_id!r}; "
                f"expected one of {POLICY_IDS}")
        for name in ("fit_controller_gain", "tax_controller_gain",
                     "tax_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigurationError(
                    f"{name} must be non-negative and finite, got {value}")
        if not math.isfinite(self.fit_price_delta):
            raise ConfigurationError(
                f"fit_price_delta must be finite, got {self.fit_price_delta}")
        if not self.tax_floor <= self.tax_cap <= MAX_RES_TAX:
            raise ConfigurationError(
                f"need tax_floor <= tax_cap <= {MAX_RES_TAX}, got "
                f"floor={self.tax_floor}, cap={self.tax_cap}")


# immutable, so one instance can serve every step of every base run
_NEUTRAL_OVERRIDES = PriceTaxOverrides()


def apply_policy(control: PolicyControl, shortage: float,
                 base_tax: float) -> PriceTaxOverrides:
    """Overrides for one step given the perceived budget shortfall in dollars.

    A negative perceived shortfall reads as none.
    """
    if control.policy_id == "base":
        return _NEUTRAL_OVERRIDES
    shortage = max(0.0, shortage)
    if control.policy_id == "p1_higher_fit":
        return PriceTaxOverrides(fit_price_delta=control.fit_price_delta)
    if control.policy_id == "p2_budget_adjusted_fit":
        multiplier = 1.0 / (1.0 + control.fit_controller_gain * shortage)
        return PriceTaxOverrides(fit_price_multiplier=multiplier)
    if control.policy_id == "p3_budget_adjusted_tax":
        raw = base_tax + control.tax_controller_gain * shortage
        tax = min(max(raw, control.tax_floor), control.tax_cap)
        return PriceTaxOverrides(res_tax=tax)
    raise ConfigurationError(f"unknown policy_id {control.policy_id!r}")


def make_policy_fn(control: PolicyControl, base_tax: float) -> PolicyFn:
    """The model's policy hook: :func:`apply_policy` bound to a control and
    the base levy. One record, built here, serves every step without a
    perceived shortfall, and every step of base and p1, which ignore it."""
    calm = apply_policy(control, 0.0, base_tax)
    if control.policy_id in ("base", "p1_higher_fit"):
        return lambda shortage: calm
    # apply_policy reads every shortage <= 0.0 as 0.0; NaN takes its path
    return lambda shortage: (calm if shortage <= 0.0
                             else apply_policy(control, shortage, base_tax))


class _ScenarioFields(NamedTuple):
    name: str
    clock: SimulationClock = DEFAULT_CLOCK
    overrides: dict[str, float] | None = None  # left out: a fresh {}
    policy: PolicyControl = PolicyControl()


class Scenario(_ScenarioFields):
    """One named run: parameter overrides plus a policy, on a shared clock."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        return self if self.overrides is not None else self._replace(
            overrides={})


# as CheckedRecord does: a wrong call names Scenario
_ScenarioFields.__new__.__qualname__ = "Scenario.__new__"


def scenario_model(params: ModelParameters, scenario: Scenario) -> FitModel:
    """The model of one scenario: its overrides applied on top of ``params``
    and its policy bound to the resulting base levy."""
    params = apply_overrides(params, scenario.overrides)
    return FitModel(params, make_policy_fn(scenario.policy,
                                           params.econ.res_tax_base))


class ScenarioOutcome(NamedTuple):
    """End-of-horizon readout of the variables the scenarios are judged on."""

    name: str
    installed_capacity: float
    penetration_rate: float
    tendency_to_invest: float
    suna_debt: float
    delay_in_debt_payment: float


class ComparisonReport(NamedTuple):
    """Outcome rows, the full trajectories they were read from, and the
    parameters each scenario ran with."""

    outcomes: tuple[ScenarioOutcome, ...]
    runs: dict[str, RunResult]
    params: dict[str, ModelParameters]

    def outcome(self, name: str) -> ScenarioOutcome:
        for row in self.outcomes:
            if row.name == name:
                return row
        raise KeyError(name)


def run_scenario_suite(params: ModelParameters,
                       scenarios: list[Scenario]) -> ComparisonReport:
    """Run every scenario against the shared parameters.

    Scenario parameter overrides apply on top of ``params``; runs are
    independent, so executing them in any order (or in parallel) gives the
    same report. This implementation runs them sequentially.
    """
    names = [scenario.name for scenario in scenarios]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scenario names in {names}")
    outcomes = []
    runs: dict[str, RunResult] = {}
    run_params: dict[str, ModelParameters] = {}
    for scenario in scenarios:
        model = scenario_model(params, scenario)
        result = model.simulate(scenario.clock)
        runs[scenario.name] = result
        run_params[scenario.name] = model.params
        outcomes.append(ScenarioOutcome(
            name=scenario.name,
            installed_capacity=result.final("installed_capacity"),
            penetration_rate=result.final("penetration_rate"),
            tendency_to_invest=result.final("tendency_to_invest"),
            suna_debt=result.final("suna_debt"),
            delay_in_debt_payment=result.final("delay_in_debt_payment"),
        ))
    return ComparisonReport(outcomes=tuple(outcomes), runs=runs,
                            params=run_params)


def qualitative_checks(report: ComparisonReport) -> list[Finding]:
    """Structural expectations on a base + three-policy comparison.

    (a) end-of-horizon installed capacity ranks p3 > base > p2 > p1;
    (b) end-of-horizon debt ranks p1 > base > p2 > p3, and p3 carries no
        debt at any step;
    (c) the base run shows debt emerging well into the program (not at
        launch) and a capacity peak followed by decline;
    (d) p1 reaches the base run's capacity target, and no later than base;
    (e) p2's tendency to invest recovers after its trough.
    """
    missing = [name for name in POLICY_IDS if name not in report.runs]
    if missing:
        raise ValueError(
            f"report lacks canonical scenarios: {missing}")
    base = report.runs["base"]
    p1 = report.runs["p1_higher_fit"]
    p2 = report.runs["p2_budget_adjusted_fit"]
    p3 = report.runs["p3_budget_adjusted_tax"]
    findings = []

    capacity = {name: report.outcome(name).installed_capacity
                for name in POLICY_IDS}
    ok = (capacity["p3_budget_adjusted_tax"] > capacity["base"]
          > capacity["p2_budget_adjusted_fit"]
          > capacity["p1_higher_fit"])
    findings.append(Finding(
        "capacity_ordering", ok,
        "2035 installed capacity (MW): "
        + ", ".join(f"{name}={capacity[name]:.1f}"
                    for name in POLICY_IDS)))

    debt = {name: report.outcome(name).suna_debt
            for name in POLICY_IDS}
    p3_debt_peak = max(p3["suna_debt"])
    ok = (debt["p1_higher_fit"] > debt["base"]
          > debt["p2_budget_adjusted_fit"] > debt["p3_budget_adjusted_tax"]
          and p3_debt_peak <= 0.0)
    findings.append(Finding(
        "debt_ordering", ok,
        "2035 debt ($): "
        + ", ".join(f"{name}={debt[name]:.3g}"
                    for name in POLICY_IDS)
        + f"; p3 peak debt={p3_debt_peak:.3g}"))

    signature = behavior_signature(base.times, base["installed_capacity"])
    debt_signature = behavior_signature(base.times, base["suna_debt"])
    emergence = debt_signature.first_positive_year
    # Debt is expected after 2021; the classifier grants three years of
    # timing slack around that reading.
    ok = (signature.shape == GROWTH_PEAK_DECLINE
          and emergence is not None
          and emergence > 2018.0)
    findings.append(Finding(
        "base_debt_and_peak", ok,
        f"base: capacity {signature.shape} with peak at "
        f"{signature.peak_year}, debt emerges at "
        f"{emergence if emergence is not None else 'never'}"))

    target = report.params["base"].econ.capacity_target
    t_p1 = _first_crossing_year(p1, "installed_capacity", target)
    t_base = _first_crossing_year(base, "installed_capacity", target)
    ok = math.isfinite(t_p1) and t_p1 <= t_base
    findings.append(Finding(
        "p1_reaches_target_first", ok,
        f"first year at {target:.0f} MW: p1={t_p1}, base={t_base}"))

    tendency = p2["tendency_to_invest"]
    trough = min(tendency)
    ok = tendency[-1] > trough
    findings.append(Finding(
        "p2_tendency_recovers", ok,
        f"p2 tendency trough={trough:.4f}, final={tendency[-1]:.4f}"))
    return findings


def _first_crossing_year(run: RunResult, name: str,
                         threshold: float) -> float:
    series = run[name]
    for t, value in zip(run.times, series):
        if value >= threshold:
            return float(t)
    return math.inf
