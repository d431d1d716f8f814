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

A :class:`Scenario` names parameter overrides, a policy and that policy's
knobs. A comparison runs a list of them on one clock and reports their
runs and parameters.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from typing import NamedTuple

from .engine import (
    ConfigurationError,
    Finite,
    NonNegative,
    RunResult,
    SimulationClock,
    checked,
)
from .model import (
    FitModel,
    ModelParameters,
    PolicyFn,
    PriceTaxOverrides,
    apply_overrides,
)
from .validation import (
    ACCEPTANCE_BOUNDS,
    Finding,
    _non_strict,
    behavior_signature,
    dry_fund_margin,
    margin_above,
    peak_decline_margin,
)

POLICY_IDS = (
    "base",
    "p1_higher_fit",
    "p2_budget_adjusted_fit",
    "p3_budget_adjusted_tax",
)

MAX_RES_TAX = 0.1  # $/kWh; beyond this the tolerance sigmoid saturates


class _NoOverrides(Mapping):
    """Read-only empty overrides that, unlike an empty ``mappingproxy``,
    pickle and deep-copy."""

    def __getitem__(self, key):
        raise KeyError(key)

    def __iter__(self):
        return iter(())

    def __len__(self):
        return 0

    def __repr__(self):
        return "{}"


# the one policy that reads each knob
_KNOB_POLICY = {"fit_price_delta": "p1_higher_fit",
                "fit_controller_gain": "p2_budget_adjusted_fit",
                "tax_controller_gain": "p3_budget_adjusted_tax",
                "tax_floor": "p3_budget_adjusted_tax",
                "tax_cap": "p3_budget_adjusted_tax"}


@checked
class Scenario(NamedTuple):
    """One named run: parameter overrides plus a policy and its knobs.
    Every scenario of a comparison runs on the clock given to
    :func:`run_scenario_suite`. The name becomes a file name and a CSV and
    SVG field, so it is refused unless it is non-empty letters, digits,
    ``_``, ``-`` and ``.``. A knob of another policy than the scenario's
    own is refused unless it keeps its default; zeroed knobs make every
    policy the base run."""

    name: str
    overrides: Mapping[str, float] = _NoOverrides()
    policy: str = "base"
    fit_price_delta: Finite = 0.0            # $/MWh, p1
    fit_controller_gain: NonNegative = 0.0   # 1/$ of perceived shortage, p2
    tax_controller_gain: NonNegative = 0.0   # ($/kWh) per $ of perceived shortage, p3
    tax_floor: NonNegative = 0.0             # $/kWh, p3 clamp
    tax_cap: Finite = MAX_RES_TAX            # $/kWh, p3 clamp

    def _check(self):
        if self.policy not in POLICY_IDS:
            raise ConfigurationError(
                f"policy must be one of {POLICY_IDS}, got {self.policy!r}")
        if not self.tax_floor <= self.tax_cap <= MAX_RES_TAX:
            raise ConfigurationError(
                f"need tax_floor <= tax_cap <= {MAX_RES_TAX}, got "
                f"floor={self.tax_floor}, cap={self.tax_cap}")
        for knob, policy in _KNOB_POLICY.items():
            if (policy != self.policy
                    and getattr(self, knob) != self._field_defaults[knob]):
                raise ConfigurationError(
                    f"{knob} is a knob of {policy}, not of {self.policy}")
        name = self.name
        if not (isinstance(name, str) and name
                and all(c.isalnum() or c in "_-." for c in name)):
            raise ConfigurationError(
                f"scenario name must be non-empty letters, digits, '_', '-' "
                f"and '.', got {name!r}")
        if not isinstance(self.overrides, Mapping):
            raise ConfigurationError(
                f"scenario {self.name!r}: overrides must be a mapping of "
                f"parameter names to values, got {self.overrides!r}")


def apply_policy(scenario: Scenario, shortage: float,
                 base_tax: float) -> PriceTaxOverrides:
    """Overrides for one step given the perceived budget shortfall in dollars.

    A negative perceived shortfall reads as none.
    """
    if scenario.policy == "base":
        return PriceTaxOverrides()
    shortage = max(0.0, shortage)
    if scenario.policy == "p1_higher_fit":
        return PriceTaxOverrides(fit_price_delta=scenario.fit_price_delta)
    if scenario.policy == "p2_budget_adjusted_fit":
        multiplier = 1.0 / (1.0 + scenario.fit_controller_gain * shortage)
        return PriceTaxOverrides(fit_price_multiplier=multiplier)
    # p3_budget_adjusted_tax, for Scenario refuses any other policy
    raw = base_tax + scenario.tax_controller_gain * shortage
    tax = min(max(raw, scenario.tax_floor), scenario.tax_cap)
    return PriceTaxOverrides(res_tax=tax)


def make_policy_fn(scenario: Scenario, base_tax: float) -> PolicyFn:
    """:func:`apply_policy` bound to a scenario and the base levy: the hook
    :func:`scenario_model` binds for each policy but base. One record serves
    every step without a perceived shortfall, and every step of p1 or base."""
    calm = apply_policy(scenario, 0.0, base_tax)
    if scenario.policy in ("base", "p1_higher_fit"):
        return lambda shortage: calm
    # apply_policy reads every shortage <= 0.0 as 0.0; NaN takes its path
    return lambda shortage: (calm if shortage <= 0.0
                             else apply_policy(scenario, shortage, base_tax))


def scenario_model(params: ModelParameters, scenario: Scenario) -> FitModel:
    """One scenario's model: its overrides laid over ``params`` and its
    policy bound to the resulting base levy, or no hook for neutral base."""
    params = apply_overrides(params, scenario.overrides)
    return FitModel(params, None if scenario.policy == "base"
                    else make_policy_fn(scenario, params.res_tax_base))


class ComparisonReport(NamedTuple):
    """The runs of a scenario comparison, in scenario order and all on one
    clock, and the parameters each scenario ran with."""

    runs: dict[str, RunResult]
    params: dict[str, ModelParameters]


def run_scenario_suite(params: ModelParameters, scenarios: list[Scenario],
                       clock: SimulationClock) -> ComparisonReport:
    """Run every scenario against the shared parameters on ``clock``, so
    that all runs of the report are recorded at the same times.

    Scenario parameter overrides apply on top of ``params``; runs are
    independent, so executing them in any order (or in parallel) gives the
    same report. This implementation runs them sequentially.
    """
    names = [scenario.name for scenario in scenarios]
    if not names:
        raise ConfigurationError("a scenario suite needs a scenario")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scenario names in {names}")
    runs: dict[str, RunResult] = {}
    run_params: dict[str, ModelParameters] = {}
    for scenario in scenarios:
        model = scenario_model(params, scenario)
        runs[scenario.name] = model.simulate(clock)
        run_params[scenario.name] = model.params
    return ComparisonReport(runs=runs, params=run_params)


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
    end = f"{base.times[-1]:.12g}"  # every run ends on the same record
    findings = []

    capacity = {name: report.runs[name].final("installed_capacity")
                for name in POLICY_IDS}
    # gaps near zero are no margin: they count against at least the launch
    # capacity, and for debt the launch fund
    order = ("p3_budget_adjusted_tax", "base", "p2_budget_adjusted_fit",
             "p1_higher_fit")
    margin = min(margin_above(capacity[a], capacity[b],
                              base["installed_capacity"][0])
                 for a, b in zip(order, order[1:]))
    findings.append(Finding(
        "capacity_ordering",
        f"{end} installed capacity (MW): "
        + ", ".join(f"{name}={capacity[name]:.1f}"
                    for name in POLICY_IDS), margin))

    debt = {name: report.runs[name].final("suna_debt")
            for name in POLICY_IDS}
    p3_debt_peak = max(p3["suna_debt"])
    fund = max(base["budget"][0], 1.0)
    # p2 pays its debt down, so its gap to p3 at the horizon has no floor;
    # p3 is debt-free by its lowest fund over the launch fund
    margin = min(
        margin_above(debt["p1_higher_fit"], debt["base"], fund),
        margin_above(debt["base"], debt["p2_budget_adjusted_fit"], fund),
        margin_above(debt["p2_budget_adjusted_fit"],
                     debt["p3_budget_adjusted_tax"]),
        _non_strict(min(p3["budget"]) / fund) if p3_debt_peak <= 0.0
        else -1.0)
    findings.append(Finding(
        "debt_ordering",
        f"{end} debt ($): "
        + ", ".join(f"{name}={debt[name]:.3g}"
                    for name in POLICY_IDS)
        + f"; p3 peak debt={p3_debt_peak:.3g}", margin))

    signature = behavior_signature(base.times, base["installed_capacity"])
    debt_signature = behavior_signature(base.times, base["suna_debt"])
    emergence = debt_signature.first_positive_year
    after = ACCEPTANCE_BOUNDS["debt_emerges_after"]
    start = base.times[0]  # years count from the start
    margin = min(
        peak_decline_margin(base["installed_capacity"], signature.shape),
        dry_fund_margin(base["budget"]) if emergence is None
        else margin_above(emergence - start, after - start))
    findings.append(Finding(
        "base_debt_and_peak",
        f"base: capacity {signature.shape} with peak at "
        f"{signature.peak_year}, debt emerges at "
        f"{emergence if emergence is not None else 'never'}", margin))

    target = report.params["base"].capacity_target
    t_p1 = _first_crossing_year(p1, "installed_capacity", target)
    t_base = _first_crossing_year(base, "installed_capacity", target)
    # a year past the horizon stands for never; the lead over the horizon
    late = base.times[-1] + 1.0
    margin = min(
        _non_strict(margin_above(max(p1["installed_capacity"]), target)),
        _non_strict((min(t_base, late) - min(t_p1, late))
                    / (base.times[-1] - start)))
    findings.append(Finding(
        "p1_reaches_target_first",
        f"first year at {target:.0f} MW: p1={t_p1}, base={t_base}", margin))

    tendency = p2["tendency_to_invest"]
    trough = min(tendency)
    # a tendency ends at zero with the return, which tells how far off it is
    margin = (min(0.0, p2.final("roi")) if tendency[-1] <= 0.0
              else margin_above(tendency[-1], trough, tendency[0]))
    findings.append(Finding(
        "p2_tendency_recovers",
        f"p2 tendency trough={trough:.4f}, final={tendency[-1]:.4f}", margin))
    return findings


def _first_crossing_year(run: RunResult, name: str,
                         threshold: float) -> float:
    return next((float(t) for t, value in zip(run.times, run[name])
                 if value >= threshold), math.inf)
