"""Stock-flow model of feed-in-tariff driven renewable capacity growth.

The model tracks a national renewable-energy support program: investors file
requests for guaranteed-price contracts, approved projects become installed
capacity, production is paid out of a dedicated fund fed by an electricity
levy, and unpaid obligations accumulate as agency debt. Four feedback loops
shape the trajectories, each a cycle of ``LINKS`` below that
``test_the_docstring_loops_are_cycles_of_the_links`` in
``tests/test_model.py`` names node by node:

* reinforcing adoption: more capacity raises penetration and social
  acceptance, which raises the tendency to invest and future requests;
* reinforcing learning: cumulative construction lowers capital cost, which
  raises project ROI and the tendency to invest;
* balancing price control: as installed capacity approaches the program
  target, the offered tariff is ratcheted down toward a floor;
* balancing budget stress: payments outgrow the levy, the fund runs short,
  debt and the delay in settling it grow, and investor trust together with
  maintenance activity collapse, choking further growth.

Stocks (explicit Euler, see :mod:`fitsim.engine`):

==============================  =======  ====================================
installed_capacity              MW       operating plants
depreciated_capacity            MW       retired plants (keeps the learning
                                         curve's cumulative-build ledger)
suna_debt                       dollars  unpaid production obligations
budget                          dollars  the support fund
total_electricity_production    MWh      lifetime renewable output
total_fit_payment               dollars  lifetime tariff payout
perceived_shortage              dollars  first-order perception of the
                                         budget shortfall (policy input)
==============================  =======  ====================================

Except where noted, prices and costs are in dollars per MWh; the levy
(``res_tax``) is in dollars per kWh and is converted at the budget boundary.

``ModelParameters`` holds every parameter in one checked record: floats
declare their bounds beside them, ranges included (see ``engine.checked``);
``_check`` keeps only the remuneration period's one-year floor.

Each link of the structure is a function in the table's convention,
``fn(params, *inputs)``: ``compute_*`` or ``allocate_payments`` where it
refuses an input or branches, else a lambda in its entry of ``LINKS``, which
lists the auxiliaries in evaluation order with the names each reads;
``RATES`` gives each stock's rate over those names. The tests check each
link against oracles. ``FitModel`` takes its stock, auxiliary and flow names
from the two tables, and records each step in their order. Its step
inlines the same links over constants bound once per run, calling a link
only to raise its error as a ``SimulationError`` that names the link and the
time, and the Euler update follows in the same loop.
``ReferenceFitModel`` in ``tests/test_model.py`` evaluates the tables and
runs through the generic integrator of ``tests/engine_reference.py``; a
property over the calibration box, the policies and the step sizes holds
the two to the same bytes.
"""

import math
import struct
from array import array
from functools import lru_cache
from typing import Callable, NamedTuple

from .engine import (
    ClampEvent,
    ConfigurationError,
    Finite,
    LinearTrend,
    NonNegative,
    Positive,
    PositiveShare,
    RunResult,
    Share,
    SigmoidEffect,
    SimulationClock,
    SimulationError,
    _raise_first_non_finite,
    checked,
    eval_inverted_sigmoid,
    eval_linear_trend,
    lag_indices,
)

ANNUAL_HOURS = 8760.0
KWH_PER_MWH = 1000.0
# guards the delay ratio when obligations vanish while debt remains
DELAY_PAYMENT_EPSILON = 1.0  # dollars/year
# retirement can accelerate when maintenance stalls, but never below this
MINIMUM_LIFETIME = 1.0  # years
# investors file requests on last year's level
REQUEST_LAG = 1.0  # years


@checked
class ModelParameters(NamedTuple):
    """Everything a run needs besides the clock and the policy.

    Each effect is an inverted sigmoid in one pressure variable: the levy
    erodes public tolerance, the payment delay erodes investor trust, and
    the same delay stalls operation-and-maintenance activity.
    """

    capacity_factor: Positive             # fraction of nameplate output
    initial_fit_price: Positive           # $/MWh, tariff offered at launch
    om_cost: NonNegative                  # $/MWh, operation and maintenance
    interest_rate: Positive               # per year, investor discount rate
    remuneration_period: Positive         # years of guaranteed purchase
    initial_capital_cost: Positive        # $/MW at the initial build level
    learning_exponent: NonNegative        # capital-cost learning strength
    time_to_build: Positive               # years from approval to operation
    normal_equipment_lifetime: Positive   # years, with healthy maintenance
    rejection_fraction: Share             # share of requests turned down
    capacity_target: Positive             # MW, program goal
    res_tax_base: NonNegative             # $/kWh, electricity levy
    initial_annual_requests: Positive     # MW/year filed before launch
    fit_price_floor: PositiveShare        # minimum multiplier of the launch tariff
    shortage_smoothing_time: Positive     # years, shortfall perception delay
    initial_installed_capacity: Positive  # MW
    initial_budget: NonNegative           # dollars
    initial_suna_debt: NonNegative        # dollars
    social_tolerance: SigmoidEffect       # x: $/kWh
    investor_trust: SigmoidEffect         # x: years
    om_activity: SigmoidEffect            # x: years
    penetration_gain: NonNegative         # slope of acceptance in penetration
    total_generation_capacity: LinearTrend  # MW
    electricity_consumption: LinearTrend    # MWh/yr

    def _check(self):
        if self.remuneration_period < 1.0:
            raise ConfigurationError(
                f"remuneration_period must be at least one year, "
                f"got {self.remuneration_period}")


@checked
class PriceTaxOverrides(NamedTuple):
    """Policy-side adjustments applied on top of the base price and levy.

    The neutral instance (multiplier 1, delta 0, no levy override) leaves
    the base run bit-exactly unchanged.
    """

    fit_price_delta: Finite = 0.0              # $/MWh, added after the rule
    fit_price_multiplier: PositiveShare = 1.0  # scales the base rule
    res_tax: float | None = None               # $/kWh, replaces the base levy


# the policy hook: perceived budget shortage ($) -> overrides for this step
PolicyFn = Callable[[float], PriceTaxOverrides]


# === economic operations ===

def annuity_factor(interest_rate: float, n_years: float) -> float:
    """Present value of one dollar per year for ``n_years``.

    ``((1+i)^n - 1) / (i (1+i)^n)``; the zero-interest limit is ``n_years``.
    """
    if n_years < 1.0:
        raise ValueError(f"n_years must be at least 1, got {n_years}")
    if interest_rate < 0.0:
        raise ValueError(
            f"interest_rate must be non-negative, got {interest_rate}")
    if interest_rate == 0.0:
        return n_years
    compound = (1.0 + interest_rate) ** n_years
    return (compound - 1.0) / (interest_rate * compound)


def compute_roi(p: ModelParameters, fit_price: float,
                capital_cost: float) -> float:
    """Return on investment of a one-MW project at the offered tariff: the
    annual margin per MW, ``capacity_factor * 8760 * (price - om_cost)``,
    discounted over the remuneration period and set against the capital
    cost, ``(margin * annuity - capital) / capital``."""
    if capital_cost <= 0.0:
        raise ValueError(f"capital_cost must be positive, got {capital_cost}")
    margin = p.capacity_factor * ANNUAL_HOURS * (fit_price - p.om_cost)
    annuity = annuity_factor(p.interest_rate, p.remuneration_period)
    return (margin * annuity - capital_cost) / capital_cost


def compute_capital_cost(p: ModelParameters, cumulative: float) -> float:
    """Learning curve: capital cost falls as cumulative build grows.

    ``initial_capital_cost * (built / launch_base) ** (-exponent)``, where
    ``built`` is the cumulative build, floored at the launch base.
    """
    if cumulative <= 0.0:
        raise ValueError(
            f"cumulative_capacity must be positive, got {cumulative}")
    base = p.initial_installed_capacity
    ratio = max(cumulative, base) / base
    return p.initial_capital_cost * ratio ** (-p.learning_exponent)


def compute_fit_price(p: ModelParameters,
                      overrides: PriceTaxOverrides | None,
                      installed_capacity: float) -> float:
    """Offered tariff: the launch tariff scaled by the remaining fraction
    of the capacity target, never below ``fit_price_floor`` of its launch
    value, then scaled and shifted by the policy's overrides. A negative
    tariff is refused."""
    gap_fraction = (p.capacity_target - installed_capacity) / p.capacity_target
    multiplier = min(1.0, max(p.fit_price_floor, gap_fraction))
    price = p.initial_fit_price * multiplier
    if overrides is not None:
        price = price * overrides.fit_price_multiplier + overrides.fit_price_delta
    if price < 0.0:
        raise ValueError(f"tariff must be non-negative, got {price}")
    return price


def compute_social_acceptance(p: ModelParameters, penetration: float,
                              res_tax: float) -> float:
    """Social acceptance of the program: a linear base term grows with
    renewable penetration, and the levy discounts it through the tolerance
    sigmoid."""
    if not 0.0 <= penetration <= 1.0:
        raise ValueError(
            f"penetration must lie in [0, 1], got {penetration}")
    base = 1.0 + p.penetration_gain * penetration
    return base * eval_inverted_sigmoid(p.social_tolerance, res_tax)


def allocate_payments(p: ModelParameters, budget: float, suna_debt: float,
                      desired_payment: float) -> tuple[float, ...]:
    """The fund's split with debt priority, in $/yr and in the order of its
    ``LINKS``: what it releases, at most the old debt plus the desired
    production payment; the debt it settles first; what remains for
    production; and the unpaid remainder, which becomes new debt."""
    if budget < 0.0 or suna_debt < 0.0 or desired_payment < 0.0:
        raise ValueError(
            f"allocation inputs must be non-negative, got budget={budget}, "
            f"suna_debt={suna_debt}, desired_payment={desired_payment}")
    whole_desired = suna_debt + desired_payment
    available = min(budget, whole_desired)
    debt_payment = min(available, suna_debt)
    actual = min(max(available - suna_debt, 0.0), desired_payment)
    return available, debt_payment, actual, desired_payment - actual


# === the causal table ===

class Link(NamedTuple):
    """One node of the step: an auxiliary, or the rate of a stock.

    ``fn(params, *values)`` computes it from the ``ModelParameters`` and the
    values of ``inputs``, which name stocks, ``t`` and earlier entries of
    ``LINKS``. ``state`` marks the three nodes that keep run memory or call
    out:

    * ``"policy"``: the first input is the policy hook's argument, and
      ``fn`` gets the hook's answer in its place (``None`` without a hook);
      the hook is called once per step;
    * ``"lag"``: ``fn`` gets first the node's own value ``REQUEST_LAG``
      years back, from the run's history (``initial_annual_requests``
      before the first record), and the run records the new value;
    * ``"clamp"``: a value above 1 reads as 1, and the first time in a run
      that it binds, a warning names the inputs and ``t``.
    """

    name: str
    inputs: tuple[str, ...]
    fn: Callable[..., float]
    state: str = ""


# the step's wiring, one entry per auxiliary, in the order a step evaluates
# them: ``FitModel`` records its auxiliaries in this order and
# ``FitModel.simulate`` inlines the same links; ``ReferenceFitModel`` in
# ``tests/test_model.py`` evaluates it, and the tests find the feedback
# loops in it.
LINKS: tuple[Link, ...] = (
    Link("total_generation_capacity", ("t",), lambda p, t: eval_linear_trend(
        p.total_generation_capacity, t)),
    Link("electricity_consumption", ("t",), lambda p, t: eval_linear_trend(
        p.electricity_consumption, t)),
    Link("cumulative_installed_capacity",
         ("installed_capacity", "depreciated_capacity"),
         lambda p, installed, depreciated: installed + depreciated),
    Link("capital_cost", ("cumulative_installed_capacity",),
         compute_capital_cost),
    Link("fit_price", ("perceived_shortage", "installed_capacity"),
         compute_fit_price, "policy"),
    Link("res_tax", ("perceived_shortage",), lambda p, overrides: (
        p.res_tax_base if overrides is None or overrides.res_tax is None
        else overrides.res_tax), "policy"),
    Link("roi", ("fit_price", "capital_cost"), compute_roi),
    Link("penetration_rate",
         ("installed_capacity", "total_generation_capacity"),
         lambda p, installed, generation: installed / generation, "clamp"),
    Link("electricity_production", ("installed_capacity",),
         lambda p, installed: installed * p.capacity_factor * ANNUAL_HOURS),
    Link("average_fit_price",
         ("total_fit_payment", "total_electricity_production", "fit_price"),
         # the contracted average so far; the tariff before any production
         lambda p, paid, produced, price: (
             price if produced <= 0.0 or paid <= 0.0 else paid / produced)),
    Link("desired_production_payment",
         ("electricity_production", "average_fit_price"),
         lambda p, production, price: production * price),
    Link("fit_payment_inflow", ("electricity_production", "fit_price"),
         lambda p, production, price: production * price),
    Link("delay_in_debt_payment", ("suna_debt", "desired_production_payment"),
         lambda p, debt, desired: 0.0 if debt <= 0.0 else debt / max(
             desired, DELAY_PAYMENT_EPSILON)),
    Link("social_acceptance", ("penetration_rate", "res_tax"),
         compute_social_acceptance),
    Link("investor_trust", ("delay_in_debt_payment",),
         lambda p, delay: eval_inverted_sigmoid(p.investor_trust, delay)),
    Link("tendency_to_invest",
         ("roi", "social_acceptance", "investor_trust"),
         lambda p, roi, acceptance, trust: max(0.0, roi) * acceptance
         * trust),
    # requests compound on last year's level; approvals spread over the
    # build time
    Link("annual_fit_requests", ("tendency_to_invest",),
         lambda p, previous, tendency: previous * tendency, "lag"),
    Link("approved_fit_requests", ("annual_fit_requests",),
         lambda p, filed: filed * (1.0 - p.rejection_fraction)),
    Link("construction_rate", ("approved_fit_requests",),
         lambda p, approved: approved / p.time_to_build),
    Link("om_activity", ("delay_in_debt_payment",),
         lambda p, delay: eval_inverted_sigmoid(p.om_activity, delay)),
    Link("effective_lifetime", ("om_activity",),
         lambda p, activity: max(
             MINIMUM_LIFETIME, p.normal_equipment_lifetime * activity)),
    Link("depreciation", ("installed_capacity", "effective_lifetime"),
         lambda p, installed, lifetime: installed / lifetime),
    # the fund's split with debt priority, one entry per field
    *(Link(field, ("budget", "suna_debt", "desired_production_payment"),
           lambda p, *ledger, i=i: allocate_payments(p, *ledger)[i])
      for i, field in enumerate(("available_whole_payment", "debt_payment",
                                 "actual_production_payment",
                                 "debt_creation"))),
    Link("budget_increase", ("electricity_consumption", "res_tax"),
         lambda p, use, tax: use * tax * KWH_PER_MWH),
    Link("budget_decrease", ("debt_payment", "actual_production_payment"),
         lambda p, debt, production: debt + production),
    Link("whole_desired_payment", ("suna_debt", "desired_production_payment"),
         lambda p, debt, desired: debt + desired),
    Link("budget_shortage",
         ("whole_desired_payment", "available_whole_payment"),
         lambda p, desired, available: desired - available),
)


def _net(p: ModelParameters, inflow: float, outflow: float) -> float:
    return inflow - outflow


def _inflow(p: ModelParameters, inflow: float) -> float:
    return inflow


# each stock's rate over the names of ``LINKS``, in the stocks' order in
# each record and in ``FitModel.initial_state``
RATES: tuple[Link, ...] = (
    Link("installed_capacity", ("construction_rate", "depreciation"), _net),
    Link("depreciated_capacity", ("depreciation",), _inflow),
    Link("suna_debt", ("debt_creation", "debt_payment"), _net),
    Link("budget", ("budget_increase", "budget_decrease"), _net),
    Link("total_electricity_production", ("electricity_production",),
         _inflow),
    Link("total_fit_payment", ("fit_payment_inflow",), _inflow),
    # a first-order perception of the shortfall
    Link("perceived_shortage", ("budget_shortage", "perceived_shortage"),
         lambda p, shortage, perceived: (shortage - perceived)
         / p.shortage_smoothing_time),
)


# === parameter registry (config keys and sensitivity targets) ===

def _registry() -> dict[str, tuple[str, ...]]:
    """Flat name -> attribute path of every scalar in ``ModelParameters``.

    A scalar keeps its field's name and path (``capacity_target``); a part
    of a sigmoid or trend is ``<field>_<part>`` at ``(field, part)``
    (``investor_trust_x_50``). Fields and parts keep declaration order.
    """
    names: dict[str, tuple[str, ...]] = {}
    for field, kind in ModelParameters.__annotations__.items():
        if not hasattr(kind, "_fields"):  # a scalar
            names[field] = (field,)
            continue
        for part in kind._fields:
            names[f"{field}_{part}"] = (field, part)
    return names


# built once; the config sorts these names into its [parameters], [effects]
# and [trends] sections
PARAMETER_PATHS: dict[str, tuple[str, ...]] = _registry()
PARAMETER_NAMES: tuple[str, ...] = tuple(sorted(PARAMETER_PATHS))


def build_parameters(values: dict[str, float]) -> ModelParameters:
    """Parameters from a value for every name of ``PARAMETER_NAMES``: once
    per config parse, while runs change theirs by ``apply_overrides``."""
    return ModelParameters(**{
        field: kind(**{part: values[f"{field}_{part}"]
                       for part in kind._fields})
        if hasattr(kind, "_fields") else values[field]
        for field, kind in ModelParameters.__annotations__.items()})


def _path(name: str) -> tuple[str, ...]:
    path = PARAMETER_PATHS.get(name)
    if path is None:
        raise ConfigurationError(f"unknown parameter {name!r}")
    return path


def get_parameter(params: ModelParameters, name: str) -> float:
    """Current value of a named parameter (see ``PARAMETER_NAMES``)."""
    obj = params
    for attr in _path(name):
        obj = getattr(obj, attr)
    return obj


def apply_overrides(params: ModelParameters,
                    overrides: dict[str, float]) -> ModelParameters:
    """Functional update of named parameters; unknown names are rejected.
    A refused part of a sigmoid or trend is named before a refused scalar."""
    changes: dict = {}
    parts: dict[str, dict[str, float]] = {}  # field -> part -> value
    for name, value in overrides.items():
        field, *part = _path(name)
        if part:
            parts.setdefault(field, {})[part[0]] = value
        else:
            changes[field] = value
    for field, values in parts.items():
        changes[field] = getattr(params, field)._replace(**values)
    return params._replace(**changes)


# === the wired model ===

def record_grid(clock: SimulationClock) -> tuple[tuple, tuple]:
    """The record times of ``clock`` and their request-lag table, as tuples,
    once per clock. Equal clocks can record different times (``2035`` or
    ``2035.0``, ``-0.0`` or ``0.0``): the key holds each field's ``repr``
    too."""
    return _record_grid(tuple(map(repr, clock)), clock)


@lru_cache(maxsize=32)
def _record_grid(key: tuple, clock: SimulationClock) -> tuple[tuple, tuple]:
    times = tuple(clock.times())
    return times, tuple(lag_indices(times, REQUEST_LAG))


def _refuse(p: ModelParameters, name: str, t: float, *inputs) -> None:
    """Raise the error of the link ``name`` of ``LINKS`` on ``inputs``, which
    it refuses with a ``ValueError``, as a :class:`SimulationError` in its
    words naming the link and ``t``, where ``FitModel.simulate``'s inlined
    link would fail: the tariff, the ROI, acceptance or trust."""
    link = next(link for link in LINKS if link.name == name)
    try:
        link.fn(p, *inputs)
    except ValueError as exc:
        raise SimulationError(str(exc), variable=name, time=t) from None


def _settle(stocks: list[float], rates: tuple[float, ...], t: float,
            t_next: float, events: list[ClampEvent]) -> list[float]:
    """Finish an Euler update whose new ``stocks`` are not all finite and
    non-negative, as the reference integrator in ``tests/engine_reference.py``
    does: name the first non-finite rate at ``t``, else clamp the negative
    stocks in stock order, then name the first stock still non-finite (an
    overflow) at the next record time.
    """
    names = FitModel.stock_names
    _raise_first_non_finite("non-finite rate", names, rates, t)
    for i, name in enumerate(names):
        if stocks[i] < 0.0:
            events.append(ClampEvent(time=t, variable=name,
                                     attempted=stocks[i]))
            stocks[i] = 0.0
    _raise_first_non_finite("non-finite stock", names, stocks, t_next)
    return stocks


class FitModel:
    """Wires the operations above into one integration loop over the stocks.

    A policy hook may be attached: ``policy(perceived_shortage)`` returning
    :class:`PriceTaxOverrides`. Without one the base rules apply unchanged.
    An instance holds only its parameters and policy; each run keeps its
    own memory (the request history and the penetration warning latch) in
    ``simulate``, so instances are reusable.
    """

    stock_names = tuple(rate.name for rate in RATES)
    aux_names = tuple(link.name for link in LINKS)
    # the auxiliaries that a ledger's rate moves, in first-read order; the
    # perceived shortage's rate is a perception, not a ledger
    flow_names = tuple(dict.fromkeys(
        name for rate in RATES if rate.fn in (_net, _inflow)
        for name in rate.inputs))
    # one record: time, the stocks, the auxiliaries
    _record = struct.Struct(f"{1 + len(stock_names) + len(aux_names)}d")

    def __init__(self, params: ModelParameters,
                 policy: PolicyFn | None = None):
        self.params = params
        self.policy = policy

    def initial_state(self) -> tuple[float, ...]:
        """The stocks at launch, in ``stock_names`` order."""
        p = self.params
        return (p.initial_installed_capacity, 0.0, p.initial_suna_debt,
                p.initial_budget, 0.0, 0.0, 0.0)

    def begin_run(self, clock: SimulationClock) -> None:
        """Reject a clock the run cannot complete, before the first step.

        A linear trend is monotone in ``t``, in floating point too, so one
        positive and finite at ``start_year`` and ``end_year``, the first
        and last record times, is so at every step, and a bad trend fails
        here. So does a step too coarse for the request lag: step 1 reads
        one lag back, where only step 0 is recorded, and that target may lie
        at most half a lag past step 0, so ``dt`` may be at most 1.5 lags.
        The test is made on the first two record times in floating point,
        so a rounding that puts step 1 past the bound is refused too.
        """
        params = self.params
        start = clock.start_year
        for name, trend in zip(params._fields, params):
            if not isinstance(trend, LinearTrend):
                continue
            for year in (start, clock.end_year):
                try:
                    eval_linear_trend(trend, year)
                except ConfigurationError as exc:
                    raise ConfigurationError(f"{name}: {exc}") from None
        lag = REQUEST_LAG
        times = record_grid(clock)[0]
        if times[1] - lag > times[0] + 0.5 * lag:
            raise ConfigurationError(
                f"dt must not exceed 1.5 times the one-year request lag, "
                f"got {clock.dt}")

    def simulate(self, clock: SimulationClock) -> RunResult:
        """Integrate the model over ``clock`` and record the full trajectory.

        Each step is the links above inlined over constants bound once per
        run: each formula keeps its link's operation order, and each check
        a run can reach stays, calling the link through ``_refuse`` to raise
        its error; what ``begin_run`` and the parameter record prove before
        step 0 is not re-checked. The record times and the request-lag table
        depend on the clock alone and come from :func:`record_grid`. The
        tolerance at the base levy is computed once per run, and a levy
        override goes through the sigmoid itself. The Euler update is written
        out per stock, beside the step, with every check of the reference
        integrator (``tests/engine_reference.py``) in its words, variable
        and time: non-finite auxiliaries, non-finite rates and stocks (one
        test of the new stocks' sum, settled by ``_settle`` when it fails),
        and the clamp at zero, on every stock, with its
        :class:`~fitsim.engine.ClampEvent` records. The reference model in
        ``tests/test_model.py`` composes the links and runs through that
        integrator; this loop must match it bit for bit, in every column,
        clamp event and error.
        """
        self.begin_run(clock)
        p = self.params
        gen_intercept, gen_slope, gen_year = p.total_generation_capacity
        use_intercept, use_slope, use_year = p.electricity_consumption
        initial_installed = p.initial_installed_capacity
        initial_cost = p.initial_capital_cost
        learning = -p.learning_exponent
        target, price_floor = p.capacity_target, p.fit_price_floor
        initial_price, base_tax = p.initial_fit_price, p.res_tax_base
        margin_scale = p.capacity_factor * ANNUAL_HOURS
        om_cost = p.om_cost
        annuity = annuity_factor(p.interest_rate, p.remuneration_period)
        capacity_factor = p.capacity_factor
        gain = p.penetration_gain
        base_tolerance = p.social_tolerance(base_tax)
        trust_max, trust_x50, trust_p = p.investor_trust
        om_max, om_x50, om_p = p.om_activity
        approval = 1.0 - p.rejection_fraction
        build_time = p.time_to_build
        normal_lifetime = p.normal_equipment_lifetime
        smoothing = p.shortage_smoothing_time
        policy = self.policy
        isfinite, inf = math.isfinite, math.inf

        # finite and non-negative: the parameter record checks them
        (installed, depreciated, debt, budget, total_production,
         total_payment, perceived) = self.initial_state()
        times, back = record_grid(clock)
        n_steps, dt = clock.n_steps, clock.dt
        pack = self._record.pack
        rows = array("d")
        events: list[ClampEvent] = []
        # the requests filed before launch, then one entry per record, read
        # one lag back through the index table
        history = [p.initial_annual_requests]
        warned = False

        for k, t in enumerate(times):
            # --- exogenous drivers ---
            # positive and finite: begin_run checked both at the record times
            generation_capacity = gen_intercept + gen_slope * (t - gen_year)
            consumption = use_intercept + use_slope * (t - use_year)

            # --- capacity ledger and learning ---
            cumulative = installed + depreciated
            # max(a, b) and min(a, b) are written as the builtins evaluate
            # them
            built = (initial_installed if initial_installed > cumulative
                     else cumulative)
            capital_cost = (initial_cost
                            * (built / initial_installed) ** learning)

            # --- policy overrides, price, levy ---
            overrides = policy(perceived) if policy is not None else None
            gap_fraction = (target - installed) / target
            multiplier = (gap_fraction if gap_fraction > price_floor
                          else price_floor)
            multiplier = multiplier if multiplier < 1.0 else 1.0
            fit_price = initial_price * multiplier
            res_tax = base_tax
            if overrides is not None:
                fit_price = (fit_price * overrides.fit_price_multiplier
                             + overrides.fit_price_delta)
                if overrides.res_tax is not None:
                    res_tax = overrides.res_tax
            # the base rule's tariff is positive, so only a policy's delta
            # can take it below zero
            if fit_price < 0.0:
                _refuse(p, "fit_price", t, overrides, installed)

            # --- investment climate ---
            if capital_cost <= 0.0:
                _refuse(p, "roi", t, fit_price, capital_cost)
            roi = ((margin_scale * (fit_price - om_cost) * annuity
                    - capital_cost) / capital_cost)
            penetration = installed / generation_capacity
            if penetration > 1.0:
                if not warned:
                    # imported when the clamp first binds, so that start-up
                    # does not load logging
                    import logging
                    logging.getLogger(__name__).warning(
                        "installed capacity %.1f MW exceeds total generation "
                        "capacity %.1f MW at t=%.2f; penetration clamped",
                        installed, generation_capacity, t)
                    warned = True
                penetration = 1.0

            # --- production and the payment it entitles ---
            production = installed * capacity_factor * ANNUAL_HOURS
            if total_production <= 0.0 or total_payment <= 0.0:
                average_price = fit_price
            else:
                average_price = total_payment / total_production
            desired = production * average_price
            inflow = production * fit_price
            if debt <= 0.0:
                delay = 0.0
            else:
                delay = debt / (DELAY_PAYMENT_EPSILON
                                if DELAY_PAYMENT_EPSILON > desired
                                else desired)

            # penetration is in [0, 1]: the stocks are clamped at zero, it
            # at 1
            if res_tax == base_tax:
                tolerance = base_tolerance
            else:
                if not 0.0 <= res_tax < inf:
                    _refuse(p, "social_acceptance", t, penetration, res_tax)
                tolerance = eval_inverted_sigmoid(p.social_tolerance, res_tax)
            acceptance = (1.0 + gain * penetration) * tolerance
            if not 0.0 <= delay < inf:
                _refuse(p, "investor_trust", t, delay)
            try:
                trust = trust_max / (1.0 + (delay / trust_x50) ** trust_p)
            except OverflowError:
                trust = 0.0
            tendency = (roi if roi > 0.0 else 0.0) * acceptance * trust

            # --- request pipeline (annual information delay) ---
            annual_requests = history[back[k]] * tendency
            approved = annual_requests * approval
            construction = approved / build_time
            history.append(annual_requests)

            try:
                activity = om_max / (1.0 + (delay / om_x50) ** om_p)
            except OverflowError:
                activity = 0.0
            lifetime = normal_lifetime * activity
            if not lifetime > MINIMUM_LIFETIME:
                lifetime = MINIMUM_LIFETIME
            depreciation = installed / lifetime

            # --- fund allocation with debt priority ---
            # budget and debt are clamped stocks and the tariff is not
            # negative, so the allocation's inputs are not either
            whole_desired = debt + desired
            available = whole_desired if whole_desired < budget else budget
            debt_payment = debt if debt < available else available
            unreserved = available - debt
            if 0.0 > unreserved:
                unreserved = 0.0
            actual = desired if desired < unreserved else unreserved
            debt_creation = desired - actual
            budget_increase = consumption * res_tax * KWH_PER_MWH
            budget_decrease = debt_payment + actual
            shortage = whole_desired - available

            # --- the record, the auxiliaries in ``LINKS`` order ---
            aux = (
                generation_capacity, consumption, cumulative, capital_cost,
                fit_price, res_tax, roi, penetration, production,
                average_price, desired, inflow, delay, acceptance, trust,
                tendency, annual_requests, approved, construction, activity,
                lifetime, depreciation, available, debt_payment, actual,
                debt_creation, budget_increase, budget_decrease,
                whole_desired, shortage,
            )
            if not isfinite(sum(aux)):
                _raise_first_non_finite("non-finite auxiliary",
                                        self.aux_names, aux, t)
            rows.frombytes(pack(t, installed, depreciated, debt, budget,
                                total_production, total_payment, perceived,
                                *aux))
            if k == n_steps:
                break

            # --- the Euler update, stock by stock ---
            shortage_rate = (shortage - perceived) / smoothing
            installed += (construction - depreciation) * dt
            depreciated += depreciation * dt
            debt += (debt_creation - debt_payment) * dt
            budget += (budget_increase - budget_decrease) * dt
            total_production += production * dt
            total_payment += inflow * dt
            perceived += shortage_rate * dt
            # non-negative stocks with a finite sum are all finite
            if not (installed >= 0.0 and depreciated >= 0.0 and debt >= 0.0
                    and budget >= 0.0 and total_production >= 0.0
                    and total_payment >= 0.0 and perceived >= 0.0
                    and installed + depreciated + debt + budget
                    + total_production + total_payment + perceived < inf):
                (installed, depreciated, debt, budget, total_production,
                 total_payment, perceived) = _settle(
                    [installed, depreciated, debt, budget, total_production,
                     total_payment, perceived],
                    (construction - depreciation, depreciation,
                     debt_creation - debt_payment,
                     budget_increase - budget_decrease,
                     production, inflow, shortage_rate),
                    t, times[k + 1], events)

        return RunResult.from_rows(rows, self.stock_names, self.flow_names,
                                   self.aux_names, events)
