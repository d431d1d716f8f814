"""The records' checks hold on every way of building one.

The checked records are ``NamedTuple`` classes decorated by
``engine.checked``, whose constructor runs the check. A tuple can also be
built by ``_make`` and copied by ``_replace``; each path must raise the
same ``ConfigurationError`` for the same bad value, with the message
pinned here word for word.
"""

import copy
import math
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from typing import ForwardRef, NamedTuple, get_type_hints

import pytest

import fitsim.engine
import fitsim.model
import fitsim.policies
from fitsim import (
    ConfigurationError,
    LinearTrend,
    ModelParameters,
    PolicyControl,
    PriceTaxOverrides,
    Scenario,
    SigmoidEffect,
    SimulationClock,
    apply_overrides,
    load_default_config,
)
from fitsim.engine import (Finite, NonNegative, Positive, PositiveShare,
                           Share, checked)

PACKAGED = load_default_config().params
CLOCK = SimulationClock(2015.0, 2035.0, 0.25)

# (a valid record, the field given a bad value, the value, the message)
CHECKED = [
    (CLOCK, "dt", 0.0, "dt must be positive, got 0.0"),
    (SigmoidEffect(1.0, 0.5, 2.0), "x_50", -1.0,
     "SigmoidEffect.x_50 must be positive and finite, got -1.0"),
    (LinearTrend(100.0, 10.0, 2015.0), "slope", float("inf"),
     "LinearTrend.slope must be finite, got inf"),
    (PACKAGED, "rejection_fraction", 1.5,
     "rejection_fraction must lie in [0, 1], got 1.5"),
    (PACKAGED, "penetration_gain", -1.0,
     "penetration_gain must be non-negative and finite, got -1.0"),
    (PriceTaxOverrides(), "fit_price_multiplier", 0.0,
     "fit_price_multiplier must lie in (0, 1], got 0.0"),
    (PolicyControl(), "tax_cap", 0.5,
     "need tax_floor <= tax_cap <= 0.1, got floor=0.0, cap=0.5"),
    (Scenario("a"), "overrides", None,
     "scenario 'a': overrides must be a mapping of parameter names to "
     "values, got None"),
]


def build_paths(record, field, value):
    """Each way of building ``record`` with ``field`` set to ``value``."""
    kind = type(record)
    values = [value if name == field else old
              for name, old in zip(record._fields, record)]
    keywords = dict(zip(record._fields, values))
    return {
        "position": lambda: kind(*values),
        "keyword": lambda: kind(**keywords),
        "_replace": lambda: record._replace(**{field: value}),
        "_make": lambda: kind._make(values),
    }


KINDS = [type(case[0]) for case in CHECKED]
# a record checked on more than one field is named with the field too
CHECKED_IDS = [kind.__name__ + (f".{field}" if KINDS.count(kind) > 1 else "")
               for kind, (_, field, _, _) in zip(KINDS, CHECKED)]


@pytest.mark.parametrize("record, field, value, message", CHECKED,
                         ids=CHECKED_IDS)
def test_every_construction_path_runs_the_check(record, field, value,
                                                 message):
    for path, build in build_paths(record, field, value).items():
        with pytest.raises(ConfigurationError) as raised:
            build()
        assert str(raised.value) == message, path
    # the same paths with the valid value build an equal record
    old = getattr(record, field)
    for path, build in build_paths(record, field, old).items():
        assert build() == record, path
        assert type(build()) is type(record), path


# a valid instance of every checked record
RECORDS = list({type(case[0]): case[0] for case in CHECKED}.values())


def is_checked(kind):
    # engine.checked gives a checked record a constructor of its own
    return (isinstance(kind, type) and issubclass(kind, tuple)
            and kind.__new__.__qualname__.startswith("checked."))


def test_every_checked_record_is_listed():
    found = {kind for module in (fitsim.engine, fitsim.model, fitsim.policies)
             for kind in vars(module).values() if is_checked(kind)}
    assert {type(record) for record in RECORDS} == found
    assert all(kind.__bases__ == (tuple,) for kind in found)


# each bound's words in a refusal
BOUND_WORDS = {Positive: "be positive and finite",
               NonNegative: "be non-negative and finite", Finite: "be finite",
               Share: "lie in [0, 1]", PositiveShare: "lie in (0, 1]"}
# values outside each bound; an int too large for a float is none, a
# string is no number at all, and a Decimal or a Fraction is a number but
# neither an int nor a float
NOT_REAL = [10**400, "x", Decimal(1), Fraction(1)]
NOT_FINITE = [-math.inf, math.inf, math.nan, *NOT_REAL]
OUTSIDE = {Positive: [0.0, -1.0, *NOT_FINITE],
           NonNegative: [-1.0, *NOT_FINITE],
           Finite: NOT_FINITE,
           Share: [-1.0, 1.5, *NOT_FINITE],
           PositiveShare: [0.0, -0.0, -1.0, 1.5, *NOT_FINITE]}
# a record whose fields are parts of a config key names itself too
QUALIFIED = (SigmoidEffect, LinearTrend)


def bounds(kind):
    """The bound each bounded field of ``kind`` declares, by field."""
    hints = get_type_hints(kind, include_extras=True)
    return {name: hints[name] for name in kind._fields
            if hints[name] in BOUND_WORDS}


BOUNDED = [(record, field, bound) for record in RECORDS
           for field, bound in bounds(type(record)).items()]


@pytest.mark.parametrize(
    "record, field, bound", BOUNDED,
    ids=[f"{type(record).__name__}.{field}" for record, field, _ in BOUNDED])
def test_every_bounded_field_is_refused_by_name(record, field, bound):
    prefix = f"{type(record).__name__}." if type(record) in QUALIFIED else ""
    for value in OUTSIDE[bound]:
        message = f"{prefix}{field} must {BOUND_WORDS[bound]}, got {value}"
        for path, build in build_paths(record, field, value).items():
            with pytest.raises(ConfigurationError) as raised:
                build()
            assert str(raised.value) == message, (path, value)


# values inside each bound, its ends among them
HUGE = sys.float_info.max
INSIDE = {Positive: [math.ulp(0.0), 1, HUGE],
          NonNegative: [0.0, -0.0, 0, HUGE],
          Finite: [-HUGE, 0, True, HUGE],
          Share: [0.0, -0.0, 1, 1.0],
          PositiveShare: [math.ulp(0.0), 1.0]}


@pytest.mark.parametrize("bound", list(INSIDE),
                         ids=lambda bound: BOUND_WORDS[bound])
def test_a_bound_keeps_its_ends(bound):
    kind = checked(NamedTuple("Record", [("value", bound)]))
    for value in INSIDE[bound]:
        assert kind(value).value is value


def test_the_first_refused_kind_then_field_is_named():
    # several bad values: positive fields, then non-negative, finite,
    # [0, 1] and (0, 1], each kind in declaration order, and all before the
    # record's _check
    params = PACKAGED._asdict()
    cases = [
        (lambda: ModelParameters(**{**params, "om_cost": -1.0,
                                    "capacity_target": -1.0}),
         "capacity_target must be positive and finite, got -1.0"),
        (lambda: ModelParameters(**{**params, "initial_budget": math.nan,
                                    "om_cost": math.nan}),
         "om_cost must be non-negative and finite, got nan"),
        (lambda: ModelParameters(**{**params, "remuneration_period": 0.5,
                                    "initial_suna_debt": -1.0}),
         "initial_suna_debt must be non-negative and finite, got -1.0"),
        (lambda: PolicyControl(fit_price_delta=math.nan, tax_floor=-1.0),
         "tax_floor must be non-negative and finite, got -1.0"),
        (lambda: PolicyControl(policy_id="x", tax_floor="y"),
         "tax_floor must be non-negative and finite, got y"),
        (lambda: ModelParameters(**{**params, "remuneration_period": 0.5,
                                    "fit_price_floor": 0.0}),
         "fit_price_floor must lie in (0, 1], got 0.0"),
        (lambda: ModelParameters(**{**params, "fit_price_floor": 0.0,
                                    "rejection_fraction": 1.5,
                                    "capacity_target": -1.0}),
         "capacity_target must be positive and finite, got -1.0"),
        (lambda: ModelParameters(**{**params, "fit_price_floor": 0.0,
                                    "rejection_fraction": 1.5}),
         "rejection_fraction must lie in [0, 1], got 1.5"),
    ]
    for build, message in cases:
        with pytest.raises(ConfigurationError) as raised:
            build()
        assert str(raised.value) == message


# every checked field without a bound, and why it has none
UNBOUNDED = {
    # a policy's step levy, which the run itself checks
    "PriceTaxOverrides.res_tax": "None keeps the base levy",
    # names
    "PolicyControl.policy_id": "one of POLICY_IDS, tested by _check",
    "Scenario.name": "any label",
    "Scenario.overrides": "a mapping, tested by _check; apply_overrides "
                          "checks its values",
    # nested records, which check their own fields
    "ModelParameters.social_tolerance": "a SigmoidEffect",
    "ModelParameters.investor_trust": "a SigmoidEffect",
    "ModelParameters.om_activity": "a SigmoidEffect",
    "ModelParameters.total_generation_capacity": "a LinearTrend",
    "ModelParameters.electricity_consumption": "a LinearTrend",
    "Scenario.policy": "a PolicyControl",
}


def test_every_checked_field_declares_a_bound_or_a_reason():
    fields = set()
    for kind in {type(record) for record in RECORDS}:
        hints = get_type_hints(kind, include_extras=True)
        for name in kind._fields:
            # what engine.checked reads: a bound it cannot resolve would
            # go unchecked
            assert not isinstance(hints[name], (str, ForwardRef)), name
            if hints[name] not in BOUND_WORDS:
                fields.add(f"{kind.__name__}.{name}")
    assert fields == set(UNBOUNDED)


def wrong_calls(record):
    """Calls that cannot bind: too many positional arguments, an unknown
    keyword and, where a field has no default, a missing argument."""
    kind = type(record)
    calls = {"too many": lambda: kind(*record, 0.0),
             "unknown keyword": lambda: kind(*record, foo=1)}
    if len(kind._field_defaults) < len(kind._fields):
        calls["missing"] = kind
    return calls


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(record).__name__ for record in RECORDS])
def test_a_wrong_call_names_the_public_record(record):
    for call, build in wrong_calls(record).items():
        with pytest.raises(TypeError) as raised:
            build()
        assert str(raised.value).startswith(
            f"{type(record).__name__}.__new__() "), call


def test_checked_records_stay_immutable():
    for record, field, value, _ in CHECKED:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            record.extra = value


def test_apply_overrides_runs_the_group_checks():
    with pytest.raises(ConfigurationError,
                       match=r"^rejection_fraction must lie in \[0, 1\], "
                             r"got 1\.5$"):
        apply_overrides(PACKAGED, {"rejection_fraction": 1.5})
    with pytest.raises(ConfigurationError,
                       match=r"^SigmoidEffect\.p must be positive"):
        apply_overrides(PACKAGED, {"investor_trust_p": 0.0})
    with pytest.raises(ConfigurationError,
                       match=r"^om_cost must be non-negative and finite, "
                             r"got x$"):
        apply_overrides(PACKAGED, {"om_cost": "x"})


@pytest.mark.parametrize("build, message", [
    (lambda: apply_overrides(PACKAGED, {"rejection_fraction": "x"}),
     "rejection_fraction must lie in [0, 1], got x"),
    (lambda: apply_overrides(PACKAGED, {"fit_price_floor": "x"}),
     "fit_price_floor must lie in (0, 1], got x"),
    (lambda: PriceTaxOverrides(fit_price_multiplier="x"),
     "fit_price_multiplier must lie in (0, 1], got x"),
    (lambda: PolicyControl(tax_cap="x"), "tax_cap must be finite, got x"),
    (lambda: apply_overrides(PACKAGED, {"capacity_target": 10**400}),
     f"capacity_target must be positive and finite, got {10**400}"),
], ids=["rejection_fraction", "fit_price_floor", "fit_price_multiplier",
        "tax_cap", "capacity_target"])
def test_a_non_number_or_an_int_beyond_floats_is_refused_by_name(build,
                                                                 message):
    # library calls only: config and CLI values are always floats
    with pytest.raises(ConfigurationError) as raised:
        build()
    assert str(raised.value) == message


def test_a_scenario_left_without_overrides_gets_a_read_only_mapping():
    built = [Scenario("a"), Scenario(name="b"), Scenario._make(["c"]),
             Scenario("d")._replace(name="e")]
    for scenario in built:
        assert scenario.overrides == {}
        # one mapping serves every scenario, so none may change it
        with pytest.raises(TypeError):
            scenario.overrides["om_cost"] = 1.0
    assert len({id(scenario.overrides) for scenario in built}) == 1


@pytest.mark.parametrize(
    "scenario", [Scenario("a"), *load_default_config().scenarios],
    ids=lambda scenario: scenario.name)
def test_a_scenario_survives_pickle_and_deepcopy(scenario):
    # a process pool hands scenarios to its workers by pickling them
    shared = scenario.overrides is Scenario("z").overrides
    for copied in (pickle.loads(pickle.dumps(scenario)),
                   copy.deepcopy(scenario)):
        assert copied == scenario
        assert type(copied) is Scenario
        assert dict(copied.overrides) == dict(scenario.overrides)
        if shared:
            # a copy of the shared default stays read-only
            with pytest.raises(TypeError):
                copied.overrides["om_cost"] = 1.0


def test_replace_rejects_an_unknown_field():
    with pytest.raises(ValueError,
                       match=r"^Got unexpected field names: \['horizon'\]$"):
        CLOCK._replace(horizon=2040.0)


def test_records_compare_as_their_values():
    # NamedTuple equality: the field values, in order, decide
    assert SimulationClock(dt=0.25, end_year=2035.0,
                           start_year=2015.0) == CLOCK
    assert CLOCK == (2015.0, 2035.0, 0.25)
    assert tuple(PriceTaxOverrides()) == (0.0, 1.0, None)
    assert CLOCK._asdict() == {"start_year": 2015.0,
                               "end_year": 2035.0, "dt": 0.25}


def test_a_clock_has_no_default_step():
    # the shipped step is the packaged config's [clock] dt, and only there
    with pytest.raises(TypeError, match="'dt'"):
        SimulationClock(2015.0, 2035.0)
