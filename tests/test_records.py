"""The records' checks hold on every way of building one.

The checked records are ``NamedTuple`` subclasses whose constructor runs
the check. A tuple can also be built by ``_make`` and ``_replace``, and
copied by ``fitsim.replace``; each path must raise the same
``ConfigurationError`` for the same bad value, with the message pinned
here word for word.
"""

import pytest

from fitsim import (
    ConfigurationError,
    DEFAULT_CLOCK,
    LaggedSeries,
    PolicyControl,
    PriceTaxOverrides,
    Scenario,
    SigmoidEffect,
    SimulationClock,
    apply_overrides,
    load_default_config,
    replace,
)
from fitsim.engine import CheckedRecord

PACKAGED = load_default_config().params

# (a valid record, the field given a bad value, the value, the message)
CHECKED = [
    (DEFAULT_CLOCK, "dt", 0.0, "dt must be positive, got 0.0"),
    (SigmoidEffect(1.0, 0.5, 2.0), "x_50", -1.0,
     "SigmoidEffect.x_50 must be positive and finite, got -1.0"),
    (PACKAGED.econ, "rejection_fraction", 1.5,
     "rejection_fraction must lie in [0, 1], got 1.5"),
    (PACKAGED.effects, "penetration_gain", -1.0,
     "penetration_gain must be non-negative, got -1.0"),
    (PriceTaxOverrides(), "fit_price_multiplier", 0.0,
     "fit_price_multiplier must lie in (0, 1], got 0.0"),
    (PolicyControl(), "tax_cap", 0.5,
     "need tax_floor <= tax_cap <= 0.1, got floor=0.0, cap=0.5"),
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
        "replace": lambda: replace(record, **{field: value}),
        "_replace": lambda: record._replace(**{field: value}),
        "_make": lambda: kind._make(values),
    }


@pytest.mark.parametrize("record, field, value, message", CHECKED,
                         ids=[type(case[0]).__name__ for case in CHECKED])
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


# a valid instance of every checked record, and of Scenario
RECORDS = [case[0] for case in CHECKED] + [Scenario("a")]


def test_every_checked_record_is_listed():
    assert {type(record) for record in RECORDS} == set(
        CheckedRecord.__subclasses__()) | {Scenario}


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


def test_the_lagged_series_checks_its_lag():
    # a mutable history, built only by its constructor
    for build in (lambda: LaggedSeries(0.0, 1.0),
                  lambda: LaggedSeries(lag=0.0, initial_value=1.0)):
        with pytest.raises(ConfigurationError,
                           match=r"^lag must be positive, got 0\.0$"):
            build()


def test_apply_overrides_runs_the_group_checks():
    with pytest.raises(ConfigurationError,
                       match=r"^rejection_fraction must lie in \[0, 1\], "
                             r"got 1\.5$"):
        apply_overrides(PACKAGED, {"rejection_fraction": 1.5})
    with pytest.raises(ConfigurationError,
                       match=r"^SigmoidEffect\.p must be positive"):
        apply_overrides(PACKAGED, {"investor_trust_p": 0.0})


def test_a_scenario_left_without_overrides_gets_its_own_dict():
    built = [Scenario("a"), Scenario(name="b"),
             Scenario("c", DEFAULT_CLOCK, None, PolicyControl())]
    for scenario in built:
        assert scenario.overrides == {}
        assert type(scenario.overrides) is dict
    assert len({id(scenario.overrides) for scenario in built}) == len(built)
    # a copy shares the dict it was given; only a left-out one is fresh
    first = built[0]
    for copy in (replace(first, name="d"), first._replace(name="d")):
        assert copy.overrides is first.overrides
        assert copy.name == "d"


def test_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError):
        replace(DEFAULT_CLOCK, horizon=2040.0)


def test_records_compare_as_their_values():
    # NamedTuple equality: the field values, in order, decide
    assert SimulationClock(2015.0, 2035.0) == DEFAULT_CLOCK
    assert DEFAULT_CLOCK == (2015.0, 2035.0, 0.25)
    assert tuple(PriceTaxOverrides()) == (0.0, 1.0, None)
    assert DEFAULT_CLOCK._asdict() == {"start_year": 2015.0,
                                       "end_year": 2035.0, "dt": 0.25}
