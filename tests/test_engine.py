"""Kernel tests: clock, sigmoid, trend, lag, Euler stepping, run recording."""

import math
from array import array

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st

from fitsim import (
    ClampEvent,
    ConfigurationError,
    LinearTrend,
    SigmoidEffect,
    SimulationClock,
    SimulationError,
    eval_inverted_sigmoid,
    eval_linear_trend,
    lag_indices,
)
from fitsim.engine import MAX_STEPS
from engine_reference import run_simulation
from lag_reference import BisectLaggedSeries


# === clock ===

def test_clock_times_inclusive_of_both_ends():
    clock = SimulationClock(2015.0, 2035.0, 0.25)
    times = clock.times()
    assert clock.n_steps == 80
    assert len(times) == 81
    assert times[0] == 2015.0
    assert times[-1] == 2035.0
    assert np.allclose(np.diff(times), 0.25)


@given(st.builds(lambda start, dt, n: SimulationClock(start, start + dt * n,
                                                      dt),
                 st.floats(min_value=1900.0, max_value=2100.0),
                 st.floats(min_value=0.01, max_value=2.0),
                 st.integers(min_value=1, max_value=400)))
# 2020.2 + 0.05 * 28 and 2015.1 + 0.1 * 33 miss the end year by a rounding
@example(SimulationClock(2020.2, 2021.6, 0.05))
@example(SimulationClock(2015.1, 2018.4, 0.1))
def test_clock_times_increase_to_the_end_year(clock):
    times = clock.times()
    assert len(times) == clock.n_steps + 1
    assert times[0] == clock.start_year
    assert times[-1] == clock.end_year
    assert all(a < b for a, b in zip(times, times[1:]))


def test_clock_rejects_bad_windows():
    with pytest.raises(ConfigurationError):
        SimulationClock(2020.0, 2020.0, 0.25)
    with pytest.raises(ConfigurationError):
        SimulationClock(2020.0, 2015.0, 0.25)
    with pytest.raises(ConfigurationError):
        SimulationClock(2015.0, 2035.0, dt=-0.25)
    with pytest.raises(ConfigurationError):
        SimulationClock(2015.0, 2035.0, dt=0.3)  # not a whole step count
    with pytest.raises(ConfigurationError, match="dt"):
        SimulationClock(2015.0, 2035.0, dt=1e12)  # no step at all
    with pytest.raises(ConfigurationError,
                       match=r"^horizon of 20\.0 years is not a finite "
                             r"number of steps at dt=1e-310$"):
        SimulationClock(2015.0, 2035.0, 1e-310)  # 20 / 1e-310 overflows

    for field, window in (("start_year", (-math.inf, 2035.0, 0.25)),
                          ("start_year", (math.nan, 2035.0, 0.25)),
                          ("end_year", (2015.0, math.inf, 0.25)),
                          ("end_year", (2015.0, math.nan, 0.25)),
                          ("dt", (2015.0, 2035.0, math.inf)),
                          ("dt", (2015.0, 2035.0, math.nan))):
        with pytest.raises(ConfigurationError) as exc:
            SimulationClock(*window)
        assert str(exc.value).startswith(f"{field} must be finite")


def test_clock_refuses_a_step_count_over_the_ceiling():
    # a clock at the ceiling is built; one step more is refused before any
    # record time is, and so is a step that would take 2e10
    assert SimulationClock(0.0, MAX_STEPS * 0.25, 0.25).n_steps == 2 ** 18
    assert SimulationClock(2015.0, 2035.0, 1 / 8192).n_steps == 163840
    with pytest.raises(ConfigurationError,
                       match=r"^horizon of 65536\.25 years is 262145 steps "
                             r"at dt=0\.25, more than the 262144 a run may "
                             r"take$"):
        SimulationClock(0.0, (MAX_STEPS + 1) * 0.25, 0.25)
    with pytest.raises(ConfigurationError,
                       match=r"^horizon of 20\.0 years is 2e\+10 steps at "
                             r"dt=1e-09, more than the 262144 a run may "
                             r"take$"):
        SimulationClock(2015.0, 2035.0, 1e-9)


# === inverted sigmoid ===

def test_sigmoid_fixture_values():
    tolerance = SigmoidEffect(1.0, 0.05, 7.0)
    # doubling the halfway input with p=7 gives 1/(1+2^7)
    assert eval_inverted_sigmoid(tolerance, 0.1) == pytest.approx(1.0 / 129.0,
                                                                  rel=1e-12)
    assert eval_inverted_sigmoid(tolerance, 0.05) == pytest.approx(0.5,
                                                                   rel=1e-12)
    assert eval_inverted_sigmoid(tolerance, 0.0) == 1.0


@pytest.mark.parametrize("effect", [
    SigmoidEffect(1.0, 0.05, 7.0),
    SigmoidEffect(1.0, 5.0, 4.0),
    SigmoidEffect(1.0, 5.0, 6.0),
])
def test_sigmoid_anchors(effect):
    assert eval_inverted_sigmoid(effect, 0.0) == effect.y_max
    assert eval_inverted_sigmoid(effect, effect.x_50) == pytest.approx(
        effect.y_max / 2.0, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1e6),
       st.floats(min_value=0.0, max_value=1e6))
def test_sigmoid_monotone_decreasing(x1, x2):
    effect = SigmoidEffect(1.0, 5.0, 4.0)
    lo, hi = sorted((x1, x2))
    assert eval_inverted_sigmoid(effect, lo) >= eval_inverted_sigmoid(effect, hi)


def test_sigmoid_random_points_bounded_and_ordered():
    rng = np.random.default_rng(42)
    for effect in (SigmoidEffect(1.0, 0.05, 7.0), SigmoidEffect(1.0, 5.0, 4.0),
                   SigmoidEffect(1.0, 5.0, 6.0)):
        xs = np.sort(rng.uniform(0.0, 100.0 * effect.x_50, size=500))
        ys = np.array([eval_inverted_sigmoid(effect, float(x)) for x in xs])
        assert np.all(ys <= effect.y_max) and np.all(ys >= 0.0)
        assert np.all(np.diff(ys) <= 1e-15)


def test_sigmoid_far_tail_underflows_to_zero():
    effect = SigmoidEffect(1.0, 1.0, 1000.0)
    assert eval_inverted_sigmoid(effect, 2.5) == 0.0


def test_sigmoid_rejects_bad_inputs():
    effect = SigmoidEffect(1.0, 5.0, 4.0)
    with pytest.raises(ValueError):
        eval_inverted_sigmoid(effect, -1.0)
    with pytest.raises(ValueError):
        eval_inverted_sigmoid(effect, math.nan)
    with pytest.raises(ConfigurationError):
        SigmoidEffect(1.0, 0.0, 4.0)
    with pytest.raises(ConfigurationError):
        SigmoidEffect(-1.0, 5.0, 4.0)


def test_sigmoid_effect_is_callable():
    effect = SigmoidEffect(2.0, 5.0, 4.0)
    assert effect(5.0) == pytest.approx(1.0)


# === linear trend ===

def test_linear_trend_evaluation():
    trend = LinearTrend(74000.0, 1700.0, reference_year=2015.0)
    assert eval_linear_trend(trend, 2015.0) == 74000.0
    assert eval_linear_trend(trend, 2020.0) == pytest.approx(82500.0)


def test_linear_trend_must_stay_positive():
    trend = LinearTrend(100.0, -10.0, reference_year=2015.0)
    assert eval_linear_trend(trend, 2020.0) == pytest.approx(50.0)
    with pytest.raises(ConfigurationError):
        eval_linear_trend(trend, 2030.0)


def test_linear_trend_must_stay_finite():
    # finite fields whose value overflows at one end of the window
    trend = LinearTrend(1e308, 1e308, reference_year=2015.0)
    assert eval_linear_trend(trend, 2015.0) == 1e308
    with pytest.raises(ConfigurationError, match="evaluates to inf"):
        eval_linear_trend(trend, 2020.0)


# === lag indices ===

def test_lagged_series_falls_back_before_history():
    # the value before launch, then the one recorded at 2015.0
    history = [400.0, 500.0]
    reads = [history[i] for i in lag_indices([2015.0, 2015.5, 2016.25], 1.0)]
    # targets 2014.0 and 2014.5 come before the first record; 2015.25 is
    # after it, so nearest wins
    assert reads == [400.0, 400.0, 500.0]


def test_lagged_series_nearest_with_tie_toward_earlier():
    history = [0.0, 10.0, 11.0, 12.0, 13.0]
    reads = [history[i] for i in lag_indices(
        [0.0, 0.25, 0.5, 0.75, 1.125, 1.25], 1.0)]
    assert reads[5] == 11.0
    # target 1.125 - 1.0 = 0.125 sits exactly between records 0.0 and 0.25
    assert reads[4] == 10.0


def naive_offset_indices(times, lag):
    """Reads ``round(lag / dt)`` records back from the next record, without
    the comparison; the property must reject it."""
    dt = times[1] - times[0]
    return [0 if t - lag < times[0] else k + 1 - round(lag / dt)
            for k, t in enumerate(times)]


def first_lookup_mismatch(indices, start, dt, n_steps):
    """First time at which a history read through ``indices`` disagrees
    with the bisect form.

    Each step reads before it records, as a model does. Where the
    reference refuses to look ahead, the table has no rule to match: the
    model refuses, before step 0, a grid whose step 1 looks ahead
    (``tests/test_model.py``), so a grid's first look-ahead must be step 1's.
    """
    times = [start + dt * k for k in range(n_steps + 1)]
    reference = BisectLaggedSeries(lag=1.0, initial_value=-1.0)
    history = [-1.0]
    refused = False
    for k, (t, index) in enumerate(zip(times, indices(times, 1.0))):
        try:
            if history[index] != reference.lookup(t):
                return t
        except RuntimeError:
            if not refused and k != 1:
                return t
            refused = True
        reference.record(t, float(k))
        history.append(float(k))
    return None


# dt 0.4 puts lag / dt at 2.5: every lag target is a tie between two records.
# The coarse grids reach the single-record branch at the second step: dt 1.0
# finds the first record, 1.5 sits on the look-ahead bound and 2.0 is past it
LAG_GRIDS = st.sampled_from([0.1, 0.25, 0.4, 1 / 64, 1.0, 1.5, 2.0])


@settings(max_examples=300)
@given(LAG_GRIDS, st.floats(min_value=1900.0, max_value=2100.0),
       st.integers(min_value=1, max_value=160))
def test_lagged_lookup_matches_the_bisect_form(dt, start, n_steps):
    assert first_lookup_mismatch(lag_indices, start, dt, n_steps) is None


def test_naive_offset_fails_the_lookup_property():
    # the float rounding of each tie decides it, so a fixed offset of
    # round(2.5) = 2 records disagrees with the nearest-record rule
    assert first_lookup_mismatch(naive_offset_indices, 2015.0, 0.4, 50)
    for dt in (0.1, 0.25, 1 / 64):
        assert first_lookup_mismatch(naive_offset_indices, 2015.0, dt,
                                     round(3.0 / dt)) is None


# === run_simulation on a closed-form toy ===

class DecayModel:
    """One stock with s' = -s / tau; exact solution s0 * exp(-t / tau)."""

    stock_names = ("s",)
    aux_names = ("outflow",)

    def __init__(self, tau=20.0, s0=100.0):
        self.tau = tau
        self.s0 = s0

    def initial_state(self):
        return (self.s0,)

    def derivatives(self, stocks, t):
        rate = -stocks[0] / self.tau
        return (rate,), (-rate,)


def test_euler_decay_tracks_analytic_solution():
    clock = SimulationClock(0.0, 20.0, 0.25)
    result = run_simulation(DecayModel(), clock)
    exact = 100.0 * np.exp(-np.asarray(result.times) / 20.0)
    rel = np.max(np.abs(result["s"] - exact) / exact)
    assert rel < 0.02


def test_euler_error_shrinks_linearly_with_dt():
    def max_error(dt):
        clock = SimulationClock(0.0, 20.0, dt)
        result = run_simulation(DecayModel(), clock)
        exact = 100.0 * np.exp(-np.asarray(result.times) / 20.0)
        return np.max(np.abs(result["s"] - exact) / exact)

    ratio = max_error(0.25) / max_error(0.125)
    # first-order method: halving dt roughly halves the error
    assert 1.5 <= ratio <= 3.0


def test_run_records_every_step_and_is_deterministic():
    clock = SimulationClock(0.0, 1.0, 0.5)
    a = run_simulation(DecayModel(), clock)
    b = run_simulation(DecayModel(), clock)
    assert a.n_records == 3
    assert a.stock_names == ("s",)
    assert "outflow" in a.aux_names
    assert np.array_equal(a["s"], b["s"])
    assert np.array_equal(a["outflow"], b["outflow"])
    assert a.column_order()[0] == "time"


def test_run_result_arrays_are_read_only(base_run):
    with pytest.raises(TypeError):
        base_run["installed_capacity"][0] = 0.0


def test_run_rejects_aux_colliding_with_stock():
    class Colliding(DecayModel):
        aux_names = ("s",)

    with pytest.raises(SimulationError) as exc:
        run_simulation(Colliding(), SimulationClock(0.0, 1.0, 0.5))
    assert exc.value.variable == "s"


@pytest.mark.parametrize("declared, variable", [
    ({"aux_names": ("outflow", "outflow")}, "outflow"),
    ({"stock_names": ("s", "s")}, "s"),
    ({"flow_names": ("inflow",)}, "inflow"),
    # the first repeat, not the first name that is declared twice
    ({"aux_names": ("b", "a", "a", "b")}, "a"),
])
def test_run_rejects_bad_declarations_before_the_first_step(declared,
                                                            variable):
    calls = []

    class Declared(DecayModel):
        def derivatives(self, stocks, t):
            calls.append(t)
            return super().derivatives(stocks, t)

    model = Declared()
    model.__dict__.update(declared)
    with pytest.raises(SimulationError) as exc:
        run_simulation(model, SimulationClock(0.0, 1.0, 0.5))
    assert exc.value.variable == variable
    assert calls == []


def test_run_rejects_an_initial_state_of_the_wrong_length():
    class Short(DecayModel):
        stock_names = ("s", "t")

    with pytest.raises(SimulationError) as exc:
        run_simulation(Short(), SimulationClock(0.0, 1.0, 0.5))
    assert "1 values for 2 stocks" in str(exc.value)


def test_run_rejects_mismatched_rates():
    class Wrong(DecayModel):
        def derivatives(self, stocks, t):
            return (0.0, 0.0), (0.0,)

    with pytest.raises(SimulationError) as exc:
        run_simulation(Wrong(), SimulationClock(0.0, 1.0, 0.5))
    assert exc.value.time == 0.0
    assert "2 rates returned for 1 stocks" in str(exc.value)


def test_run_aborts_on_non_finite_stock():
    class Exploding(DecayModel):
        def derivatives(self, stocks, t):
            return (1e308,), (0.0,)  # finite, but the stock overflows

    with pytest.raises(SimulationError) as exc:
        run_simulation(Exploding(), SimulationClock(0.0, 2.0, 0.5))
    assert (exc.value.variable, exc.value.time) == ("s", 2.0)
    assert "non-finite stock" in str(exc.value)


def test_at_year_reads_nearest_record(base_run, default_doc):
    assert base_run.at_year("installed_capacity", 2015.0) == 120.0
    # 2016.1 is nearest the record 1.1 years in on the shipped step
    direct = float(base_run["installed_capacity"][
        round(1.1 / default_doc.clock.dt)])
    assert base_run.at_year("installed_capacity", 2016.1) == direct
    assert base_run.at_year("installed_capacity", 2035.0) == float(
        base_run["installed_capacity"][-1])


@pytest.mark.parametrize("year", [2014.9, 2035.1, 2050.0, math.nan])
def test_at_year_refuses_a_year_outside_the_records(base_run, year):
    with pytest.raises(ValueError, match=f"year {year} lies outside the "
                       r"records, 2015\.0 to 2035\.0"):
        base_run.at_year("installed_capacity", year)


# === Euler stepping and per-step checks ===

class ScriptedModel:
    """Given initial stocks, constant rates, and ``aux(t)`` per step.

    ``stocks`` and ``rates`` map names to values; ``aux(t)`` returns the
    values of ``aux_names`` in order.
    """

    non_negative = frozenset()

    def __init__(self, stocks, rates, aux_names=(), aux=lambda t: ()):
        self.stock_names = tuple(stocks)
        self.aux_names = aux_names
        self.stocks = stocks
        self.rates = tuple(rates[name] for name in self.stock_names)
        self.aux = aux

    def initial_state(self):
        return tuple(self.stocks.values())

    def derivatives(self, stocks, t):
        return self.rates, self.aux(t)


def test_run_euler_step_arithmetic():
    model = ScriptedModel({"a": 1.0, "b": 2.0}, {"a": 0.5, "b": -1.0})
    result = run_simulation(model, SimulationClock(0.0, 0.5, 0.5))
    assert result["a"].tolist() == [1.0, 1.25]
    assert result["b"].tolist() == [2.0, 1.5]
    assert result.clamp_events == ()


def test_run_clamps_non_negative_stocks_and_records_the_event():
    model = ScriptedModel({"s": 1.0, "free": 1.0}, {"s": -10.0, "free": -10.0})
    model.non_negative = frozenset({"s"})
    result = run_simulation(model, SimulationClock(3.0, 3.5, 0.25))
    assert result["s"].tolist() == [1.0, 0.0, 0.0]
    assert result["free"].tolist() == [1.0, -1.5, -4.0]
    assert [(e.time, e.variable) for e in result.clamp_events] == [
        (3.0, "s"), (3.25, "s")]
    assert result.clamp_events[0].attempted == pytest.approx(-1.5)
    assert result.clamp_events[1].attempted == pytest.approx(-2.5)


def test_run_names_the_stock_of_a_non_finite_rate():
    model = ScriptedModel({"a": 1.0, "b": 1.0}, {"a": 0.0, "b": math.inf})
    with pytest.raises(SimulationError) as exc:
        run_simulation(model, SimulationClock(0.0, 1.0, 0.25))
    assert exc.value.variable == "b"
    assert exc.value.time == 0.0
    assert "non-finite rate" in str(exc.value)


def test_run_names_a_non_finite_initial_stock():
    model = ScriptedModel({"a": 1.0, "b": math.nan}, {"a": 0.0, "b": 0.0})
    with pytest.raises(SimulationError) as exc:
        run_simulation(model, SimulationClock(0.0, 1.0, 0.25))
    assert (exc.value.variable, exc.value.time) == ("b", 0.0)
    assert "non-finite stock" in str(exc.value)


def test_run_names_a_nan_auxiliary_and_its_step_time():
    def aux(t):
        return (1.0, math.nan if t == 0.75 else 2.0)

    model = ScriptedModel({"s": 1.0}, {"s": 0.0}, ("x", "y"), aux)
    with pytest.raises(SimulationError) as exc:
        run_simulation(model, SimulationClock(0.0, 2.0, 0.25))
    assert (exc.value.variable, exc.value.time) == ("y", 0.75)
    assert "non-finite auxiliary" in str(exc.value)


def test_run_rejects_an_auxiliary_set_that_changes_mid_run():
    def aux(t):
        return (1.0,) if t < 0.5 else (1.0, 2.0)

    model = ScriptedModel({"s": 1.0}, {"s": 0.0}, ("x",), aux)
    with pytest.raises(SimulationError) as exc:
        run_simulation(model, SimulationClock(0.0, 1.0, 0.25))
    assert exc.value.time == 0.5
    assert "2 auxiliaries returned, 1 declared" in str(exc.value)


def test_run_accepts_finite_values_whose_sum_overflows():
    model = ScriptedModel({"a": 1e308, "b": 1e308}, {"a": -1e308, "b": -1e308},
                          ("x", "y"), lambda t: (1e308, 1e308))
    result = run_simulation(model, SimulationClock(0.0, 1.0, 0.5))
    assert result["a"].tolist() == [1e308, 5e307, 0.0]
    assert result["x"].tolist() == [1e308] * 3


# === the packed record ===

class Tagged(float):
    """A float whose ``__float__`` disagrees with its value; ``array("d")``
    stores the value."""

    def __float__(self):
        return 99.0


@pytest.mark.parametrize("container", [tuple, list])
def test_run_records_the_doubles_array_stores(container):
    values = (3, True, False, Tagged(0.1), -0.0)
    model = ScriptedModel({"s": 2}, {"s": 1}, ("i", "yes", "no", "f", "z"),
                          lambda t: container(values))
    result = run_simulation(model, SimulationClock(0.0, 1.0, 0.5))
    assert result["s"].tobytes() == array("d", [2, 2.5, 3.0]).tobytes()
    for name, value in zip(result.aux_names, values):
        assert result[name].tobytes() == array("d", [value] * 3).tobytes()


def test_run_rejects_a_short_aux_before_packing():
    # a long one is test_run_rejects_an_auxiliary_set_that_changes_mid_run
    model = ScriptedModel({"s": 1.0}, {"s": 0.0}, ("x", "y"),
                          lambda t: (1.0,))
    with pytest.raises(SimulationError) as exc:
        run_simulation(model, SimulationClock(0.0, 1.0, 0.5))
    assert "1 auxiliaries returned, 2 declared" in str(exc.value)


def test_run_raises_what_array_raises_for_a_value_it_cannot_store():
    # the auxiliaries sum to a finite 0, but neither fits in a double
    aux = (10 ** 400, -10 ** 400)
    model = ScriptedModel({"s": 1.0}, {"s": 0.0}, ("x", "y"), lambda t: aux)
    with pytest.raises(OverflowError) as expected:
        array("d", aux)
    with pytest.raises(OverflowError) as exc:
        run_simulation(model, SimulationClock(0.0, 1.0, 0.5))
    assert str(exc.value) == str(expected.value)


# === the kernel against a plain Euler loop ===

class LinearModel:
    """``rate_i = a_i * s_i + b_i``; the auxiliaries repeat the rates."""

    def __init__(self, s0, a, b, non_negative):
        self.stock_names = tuple(f"s{i}" for i in range(len(s0)))
        self.aux_names = tuple(f"r{i}" for i in range(len(s0)))
        self.non_negative = frozenset(self.stock_names[i]
                                      for i in non_negative)
        self.s0, self.a, self.b = s0, a, b

    def initial_state(self):
        return self.s0

    def derivatives(self, stocks, t):
        rates = [a * s + b for a, s, b in zip(self.a, stocks, self.b)]
        return rates, rates


def reference_euler(model, clock):
    """Records per variable and clamp events, one step at a time."""
    names = model.stock_names + model.aux_names
    records = {name: [] for name in names}
    events = []
    stocks = list(model.s0)
    times = clock.times()
    for k, t in enumerate(times):
        rates = [a * s + b for a, s, b in zip(model.a, stocks, model.b)]
        for name, value in zip(names, stocks + rates):
            records[name].append(value)
        if k == len(times) - 1:
            break
        for i, name in enumerate(model.stock_names):
            stocks[i] = stocks[i] + rates[i] * clock.dt
            if stocks[i] < 0.0 and name in model.non_negative:
                events.append(ClampEvent(t, name, stocks[i]))
                stocks[i] = 0.0
    return records, events


_coefficient = st.floats(min_value=-3.0, max_value=3.0)


@st.composite
def linear_models(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    column = st.lists(_coefficient, min_size=n, max_size=n)
    s0 = draw(st.lists(st.floats(min_value=0.0, max_value=10.0),
                       min_size=n, max_size=n))
    non_negative = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return LinearModel(tuple(s0), draw(column), draw(column), non_negative)


@given(linear_models(), st.sampled_from([0.5, 0.25, 0.1, 0.0625]))
def test_run_matches_a_plain_euler_loop(model, dt):
    clock = SimulationClock(0.0, 3.0, dt)
    result = run_simulation(model, clock)
    records, events = reference_euler(model, clock)
    for name, values in records.items():
        assert result[name].tolist() == values, name
    assert list(result.clamp_events) == events
