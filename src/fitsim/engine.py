"""Discrete-time stock-flow simulation kernel.

The engine advances a model's stocks with explicit Euler steps. The model
declares its stock and auxiliary names once; each step hands it the stocks
in that order, records the stocks and the auxiliaries it returns in theirs,
then applies ``stock += rate * dt``, clamping the stocks the model declares
non-negative at zero (:func:`run_simulation` lists the checks). Each
record (time, stocks, auxiliaries) is written with one ``struct`` pack
into a single buffer of doubles, and every column of the result is a
read-only view of it. Besides the integrator it provides the three
primitive building blocks the models here are assembled from:

* an inverted sigmoid response ``y = y_max / (1 + (x / x_50) ** p)``, used
  for saturating social and institutional effects,
* a linear trend for exogenous drivers,
* a lagged series with a constant-time nearest-step lookup, used for
  annual information delays on a sub-annual grid.

Runs are deterministic and pure with respect to their inputs: integrating
the same model twice yields bit-identical trajectories.

The engine sees only a model's ``derivatives``. The fitsim model writes
its step as its links inlined over per-run constants, tied to a composed
reference by a property in ``tests/test_model.py``; the lagged series here
likewise finds its records by index arithmetic, tied to a binary-search
reference by a property in ``tests/test_engine.py``.
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import NamedTuple

__all__ = [
    "ConfigurationError",
    "SimulationError",
    "SimulationClock",
    "DEFAULT_CLOCK",
    "SigmoidEffect",
    "LinearTrend",
    "LaggedSeries",
    "ClampEvent",
    "RunResult",
    "replace",
    "eval_inverted_sigmoid",
    "eval_linear_trend",
    "run_simulation",
]


class ConfigurationError(ValueError):
    """A parameter, trend, or config document is not usable as given."""


class SimulationError(RuntimeError):
    """A run had to abort; carries the offending variable and time."""

    def __init__(self, message: str, variable: str | None = None,
                 time: float | None = None):
        if variable is not None or time is not None:
            message = f"{message} (variable={variable!r}, t={time})"
        super().__init__(message)
        self.variable = variable
        self.time = time


class CheckedRecord:
    """Base of a record checked on every construction path: a subclass of
    this and of a ``NamedTuple`` of its fields whose ``_check`` raises
    :class:`ConfigurationError`; ``_make`` and ``_replace`` check too."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # a wrong call names the record, not its NamedTuple base of fields
        super().__init_subclass__(**kwargs)
        for base in cls.__bases__:
            if "_fields" in vars(base):
                base.__new__.__qualname__ = f"{cls.__name__}.__new__"

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def replace(record, **changes):
    """A copy of the ``NamedTuple`` record with ``changes`` to its fields,
    built through its constructor, so that a checked record checks them."""
    return type(record)(**{**record._asdict(), **changes})


class _ClockFields(NamedTuple):
    start_year: float
    end_year: float
    dt: float = 0.25


class SimulationClock(CheckedRecord, _ClockFields):
    """Integration window and step size, in calendar years."""

    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        if not (self.end_year > self.start_year):
            raise ConfigurationError(
                f"end_year must exceed start_year, got "
                f"[{self.start_year}, {self.end_year}]")
        if not (self.dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        span = self.end_year - self.start_year
        steps = span / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigurationError(
                f"horizon of {span} years is not a whole number of "
                f"steps at dt={self.dt}")
        if round(steps) < 1:
            raise ConfigurationError(
                f"dt must not exceed the horizon of {span} years, "
                f"got {self.dt}")

    @property
    def n_steps(self) -> int:
        return round((self.end_year - self.start_year) / self.dt)

    def times(self) -> list[float]:
        """All record times, start through end inclusive (n_steps + 1)."""
        return [self.start_year + self.dt * k
                for k in range(self.n_steps + 1)]


# the paper's horizon on a quarterly grid
DEFAULT_CLOCK = SimulationClock(2015.0, 2035.0, 0.25)


class _SigmoidFields(NamedTuple):
    y_max: float
    x_50: float
    p: float


class SigmoidEffect(CheckedRecord, _SigmoidFields):
    """Inverted sigmoid ``y = y_max / (1 + (x / x_50) ** p)``.

    Hits ``y_max`` at x = 0, half of it at x = x_50, and decays toward 0
    as x grows; larger ``p`` sharpens the transition.
    """

    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigurationError(
                    f"SigmoidEffect.{name} must be positive and finite, "
                    f"got {value}")

    def __call__(self, x: float) -> float:
        return eval_inverted_sigmoid(self, x)


def eval_inverted_sigmoid(effect: SigmoidEffect, x: float) -> float:
    """Evaluate an inverted sigmoid at ``x >= 0``."""
    if not math.isfinite(x):
        raise ValueError(f"sigmoid input must be finite, got {x}")
    if x < 0.0:
        raise ValueError(f"sigmoid input must be non-negative, got {x}")
    try:
        grown = (x / effect.x_50) ** effect.p
    except OverflowError:
        return 0.0  # far tail; the true value underflows anyway
    return effect.y_max / (1.0 + grown)


class LinearTrend(NamedTuple):
    """Exogenous driver ``value = intercept + slope * (t - reference_year)``."""

    intercept: float
    slope: float
    reference_year: float


def eval_linear_trend(trend: LinearTrend, t: float) -> float:
    """Evaluate a trend at time ``t``; the result must stay positive."""
    value = trend.intercept + trend.slope * (t - trend.reference_year)
    if value <= 0.0:
        raise ConfigurationError(
            f"linear trend evaluates to {value} at t={t}; exogenous drivers "
            f"must stay positive over the horizon")
    return value


class LaggedSeries:
    """Recorded history with a fixed information delay.

    ``record`` appends one value per step of a regular grid; ``lookup``
    reads the value nearest to ``t - lag`` (ties resolve toward the earlier
    step) and falls back to ``initial_value`` for targets before the first
    record. The lookup finds the records around the target by index
    arithmetic on the grid, in constant time; a target a step or more from
    either end takes one range test before the nearest-record comparison.
    Looking ahead raises ``RuntimeError``: a target may lie at most half a
    spacing past the last record, and with one record the spacing is taken
    to be the lag.
    """

    def __init__(self, lag: float, initial_value: float):
        if not (lag > 0.0):
            raise ConfigurationError(f"lag must be positive, got {lag}")
        self.lag, self.initial_value = lag, initial_value
        self._times, self._values = [], []

    def record(self, t: float, value: float) -> None:
        times = self._times
        if times and t <= times[-1]:
            if t < times[-1]:
                raise RuntimeError(
                    f"record at t={t} after t={times[-1]}; history must be "
                    f"appended in time order")
            # re-evaluation at the same step overwrites, never duplicates
            self._values[-1] = value
            return
        times.append(t)
        self._values.append(value)

    def lookup(self, t: float) -> float:
        target = t - self.lag
        times = self._times
        last = len(times) - 1
        # the target's position in steps from the first record; with fewer
        # than three records every target is at an end
        x = ((target - times[0]) / (times[-1] - times[-2]) if last > 1
             else -1.0)
        if 1.0 <= x < last - 1:
            # a step or more past the first record and over a step before
            # the last: neither the fallback nor the look-ahead check applies
            i = int(x)
        else:
            if last < 0 or target < times[0]:
                return self.initial_value
            spacing = times[-1] - times[-2] if last else self.lag
            if target > times[-1] + 0.5 * spacing:
                raise RuntimeError(
                    f"lag lookup at t={t} needs history up to {target}, but "
                    f"recording stops at {times[-1]}")
            if not last:
                return self._values[0]
            # past the last record, the pair before it picks the last
            i = int((target - times[0]) / spacing)
            if i >= last:
                i = last - 1
        # the pair of records around target. Near a record the index may be
        # one off, but either pair then picks that record. Ties toward the
        # earlier step: strictly-closer wins, equality keeps i
        if (target - times[i]) <= (times[i + 1] - target):
            return self._values[i]
        return self._values[i + 1]


class ClampEvent(NamedTuple):
    """A non-negative stock was about to go below zero and was clamped."""

    time: float
    variable: str
    attempted: float


class RunResult:
    """Full trajectory of one run: every stock, flow, and auxiliary.

    ``variables`` maps each name to a column aligned with ``times``
    (n_steps + 1 records; the final record carries a diagnostic derivative
    evaluation so auxiliaries are defined there too). ``times`` and the
    columns are read-only ``memoryview`` slices of one buffer of doubles:
    they index, iterate and ``tolist()`` as Python floats, and array
    libraries read them through the buffer protocol without a copy.
    """

    def __init__(self, times: memoryview, variables: dict[str, memoryview],
                 stock_names: tuple[str, ...], flow_names: tuple[str, ...],
                 aux_names: tuple[str, ...],
                 clamp_events: tuple[ClampEvent, ...] = ()):
        self.times, self.variables = times, variables
        self.stock_names, self.flow_names = stock_names, flow_names
        self.aux_names, self.clamp_events = aux_names, clamp_events

    def __getitem__(self, name: str) -> memoryview:
        return self.variables[name]

    def final(self, name: str) -> float:
        return float(self.variables[name][-1])

    def at_year(self, name: str, year: float) -> float:
        """Value of a variable at the record closest to ``year``."""
        times = self.times
        i = min(range(len(times)), key=lambda k: abs(times[k] - year))
        return float(self.variables[name][i])

    @property
    def n_records(self) -> int:
        return len(self.times)

    def column_order(self) -> list[str]:
        """Canonical emission order: time, stocks, flows, auxiliaries."""
        return (["time"] + sorted(self.stock_names)
                + sorted(self.flow_names) + sorted(self.aux_names))


def _raise_first_non_finite(what: str, names, values, t: float) -> None:
    """Raise for the first non-finite entry of ``values``, if there is one.

    Called once a set's sum came out non-finite; a set of finite values
    whose sum merely overflowed passes.
    """
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise SimulationError(what, variable=name, time=t)


def run_simulation(model, clock: SimulationClock) -> RunResult:
    """Integrate ``model`` over ``clock`` and record the full trajectory.

    The model declares ``stock_names`` and ``aux_names`` (every flow and
    auxiliary to record) as tuples, and may declare ``flow_names`` (aux
    entries reported as flows) and ``non_negative`` (stocks clamped at
    zero). ``initial_state()`` returns the stocks in ``stock_names`` order;
    ``derivatives(stocks, t)`` takes them in that order and returns
    ``(rates, aux)``, sequences aligned with ``stock_names`` and
    ``aux_names``. An optional ``begin_run(clock)`` resets per-run memory
    and makes the checks that must fail before the first step.

    The declarations are checked once, before step 0: names unique across
    stocks and auxiliaries, flows among the auxiliaries, one initial value
    per stock. ``derivatives`` is looked up on the model at every step, so
    a subclass override or an instrumented wrapper sees every call. Each
    step checks that the stocks are finite, that one rate per stock and one
    value per auxiliary came back, and that the auxiliaries and, before the
    Euler update, the rates are finite; a failure raises
    :class:`SimulationError` naming the first offending variable and the
    time. Each record (time, stocks, then auxiliaries) is packed with one
    ``struct.Struct(f"{width}d").pack`` built per run, as native doubles
    exactly as ``array("d")`` stores them, and appended to one flat
    ``array("d")`` by ``frombytes``; every column of the result is a
    read-only strided view of it. A value the pack cannot convert raises
    what ``array("d")`` raises for it.
    """
    begin = getattr(model, "begin_run", None)
    if begin is not None:
        begin(clock)
    stock_names = tuple(model.stock_names)
    aux_names = tuple(model.aux_names)
    flow_names = tuple(getattr(model, "flow_names", ()))
    names = stock_names + aux_names
    if len(set(names)) != len(names):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise SimulationError("name declared twice among stocks and "
                                      "auxiliaries", variable=name)
    for name in flow_names:
        if name not in aux_names:
            raise SimulationError("flow is not a declared auxiliary",
                                  variable=name)
    values = list(model.initial_state())
    n_stocks, n_aux = len(stock_names), len(aux_names)
    if len(values) != n_stocks:
        raise SimulationError(
            f"initial state has {len(values)} values for {n_stocks} stocks")
    non_negative = getattr(model, "non_negative", ())
    clamped = [(i, name) for i, name in enumerate(stock_names)
               if name in non_negative]
    n_steps, dt = clock.n_steps, clock.dt
    width = 1 + len(names)
    pack = struct.Struct(f"{width}d").pack
    rows = array("d")
    events: list[ClampEvent] = []

    for k, t in enumerate(clock.times()):
        if not math.isfinite(sum(values)):
            _raise_first_non_finite("non-finite stock", stock_names, values, t)
        rates, aux = model.derivatives(values, t)
        if len(rates) != n_stocks:
            raise SimulationError(
                f"{len(rates)} rates returned for {n_stocks} stocks", time=t)
        if len(aux) != n_aux:
            raise SimulationError(
                f"{len(aux)} auxiliaries returned, {n_aux} declared", time=t)
        if not math.isfinite(sum(aux)):
            _raise_first_non_finite("non-finite auxiliary", aux_names, aux, t)
        try:
            rows.frombytes(pack(t, *values, *aux))
        except struct.error:
            # raise what array("d") raises for a value it cannot store
            array("d", values), array("d", aux)
            raise

        if k < n_steps:
            if not math.isfinite(sum(rates)):
                _raise_first_non_finite("non-finite rate", stock_names,
                                        rates, t)
            values = [stock + rate * dt for stock, rate in zip(values, rates)]
            if clamped and min(values) < 0.0:
                for i, name in clamped:
                    if values[i] < 0.0:
                        events.append(ClampEvent(time=t, variable=name,
                                                 attempted=values[i]))
                        values[i] = 0.0

    view = memoryview(rows).toreadonly()
    columns = {name: view[i::width] for i, name in enumerate(names, start=1)}
    aux_only = tuple(name for name in aux_names if name not in flow_names)
    return RunResult(times=view[::width], variables=columns,
                     stock_names=stock_names, flow_names=flow_names,
                     aux_names=aux_only, clamp_events=tuple(events))
