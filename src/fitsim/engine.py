"""Discrete-time stock-flow simulation kernel.

The engine advances a set of named stocks with explicit Euler steps: each
step evaluates a model-supplied derivative function once, records every
stock, flow, and auxiliary value, then applies ``stock += rate * dt``,
clamping the stocks the model declares non-negative at zero. Records go
into one flat row buffer that becomes the run's read-only variable matrix
at the end; :func:`run_simulation` lists the checks every step makes.
Besides the integrator it provides the three primitive building blocks the
models here are assembled from:

* an inverted sigmoid response ``y = y_max / (1 + (x / x_50) ** p)``, used
  for saturating social and institutional effects,
* a linear trend for exogenous drivers,
* a lagged series with a nearest-step lookup, used for annual information
  delays on a sub-annual grid.

Runs are deterministic and pure with respect to their inputs: integrating
the same model twice yields bit-identical trajectories.
"""

from __future__ import annotations

import logging
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class SimulationClock:
    """Integration window and step size, in calendar years."""

    start_year: float
    end_year: float
    dt: float = 0.25

    def __post_init__(self):
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

    @property
    def n_steps(self) -> int:
        return round((self.end_year - self.start_year) / self.dt)

    def times(self) -> np.ndarray:
        """All record times, start through end inclusive (n_steps + 1)."""
        return self.start_year + self.dt * np.arange(self.n_steps + 1)


# the paper's horizon on a quarterly grid
DEFAULT_CLOCK = SimulationClock(2015.0, 2035.0, 0.25)


@dataclass(frozen=True)
class SigmoidEffect:
    """Inverted sigmoid ``y = y_max / (1 + (x / x_50) ** p)``.

    Hits ``y_max`` at x = 0, half of it at x = x_50, and decays toward 0
    as x grows; larger ``p`` sharpens the transition.
    """

    y_max: float
    x_50: float
    p: float

    def __post_init__(self):
        for name in ("y_max", "x_50", "p"):
            value = getattr(self, name)
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


@dataclass(frozen=True)
class LinearTrend:
    """Exogenous driver ``value = intercept + slope * (t - reference_year)``."""

    intercept: float
    slope: float
    reference_year: float = 2015.0


def eval_linear_trend(trend: LinearTrend, t: float) -> float:
    """Evaluate a trend at time ``t``; the result must stay positive."""
    value = trend.intercept + trend.slope * (t - trend.reference_year)
    if value <= 0.0:
        raise ConfigurationError(
            f"linear trend evaluates to {value} at t={t}; exogenous drivers "
            f"must stay positive over the horizon")
    return value


@dataclass
class LaggedSeries:
    """Recorded history with a fixed information delay.

    ``record`` appends one value per step; ``lookup`` reads the value
    nearest to ``t - lag`` (ties resolve toward the earlier step) and falls
    back to ``initial_value`` for targets before the first record.
    """

    lag: float
    initial_value: float
    _times: list[float] = field(default_factory=list, repr=False)
    _values: list[float] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not (self.lag > 0.0):
            raise ConfigurationError(f"lag must be positive, got {self.lag}")

    def record(self, t: float, value: float) -> None:
        if self._times:
            last = self._times[-1]
            if t == last:
                # re-evaluation at the same step overwrites, never duplicates
                self._values[-1] = value
                return
            if t < last:
                raise RuntimeError(
                    f"record at t={t} after t={last}; history must be "
                    f"appended in time order")
        self._times.append(t)
        self._values.append(value)

    def lookup(self, t: float) -> float:
        target = t - self.lag
        if not self._times or target < self._times[0]:
            return self.initial_value
        spacing = (self._times[-1] - self._times[-2]
                   if len(self._times) > 1 else self.lag)
        if target > self._times[-1] + 0.5 * spacing:
            raise RuntimeError(
                f"lag lookup at t={t} needs history up to {target}, but "
                f"recording stops at {self._times[-1]}")
        i = bisect_left(self._times, target)
        if i == len(self._times):
            return self._values[-1]
        if i == 0:
            return self._values[0]
        before, after = self._times[i - 1], self._times[i]
        # ties toward the earlier step: strictly-closer wins, equality keeps i-1
        if (target - before) <= (after - target):
            return self._values[i - 1]
        return self._values[i]


@dataclass(frozen=True)
class ClampEvent:
    """A non-negative stock was about to go below zero and was clamped."""

    time: float
    variable: str
    attempted: float


@dataclass(frozen=True)
class RunResult:
    """Full trajectory of one run: every stock, flow, and auxiliary.

    ``variables`` maps each name to an array aligned with ``times``
    (n_steps + 1 records; the final record carries a diagnostic derivative
    evaluation so auxiliaries are defined there too). Arrays are read-only.
    """

    times: np.ndarray
    variables: dict[str, np.ndarray]
    stock_names: tuple[str, ...]
    flow_names: tuple[str, ...]
    aux_names: tuple[str, ...]
    clamp_events: tuple[ClampEvent, ...] = ()

    def __getitem__(self, name: str) -> np.ndarray:
        return self.variables[name]

    def final(self, name: str) -> float:
        return float(self.variables[name][-1])

    def at_year(self, name: str, year: float) -> float:
        """Value of a variable at the record closest to ``year``."""
        i = int(np.argmin(np.abs(self.times - year)))
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

    The model must provide ``initial_state() -> dict[str, float]`` and
    ``derivatives(state, t) -> (rates, aux)`` where ``rates`` has one entry
    per stock and ``aux`` holds every flow and auxiliary to record. It may
    also provide ``begin_run(clock)`` (reset of per-run memory such as
    lagged series, and checks that must fail before the first step),
    ``non_negative`` (names clamped at zero), and
    ``flow_names`` (aux entries to report as flows).

    ``derivatives`` is looked up on the model at every step, so a subclass
    override (or an instrumented wrapper) sees every call. Each step checks
    that the stocks are finite before the call, that the rates cover exactly
    the stocks and the auxiliaries keep the first step's names, that every
    auxiliary is finite and, before the Euler update, that every rate is
    finite; a failure raises :class:`SimulationError` naming the first
    offending variable and the time. Each record (stocks, then auxiliaries)
    is appended to one flat ``array("d")`` row buffer, which becomes one
    read-only ``(n_vars, n_records)`` matrix whose rows are the variables.
    """
    begin = getattr(model, "begin_run", None)
    if begin is not None:
        begin(clock)
    state = dict(model.initial_state())
    stock_names = tuple(state)
    stock_keys = dict.fromkeys(stock_names).keys()
    non_negative = frozenset(getattr(model, "non_negative", ()))
    flow_names = tuple(getattr(model, "flow_names", ()))
    times = clock.times()
    times.setflags(write=False)
    n_steps, dt = clock.n_steps, clock.dt

    values = list(state.values())
    rows = array("d")
    aux_keys: tuple[str, ...] = ()
    aux_key_set = None
    events: list[ClampEvent] = []

    for k, t in enumerate(times.tolist()):
        if not math.isfinite(sum(values)):
            _raise_first_non_finite("non-finite stock", stock_names, values, t)
        rates, aux = model.derivatives(state, t)
        if rates.keys() != stock_keys:
            missing = set(stock_names) ^ set(rates)
            raise SimulationError(
                f"derivative rates do not match stocks: {sorted(missing)}",
                time=t)
        if aux_key_set is None:
            aux_keys = tuple(aux)
            for name in aux_keys:
                if name in stock_keys:
                    raise SimulationError(
                        f"auxiliary {name!r} collides with a stock name",
                        time=t)
            aux_key_set = dict.fromkeys(aux_keys).keys()
        elif aux.keys() != aux_key_set:
            changed = set(aux) ^ set(aux_keys)
            raise SimulationError(
                f"auxiliary set changed mid-run: {sorted(changed)}", time=t)

        aux_values = list(map(aux.__getitem__, aux_keys))
        if not math.isfinite(sum(aux_values)):
            _raise_first_non_finite("non-finite auxiliary", aux_keys,
                                    aux_values, t)
        rows.fromlist(values)
        rows.fromlist(aux_values)

        if k < n_steps:
            rate_values = list(map(rates.__getitem__, stock_names))
            if not math.isfinite(sum(rate_values)):
                _raise_first_non_finite("non-finite rate", stock_names,
                                        rate_values, t)
            values = [stock + rate * dt
                      for stock, rate in zip(values, rate_values)]
            if values and min(values) < 0.0:
                for i, name in enumerate(stock_names):
                    if values[i] < 0.0 and name in non_negative:
                        events.append(ClampEvent(time=t, variable=name,
                                                 attempted=values[i]))
                        values[i] = 0.0
            state = dict(zip(stock_names, values))

    names = stock_names + aux_keys
    matrix = np.frombuffer(rows, dtype=float).reshape(
        len(times), len(names)).T.copy()
    matrix.setflags(write=False)
    aux_only = tuple(name for name in aux_keys if name not in flow_names)
    return RunResult(times=times, variables=dict(zip(names, matrix)),
                     stock_names=stock_names, flow_names=flow_names,
                     aux_names=aux_only, clamp_events=tuple(events))
