"""Discrete-time stock-flow simulation kernel.

A model's run advances its stocks with explicit Euler steps over the
record times of a :class:`SimulationClock`, applying ``stock += rate * dt``
and clamping at zero the stocks that must stay non-negative
(``FitModel.simulate`` is the loop). It appends each record (time, stocks,
auxiliaries) as doubles to one flat ``array("d")`` and builds its
:class:`RunResult` with :meth:`RunResult.from_rows`, so every column is a
read-only view of that buffer and the record layout lives here once.
Besides the clock and the result it provides the three primitive building
blocks the models here are assembled from:

* an inverted sigmoid response ``y = y_max / (1 + (x / x_50) ** p)``, used
  for saturating social and institutional effects,
* a linear trend for exogenous drivers,
* a table of lag indices, the record nearest a fixed delay back from each
  record, used for annual information delays on a sub-annual grid; the
  fitsim model computes it once per clock (``model.record_grid``).

Runs are deterministic and pure with respect to their inputs: integrating
the same model twice yields bit-identical trajectories.

A checked record (:func:`checked`) declares each float field's bound
beside the field: ``Positive``, ``NonNegative``, ``Finite``, ``Share``
(``[0, 1]``) or ``PositiveShare`` (``(0, 1]``). One loop checks them all;
``_check`` keeps the one-year remuneration floor, the clock's ``dt > 0``
and the rules over several fields. A clock of more than ``MAX_STEPS``
steps is refused before anything is built.

The generic integrator over a model that only hands back rates and
auxiliaries is a reference in the tests (``tests/engine_reference.py``): a
property in ``tests/test_model.py`` holds the fitsim loop to
``model.LINKS`` evaluated and run through it, columns, clamp events and
errors alike. A
property in ``tests/test_engine.py`` holds the lag indices to a recorded
history searched by bisection.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Annotated, NamedTuple, get_type_hints

__all__ = [
    "ConfigurationError",
    "SimulationError",
    "SimulationClock",
    "SigmoidEffect",
    "LinearTrend",
    "lag_indices",
    "ClampEvent",
    "RunResult",
    "checked",
    "Positive",
    "NonNegative",
    "Finite",
    "Share",
    "PositiveShare",
    "eval_inverted_sigmoid",
    "eval_linear_trend",
    "MAX_STEPS",
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


# a float field's bound in a checked record: the closed interval its value
# lies in, an open end being the next float inward, and its refusal words
_TINY, _HUGE = math.nextafter(0.0, 1.0), math.nextafter(math.inf, 0.0)
Positive = Annotated[float, _TINY, _HUGE, "be positive and finite"]
NonNegative = Annotated[float, 0.0, _HUGE, "be non-negative and finite"]
Finite = Annotated[float, -_HUGE, _HUGE, "be finite"]
Share = Annotated[float, 0.0, 1.0, "lie in [0, 1]"]
PositiveShare = Annotated[float, _TINY, 1.0, "lie in (0, 1]"]
_BOUNDS = (Positive, NonNegative, Finite, Share, PositiveShare)


def checked(cls):
    """Make the ``NamedTuple`` class ``cls`` a checked record: every
    construction path, ``_make`` and ``_replace`` included, refuses with a
    :class:`ConfigurationError` the first field that is not an ``int`` or
    ``float`` within its bound (positive, non-negative, finite, ``[0, 1]``
    then ``(0, 1]`` fields, each kind in declaration order), named
    ``<record>.<field>`` if the class sets ``_qualified``, then runs the
    class's ``_check`` if it has one: the rules over several fields or
    non-numbers, the one-year remuneration floor and the clock's ``dt > 0``
    (after its span test)."""
    hints = get_type_hints(cls, include_extras=True)
    bounded = tuple((i, *hints[name].__metadata__[:2]) for bound in _BOUNDS
                    for i, name in enumerate(cls._fields)
                    if hints[name] == bound)
    prefix = f"{cls.__name__}." if getattr(cls, "_qualified", False) else ""
    check, new = getattr(cls, "_check", None), cls.__new__

    def refusal(self, i):
        name = self._fields[i]
        return ConfigurationError(f"{prefix}{name} must "
                                  f"{hints[name].__metadata__[2]}, "
                                  f"got {self[i]}")

    def __new__(kind, *args, **kwargs):
        self = new(kind, *args, **kwargs)
        # most values are floats: ``type(v) is float`` spares the isinstance;
        # an int compares exactly, so one too large for a float is refused
        for i, low, high in bounded:
            v = self[i]
            if not ((type(v) is float or isinstance(v, (int, float)))
                    and low <= v <= high):
                raise refusal(self, i)
        if check is not None:
            check(self)
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda kind, iterable: kind(*iterable))
    return cls


# the most steps a clock may take: a fitsim record is 38 doubles, so one run
# at the ceiling holds about 80 MB of records, and a four-scenario compare
# four times that; dt 1/8192 is the finest power of two it admits over the
# shipped 20 years
MAX_STEPS = 2 ** 18


@checked
class SimulationClock(NamedTuple):
    """Integration window and step size, in calendar years."""

    start_year: Finite
    end_year: Finite
    dt: Finite

    def _check(self):
        if not (self.end_year > self.start_year):
            raise ConfigurationError(
                f"end_year must exceed start_year, got "
                f"[{self.start_year}, {self.end_year}]")
        if not (self.dt > 0.0):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        span = self.end_year - self.start_year
        steps = span / self.dt
        if not math.isfinite(steps):
            raise ConfigurationError(f"horizon of {span} years is not a "
                                     f"finite number of steps at dt={self.dt}")
        if round(steps) > MAX_STEPS:
            raise ConfigurationError(
                f"horizon of {span} years is {steps:.6g} steps at "
                f"dt={self.dt}, more than the {MAX_STEPS} a run may take")
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
        """All record times (n_steps + 1): ``start_year + dt * k`` for each
        step, then ``end_year`` itself, which the last product can miss by a
        rounding."""
        start, dt = self.start_year, self.dt
        return [start + dt * k for k in range(self.n_steps)] + [self.end_year]


@checked
class SigmoidEffect(NamedTuple):
    """Inverted sigmoid ``y = y_max / (1 + (x / x_50) ** p)``.

    Hits ``y_max`` at x = 0, half of it at x = x_50, and decays toward 0
    as x grows; larger ``p`` sharpens the transition.
    """

    y_max: Positive
    x_50: Positive
    p: Positive

    _qualified = True  # a part of an effect, whose config key it cannot know

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


@checked
class LinearTrend(NamedTuple):
    """Exogenous driver ``value = intercept + slope * (t - reference_year)``."""

    intercept: Finite
    slope: Finite
    reference_year: Finite

    _qualified = True  # a part of a trend, whose config key it cannot know


def eval_linear_trend(trend: LinearTrend, t: float) -> float:
    """Evaluate a trend at time ``t``; the result must stay positive and
    finite, so an overflow fails here too."""
    value = trend.intercept + trend.slope * (t - trend.reference_year)
    if not 0.0 < value < math.inf:
        raise ConfigurationError(
            f"linear trend evaluates to {value} at t={t}; exogenous drivers "
            f"must stay positive and finite over the horizon")
    return value


def lag_indices(times: list[float], lag: float) -> list[int]:
    """Where each record of a run reads a value delayed by ``lag`` years.

    The run keeps a history whose entry 0 is the value before the first
    record and whose entry ``j + 1`` is the value recorded at ``times[j]``.
    Entry ``k`` of the result is 0 while ``times[k] - lag`` lies before the
    first record, else ``j + 1`` for the record ``j < k`` nearest to that
    target, a tie going to the earlier record. So a run that, at record
    ``k``, reads the history at entry ``k`` of the result and then appends
    that record's value reads only what it has recorded. ``lag`` must be
    positive.
    """
    back = []
    for k, t in enumerate(times):
        target = t - lag
        if target < times[0]:
            back.append(0)
            continue
        i = bisect_left(times, target, 0, k)
        # of the records before k, the pair around the target picks the
        # nearer; strictly-closer wins, equality keeps the earlier
        if i == k or (i and target - times[i - 1] <= times[i] - target):
            i -= 1
        back.append(i + 1)
    return back


class ClampEvent(NamedTuple):
    """A non-negative stock was about to go below zero and was clamped."""

    time: float
    variable: str
    attempted: float


class RunResult:
    """Full trajectory of one run: every stock, flow, and auxiliary.

    ``variables`` maps each name to a column aligned with ``times``
    (n_steps + 1 records; the final record's auxiliaries are computed from
    its stocks like every other's, and no step follows it). ``times`` and the
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

    @classmethod
    def from_rows(cls, rows: array, stock_names: tuple[str, ...],
                  flow_names: tuple[str, ...], aux_names: tuple[str, ...],
                  clamp_events: list[ClampEvent]) -> RunResult:
        """The result of a run whose records, each time, then the stocks in
        ``stock_names`` order, then the auxiliaries in ``aux_names`` order,
        were appended to ``rows``; every column is a read-only strided view
        of it."""
        time_slice, names, slices, aux_only = _layout(stock_names, flow_names,
                                                      aux_names)
        view = memoryview(rows).toreadonly()
        return cls(times=view[time_slice],
                   variables=dict(zip(names, map(view.__getitem__, slices))),
                   stock_names=stock_names, flow_names=flow_names,
                   aux_names=aux_only, clamp_events=tuple(clamp_events))

    def __getitem__(self, name: str) -> memoryview:
        return self.variables[name]

    def final(self, name: str) -> float:
        return float(self.variables[name][-1])

    def at_year(self, name: str, year: float) -> float:
        """Value of a variable at the record closest to a year in the run."""
        times = self.times
        if not times[0] <= year <= times[-1]:
            raise ValueError(f"year {year} lies outside the records, "
                             f"{times[0]} to {times[-1]}")
        i = min(range(len(times)), key=lambda k: abs(times[k] - year))
        return float(self.variables[name][i])

    @property
    def n_records(self) -> int:
        return len(self.times)

    def column_order(self) -> list[str]:
        """Canonical emission order: time, stocks, flows, auxiliaries."""
        return (["time"] + sorted(self.stock_names)
                + sorted(self.flow_names) + sorted(self.aux_names))


@lru_cache(maxsize=32)
def _layout(stock_names: tuple[str, ...], flow_names: tuple[str, ...],
            aux_names: tuple[str, ...]) -> tuple:
    """The times' slice, the column names and slices, and the auxiliaries
    that are not flows, of a record layout: once per layout, not per run."""
    names = stock_names + aux_names
    width = 1 + len(names)
    return (slice(None, None, width), names,
            tuple(slice(i, None, width) for i in range(1, width)),
            tuple(name for name in aux_names if name not in flow_names))


def _raise_first_non_finite(what: str, names, values, t: float) -> None:
    """Raise for the first non-finite entry of ``values``, if there is one.

    Called once a set's sum came out non-finite, or once a step's new
    stocks did; a set of finite values whose sum merely overflowed passes.
    """
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise SimulationError(what, variable=name, time=t)
