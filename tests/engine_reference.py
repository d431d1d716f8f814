"""The generic Euler integrator over a duck-typed model: the reference that
``FitModel.simulate``'s own loop is held to bit for bit, through
``ReferenceFitModel`` in ``tests/test_model.py``, and the kernel the
closed-form toy models of ``tests/test_engine.py`` run on."""

import math
import struct
from array import array

from fitsim.engine import (
    ClampEvent,
    RunResult,
    SimulationClock,
    SimulationError,
    _raise_first_non_finite,
)


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

    return RunResult.from_rows(rows, stock_names, flow_names, aux_names,
                               events)
