"""The request lag as a history searched record by record: the reference
that ``fitsim.engine.lag_indices`` and the model's coarse-step refusal are
held to, in ``tests/test_engine.py`` and ``tests/test_model.py``."""

from bisect import bisect_left


class BisectLaggedSeries:
    """Values recorded in time order, read back one lag by binary search.

    ``lookup(t)`` reads the value recorded nearest to ``t - lag``, a tie
    going to the earlier record, and falls back to ``initial_value`` for a
    target before the first record. It refuses to look ahead: a target
    more than half a spacing past the last record raises ``RuntimeError``,
    the spacing being the lag while only one record is held.
    """

    def __init__(self, lag: float, initial_value: float):
        self.lag, self.initial_value = lag, initial_value
        self._times, self._values = [], []

    def record(self, t: float, value: float) -> None:
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
        # the nearer record; a tie goes to the earlier one, i - 1
        if (target - before) <= (after - target):
            return self._values[i - 1]
        return self._values[i]
