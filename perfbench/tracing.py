"""In-memory span recorder for the traced benchmark runs.

Spans are taken from outside the package: the benchmark wraps the public
functions each fitsim module exposes and a subclass of ``FitModel``, and
leaves the program itself untouched. A span record is
``[id, parent_id, name, start_ns, end_ns, leaves]``. Calls too frequent to
keep one record each (``FitModel.derivatives``, the policy hook) are leaves:
their call count and total time are added to the innermost open span, so a
traced sweep of thousands of runs still fits in memory. Counts that are not
timings (``engine.steps``) are leaves with zero time.

This module imports only the standard library at import time, so the
stdlib-only harness can use ``layer_totals`` without importing fitsim.
"""

from __future__ import annotations

import time

_now = time.perf_counter_ns


class Tracer:
    """Spans and leaf counters of one process, kept until written out."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records one span called ``name``."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1][0] if stack else None, name,
                      0, 0, {}]
            spans.append(record)
            stack.append(record)
            record[3] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = _now()
                stack.pop()

        return traced

    def leaf(self, name, fn):
        """Wrap ``fn`` so that its calls add to the enclosing span's leaves."""
        add = self.add

        def traced(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, 1, _now() - start)

        return traced

    def add(self, name, calls, ns):
        leaves = self._stack[-1][5]
        entry = leaves.get(name)
        if entry is None:
            leaves[name] = [calls, ns]
        else:
            entry[0] += calls
            entry[1] += ns


def traced_model_class(tracer, base):
    """A ``base`` (``FitModel``) subclass whose runs and hooks are traced."""
    add = tracer.add

    class TracedFitModel(base):
        def __init__(self, params, policy=None):
            if policy is not None:
                policy = tracer.leaf("policies.hook", policy)
            super().__init__(params, policy)

        def simulate(self, clock):
            return _simulate(self, clock)

        def derivatives(self, state, t):
            start = _now()
            try:
                return base.derivatives(self, state, t)
            finally:
                add("model.derivatives", 1, _now() - start)

    def run(model, clock):
        result = base.simulate(model, clock)
        add("engine.steps", result.n_records, 0)
        return result

    _simulate = tracer.span("engine.simulate", run)
    return TracedFitModel


# (module, attribute, span name) of every public call the CLI makes into a
# layer; the wrapper replaces the name in the caller's namespace only.
CLI_CALLS = (
    ("fitsim.cli", "load_default_config", "config.parse"),
    ("fitsim.cli", "load_config", "config.parse"),
    ("fitsim.cli", "run_scenario_suite", "policies.suite"),
    ("fitsim.cli", "qualitative_checks", "policies.checks"),
    ("fitsim.cli", "emit_comparison_csv", "output.comparison_csv"),
    ("fitsim.cli", "write_plot_data", "output.plot_data"),
    ("fitsim.cli", "write_comparison_charts", "output.charts"),
    ("fitsim.cli", "extreme_condition_suite", "validation.extreme"),
    ("fitsim.cli", "sensitivity_suite", "validation.sensitivity"),
    ("fitsim.policies", "behavior_signature", "validation.signature"),
    ("fitsim.validation", "behavior_signature", "validation.signature"),
)

# every module that builds a FitModel by its own global name
MODEL_USERS = ("fitsim.cli", "fitsim.policies", "fitsim.validation")


def install_cli(tracer):
    """Point the CLI's and the suites' references at traced wrappers."""
    import importlib

    import fitsim.model

    traced = traced_model_class(tracer, fitsim.model.FitModel)
    for name in MODEL_USERS:
        importlib.import_module(name).FitModel = traced
    for module_name, attribute, span in CLI_CALLS:
        module = importlib.import_module(module_name)
        setattr(module, attribute,
                tracer.span(span, getattr(module, attribute)))


def layer_totals(spans) -> dict[str, float]:
    """Per-layer totals over ``spans``: seconds for spans and timed leaves,
    plain counts (``<name>.calls``) for leaves.

    ``<root>.children_s`` sums the direct children of root spans, so that
    the part of an operation no layer accounts for can be derived.
    """
    totals: dict[str, float] = {}
    roots = {record[0] for record in spans if record[1] is None}
    for ident, parent, name, start, end, leaves in spans:
        seconds = (end - start) / 1e9
        totals[name + "_s"] = totals.get(name + "_s", 0.0) + seconds
        if parent in roots:
            totals["children_s"] = totals.get("children_s", 0.0) + seconds
        for leaf, (calls, ns) in leaves.items():
            totals[leaf + ".calls"] = totals.get(leaf + ".calls", 0) + calls
            totals[leaf + "_s"] = totals.get(leaf + "_s", 0.0) + ns / 1e9
    return totals


def split_by_root(spans) -> list[list]:
    """Group a flat span list into one list per root span, in order."""
    groups: list[list] = []
    for record in spans:
        if record[1] is None:
            groups.append([])
        groups[-1].append(record)
    return groups
