"""Child processes of the fitsim benchmark; started by ``run.py`` only.

    worker.py setup                     time a fresh process up to a parsed
                                        default config; JSON on stdout
    worker.py cli TRACE_OUT ARGS...     ``fitsim ARGS...`` with every layer
                                        call traced; spans to TRACE_OUT
    worker.py sweep OUT SEED SEGMENT SECONDS BOX TRACE
                                        one segment of the parameter sweep;
                                        results to OUT

Every timestamp that crosses a process boundary is CLOCK_MONOTONIC in
nanoseconds, the clock the parent reads before it starts the child.
"""

import time

T0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import sys  # noqa: E402


def _mono():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _import_cli():
    """Import numpy, then the CLI; returns (numpy_ns, numpy_and_cli_ns)."""
    start = _mono()
    import numpy  # noqa: F401
    numpy_done = _mono()
    import fitsim.cli  # noqa: F401
    return numpy_done - start, _mono() - start


def setup():
    numpy_ns, import_ns = _import_cli()
    import numpy
    from fitsim.config import load_default_config
    parse_start = _mono()
    doc = load_default_config()
    parsed = _mono()
    import json
    print(json.dumps({
        "t0": T0, "import_numpy_ns": numpy_ns, "import_ns": import_ns,
        "parse_ns": parsed - parse_start, "parsed": parsed,
        "scenarios": len(doc.scenarios),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
    }))
    return 0


def cli(trace_out, argv):
    numpy_ns, import_ns = _import_cli()
    import json

    import fitsim.cli
    from tracing import Tracer, install_cli

    tracer = Tracer()
    install_cli(tracer)
    main = tracer.span("cli.main", fitsim.cli.main)
    try:
        return main(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump({"t0": T0, "import_numpy_ns": numpy_ns,
                       "import_ns": import_ns, "spans": tracer.spans},
                      handle)


# stocks are checked at the end of every sweep run; these two trajectories
# are classified, as the stress suites do
SIGNATURE_VARIABLES = ("installed_capacity", "suna_debt")
# one sweep operation is a batch of BATCH parameter sets; timing single
# runs of ~2 ms would make the tail a p99.9 of host scheduling noise
BATCH = 10
# every CONTROL_EVERY-th operation re-runs the shipped parameters instead
CONTROL_EVERY = 10
WARMUP_OPS = 2
# the host's speed is timed before every REFERENCE_EVERY-th timed operation
# and once after the last; each operation is scaled by the two timings
# around its group
REFERENCE_EVERY = 5


def assumed_keys(doc):
    """Numeric model parameters whose provenance marker is ``assumed``."""
    return sorted(
        key
        for section in ("parameters", "effects", "trends")
        for key, entry in doc.entries.get(section, {}).items()
        if entry.source == "assumed" and not isinstance(entry.value, bool))


def sweep(out_path, seed, segment, seconds, box, trace):
    import json
    import math
    import random
    import traceback

    from fitsim.config import load_default_config
    from fitsim.model import FitModel, apply_overrides, get_parameter
    from fitsim.validation import (
        FLAT, GROWTH_PEAK_DECLINE, MONOTONE_DECLINE, MONOTONE_GROWTH,
        behavior_signature)
    from hostspeed import reference_ms
    from tracing import Tracer, traced_model_class

    shapes_known = {FLAT, GROWTH_PEAK_DECLINE, MONOTONE_DECLINE,
                    MONOTONE_GROWTH}
    doc = load_default_config()
    keys = assumed_keys(doc)
    base = {key: get_parameter(doc.params, key) for key in keys}
    # a string seed is hashed the same way in every process
    rng = random.Random(f"{seed}/{segment}")

    def draw():
        return {key: base[key] * (1.0 + rng.uniform(-box, box))
                for key in keys}

    def make_op(model_class, signature):
        def op(batch):
            outcomes = []
            for overrides in batch:
                params = apply_overrides(doc.params, overrides)
                result = model_class(params).simulate(doc.clock)
                shapes = tuple(signature(result.times, result[name]).shape
                               for name in SIGNATURE_VARIABLES)
                outcomes.append((result, shapes))
            return outcomes
        return op

    def check(kind, outcomes):
        nonlocal reference
        for result, shapes in outcomes:
            finals = [result.final(name) for name in result.stock_names]
            if not all(math.isfinite(v) and v >= 0.0 for v in finals):
                return f"stocks not finite and non-negative: {finals}"
            if not set(shapes) <= shapes_known:
                return f"unknown behavior shapes {shapes}"
            if kind == "control":
                if reference is None:
                    reference = [finals, list(shapes)]
                elif [finals, list(shapes)] != reference:
                    return "control run differs from the first one"
        return None

    plain = make_op(FitModel, behavior_signature)
    tracer = Tracer()
    traced_ops = {}
    if trace:
        inner = make_op(traced_model_class(tracer, FitModel),
                        tracer.span("validation.signature",
                                    behavior_signature))
        traced_ops = {kind: tracer.span(f"sweep.{kind}", inner)
                      for kind in ("run", "control")}

    ops = []          # [kind, root span id or None, wall_ns, group] per op
    references = []   # reference loop ms before each group, then the end
    failures = []
    attempted = 0
    reference = None
    deadline = None
    index = 0
    while True:
        if index == WARMUP_OPS:
            tracer.spans.clear()
            deadline = _mono() + int(seconds * 1e9)
        if deadline is not None and _mono() >= deadline:
            break
        timed = index - WARMUP_OPS
        if timed >= 0 and timed % REFERENCE_EVERY == 0:
            references.append(reference_ms())
        # the first timed operation is a control, so even a short segment
        # measures one; tracing alternates block by block
        block, slot = divmod(timed, CONTROL_EVERY)
        kind = "control" if slot == 0 else "run"
        batch = [{} if kind == "control" else draw() for _ in range(BATCH)]
        traced = bool(trace) and block % 2 == 0
        op = traced_ops[kind] if traced else plain
        root = len(tracer.spans) if traced else None
        attempted += 1
        try:
            start = time.perf_counter_ns()
            outcomes = op(batch)
            wall = time.perf_counter_ns() - start
            problem = check(kind, outcomes)
        except Exception:  # any raise is a failed operation; keep sweeping
            problem = traceback.format_exc()
        if problem is not None:
            failures.append({"index": index, "batch": batch,
                             "problem": problem})
        elif deadline is not None:
            ops.append([kind, root, wall, timed // REFERENCE_EVERY])
        index += 1
    references.append(reference_ms())
    for op in ops:
        group = op[3]
        op[3] = (references[group] + references[group + 1]) / 2

    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"keys": keys, "batch": BATCH, "attempted": attempted,
                   "failures": failures, "reference": reference,
                   "ops": ops, "reference_ms": references,
                   "spans": tracer.spans}, handle)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "setup":
        return setup()
    if mode == "cli":
        return cli(argv[1], argv[2:])
    if mode == "sweep":
        out_path, seed, segment, seconds, box, trace = argv[1:7]
        return sweep(out_path, int(seed), int(segment), float(seconds),
                     float(box), int(trace))
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
