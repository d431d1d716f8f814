#!/usr/bin/env python3
"""fitsim benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/fitsim``. Workloads
(see README.md in this directory for why each exists):

    cli_quarterly  fresh ``fitsim compare --out DIR --charts`` and
                   ``fitsim validate`` processes on the shipped config
    cli_fine       the same two commands at ``--dt 0.015625``
    sweep          one process simulating seeded parameter sets

Each run warms the measured path up, then measures for ``--seconds``,
with SETUP_PROBES fresh processes that import the CLI and parse the
default config (``setup_s``) spread over that window. Every operation's
output is checked. End-to-end timings are scaled to a reference host
speed, timed around every operation (see hostspeed.py). The last line of
stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Lines before it, starting with ``#``, are a human-readable
record; the full record goes to ``.perfbench/results/`` in the checkout.

Uses only the standard library; fitsim runs in child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from hostspeed import REFERENCE_MS, reference_ms, scale  # noqa: E402
from tracing import layer_totals, split_by_root  # noqa: E402

QUARTERLY_DT = 0.25
FINE_DT = 0.015625
HORIZON_YEARS = 20.0
SCENARIOS = 4
SWEEP_BOX = 0.2           # each sampled parameter varies by +-20%
SETUP_PROBES = 20         # plus one untimed warm-up probe
SWEEP_SEGMENTS = 10       # sweep worker processes per run
OP_TIMEOUT_S = 60.0

# compare --charts writes the comparison CSV plus a CSV and an SVG for each
# of these variables
CHART_VARIABLES = (
    "installed_capacity", "penetration_rate", "suna_debt",
    "delay_in_debt_payment", "budget", "roi", "tendency_to_invest",
    "social_acceptance",
)
COMPARE_FILES = sorted(["comparison.csv"]
                       + [f"{name}.{ext}" for name in CHART_VARIABLES
                          for ext in ("csv", "svg")])
# sha256 over the sorted compare outputs at dt 0.25, as first recorded;
# reported beside each run's digest, not enforced, since a calibration fix
# is expected to change these bytes on purpose
RECORDED_QUARTERLY_DIGEST = (
    "bd4efb2c76ca83af2af27742ce0e8b82b12aecac70c0985801914d3bf90860f1")

END_TO_END = {
    "setup_s": "s",
    "op_ms": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "control_ms": "ms",
    "control_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "config.parse_s": "s",
    "engine.simulate_s": "s",
    "engine.self_s": "s",
    "engine.steps": "count",
    "engine.step_us": "us",
    "model.derivatives_s": "s",
    "model.derivatives_calls": "count",
    "model.derivatives_us": "us",
    "policies.suite_s": "s",
    "policies.hook_calls": "count",
    "policies.checks_s": "s",
    "validation.extreme_s": "s",
    "validation.sensitivity_s": "s",
    "validation.signature_s": "s",
    "validation.findings_failed": "count",
    "output.comparison_csv_s": "s",
    "output.plot_data_s": "s",
    "output.charts_s": "s",
    "output.bytes": "bytes",
    "output.csv_mb_per_s": "MB/s",
    "op.unaccounted_ms": "ms",
    "control.unaccounted_ms": "ms",
    "trace.overhead_pct": "%",
    "host.reference_ms": "ms",
}


def _mono() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


class Runner:
    """Starts child processes one at a time and counts operations."""

    def __init__(self):
        self.env = _env()
        self.attempted = 0
        self.failures: list[str] = []
        self.reference_ms: list[float] = []  # every loop timing of the run
        self.logs = os.path.join(WORK, "logs")
        os.makedirs(self.logs, exist_ok=True)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def host_speed(self) -> float:
        """Time the reference loop once and keep the figure."""
        ms = reference_ms()
        self.reference_ms.append(ms)
        return ms

    def spawn(self, args, timeout=OP_TIMEOUT_S):
        """Run ``python ARGS``; returns (exit code, spawn ns, end ns,
        stdout bytes, stderr bytes, factor to the reference host). The
        exit code is None on timeout."""
        out_path = os.path.join(self.logs, "stdout")
        err_path = os.path.join(self.logs, "stderr")
        before = self.host_speed()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = _mono()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            # a blocking wait returns as the child exits; Popen.wait with a
            # timeout polls and would add up to 50 ms to the measured time
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            code = proc.wait()
            end = _mono()
            timer.cancel()
            timer.join()
            if code == -9:
                code = None
        factor = scale(before, self.host_speed())
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        with open(err_path, "rb") as handle:
            stderr = handle.read()
        return code, start, end, stdout, stderr, factor


def _tail(samples):
    """Highest order statistic with at least ten samples above it.

    Returns (value, percentile, count); with ten samples or fewer there is
    no such statistic and the maximum is returned.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    i = n - 11 if n > 10 else n - 1
    return ordered[i], (100.0 * i / (n - 1) if n > 1 else 100.0), n


def _median(values):
    return statistics.median(values) if values else 0.0


# === set-up probes ===

class SetupProbes:
    """Fresh processes that import the CLI and parse the default config.

    Start-up time drifts with the machine's load over seconds, so the
    probes are spread over the measured window instead of run in one
    burst: ``due`` runs the probes whose share of the window has passed.
    The first probe is an untimed warm-up.
    """

    def __init__(self, runner: Runner):
        self.runner = runner
        self.records = []
        self._probe(keep=False)

    def _probe(self, keep=True) -> None:
        """Run one probe."""
        runner = self.runner
        runner.attempted += 1
        code, start, _, stdout, stderr, factor = runner.spawn(
            [os.path.join(HERE, "worker.py"), "setup"])
        try:
            record = json.loads(stdout)
        except ValueError:
            record = None
        if code != 0 or record is None or record["scenarios"] != SCENARIOS:
            runner.fail(f"setup probe exited {code}: "
                        f"{stderr.decode(errors='replace')[-500:]}")
        elif keep:
            record["spawn"] = start
            record["factor"] = factor
            self.records.append(record)

    def due(self, fraction: float) -> None:
        """Run the probes due by ``fraction`` of the window."""
        while len(self.records) < min(1.0, fraction) * SETUP_PROBES:
            taken = len(self.records)
            self._probe()
            if len(self.records) == taken:
                break  # a failed probe; do not retry in a loop

    def summary(self):
        probes = self.records

        def med(fn):
            return _median([fn(p) for p in probes])

        return {
            "setup_s": med(lambda p: p["factor"]
                           * (p["parsed"] - p["spawn"]) / 1e9),
            "cli.interpreter_s": med(lambda p: (p["t0"] - p["spawn"]) / 1e9),
            "cli.import_s": med(lambda p: p["import_ns"] / 1e9),
            "cli.import_numpy_s": med(lambda p: p["import_numpy_ns"] / 1e9),
            "config.parse_s": med(lambda p: p["parse_ns"] / 1e9),
            "python": probes[0]["python"] if probes else None,
            "numpy": probes[0]["numpy"] if probes else None,
            "setup_probes": len(probes),
        }


# === CLI workloads ===

class CliSession:
    """Alternating compare and validate processes with output checks."""

    def __init__(self, runner: Runner, dt: float | None):
        self.runner = runner
        self.dt_args = [] if dt is None else ["--dt", repr(dt)]
        n_records = round(HORIZON_YEARS / (dt or QUARTERLY_DT)) + 1
        self.expected_rows = 1 + SCENARIOS * n_records
        self.out_dir = os.path.join(".perfbench", "work", "out")
        self.compare_ref = None
        self.validate_ref = None
        self.digest = None
        self.output_bytes = 0
        self.csv_bytes = 0
        self.findings_failed = None
        self.trace_dir = os.path.join(WORK, "work", "trace")
        os.makedirs(self.trace_dir, exist_ok=True)

    def _command(self, name: str, traced: bool):
        args = [name] + self.dt_args
        if name == "compare":
            args = args[:1] + ["--out", self.out_dir, "--charts"] + args[1:]
        if not traced:
            return ["-m", "fitsim"] + args, None
        trace_out = os.path.join(self.trace_dir, f"{name}.json")
        if os.path.exists(trace_out):
            os.remove(trace_out)
        return [os.path.join(HERE, "worker.py"), "cli", trace_out] + args, \
            trace_out

    def run(self, name: str, traced: bool = False):
        """One operation; returns (wall seconds, wall seconds scaled to the
        reference host, trace record) or None."""
        runner = self.runner
        runner.attempted += 1
        shutil.rmtree(os.path.join(ROOT, self.out_dir), ignore_errors=True)
        args, trace_out = self._command(name, traced)
        code, start, end, stdout, stderr, factor = runner.spawn(args)
        text = stderr.decode(errors="replace")
        if code not in (0, 1) or "Traceback" in text:
            runner.fail(f"{name} exited {code}: {text[-800:]}")
            return None
        check = self._check_compare if name == "compare" \
            else self._check_validate
        problem = check(code, stdout, stderr)
        if problem:
            runner.fail(f"{name}: {problem}")
            return None
        trace = None
        if trace_out is not None:
            try:
                with open(trace_out, encoding="utf-8") as handle:
                    trace = json.load(handle)
            except (OSError, ValueError) as exc:
                runner.fail(f"{name}: no trace written: {exc}")
                return None
            trace["spawn"] = start
            trace["wall_s"] = (end - start) / 1e9
        return (end - start) / 1e9, factor * (end - start) / 1e9, trace

    def _check_compare(self, code, stdout, stderr):
        failed = [line for line in
                  stderr.decode(errors="replace").splitlines()
                  if line.startswith("FAIL ")]
        if (code == 1) != bool(failed):
            return f"exit code {code} disagrees with {len(failed)} FAIL lines"
        directory = os.path.join(ROOT, self.out_dir)
        if not os.path.isdir(directory):
            return "no output directory written"
        names = sorted(os.listdir(directory))
        if names != COMPARE_FILES:
            return f"wrote {names}, expected the {len(COMPARE_FILES)} files"
        files = {}
        for name in names:
            with open(os.path.join(directory, name), "rb") as handle:
                files[name] = handle.read()
        rows = files["comparison.csv"].count(b"\n")
        if rows != self.expected_rows:
            return f"comparison.csv has {rows} lines, " \
                   f"expected {self.expected_rows}"
        if self.compare_ref is None:
            self.compare_ref = files
            digest = hashlib.sha256()
            for name in names:
                digest.update(files[name])
            self.digest = digest.hexdigest()
            self.output_bytes = sum(len(data) for data in files.values())
            self.csv_bytes = len(files["comparison.csv"])
        elif files != self.compare_ref:
            differ = [n for n in names if files[n] != self.compare_ref[n]]
            return f"outputs differ from the first invocation: {differ}"
        return None

    def _check_validate(self, code, stdout, stderr):
        lines = stdout.decode(errors="replace").splitlines()
        if not lines or not all(line.startswith(("PASS ", "FAIL "))
                                for line in lines):
            return "stdout is not a list of PASS/FAIL findings"
        failed = sum(line.startswith("FAIL ") for line in lines)
        if (code == 1) != bool(failed):
            return f"exit code {code} disagrees with {failed} FAIL lines"
        if self.validate_ref is None:
            self.validate_ref = stdout
            self.findings_failed = failed
        elif stdout != self.validate_ref:
            return "findings differ from the first invocation"
        return None


def _cli_layers(compare, validate, session: CliSession):
    """Per-layer numbers of one traced compare + validate cycle."""
    totals = {}
    unaccounted = {}
    for role, trace in (("op", compare), ("control", validate)):
        process = layer_totals(trace["spans"])
        for key, value in process.items():
            totals[key] = totals.get(key, 0) + value
        interpreter = (trace["t0"] - trace["spawn"]) / 1e9
        children = process.get("children_s", 0.0)
        unaccounted[role] = 1e3 * (trace["wall_s"] - interpreter
                                   - trace["import_ns"] / 1e9 - children)
    layers = _common_layers(totals)
    csv_s = totals.get("output.comparison_csv_s", 0.0)
    layers.update({
        "output.bytes": session.output_bytes,
        "output.csv_mb_per_s": session.csv_bytes / csv_s / 1e6
        if csv_s else 0.0,
        "op.unaccounted_ms": unaccounted["op"],
        "control.unaccounted_ms": unaccounted["control"],
    })
    return layers


def _common_layers(totals):
    simulate = totals.get("engine.simulate_s", 0.0)
    derivatives = totals.get("model.derivatives_s", 0.0)
    steps = totals.get("engine.steps.calls", 0)
    calls = totals.get("model.derivatives.calls", 0)
    layers = {
        "engine.simulate_s": simulate,
        "engine.self_s": simulate - derivatives,
        "engine.steps": steps,
        "engine.step_us": 1e6 * (simulate - derivatives) / steps
        if steps else 0.0,
        "model.derivatives_s": derivatives,
        "model.derivatives_calls": calls,
        "model.derivatives_us": 1e6 * derivatives / calls if calls else 0.0,
        "policies.hook_calls": totals.get("policies.hook.calls", 0),
    }
    for name in ("policies.suite", "policies.checks", "validation.extreme",
                 "validation.sensitivity", "validation.signature",
                 "output.comparison_csv", "output.plot_data",
                 "output.charts"):
        layers[name + "_s"] = totals.get(name + "_s", 0.0)
    return layers


def run_cli(runner: Runner, probes: SetupProbes, dt, seconds: float,
            trace: bool, record: dict):
    session = CliSession(runner, dt)
    # warm-up: fills the page and bytecode caches and takes the reference
    # outputs every later invocation must reproduce byte for byte
    for traced in ((False, True) if trace else (False,)):
        session.run("compare", traced)
        session.run("validate", traced)

    samples = {"compare": [], "validate": []}   # scaled seconds
    traced_samples = {"compare": [], "validate": []}
    wall = {"compare": [], "validate": []}      # untraced, unscaled
    cycles = []
    spans = record["spans"] = []
    window = int(seconds * 1e9)
    start = _mono()
    cycle = 0
    while _mono() - start < window:
        probes.due((_mono() - start) / window)
        traced = trace and cycle % 2 == 0
        done = {}
        for name in ("compare", "validate"):
            outcome = session.run(name, traced)
            if outcome is not None:
                (traced_samples if traced else samples)[name].append(
                    outcome[1])
                if not traced:
                    wall[name].append(outcome[0])
                done[name] = outcome[2]
        if traced and len(done) == 2:
            cycles.append(_cli_layers(done["compare"], done["validate"],
                                      session))
            spans.append({"cycle": cycle, **done})
        cycle += 1
    probes.due(1.0)
    shutil.rmtree(os.path.join(WORK, "work"), ignore_errors=True)

    record.update(digest=session.digest,
                  digest_matches_recorded=(session.digest
                                           == RECORDED_QUARTERLY_DIGEST)
                  if dt is None else None,
                  findings_failed=session.findings_failed)
    if trace:
        layers = {name: _median([c[name] for c in cycles])
                  for name in cycles[0]} if cycles else {}
        layers["validation.findings_failed"] = session.findings_failed or 0
        plain = _median(samples["compare"]) + _median(samples["validate"])
        traced = _median(traced_samples["compare"]) \
            + _median(traced_samples["validate"])
        layers["trace.overhead_pct"] = \
            100.0 * (traced / plain - 1.0) if plain else 0.0
        record["traced_cycles"] = len(cycles)
        return layers
    record["wall_median_ms"] = {"op": 1e3 * _median(wall["compare"]),
                                "control": 1e3 * _median(wall["validate"])}
    return _latency_metrics(
        [1e3 * s for s in samples["compare"]],
        [1e3 * s for s in samples["validate"]], record)


def _latency_metrics(op_ms, control_ms, record):
    op_tail, op_pct, op_n = _tail(op_ms)
    control_tail, control_pct, control_n = _tail(control_ms)
    record["samples"] = {"op": op_n, "control": control_n}
    record["tail_percentile"] = {"op": op_pct, "control": control_pct}
    return {
        "op_ms": _median(op_ms),
        "op_ms_tail": op_tail,
        "ops_per_s": 1e3 * len(op_ms) / sum(op_ms) if op_ms else 0.0,
        "control_ms": _median(control_ms),
        "control_ms_tail": control_tail,
    }


# === sweep workload ===

def run_sweep(runner: Runner, probes: SetupProbes, seed: int,
              seconds: float, trace: bool, record: dict):
    """The sweep, in SWEEP_SEGMENTS worker processes with the set-up
    probes between them, so both sample the whole window."""
    out_path = os.path.join(WORK, "sweep.json")
    ops, spans, references, keys, batch = [], [], [], None, None
    end = _mono() + int(seconds * 1e9)
    for segment in range(SWEEP_SEGMENTS):
        # the segments share what the probes leave of the window
        share = max(0.05, (end - _mono()) / 1e9 / (SWEEP_SEGMENTS - segment))
        code, _, _, _, stderr, _ = runner.spawn(
            [os.path.join(HERE, "worker.py"), "sweep", out_path, str(seed),
             str(segment), repr(share), repr(SWEEP_BOX), str(int(trace))],
            timeout=OP_TIMEOUT_S + share)
        probes.due((segment + 1) / SWEEP_SEGMENTS)
        if code != 0:
            runner.attempted += 1
            runner.fail(f"sweep worker exited {code}: "
                        f"{stderr.decode(errors='replace')[-800:]}")
            continue
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
        os.remove(out_path)
        runner.attempted += result["attempted"]
        keys, batch = result["keys"], result["batch"]
        for failure in result["failures"]:
            runner.fail(f"sweep segment {segment} op {failure['index']}: "
                        f"{failure['problem']}")
        # span ids restart in every segment; shift them to stay unique
        offset = len(spans)
        for span in result["spans"]:
            span[0] += offset
            if span[1] is not None:
                span[1] += offset
        spans += result["spans"]
        # [kind, root span, wall ms, wall ms scaled to the reference host]
        ops += [[kind, None if root is None else root + offset, wall / 1e6,
                 wall / 1e6 * REFERENCE_MS / ref_ms]
                for kind, root, wall, ref_ms in result["ops"]]
        runner.reference_ms += result["reference_ms"]
        if result["reference"] is not None:
            references.append(result["reference"])
    if any(ref != references[0] for ref in references):
        runner.fail("control runs differ between sweep processes")
    record.update(sweep_keys=keys, sweep_box=SWEEP_BOX, sweep_seed=seed,
                  sweep_batch=batch, sweep_segments=SWEEP_SEGMENTS)

    if not trace:
        record["wall_median_ms"] = {
            role: _median([w for kind, _, w, _ in ops if kind == op_kind])
            for role, op_kind in (("op", "run"), ("control", "control"))}
        return _latency_metrics(
            [scaled for kind, _, _, scaled in ops if kind == "run"],
            [scaled for kind, _, _, scaled in ops if kind == "control"],
            record)

    groups = {group[0][0]: group for group in split_by_root(spans)}
    per_run = []
    unaccounted = {"run": [], "control": []}
    for kind, root, _, _ in ops:
        if root is None:
            continue
        # per parameter set: every total over the batch size
        totals = {name: value / batch
                  for name, value in layer_totals(groups[root]).items()}
        root_s = totals[f"sweep.{kind}_s"]
        unaccounted[kind].append(1e3 * (root_s - totals["children_s"]))
        if kind == "run":
            per_run.append(_common_layers(totals))
    layers = {name: _median([r[name] for r in per_run])
              for name in per_run[0]} if per_run else {}
    plain = _median([w for kind, root, _, w in ops
                     if kind == "run" and root is None])
    traced = _median([w for kind, root, _, w in ops
                      if kind == "run" and root is not None])
    layers.update({
        "validation.findings_failed": 0,
        "output.bytes": 0,
        "output.csv_mb_per_s": 0.0,
        "op.unaccounted_ms": _median(unaccounted["run"]),
        "control.unaccounted_ms": _median(unaccounted["control"]),
        "trace.overhead_pct": 100.0 * (traced / plain - 1.0)
        if plain else 0.0,
    })
    record["traced_runs"] = len(per_run)
    record["spans"] = spans
    return layers


# === entry point ===

def _git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as h:
            for line in h:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# the --dt each CLI workload passes; None runs the shipped config's grid
CLI_DT = {"cli_quarterly": None, "cli_fine": FINE_DT}
WORKLOADS = (*CLI_DT, "sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fitsim", "__init__.py")):
        print(f"error: no fitsim sources under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # one CPU for the harness and every child: the virtual CPUs of a shared
    # host change speed independently, and the reference loop must time
    # the CPU that the operations run on
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    runner = Runner()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    probes = SetupProbes(runner)
    if args.workload == "sweep":
        measured = run_sweep(runner, probes, args.seed, args.seconds,
                             bool(args.trace), record)
    else:
        measured = run_cli(runner, probes, CLI_DT[args.workload],
                           args.seconds, bool(args.trace), record)
    setup = probes.summary()
    host_ms = _median(runner.reference_ms)

    if args.trace:
        units = PER_LAYER
        metrics = {**measured, **setup, "host.reference_ms": host_ms}
    else:
        units = END_TO_END
        failed = len(runner.failures)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {**measured, "setup_s": setup["setup_s"],
                   "peak_rss_mb": peak_kb / 1024.0,
                   "ok_ratio": (runner.attempted - failed) / runner.attempted}
    metrics = {name: metrics.get(name, 0.0) for name in units}

    record.update(
        setup_probes=setup["setup_probes"],
        env={"python": setup["python"], "numpy": setup["numpy"],
             "nproc": os.cpu_count(),
             "cpu": cpu,
             "git_sha": _git_sha(),
             "reference_ms": {
                 "median": host_ms, "min": min(runner.reference_ms),
                 "max": max(runner.reference_ms),
                 "samples": len(runner.reference_ms)}},
        attempted=runner.attempted, failed=len(runner.failures),
        failures=runner.failures[:20], metrics=metrics)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    spans = record.pop("spans", None)
    if spans:
        with open(os.path.join(results, f"{args.workload}-spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(spans, handle)
    with open(os.path.join(
            results, f"{args.workload}-trace{args.trace}.json"), "w",
            encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for key, value in record.items():
        if key not in ("metrics", "failures") and value is not None:
            print(f"# {key}: {json.dumps(value)}")
    for failure in runner.failures[:5]:
        print(f"# failure: {failure.splitlines()[-1] if failure else ''}")
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
