#!/usr/bin/env python3
"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second, untraced and traced,
and checks that the result line names every end-to-end or per-layer metric
with its unit and that no operation failed. It then checks that the harness
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits 0 when all checks hold.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace, proc):
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    if emitted != expected:
        problems.append(f"{label}: emitted metrics and units {emitted}, "
                        f"expected {expected}")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{label}: {name} is not a number: {value!r}")
        elif not trace and not value > 0:
            problems.append(f"{label}: {name} reads {value}")
    return problems


def check_bare_directory():
    """The harness must fail without a fitsim checkout around it."""
    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "cli_quarterly", 0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 or any(line.startswith("{")
                                       for line in lines):
            return [f"bare directory: exit {proc.returncode}, "
                    f"stdout {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            found = check_result(spec, workload, trace, proc)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            problems += found
    found = check_bare_directory()
    print(f"bare directory refused: {'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
