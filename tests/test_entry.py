"""The process entry: ``python -m fitsim`` and the ``fitsim`` console script.

Each check runs a fresh interpreter, because the entry acts on the whole
process (the collector, stdout) and ``fitsim.cli.main`` must not.
"""

import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fitsim.__main__
from fitsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(
    (ROOT / "tests" / "golden" / "sha256.json").read_text(encoding="utf-8"))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_fitsim(args):
    return subprocess.run([sys.executable, "-m", "fitsim", *args],
                          env=_env(), capture_output=True, timeout=120)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_compare_through_the_entry_matches_golden_digests(tmp_path):
    out = tmp_path / "cmp"
    done = run_fitsim(["compare", "--out", str(out), "--charts"])
    assert done.returncode == 0, done.stderr
    expected = GOLDEN["compare_charts"]["0.25"]
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(expected["files"])
    combined = b"".join((out / name).read_bytes() for name in names)
    assert _sha256(combined) == expected["combined"]


def test_validate_through_the_entry_matches_its_golden_digest():
    done = run_fitsim(["validate"])
    assert done.returncode == 0, done.stderr
    assert _sha256(done.stdout) == GOLDEN["validate_stdout"]["0.25"]


def test_the_entry_freezes_the_collector():
    code = ("import gc, sys\n"
            "from fitsim.__main__ import entry\n"
            "sys.argv[1:] = ['validate']\n"
            "print(entry(), gc.get_freeze_count() > 0, file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", code], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stderr == "0 True\n"


def test_main_in_process_leaves_the_collector_unfrozen(capsys):
    assert main(["validate"]) == 0
    assert gc.get_freeze_count() == 0


def test_the_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    module_name, _, attr = project["scripts"]["fitsim"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert target is fitsim.__main__.entry


@pytest.mark.parametrize("args", [["run"], ["compare", "--out", "-"],
                                  ["validate"]])
def test_a_closed_stdout_ends_quietly_as_sigpipe(args):
    # the reader is gone before fitsim writes its first byte
    with subprocess.Popen([sys.executable, "-m", "fitsim", *args],
                          env=_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert b"error:" not in err and b"Traceback" not in err, err


def test_a_write_error_under_out_dir_stays_a_usage_error(tmp_path):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    done = run_fitsim(["compare", "--out", str(blocker), "--charts"])
    assert done.returncode == 2
    assert done.stderr.startswith(b"error: ")
